//! The in-memory tuple store.

use sth_platform::rng::{Rng, SliceRandom};
use sth_geometry::Rect;

/// A column-major, fully materialized multidimensional dataset.
///
/// Column-major layout keeps per-dimension scans (the hot path of the
/// clustering and of range counting) cache friendly.
#[derive(Clone, Debug)]
pub struct Dataset {
    name: String,
    domain: Rect,
    cols: Vec<Vec<f64>>,
    len: usize,
}

impl Dataset {
    /// Creates a dataset from column vectors. All columns must have equal
    /// length and values must lie inside `domain`.
    ///
    /// # Panics
    ///
    /// On ragged columns, and on any NaN or infinite value: the index and
    /// the boxes built over a dataset order and bound its values, which
    /// only finite values allow.
    pub fn from_columns(name: impl Into<String>, domain: Rect, cols: Vec<Vec<f64>>) -> Self {
        assert_eq!(cols.len(), domain.ndim(), "column count must match domain dimensionality");
        let len = cols.first().map_or(0, Vec::len);
        for (d, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), len, "column {d} has inconsistent length");
            if let Some(i) = c.iter().position(|v| !v.is_finite()) {
                panic!("column {d}, row {i}: non-finite value {}", c[i]);
            }
        }
        Self { name: name.into(), domain, cols, len }
    }

    /// Dataset name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute-value domain `D`.
    pub fn domain(&self) -> &Rect {
        &self.domain
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the dataset holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of attributes.
    pub fn ndim(&self) -> usize {
        self.cols.len()
    }

    /// Value of attribute `d` for tuple `i`.
    #[inline]
    pub fn value(&self, i: usize, d: usize) -> f64 {
        self.cols[d][i]
    }

    /// Column `d` as a slice.
    pub fn column(&self, d: usize) -> &[f64] {
        &self.cols[d]
    }

    /// Materializes tuple `i` as a row vector.
    pub fn row(&self, i: usize) -> Vec<f64> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Writes tuple `i` into `buf` (must have length `ndim`).
    #[inline]
    pub fn row_into(&self, i: usize, buf: &mut [f64]) {
        debug_assert_eq!(buf.len(), self.ndim());
        for (d, c) in self.cols.iter().enumerate() {
            buf[d] = c[i];
        }
    }

    /// `true` when tuple `i` lies inside `rect` (half-open semantics).
    #[inline]
    pub fn row_in(&self, i: usize, rect: &Rect) -> bool {
        debug_assert_eq!(rect.ndim(), self.ndim());
        for d in 0..self.ndim() {
            let v = self.cols[d][i];
            if v < rect.lo()[d] || v >= rect.hi()[d] {
                return false;
            }
        }
        true
    }

    /// Counts tuples inside `rect` by a full scan. The k-d index in
    /// `sth-index` is the fast path; this is the reference implementation
    /// used for testing and the `ablation_index` bench.
    pub fn count_in_scan(&self, rect: &Rect) -> u64 {
        (0..self.len).filter(|&i| self.row_in(i, rect)).count() as u64
    }

    /// Minimal bounding rectangle of a set of tuples restricted to `dims`;
    /// unrestricted dimensions span the full domain. With `dims` covering all
    /// dimensions this is the plain MBR.
    ///
    /// Returns `None` for an empty id set.
    pub fn bounding_rect(&self, ids: &[u32], dims: &[usize]) -> Option<Rect> {
        if ids.is_empty() {
            return None;
        }
        let mut lo: Vec<f64> = self.domain.lo().to_vec();
        let mut hi: Vec<f64> = self.domain.hi().to_vec();
        for &d in dims {
            let mut mn = f64::INFINITY;
            let mut mx = f64::NEG_INFINITY;
            let col = &self.cols[d];
            for &i in ids {
                let v = col[i as usize];
                mn = mn.min(v);
                mx = mx.max(v);
            }
            lo[d] = mn;
            // Nudge the upper bound so the max point is inside the half-open box.
            hi[d] = mx.next_up().min(self.domain.hi()[d]);
        }
        Some(Rect::from_bounds(&lo, &hi))
    }

    /// Deterministic uniform sample without replacement of at most `k`
    /// tuples, as a new dataset. Used to keep clustering tractable on
    /// million-tuple datasets.
    pub fn sample(&self, k: usize, seed: u64) -> Dataset {
        if k >= self.len {
            return self.clone();
        }
        let mut rng = Rng::seed_from_u64(seed);
        let mut ids: Vec<usize> = (0..self.len).collect();
        ids.shuffle(&mut rng);
        ids.truncate(k);
        let cols: Vec<Vec<f64>> =
            self.cols.iter().map(|c| ids.iter().map(|&i| c[i]).collect()).collect();
        Dataset::from_columns(format!("{}[sample:{k}]", self.name), self.domain.clone(), cols)
    }

    /// Projects the dataset onto a subset of its dimensions.
    pub fn project(&self, dims: &[usize]) -> Dataset {
        assert!(!dims.is_empty(), "projection needs at least one dimension");
        let lo: Vec<f64> = dims.iter().map(|&d| self.domain.lo()[d]).collect();
        let hi: Vec<f64> = dims.iter().map(|&d| self.domain.hi()[d]).collect();
        let cols: Vec<Vec<f64>> = dims.iter().map(|&d| self.cols[d].clone()).collect();
        Dataset::from_columns(
            format!("{}[proj]", self.name),
            Rect::from_bounds(&lo, &hi),
            cols,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::from_columns(
            "tiny",
            Rect::cube(2, 0.0, 10.0),
            vec![vec![1.0, 2.0, 5.0, 9.0], vec![1.0, 3.0, 5.0, 9.0]],
        )
    }

    #[test]
    fn accessors() {
        let ds = tiny();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.ndim(), 2);
        assert_eq!(ds.value(2, 1), 5.0);
        assert_eq!(ds.row(1), vec![2.0, 3.0]);
        let mut buf = [0.0; 2];
        ds.row_into(3, &mut buf);
        assert_eq!(buf, [9.0, 9.0]);
    }

    #[test]
    fn scan_counting() {
        let ds = tiny();
        let r = Rect::from_bounds(&[0.0, 0.0], &[5.0, 5.0]);
        assert_eq!(ds.count_in_scan(&r), 2);
        assert_eq!(ds.count_in_scan(ds.domain()), 4);
        // Half-open: the point (5,5) is excluded from [0,5).
        let r2 = Rect::from_bounds(&[0.0, 0.0], &[5.0 + 1e-9, 5.0 + 1e-9]);
        assert_eq!(ds.count_in_scan(&r2), 3);
    }

    #[test]
    fn bounding_rect_with_subspace_dims() {
        let ds = tiny();
        let br = ds.bounding_rect(&[0, 1, 2], &[0]).unwrap();
        // Dimension 0 is tight, dimension 1 spans the domain.
        assert_eq!(br.lo()[0], 1.0);
        assert!(br.hi()[0] >= 5.0 && br.hi()[0] < 5.001);
        assert_eq!(br.lo()[1], 0.0);
        assert_eq!(br.hi()[1], 10.0);
        // All referenced points are inside.
        for &i in &[0u32, 1, 2] {
            assert!(br.contains_point(&ds.row(i as usize)));
        }
        assert!(ds.bounding_rect(&[], &[0]).is_none());
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let ds = tiny();
        let s1 = ds.sample(2, 42);
        let s2 = ds.sample(2, 42);
        assert_eq!(s1.len(), 2);
        assert_eq!(s1.row(0), s2.row(0));
        assert_eq!(ds.sample(100, 1).len(), 4);
    }

    #[test]
    fn projection() {
        let ds = tiny();
        let p = ds.project(&[1]);
        assert_eq!(p.ndim(), 1);
        assert_eq!(p.column(0), ds.column(1));
        assert_eq!(p.domain().lo()[0], 0.0);
    }

    #[test]
    fn next_up_is_strictly_greater() {
        // The nudged upper edge keeps a maximum of any sign inside the box.
        for x in [0.0, -0.0, 1.0, 999.99, 1e-300, -3.5, -1e-300] {
            let ds = Dataset::from_columns("one", Rect::cube(1, -10.0, 1000.0), vec![vec![x]]);
            let br = ds.bounding_rect(&[0], &[0]).unwrap();
            assert!(br.hi()[0] > x, "upper edge {} not above {x}", br.hi()[0]);
            assert!(br.contains_point(&[x]));
        }
    }

    /// A two-column table whose second column holds `bad` at row 1.
    fn with_bad_value(bad: f64) -> Dataset {
        Dataset::from_columns(
            "bad",
            Rect::cube(2, 0.0, 1.0),
            vec![vec![0.0, 0.5, 0.25], vec![0.0, bad, 0.25]],
        )
    }

    #[test]
    #[should_panic(expected = "column 1, row 1: non-finite value NaN")]
    fn rejects_nan() {
        let _ = with_bad_value(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "column 1, row 1: non-finite value inf")]
    fn rejects_positive_infinity() {
        let _ = with_bad_value(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "column 1, row 1: non-finite value -inf")]
    fn rejects_negative_infinity() {
        let _ = with_bad_value(f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn rejects_ragged_columns() {
        let _ = Dataset::from_columns(
            "bad",
            Rect::cube(2, 0.0, 1.0),
            vec![vec![0.0], vec![0.0, 0.5]],
        );
    }
}
