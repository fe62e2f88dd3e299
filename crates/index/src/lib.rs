//! Exact range-count index used to simulate query feedback.
//!
//! Self-tuning histograms learn from the results of executed queries. In our
//! simulation the "execution engine" is this crate: a bulk-loaded k-d tree
//! whose inner nodes carry subtree tuple counts and bounding boxes, so a
//! range-count query visits only the nodes whose boxes straddle the query
//! border. On the paper's workloads this is orders of magnitude faster than a
//! scan, which keeps the ~20,000-query experiments tractable on a laptop.

#![warn(missing_docs)]

mod kdtree;

pub use kdtree::KdCountTree;

use sth_geometry::Rect;
use sth_platform::obs;

/// Something that can count tuples inside a rectangle, exactly.
///
/// Two implementations matter:
/// * [`KdCountTree`] — fast, over the whole dataset; plays the role of the
///   query execution engine in simulations.
/// * [`sth_data::Dataset::count_in_scan`] via [`ScanCounter`] — the obvious
///   reference implementation, used for testing and the `ablation_index`
///   bench.
pub trait RangeCounter {
    /// Exact number of tuples inside `rect` (half-open semantics).
    fn count(&self, rect: &Rect) -> u64;

    /// Total number of tuples.
    fn total(&self) -> u64;

    /// Executes `rect` and writes its result stream into `out`, replacing
    /// what `out` held: the rows, row-major, and the zone map that
    /// [`ResultSetCounter`]'s `count` skips blocks by. Returns `false` when
    /// this counter cannot materialize rows (a count-only counter).
    ///
    /// Callers go through [`ResultSetCounter::refill_from_counter`] and
    /// answer all sub-rectangle counts of one query from its own result —
    /// which is both faster (one index probe per query instead of one per
    /// candidate hole) and exactly what a deployed system observes.
    fn fill_result(&self, _rect: &Rect, _out: &mut ResultSetCounter) -> bool {
        false
    }
}

/// Reference [`RangeCounter`] that scans the dataset for every query.
pub struct ScanCounter<'a> {
    data: &'a sth_data::Dataset,
}

impl<'a> ScanCounter<'a> {
    /// Wraps a dataset.
    pub fn new(data: &'a sth_data::Dataset) -> Self {
        Self { data }
    }
}

impl RangeCounter for ScanCounter<'_> {
    fn count(&self, rect: &Rect) -> u64 {
        obs::incr(obs::Counter::IndexProbes);
        self.data.count_in_scan(rect)
    }

    fn total(&self) -> u64 {
        self.data.len() as u64
    }

    fn fill_result(&self, rect: &Rect, out: &mut ResultSetCounter) -> bool {
        out.fill_by_scan(self.data, rect);
        obs::incr(obs::Counter::IndexProbes);
        obs::note_rows_materialized(out.len());
        true
    }
}

/// A [`RangeCounter`] over an explicit point set — typically the *result
/// stream of one executed query*.
///
/// This is the faithful model of query feedback: during refinement STHoles
/// may only inspect tuples returned by the current query, and every candidate
/// hole is a sub-rectangle of that query, so counting over the result set
/// gives exactly the numbers a real system would observe.
///
/// **Zone map.** The rows come in *blocks*, each with a half-open box that
/// holds every row of the block. `count` skips a block whose box misses the
/// rectangle, takes a block whose box lies inside it whole, and scans only
/// the rows of the blocks it cuts — the same integers as a plain scan. A
/// [`KdCountTree`] probe emits one block per contributing leaf, boxed by
/// `leaf box ∩ query`; rows with no index behind them ([`Self::new`],
/// [`Self::from_flat`], [`Self::from_query`], [`ScanCounter`]) form one
/// unbounded block, which `count` always scans.
pub struct ResultSetCounter {
    /// Row-major values; `rows.len()` is a multiple of `ndim`.
    rows: Vec<f64>,
    ndim: usize,
    /// Block `b` holds rows `ends[b - 1]..ends[b]` (from row 0 for the
    /// first block); the last block ends at the last row.
    ends: Vec<usize>,
    /// Per block, its packed half-open box (`ndim` lower bounds, then
    /// `ndim` upper bounds), holding every row of the block.
    boxes: Vec<f64>,
}

impl ResultSetCounter {
    /// Builds the counter from materialized result rows.
    pub fn new(points: Vec<Vec<f64>>) -> Self {
        let ndim = points.first().map_or(1, Vec::len);
        let mut out = Self::empty(ndim);
        out.rows.reserve(points.len() * ndim);
        for p in &points {
            assert_eq!(p.len(), ndim, "ragged result rows");
            out.rows.extend_from_slice(p);
        }
        out.close_unbounded_block();
        out
    }

    /// Builds the counter from flat row-major values.
    pub fn from_flat(rows: Vec<f64>, ndim: usize) -> Self {
        assert!(ndim > 0 && rows.len().is_multiple_of(ndim), "row buffer not a multiple of ndim");
        let mut out = Self { rows, ndim, ends: Vec::new(), boxes: Vec::new() };
        out.close_unbounded_block();
        out
    }

    /// Executes `query` against `counter` and wraps its result stream, or
    /// `None` when the counter cannot materialize rows.
    pub fn from_counter(counter: &dyn RangeCounter, query: &Rect) -> Option<Self> {
        let mut out = Self::empty(query.ndim());
        out.refill_from_counter(counter, query).then_some(out)
    }

    /// Creates an empty counter whose row buffer can be refilled per query
    /// via [`ResultSetCounter::refill_from_counter`], reusing the
    /// allocation across queries.
    pub fn empty(ndim: usize) -> Self {
        assert!(ndim > 0, "ndim must be positive");
        Self { rows: Vec::new(), ndim, ends: Vec::new(), boxes: Vec::new() }
    }

    /// Re-executes this counter against a new query, reusing the existing
    /// buffers. Returns `false` (leaving the counter empty) when the
    /// underlying counter cannot materialize rows.
    pub fn refill_from_counter(&mut self, counter: &dyn RangeCounter, query: &Rect) -> bool {
        if counter.fill_result(query, self) {
            debug_assert_eq!(self.ends.last().copied().unwrap_or(0), self.len());
            true
        } else {
            self.reset(self.ndim);
            false
        }
    }

    /// Collects the result stream of `query` from a dataset (what the
    /// execution engine would hand back).
    pub fn from_query(data: &sth_data::Dataset, query: &Rect) -> Self {
        let mut out = Self::empty(data.ndim());
        out.fill_by_scan(data, query);
        out
    }

    /// Number of tuples in the result.
    pub fn len(&self) -> usize {
        self.rows.len() / self.ndim
    }

    /// `true` when the result stream is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Flat row-major view of the materialized result stream and its
    /// dimensionality. This is the exact byte-for-byte payload a durable
    /// query-feedback log must capture: refinement probes arbitrary
    /// sub-rectangles of the query against these rows, so replaying from
    /// anything lossier (e.g. just the total count) would diverge.
    pub fn flat_rows(&self) -> (&[f64], usize) {
        (&self.rows, self.ndim)
    }

    /// Drops every row and block and sets the dimensionality, keeping the
    /// allocations.
    fn reset(&mut self, ndim: usize) {
        assert!(ndim > 0, "ndim must be positive");
        self.rows.clear();
        self.ends.clear();
        self.boxes.clear();
        self.ndim = ndim;
    }

    /// Replaces the contents by the rows of `data` inside `query`, in
    /// dataset order, as one unbounded block.
    fn fill_by_scan(&mut self, data: &sth_data::Dataset, query: &Rect) {
        self.reset(data.ndim());
        for i in 0..data.len() {
            if data.row_in(i, query) {
                for k in 0..self.ndim {
                    self.rows.push(data.value(i, k));
                }
            }
        }
        self.close_unbounded_block();
    }

    /// Ends a block at the last row pushed, with the packed box given by
    /// its lower and upper bounds. The caller pushed at least one row since
    /// the previous block, and the box holds every one of them.
    #[inline]
    fn close_block(
        &mut self,
        lo: impl IntoIterator<Item = f64>,
        hi: impl IntoIterator<Item = f64>,
    ) {
        let start = self.ends.last().copied().unwrap_or(0);
        let end = self.len();
        debug_assert!(end > start, "a block holds at least one row");
        self.ends.push(end);
        let at = self.boxes.len();
        self.boxes.extend(lo);
        self.boxes.extend(hi);
        debug_assert_eq!(self.boxes.len() - at, 2 * self.ndim, "box arity");
        debug_assert!(
            self.rows[start * self.ndim..].chunks_exact(self.ndim).all(|row| {
                let (lo, hi) = self.boxes[at..].split_at(self.ndim);
                (0..self.ndim).all(|k| lo[k] <= row[k] && row[k] < hi[k])
            }),
            "a block's box must hold its rows"
        );
    }

    /// Puts the rows after the last block into one unbounded block, which
    /// `count` always scans.
    fn close_unbounded_block(&mut self) {
        if self.ends.last().copied().unwrap_or(0) < self.len() {
            let d = self.ndim;
            self.close_block(
                std::iter::repeat_n(f64::NEG_INFINITY, d),
                std::iter::repeat_n(f64::INFINITY, d),
            );
        }
    }
}

impl RangeCounter for ResultSetCounter {
    fn count(&self, rect: &Rect) -> u64 {
        // An empty result set is dimension-agnostic: `new(vec![])` and
        // friends cannot know the query's ndim (they default to 1), and
        // every count over no rows is 0 regardless of dimensionality — so
        // answer before the dimension check.
        if self.rows.is_empty() {
            return 0;
        }
        obs::incr(obs::Counter::ResultRecounts);
        debug_assert_eq!(rect.ndim(), self.ndim);
        let d = self.ndim;
        let lo = rect.lo();
        let hi = rect.hi();
        let mut hits = 0u64;
        // Accumulated locally and flushed once, like the kd walk's node
        // count: this loop is the recount hot path.
        let mut scanned = 0usize;
        let mut start = 0usize;
        'blocks: for (&end, bx) in self.ends.iter().zip(self.boxes.chunks_exact(2 * d)) {
            let (blo, bhi) = bx.split_at(d);
            let block_start = start;
            start = end;
            // Exact because the box holds every row of the block: a box
            // that misses `rect` holds no row inside it, and a box inside
            // `rect` holds only rows inside it.
            let mut inside = true;
            for k in 0..d {
                if bhi[k] <= lo[k] || blo[k] >= hi[k] {
                    continue 'blocks;
                }
                inside &= lo[k] <= blo[k] && bhi[k] <= hi[k];
            }
            if inside {
                hits += (end - block_start) as u64;
                continue;
            }
            scanned += end - block_start;
            'rows: for row in self.rows[block_start * d..end * d].chunks_exact(d) {
                for k in 0..d {
                    let v = row[k];
                    if v < lo[k] || v >= hi[k] {
                        continue 'rows;
                    }
                }
                hits += 1;
            }
        }
        obs::add(obs::Counter::ResultRowsScanned, scanned as u64);
        hits
    }

    fn total(&self) -> u64 {
        self.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use sth_data::cross::CrossSpec;
    use sth_data::Dataset;
    use sth_platform::check::prelude::*;
    use sth_platform::rng::Rng;

    #[test]
    fn scan_counter_totals() {
        let ds = CrossSpec::cross2d().scaled(0.01).generate();
        let c = ScanCounter::new(&ds);
        assert_eq!(c.total(), ds.len() as u64);
        assert_eq!(c.count(ds.domain()), ds.len() as u64);
    }

    #[test]
    fn result_set_counter_matches_scan_within_query() {
        let ds = CrossSpec::cross2d().scaled(0.02).generate();
        let q = sth_geometry::Rect::from_bounds(&[200.0, 200.0], &[700.0, 700.0]);
        let rs = ResultSetCounter::from_query(&ds, &q);
        assert_eq!(rs.count(&q), ds.count_in_scan(&q));
        // Sub-rectangles of the query agree too.
        let sub = sth_geometry::Rect::from_bounds(&[300.0, 250.0], &[500.0, 600.0]);
        assert_eq!(rs.count(&sub), ds.count_in_scan(&sub));
    }

    #[test]
    fn refill_reuses_buffer_and_matches_from_counter() {
        let ds = CrossSpec::cross2d().scaled(0.02).generate();
        let scan = ScanCounter::new(&ds);
        let tree = KdCountTree::build(&ds);
        let queries = [
            sth_geometry::Rect::from_bounds(&[200.0, 200.0], &[700.0, 700.0]),
            sth_geometry::Rect::from_bounds(&[0.0, 0.0], &[100.0, 100.0]),
            sth_geometry::Rect::from_bounds(&[300.0, 250.0], &[500.0, 600.0]),
        ];
        let mut reused = ResultSetCounter::empty(ds.ndim());
        for q in &queries {
            for counter in [&scan as &dyn RangeCounter, &tree] {
                assert!(reused.refill_from_counter(counter, q));
                let fresh = ResultSetCounter::from_counter(counter, q).unwrap();
                assert_eq!(reused.len(), fresh.len());
                assert_eq!(reused.count(q), ds.count_in_scan(q));
            }
        }
    }

    /// A counter that cannot materialize rows (default trait impls only).
    struct CountOnly;
    impl RangeCounter for CountOnly {
        fn count(&self, _rect: &Rect) -> u64 {
            0
        }
        fn total(&self) -> u64 {
            0
        }
    }

    #[test]
    fn empty_result_set_counts_any_dimensionality() {
        // Regression: `new(vec![])` defaults ndim to 1 and used to trip the
        // dimension debug-assert on ≥2-d queries; empty counters must be
        // dimension-agnostic.
        let q3 = sth_geometry::Rect::cube(3, 0.0, 10.0);
        for empty in [
            ResultSetCounter::new(vec![]),
            ResultSetCounter::from_flat(vec![], 1),
            ResultSetCounter::empty(1),
        ] {
            assert_eq!(empty.count(&q3), 0);
            assert_eq!(empty.count(&sth_geometry::Rect::cube(7, -1.0, 1.0)), 0);
            assert_eq!(empty.total(), 0);
            assert!(empty.is_empty());
        }
        // Refilling from a query that matches nothing must stay safe too.
        let ds = CrossSpec::cross2d().scaled(0.01).generate();
        let mut reused = ResultSetCounter::empty(ds.ndim());
        let miss = sth_geometry::Rect::from_bounds(&[2000.0, 2000.0], &[3000.0, 3000.0]);
        assert!(reused.refill_from_counter(&ScanCounter::new(&ds), &miss));
        assert_eq!(reused.count(&sth_geometry::Rect::cube(5, 0.0, 1.0)), 0);
    }

    #[test]
    fn refill_from_rowless_counter_empties_and_reports_false() {
        let ds = CrossSpec::cross2d().scaled(0.02).generate();
        let q = sth_geometry::Rect::from_bounds(&[200.0, 200.0], &[700.0, 700.0]);
        let mut reused = ResultSetCounter::empty(ds.ndim());
        assert!(reused.refill_from_counter(&ScanCounter::new(&ds), &q));
        assert!(!reused.is_empty());
        assert!(!reused.refill_from_counter(&CountOnly, &q));
        assert!(reused.is_empty());
    }

    /// A grid value in `[-3, 3]` on steps of 0.5: coarse, so that rectangle
    /// edges land exactly on row values.
    fn grid_value(rng: &mut Rng) -> f64 {
        f64::from(rng.gen_range(-6i32..=6)) * 0.5
    }

    /// A rectangle with grid edges, non-empty in every dimension.
    fn grid_rect(ndim: usize, rng: &mut Rng) -> Rect {
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for _ in 0..ndim {
            let a = rng.gen_range(-7i32..=6);
            let b = rng.gen_range(a + 1..=7);
            lo.push(f64::from(a) * 0.5);
            hi.push(f64::from(b) * 0.5);
        }
        Rect::from_bounds(&lo, &hi)
    }

    fn plain_scan(rows: &[f64], ndim: usize, rect: &Rect) -> u64 {
        rows.chunks_exact(ndim).filter(|row| rect.contains_point(row)).count() as u64
    }

    /// `n` random grid rows, blocked per `layout`: 0 random-length blocks
    /// with widened tight boxes (the last one sometimes unbounded), 1
    /// single-row blocks, 2 one unbounded block (`from_flat`), 3 as 0 but
    /// half of the blocks drawn inside one of `rects` and boxed by exactly
    /// it.
    fn zone_mapped(
        ndim: usize,
        n: usize,
        layout: u8,
        rects: &[Rect],
        rng: &mut Rng,
    ) -> ResultSetCounter {
        if layout == 2 {
            let rows = (0..n * ndim).map(|_| grid_value(rng)).collect();
            return ResultSetCounter::from_flat(rows, ndim);
        }
        let mut rs = ResultSetCounter::empty(ndim);
        let mut left = n;
        while left > 0 {
            let len = if layout == 1 { 1 } else { rng.gen_range(1..=left.min(20)) };
            left -= len;
            if layout == 3 && rng.gen_bool(0.5) {
                let r = &rects[rng.gen_range(0..rects.len())];
                for _ in 0..len {
                    for k in 0..ndim {
                        let steps = ((r.hi()[k] - r.lo()[k]) / 0.5) as u32;
                        rs.rows.push(r.lo()[k] + f64::from(rng.gen_range(0..steps)) * 0.5);
                    }
                }
                rs.close_block(r.lo().iter().copied(), r.hi().iter().copied());
                continue;
            }
            let start = rs.rows.len();
            rs.rows.extend((0..len * ndim).map(|_| grid_value(rng)));
            if left == 0 && layout == 0 && rng.gen_bool(0.3) {
                rs.close_unbounded_block();
                break;
            }
            let block = &rs.rows[start..];
            let (mut lo, mut hi) = (vec![f64::INFINITY; ndim], vec![f64::NEG_INFINITY; ndim]);
            for row in block.chunks_exact(ndim) {
                for k in 0..ndim {
                    lo[k] = lo[k].min(row[k]);
                    hi[k] = hi[k].max(row[k]);
                }
            }
            let widen = f64::from(rng.gen_range(0u8..=2)) * 0.5;
            rs.close_block(
                lo.into_iter().map(|v| v - widen),
                hi.into_iter().map(|v| v.next_up() + widen),
            );
        }
        rs
    }

    /// A random query over `ds` whose edges are data values half the time,
    /// and a random sub-rectangle of a query.
    fn query_edges(ds: &Dataset, bounds: &Rect, min_frac: f64, rng: &mut Rng) -> Rect {
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for k in 0..ds.ndim() {
            let (blo, bhi) = (bounds.lo()[k], bounds.hi()[k]);
            let w = (bhi - blo) * rng.gen_range(min_frac..1.0);
            let mut a = blo + rng.gen_range(0.0..1.0) * (bhi - blo - w);
            if rng.gen_bool(0.5) {
                a = ds.value(rng.gen_range(0..ds.len()), k).clamp(blo, bhi);
            }
            let mut b = (a + w).min(bhi);
            if rng.gen_bool(0.5) {
                b = ds.value(rng.gen_range(0..ds.len()), k).clamp(a, bhi);
            }
            lo.push(a);
            hi.push(b);
        }
        Rect::from_bounds(&lo, &hi)
    }

    /// The kd/scan fixture, each table with its index: Sky ×0.01; a 3-d
    /// table with negative coordinates (a grid column in [-10, -5], a
    /// constant -5 column and a column in [-1, 0] holding both zeros); a
    /// 1-d table; a 9-d table; and a 4-d table of 40 distinct rows repeated
    /// past the leaf size, built from ±0, ±1 and ±0.5.
    fn tables() -> &'static [(Dataset, KdCountTree)] {
        static TABLES: OnceLock<Vec<(Dataset, KdCountTree)>> = OnceLock::new();
        TABLES.get_or_init(|| {
            let sky = sth_data::sky::SkySpec::scaled(0.01).generate();
            let mut rng = Rng::seed_from_u64(0x2E6);
            let n = 3_000;
            let x = (0..n).map(|_| f64::from(rng.gen_range(-10i32..=-5))).collect();
            let z = (0..n)
                .map(|i| match i % 7 {
                    0 => -0.0,
                    1 => 0.0,
                    _ => -rng.gen_range(0.0f64..1.0),
                })
                .collect();
            let neg = Dataset::from_columns(
                "negative",
                Rect::from_bounds(&[-10.0, -5.0, -1.0], &[-4.0, -4.0, 1.0]),
                vec![x, vec![-5.0; n], z],
            );
            // Quarter steps, so that query edges land on row values.
            let line = (0..n).map(|_| f64::from(rng.gen_range(0u32..400)) * 0.25).collect();
            let line = Dataset::from_columns("line", Rect::cube(1, 0.0, 100.0), vec![line]);
            let wide = (0..9)
                .map(|k| {
                    (0..n)
                        .map(|_| match k % 3 {
                            0 => grid_value(&mut rng),
                            1 => rng.gen_range(-3.0f64..3.0),
                            _ => f64::from(rng.gen_range(0i32..=1)),
                        })
                        .collect()
                })
                .collect();
            let wide = Dataset::from_columns("wide", Rect::cube(9, -3.0, 3.5), wide);
            let pool = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0];
            let distinct: Vec<Vec<f64>> = (0..40)
                .map(|_| (0..4).map(|_| pool[rng.gen_range(0..pool.len())]).collect())
                .collect();
            let picks: Vec<usize> = (0..n).map(|_| rng.gen_range(0..distinct.len())).collect();
            let dups = (0..4).map(|k| picks.iter().map(|&r| distinct[r][k]).collect()).collect();
            let dups = Dataset::from_columns("dups", Rect::cube(4, -1.0, 1.5), dups);
            [sky, neg, line, wide, dups]
                .into_iter()
                .map(|ds| {
                    let kd = KdCountTree::build(&ds);
                    (ds, kd)
                })
                .collect()
        })
    }

    /// A query over table `ds` of one shape: 0 from `query_edges`; 1 the
    /// same with about half of the dimensions covering the whole domain
    /// (so some leaves have no cut dimension and others have all of them
    /// cut); 2 zero width in one dimension; 3 reaching past the domain on
    /// about two sides in three. Only shape 2 has a zero-width dimension.
    fn shaped_query(ds: &Dataset, shape: u8, rng: &mut Rng) -> Rect {
        let q = query_edges(ds, ds.domain(), 0.5, rng);
        let (mut lo, mut hi) = (q.lo().to_vec(), q.hi().to_vec());
        let dom = ds.domain();
        for k in 0..ds.ndim() {
            let w = dom.extent(k);
            match shape {
                1 if rng.gen_bool(0.5) => (lo[k], hi[k]) = (dom.lo()[k], dom.hi()[k]),
                3 => {
                    if rng.gen_bool(0.67) {
                        lo[k] = dom.lo()[k] - rng.gen_range(0.0..1.0) * w;
                    }
                    if rng.gen_bool(0.67) {
                        hi[k] = dom.hi()[k] + rng.gen_range(0.0..1.0) * w;
                    }
                }
                _ => {}
            }
        }
        if shape == 2 {
            let k = rng.gen_range(0..ds.ndim());
            hi[k] = lo[k];
        } else {
            // `query_edges` often collapses a dimension onto a data value;
            // open it up to the domain's top, or wide tables would see
            // little but empty queries.
            for k in 0..ds.ndim() {
                if hi[k] <= lo[k] {
                    hi[k] = dom.hi()[k];
                }
            }
        }
        Rect::from_bounds(&lo, &hi)
    }

    /// The rows of a result stream as bit patterns, sorted: equal for two
    /// streams exactly when they hold the same rows as multisets.
    fn row_multiset(rs: &ResultSetCounter) -> Vec<Vec<u64>> {
        let (rows, d) = rs.flat_rows();
        let mut bits: Vec<Vec<u64>> =
            rows.chunks_exact(d).map(|r| r.iter().map(|v| v.to_bits()).collect()).collect();
        bits.sort_unstable();
        bits
    }

    check! {
        cases = 96;

        /// A zone-mapped count equals the plain scan over the same rows,
        /// for every block layout: random partitions with boxes that hold
        /// their rows, single-row blocks, blocks boxed by exactly a counted
        /// rectangle, the single unbounded block, and no rows at all.
        fn zone_mapped_count_equals_plain_scan(
            ndim in 1usize..9,
            n in 0usize..160,
            layout in 0u8..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let rects: Vec<Rect> = (0..24).map(|_| grid_rect(ndim, &mut rng)).collect();
            let rs = zone_mapped(ndim, n, layout, &rects, &mut rng);
            prop_assert_eq!(rs.len(), n);
            let (rows, _) = rs.flat_rows();
            for r in &rects {
                prop_assert_eq!(rs.count(r), plain_scan(rows, ndim, r), "on {}", r);
            }
        }
    }

    check! {
        cases = 64;

        /// The kd index counts a query and hands over its rows exactly as
        /// a scan of the table does, and both result streams answer random
        /// sub-rectangles of their query like the table: on Sky, negative
        /// coordinates, one and nine dimensions, and duplicate rows with
        /// both zeros, for queries that cover some dimensions entirely,
        /// have zero width or reach past the domain.
        fn kd_and_scan_streams_count_like_the_table(
            table in 0usize..5,
            shape in 0u8..4,
            seed in 0u64..u64::MAX,
        ) {
            let (ds, kd) = &tables()[table];
            let mut rng = Rng::seed_from_u64(seed);
            let q = shaped_query(ds, shape, &mut rng);
            let want = ds.count_in_scan(&q);
            prop_assert_eq!(kd.count(&q), want, "kd count on {}", q);
            if shape == 2 {
                prop_assert_eq!(want, 0);
            }
            let mut via_kd = ResultSetCounter::empty(1);
            let mut via_scan = ResultSetCounter::empty(1);
            prop_assert!(via_kd.refill_from_counter(kd, &q));
            prop_assert!(via_scan.refill_from_counter(&ScanCounter::new(ds), &q));
            prop_assert_eq!(via_kd.len() as u64, want);
            prop_assert!(row_multiset(&via_kd) == row_multiset(&via_scan), "rows of {}", q);
            for _ in 0..12 {
                let sub = query_edges(ds, &q, 0.0, &mut rng);
                let want = ds.count_in_scan(&sub);
                prop_assert_eq!(via_kd.count(&sub), want, "kd stream on {}", sub);
                prop_assert_eq!(via_scan.count(&sub), want, "scan stream on {}", sub);
            }
        }
    }

    #[test]
    fn kd_result_stream_is_pinned() {
        // The delta log records the rows `fill_result` hands over, in its
        // order (leaves right child first, rows in leaf order), and the
        // zone map splits them at leaf ends: a change to the tree's layout
        // must keep every bit of both, and every count.
        let (ds, kd) = &tables()[0];
        let mut rng = Rng::seed_from_u64(0x5EED_0D3E);
        let mut rs = ResultSetCounter::empty(1);
        let mut bytes = Vec::new();
        for _ in 0..64 {
            let q = query_edges(ds, ds.domain(), 0.5, &mut rng);
            assert!(rs.refill_from_counter(kd, &q));
            bytes.extend(kd.count(&q).to_le_bytes());
            bytes.extend(rs.rows.iter().flat_map(|v| v.to_bits().to_le_bytes()));
            bytes.extend(rs.ends.iter().flat_map(|&e| (e as u64).to_le_bytes()));
        }
        assert_eq!(sth_platform::codec::fnv1a(&bytes), 0x7c83_bd76_cf2f_fa19);
    }

    #[test]
    fn recount_skips_blocks_that_touch_only_an_open_edge() {
        // Two blocks that share the face x = 1: counting either side's
        // rectangle takes one block whole and skips the other without
        // testing a row, because a half-open box that ends where the
        // rectangle starts (or starts where it ends) holds no row inside it.
        obs::force_metrics(true);
        let mut rs = ResultSetCounter::empty(2);
        rs.rows.extend_from_slice(&[0.0, 0.0, 0.5, 0.5]);
        rs.close_block([0.0, 0.0], [1.0, 1.0]);
        rs.rows.extend_from_slice(&[1.0, 0.0, 1.5, 0.5]);
        rs.close_block([1.0, 0.0], [2.0, 1.0]);
        for (rect, want) in [
            (Rect::from_bounds(&[0.0, 0.0], &[1.0, 1.0]), 2),
            (Rect::from_bounds(&[1.0, 0.0], &[2.0, 1.0]), 2),
            (Rect::from_bounds(&[0.0, 0.0], &[2.0, 1.0]), 4),
        ] {
            let before = obs::snapshot();
            assert_eq!(rs.count(&rect), want, "on {rect}");
            let scanned = obs::snapshot().delta(&before).get(obs::Counter::ResultRowsScanned);
            assert_eq!(scanned, 0, "rows tested one by one on {rect}");
        }
        // A rectangle that cuts both blocks tests every row.
        let before = obs::snapshot();
        assert_eq!(rs.count(&Rect::from_bounds(&[0.25, 0.0], &[1.25, 1.0])), 2);
        assert_eq!(obs::snapshot().delta(&before).get(obs::Counter::ResultRowsScanned), 4);
    }
}
