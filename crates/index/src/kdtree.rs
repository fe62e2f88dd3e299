//! Bulk-loaded k-d tree with subtree counts.
//!
//! Layout notes: nodes live in one flat arena, their boxes in one flat
//! array of `2·d` floats per node, and leaf rows in one buffer, leaf after
//! leaf, each leaf column-major. Range counting over large boxes (the
//! common case for the paper's 1–2%-volume queries in 7 dimensions, whose
//! side length is >50% of the domain) visits many boundary leaves, so the
//! leaf scan is the hot loop: it tests only the dimensions the query cuts
//! through the leaf's box, one column at a time with no branch per value,
//! and allocates nothing.

use sth_geometry::Rect;
use sth_platform::obs;

use crate::{RangeCounter, ResultSetCounter};

/// Leaf capacity. Large enough that the tree stays shallow, small enough
/// that boundary-leaf scans stay cheap.
const LEAF_SIZE: usize = 64;

#[derive(Clone, Copy)]
enum Node {
    Inner {
        /// Tuples below this node.
        count: u64,
        /// Child node indices.
        left: u32,
        right: u32,
    },
    Leaf {
        /// Range of rows in the leaf buffer.
        start: u32,
        end: u32,
    },
}

/// A static k-d tree answering exact range-count queries.
///
/// Built once over a dataset with median splits on the widest dimension;
/// count queries prune on each node's bounding box: fully-contained
/// subtrees contribute their cached count without descending.
///
/// ```
/// use sth_data::gauss::GaussSpec;
/// use sth_geometry::Rect;
/// use sth_index::{KdCountTree, RangeCounter};
///
/// let data = GaussSpec::paper().scaled(0.01).generate();
/// let index = KdCountTree::build(&data);
/// let q = Rect::cube(6, 100.0, 600.0);
/// assert_eq!(index.count(&q), data.count_in_scan(&q));
/// assert_eq!(index.total(), data.len() as u64);
/// ```
pub struct KdCountTree {
    /// Pre-order: the root is node 0.
    nodes: Vec<Node>,
    /// Per node, its half-open bounding box: `ndim` lower bounds, then
    /// `ndim` upper bounds.
    boxes: Vec<f64>,
    /// Leaf rows, leaf after leaf, each leaf column-major: column `k` of a
    /// leaf of `n` rows starting at row `s` is `leaves[s·d + k·n..][..n]`.
    leaves: Vec<f64>,
    ndim: usize,
    total: u64,
}

impl KdCountTree {
    /// Builds the index over all tuples of `data`.
    pub fn build(data: &sth_data::Dataset) -> Self {
        let n = data.len();
        let ndim = data.ndim();
        let mut tree = Self {
            nodes: Vec::new(),
            boxes: Vec::new(),
            leaves: Vec::with_capacity(n * ndim),
            ndim,
            total: n as u64,
        };
        if n > 0 {
            let mut ids: Vec<u32> = (0..n as u32).collect();
            tree.build_node(data, &mut ids);
        }
        tree
    }

    /// Dataset dimensionality.
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    fn build_node(&mut self, data: &sth_data::Dataset, ids: &mut [u32]) -> u32 {
        let id = self.nodes.len() as u32;
        let d = self.ndim;
        let at = self.boxes.len();
        push_bbox(data, ids, &mut self.boxes);
        if ids.len() <= LEAF_SIZE {
            let start = (self.leaves.len() / d) as u32;
            for k in 0..d {
                let col = data.column(k);
                self.leaves.extend(ids.iter().map(|&i| col[i as usize]));
            }
            self.nodes.push(Node::Leaf { start, end: start + ids.len() as u32 });
            return id;
        }
        // Split on the widest dimension of the box at the median point.
        let (lo, hi) = self.boxes[at..].split_at(d);
        let split_dim = (0..d)
            .max_by(|&a, &b| (hi[a] - lo[a]).partial_cmp(&(hi[b] - lo[b])).expect("finite box"))
            .expect("at least one dimension");
        let col = data.column(split_dim);
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            col[a as usize].partial_cmp(&col[b as usize]).expect("finite values")
        });
        let count = ids.len() as u64;
        // A placeholder until the children have their ids.
        self.nodes.push(Node::Leaf { start: 0, end: 0 });
        let (left_ids, right_ids) = ids.split_at_mut(mid);
        let left = self.build_node(data, left_ids);
        let right = self.build_node(data, right_ids);
        self.nodes[id as usize] = Node::Inner { count, left, right };
        id
    }

    /// Node `id`'s packed box.
    #[inline]
    fn node_box(&self, id: u32) -> &[f64] {
        let d = self.ndim;
        &self.boxes[id as usize * 2 * d..][..2 * d]
    }

    /// Refuses a query of another dimensionality: a narrower one would
    /// leave dimensions unbounded and a wider one would lose bounds.
    #[inline]
    fn assert_ndim(&self, rect: &Rect) {
        assert!(
            rect.ndim() == self.ndim,
            "a {}-d query on a {}-d kd tree",
            rect.ndim(),
            self.ndim
        );
    }

    /// Sets `keep[i]` to 1 when row `i` of leaf `start..end` lies in
    /// `rect` and to 0 otherwise, and returns how many rows lie in it.
    /// Only the dimensions in which `rect` cuts the leaf's packed box `bx`
    /// are read: the box holds every row, so where `lo ≤ box lo` and
    /// `box hi ≤ hi` every row passes.
    #[inline]
    fn mark_leaf(
        &self,
        (start, end): (u32, u32),
        bx: &[f64],
        rect: &Rect,
        keep: &mut [u64; LEAF_SIZE],
    ) -> u64 {
        let n = (end - start) as usize;
        let (blo, bhi) = bx.split_at(self.ndim);
        let keep = &mut keep[..n];
        keep.fill(1);
        let leaf = &self.leaves[start as usize * self.ndim..end as usize * self.ndim];
        for (k, col) in leaf.chunks_exact(n).enumerate() {
            let (lo, hi) = (rect.lo()[k], rect.hi()[k]);
            if lo <= blo[k] && bhi[k] <= hi {
                continue;
            }
            for (m, &v) in keep.iter_mut().zip(col) {
                *m &= u64::from((lo <= v) & (v < hi));
            }
        }
        keep.iter().sum()
    }
}

impl RangeCounter for KdCountTree {
    fn count(&self, rect: &Rect) -> u64 {
        self.assert_ndim(rect);
        obs::incr(obs::Counter::IndexProbes);
        if self.total == 0 {
            return 0;
        }
        let mut hits = 0u64;
        // Accumulated locally (one register add per node) and flushed once:
        // the traversal loop is the probe hot path.
        let mut visited = 0u64;
        let mut keep = [0; LEAF_SIZE];
        let mut stack = NodeStack::new(0);
        while let Some(id) = stack.pop() {
            visited += 1;
            let bx = self.node_box(id);
            if !rect.intersects_packed(bx) {
                continue;
            }
            match self.nodes[id as usize] {
                Node::Inner { count, .. } if rect.contains_packed(bx) => hits += count,
                Node::Inner { left, right, .. } => {
                    stack.push(left);
                    stack.push(right);
                }
                Node::Leaf { start, end } => {
                    hits += self.mark_leaf((start, end), bx, rect, &mut keep);
                }
            }
        }
        obs::add(obs::Counter::KdNodesVisited, visited);
        hits
    }

    fn total(&self) -> u64 {
        self.total
    }

    /// One depth-first walk, right child first (the row order the delta
    /// log has always recorded). Each leaf that contributes a row becomes
    /// one block of the result: its rows inside the query, row-major, in
    /// leaf order, boxed by `leaf box ∩ query`. Both boxes are at hand, so
    /// the zone map costs no pass over the rows.
    fn fill_result(&self, rect: &Rect, out: &mut ResultSetCounter) -> bool {
        self.assert_ndim(rect);
        obs::incr(obs::Counter::IndexProbes);
        let d = self.ndim;
        out.reset(d);
        if self.total == 0 {
            return true;
        }
        let mut keep = [0; LEAF_SIZE];
        let mut stack = NodeStack::new(0);
        while let Some(id) = stack.pop() {
            let bx = self.node_box(id);
            if !rect.intersects_packed(bx) {
                continue;
            }
            match self.nodes[id as usize] {
                Node::Inner { left, right, .. } => {
                    stack.push(left);
                    stack.push(right);
                }
                Node::Leaf { start, end } => {
                    if self.mark_leaf((start, end), bx, rect, &mut keep) == 0 {
                        continue;
                    }
                    let n = (end - start) as usize;
                    let leaf = &self.leaves[start as usize * d..end as usize * d];
                    for i in (0..n).filter(|&i| keep[i] == 1) {
                        out.rows.extend(leaf[i..].iter().step_by(n));
                    }
                    let (blo, bhi) = bx.split_at(d);
                    out.close_block(
                        blo.iter().zip(rect.lo()).map(|(a, b)| a.max(*b)),
                        bhi.iter().zip(rect.hi()).map(|(a, b)| a.min(*b)),
                    );
                }
            }
        }
        obs::note_rows_materialized(out.len());
        true
    }
}

/// Depth-first node stack: a fixed array, spilling to the heap only past
/// its depth (median splits keep a tree over 2³² rows shallower than
/// that). Exactly LIFO: the spill is non-empty only while the array is
/// full, and it is popped first.
struct NodeStack {
    fixed: [u32; 64],
    top: usize,
    spill: Vec<u32>,
}

impl NodeStack {
    fn new(root: u32) -> Self {
        let mut stack = Self { fixed: [0; 64], top: 0, spill: Vec::new() };
        stack.push(root);
        stack
    }

    #[inline]
    fn push(&mut self, id: u32) {
        if self.top < self.fixed.len() {
            self.fixed[self.top] = id;
            self.top += 1;
        } else {
            self.spill.push(id);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<u32> {
        if let Some(id) = self.spill.pop() {
            Some(id)
        } else if self.top > 0 {
            self.top -= 1;
            Some(self.fixed[self.top])
        } else {
            None
        }
    }
}

/// Appends the half-open bounding box of the rows `ids` to `boxes`: per
/// dimension the minimum, then per dimension the maximum grown by one ulp,
/// so that the maximum point tests as inside whatever its sign. One column
/// at a time, with selects rather than branches.
fn push_bbox(data: &sth_data::Dataset, ids: &[u32], boxes: &mut Vec<f64>) {
    let d = data.ndim();
    let at = boxes.len();
    boxes.resize(at + 2 * d, 0.0);
    let (lo, hi) = boxes[at..].split_at_mut(d);
    for k in 0..d {
        let col = data.column(k);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &i in ids {
            let v = col[i as usize];
            min = if v < min { v } else { min };
            max = if v > max { v } else { max };
        }
        lo[k] = min;
        hi[k] = max.next_up();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_platform::rng::Rng;
    use sth_data::cross::CrossSpec;
    use sth_data::gauss::GaussSpec;

    #[test]
    fn empty_dataset() {
        let ds = sth_data::Dataset::from_columns(
            "empty",
            Rect::cube(2, 0.0, 1.0),
            vec![vec![], vec![]],
        );
        let t = KdCountTree::build(&ds);
        assert_eq!(t.total(), 0);
        assert_eq!(t.count(&Rect::cube(2, 0.0, 1.0)), 0);
        let rs = ResultSetCounter::from_counter(&t, &Rect::cube(2, 0.0, 1.0)).unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn matches_scan_on_cross() {
        let ds = CrossSpec::cross2d().scaled(0.05).generate();
        let t = KdCountTree::build(&ds);
        assert_eq!(t.count(ds.domain()), ds.len() as u64);
        let mut rng = Rng::seed_from_u64(77);
        for _ in 0..200 {
            let lo = [rng.gen_range(0.0f64..900.0), rng.gen_range(0.0f64..900.0)];
            let hi = [lo[0] + rng.gen_range(1.0f64..300.0), lo[1] + rng.gen_range(1.0f64..300.0)];
            let r = Rect::from_bounds(&lo, &[hi[0].min(1000.0), hi[1].min(1000.0)]);
            assert_eq!(t.count(&r), ds.count_in_scan(&r), "mismatch on {r}");
        }
    }

    #[test]
    fn matches_scan_on_gauss_6d() {
        let ds = GaussSpec::paper().scaled(0.02).generate();
        let t = KdCountTree::build(&ds);
        let mut rng = Rng::seed_from_u64(13);
        for _ in 0..100 {
            let mut lo = vec![0.0f64; 6];
            let mut hi = vec![0.0f64; 6];
            for d in 0..6 {
                lo[d] = rng.gen_range(0.0..800.0);
                hi[d] = (lo[d] + rng.gen_range(50.0f64..500.0)).min(1000.0);
            }
            let r = Rect::from_bounds(&lo, &hi);
            assert_eq!(t.count(&r), ds.count_in_scan(&r), "mismatch on {r}");
        }
    }

    #[test]
    fn large_boxes_match_scan() {
        // The experiment regime: boxes spanning >50% of each dimension.
        let ds = GaussSpec::paper().scaled(0.05).generate();
        let t = KdCountTree::build(&ds);
        let mut rng = Rng::seed_from_u64(99);
        for _ in 0..30 {
            let mut lo = vec![0.0f64; 6];
            let mut hi = vec![0.0f64; 6];
            for d in 0..6 {
                lo[d] = rng.gen_range(0.0..400.0);
                hi[d] = lo[d] + 520.0;
            }
            let r = Rect::from_bounds(&lo, &hi);
            assert_eq!(t.count(&r), ds.count_in_scan(&r), "mismatch on {r}");
        }
    }

    #[test]
    fn points_in_returns_exact_result_stream() {
        let ds = CrossSpec::cross2d().scaled(0.02).generate();
        let t = KdCountTree::build(&ds);
        let q = Rect::from_bounds(&[400.0, 0.0], &[600.0, 1000.0]);
        let rs = ResultSetCounter::from_counter(&t, &q).unwrap();
        assert_eq!(rs.len() as u64, ds.count_in_scan(&q));
        let (rows, d) = rs.flat_rows();
        assert!(rows.chunks_exact(d).all(|p| q.contains_point(p)));
    }

    #[test]
    fn query_of_another_dimensionality_is_refused() {
        // Over a 3-d tree a 2-d query leaves the third dimension unbounded
        // and a 4-d query has a bound the tree cannot test: both methods
        // refuse either, whether the query covers the leaves or cuts them.
        let mut rng = Rng::seed_from_u64(23);
        let cols = (0..3).map(|_| (0..2_000).map(|_| rng.gen_range(0.0..10.0)).collect()).collect();
        let ds = sth_data::Dataset::from_columns("3d", Rect::cube(3, 0.0, 10.0), cols);
        let t = KdCountTree::build(&ds);
        for ndim in [2, 4] {
            for q in [Rect::cube(ndim, 0.0, 10.0), Rect::cube(ndim, 2.0, 7.0)] {
                let count = std::panic::catch_unwind(|| t.count(&q)).map(drop);
                let fill = std::panic::catch_unwind(|| ResultSetCounter::from_counter(&t, &q));
                for refused in [count.err(), fill.map(drop).err()] {
                    let payload = refused.unwrap_or_else(|| panic!("a {ndim}-d query {q} ran"));
                    let msg = payload.downcast_ref::<String>().expect("a formatted message");
                    assert_eq!(*msg, format!("a {ndim}-d query on a 3-d kd tree"));
                }
            }
        }
    }

    #[test]
    fn duplicate_points_are_counted() {
        // All tuples identical: stresses the degenerate-split path.
        let n = 500;
        let ds = sth_data::Dataset::from_columns(
            "dups",
            Rect::cube(3, 0.0, 10.0),
            vec![vec![5.0; n], vec![5.0; n], vec![5.0; n]],
        );
        let t = KdCountTree::build(&ds);
        let hit = Rect::from_bounds(&[4.0; 3], &[6.0; 3]);
        let miss = Rect::from_bounds(&[6.0; 3], &[8.0; 3]);
        assert_eq!(t.count(&hit), n as u64);
        assert_eq!(t.count(&miss), 0);
    }

    /// `count`, the result stream and its recount all equal the scan.
    fn assert_matches_scan(ds: &sth_data::Dataset, t: &KdCountTree, q: &Rect) {
        let want = ds.count_in_scan(q);
        assert_eq!(t.count(q), want, "count on {q}");
        let rs = ResultSetCounter::from_counter(t, q).unwrap();
        assert_eq!(rs.len() as u64, want, "result stream of {q}");
        assert_eq!(rs.count(q), want, "recount of {q}");
    }

    #[test]
    fn negative_coordinates_match_scan() {
        // A leaf whose maximum is negative used to get a top edge one ulp
        // *below* it, so the box excluded its own maximum point.
        let n = 200;
        let x = (0..n).map(|i| -10.0 + (i % 6) as f64).collect();
        let y = (0..n).map(|i| i as f64).collect();
        let ds = sth_data::Dataset::from_columns(
            "negative",
            Rect::from_bounds(&[-10.0, 0.0], &[0.0, n as f64]),
            vec![x, y],
        );
        let t = KdCountTree::build(&ds);
        let q = Rect::from_bounds(&[-5.0, 0.0], &[0.0, n as f64]);
        assert_eq!(ds.count_in_scan(&q), 33);
        assert_matches_scan(&ds, &t, &q);
        assert_matches_scan(&ds, &t, ds.domain());
    }

    #[test]
    fn constant_negative_column_matches_scan() {
        // Every x = -5: the column's box used to have zero width, and a
        // zero-width box intersects nothing.
        let n = 200;
        let ds = sth_data::Dataset::from_columns(
            "constant",
            Rect::from_bounds(&[-10.0, 0.0], &[0.0, n as f64]),
            vec![vec![-5.0; n], (0..n).map(|i| i as f64).collect()],
        );
        let t = KdCountTree::build(&ds);
        let q = Rect::from_bounds(&[-10.0, 0.0], &[0.0, n as f64]);
        assert_eq!(ds.count_in_scan(&q), n as u64);
        assert_matches_scan(&ds, &t, &q);
        for z in [-0.0, 0.0] {
            let zeros = sth_data::Dataset::from_columns(
                "zeros",
                Rect::cube(2, -1.0, 1.0),
                vec![vec![z; n], vec![z; n]],
            );
            let t = KdCountTree::build(&zeros);
            assert_matches_scan(&zeros, &t, &Rect::cube(2, -1.0, 1.0));
            assert_matches_scan(&zeros, &t, &Rect::cube(2, 0.0, 1.0));
        }
    }

    #[test]
    fn edges_on_data_values_match_scan() {
        // Integer-valued tuples and queries whose edges are those integers,
        // on both half-open sides, across negative and positive values.
        let mut rng = Rng::seed_from_u64(31);
        let n = 2_000;
        let cols = (0..3)
            .map(|_| (0..n).map(|_| f64::from(rng.gen_range(-8i32..=8))).collect())
            .collect();
        let ds = sth_data::Dataset::from_columns("ints", Rect::cube(3, -8.0, 9.0), cols);
        let t = KdCountTree::build(&ds);
        for _ in 0..300 {
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                let a = rng.gen_range(-9i32..=8);
                lo.push(f64::from(a));
                hi.push(f64::from(rng.gen_range(a..=9)));
            }
            assert_matches_scan(&ds, &t, &Rect::from_bounds(&lo, &hi));
        }
    }
}
