//! Bulk-loaded k-d tree with subtree counts.
//!
//! Layout notes: nodes live in one flat arena and leaf points in one flat
//! row-major buffer. Range counting over large boxes (the common case for
//! the paper's 1–2%-volume queries in 7 dimensions, whose side length is
//! >50% of the domain) visits many boundary leaves, so the leaf scan is the
//! > hot loop — keeping it allocation-free and cache-linear is what makes the
//! > 20,000-query experiments tractable.

use sth_geometry::Rect;
use sth_platform::obs;

use crate::{RangeCounter, ResultSetCounter};

/// Leaf capacity. Large enough that the tree stays shallow, small enough
/// that boundary-leaf scans stay cheap.
const LEAF_SIZE: usize = 64;

enum Node {
    Inner {
        /// Bounding box of all points below this node.
        bbox: Rect,
        /// Tuples below this node.
        count: u64,
        /// Child node indices.
        left: u32,
        right: u32,
    },
    Leaf {
        bbox: Rect,
        /// Range of rows in the flat point buffer.
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
    nodes: Vec<Node>,
    /// Row-major point storage, leaf-contiguous.
    points: Vec<f64>,
    ndim: usize,
    total: u64,
    root: u32,
}

impl KdCountTree {
    /// Builds the index over all tuples of `data`.
    pub fn build(data: &sth_data::Dataset) -> Self {
        let n = data.len();
        let ndim = data.ndim();
        let mut tree = Self {
            nodes: Vec::new(),
            points: Vec::with_capacity(n * ndim),
            ndim,
            total: n as u64,
            root: 0,
        };
        if n == 0 {
            return tree;
        }
        let mut ids: Vec<u32> = (0..n as u32).collect();
        tree.root = tree.build_node(data, &mut ids);
        tree
    }

    /// Dataset dimensionality.
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    fn build_node(&mut self, data: &sth_data::Dataset, ids: &mut [u32]) -> u32 {
        let bbox = bbox_of(data, ids);
        if ids.len() <= LEAF_SIZE {
            let start = (self.points.len() / self.ndim) as u32;
            for &i in ids.iter() {
                for d in 0..self.ndim {
                    self.points.push(data.value(i as usize, d));
                }
            }
            let end = (self.points.len() / self.ndim) as u32;
            self.nodes.push(Node::Leaf { bbox, start, end });
            return (self.nodes.len() - 1) as u32;
        }
        // Split on the widest dimension of the bbox at the median point.
        let split_dim = (0..self.ndim)
            .max_by(|&a, &b| bbox.extent(a).partial_cmp(&bbox.extent(b)).unwrap())
            .unwrap();
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            data.value(a as usize, split_dim)
                .partial_cmp(&data.value(b as usize, split_dim))
                .unwrap()
        });
        let count = ids.len() as u64;
        let (left_ids, right_ids) = ids.split_at_mut(mid);
        let left = self.build_node(data, left_ids);
        let right = self.build_node(data, right_ids);
        self.nodes.push(Node::Inner { bbox, count, left, right });
        (self.nodes.len() - 1) as u32
    }

    /// Counts leaf rows within `[start, end)` that fall inside `rect`.
    #[inline]
    fn scan_leaf(&self, start: u32, end: u32, rect: &Rect) -> u64 {
        let d = self.ndim;
        let lo = rect.lo();
        let hi = rect.hi();
        let mut hits = 0u64;
        let rows = &self.points[start as usize * d..end as usize * d];
        'rows: for row in rows.chunks_exact(d) {
            for k in 0..d {
                let v = row[k];
                if v < lo[k] || v >= hi[k] {
                    continue 'rows;
                }
            }
            hits += 1;
        }
        hits
    }
}

impl RangeCounter for KdCountTree {
    fn count(&self, rect: &Rect) -> u64 {
        obs::incr(obs::Counter::IndexProbes);
        if self.total == 0 {
            return 0;
        }
        let mut hits = 0u64;
        // Accumulated locally (one register add per node) and flushed once:
        // the traversal loop is the probe hot path.
        let mut visited = 0u64;
        let mut stack = NodeStack::new(self.root);
        while let Some(id) = stack.pop() {
            visited += 1;
            match &self.nodes[id as usize] {
                Node::Leaf { bbox, start, end } => {
                    if rect.intersects(bbox) {
                        hits += self.scan_leaf(*start, *end, rect);
                    }
                }
                Node::Inner { bbox, count, left, right } => {
                    if !rect.intersects(bbox) {
                        continue;
                    }
                    if rect.contains_rect(bbox) {
                        hits += count;
                        continue;
                    }
                    stack.push(*left);
                    stack.push(*right);
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
    /// one block of the result, boxed by `leaf box ∩ query`: both boxes
    /// are at hand, so the zone map costs no pass over the rows. A leaf
    /// inside the query is copied whole.
    fn fill_result(&self, rect: &Rect, out: &mut ResultSetCounter) -> bool {
        obs::incr(obs::Counter::IndexProbes);
        out.reset(self.ndim.max(1));
        if self.total == 0 {
            return true;
        }
        let d = self.ndim;
        let mut stack = NodeStack::new(self.root);
        while let Some(id) = stack.pop() {
            match &self.nodes[id as usize] {
                Node::Leaf { bbox, start, end } => {
                    if !rect.intersects(bbox) {
                        continue;
                    }
                    let rows = &self.points[*start as usize * d..*end as usize * d];
                    if rect.contains_rect(bbox) {
                        out.rows.extend_from_slice(rows);
                    } else {
                        let before = out.rows.len();
                        for row in rows.chunks_exact(d) {
                            if rect.contains_point(row) {
                                out.rows.extend_from_slice(row);
                            }
                        }
                        if out.rows.len() == before {
                            continue;
                        }
                    }
                    out.close_block(
                        bbox.lo().iter().zip(rect.lo()).map(|(a, b)| a.max(*b)),
                        bbox.hi().iter().zip(rect.hi()).map(|(a, b)| a.min(*b)),
                    );
                }
                Node::Inner { bbox, left, right, .. } => {
                    if rect.intersects(bbox) {
                        stack.push(*left);
                        stack.push(*right);
                    }
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

fn bbox_of(data: &sth_data::Dataset, ids: &[u32]) -> Rect {
    let ndim = data.ndim();
    let mut lo = vec![f64::INFINITY; ndim];
    let mut hi = vec![f64::NEG_INFINITY; ndim];
    for &i in ids {
        for d in 0..ndim {
            let v = data.value(i as usize, d);
            if v < lo[d] {
                lo[d] = v;
            }
            if v > hi[d] {
                hi[d] = v;
            }
        }
    }
    // Grow the top edge by one ulp so the maximum point tests as inside
    // the half-open box — whatever its sign.
    for h in &mut hi {
        *h = h.next_up();
    }
    Rect::from_bounds(&lo, &hi)
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
