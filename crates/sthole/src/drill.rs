//! Hole drilling: integrating one query's feedback into the bucket tree.

use sth_geometry::{best_shrink, Rect};
use sth_index::RangeCounter;

use crate::{Bucket, BucketId, StHoles};

impl StHoles {
    /// Drills holes for one executed query. For every bucket whose box
    /// intersects the query, the candidate hole `q ∩ box(b)` is shrunk until
    /// no child of `b` partially overlaps it, filled with the exact tuple
    /// count observed in the result, and installed as a new child.
    ///
    /// Does *not* enforce the bucket budget — the caller runs the merge pass
    /// afterwards (see [`SelfTuning::refine`](sth_query::SelfTuning::refine)).
    /// Public drilling entry point without budget enforcement — exposed for
    /// diagnostics and profiling tools; normal callers use
    /// [`SelfTuning::refine`](sth_query::SelfTuning::refine).
    pub fn drill_only(&mut self, query: &Rect, feedback: &dyn RangeCounter) {
        self.drill_for_query(query, feedback);
    }

    pub(crate) fn drill_for_query(&mut self, query: &Rect, feedback: &dyn RangeCounter) {
        let Some(q) = query.intersection(&self.arena.get(self.root).rect) else {
            return;
        };
        // Snapshot the affected buckets first: drilling re-parents children
        // but never deletes buckets, so the snapshot stays valid. The
        // snapshot and the DFS stack come from the reusable scratch.
        let mut targets = std::mem::take(&mut self.scratch.targets);
        Self::buckets_intersecting_into(
            &self.arena,
            self.root,
            &q,
            &mut targets,
            &mut self.scratch.stack,
        );
        for &id in &targets {
            self.drill_one(id, &q, feedback);
        }
        self.scratch.targets = targets;
    }

    /// All buckets whose box intersects `q`, in pre-order.
    pub fn buckets_intersecting(&self, q: &Rect) -> Vec<BucketId> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        Self::buckets_intersecting_into(&self.arena, self.root, q, &mut out, &mut stack);
        out
    }

    /// Allocation-free core of [`StHoles::buckets_intersecting`]. Children
    /// are pre-filtered against the packed bounds, and whole sibling groups
    /// are skipped when the query misses the parent's cached children hull
    /// (the hull contains every child box, so the skip is exact). Visits
    /// the surviving buckets in the same order as the plain walk.
    fn buckets_intersecting_into(
        arena: &crate::BucketArena,
        root: BucketId,
        q: &Rect,
        out: &mut Vec<BucketId>,
        stack: &mut Vec<BucketId>,
    ) {
        out.clear();
        stack.clear();
        if q.intersects_packed(arena.bounds(root)) {
            stack.push(root);
        }
        while let Some(id) = stack.pop() {
            out.push(id);
            let b = arena.get(id);
            if b.children.is_empty() {
                continue;
            }
            if !q.intersects_packed(arena.hull(id)) {
                sth_platform::obs::incr(sth_platform::obs::Counter::HullGatePrunes);
                continue;
            }
            for &c in &b.children {
                if q.intersects_packed(arena.bounds(c)) {
                    stack.push(c);
                }
            }
        }
    }

    /// Drills the candidate hole of `q` in bucket `id`, if any.
    fn drill_one(&mut self, id: BucketId, q: &Rect, feedback: &dyn RangeCounter) {
        let Some(mut c) = self.arena.get(id).rect.intersection(q) else {
            return;
        };

        // Children that can still force a shrink: those intersecting the
        // candidate. A disjoint child stays disjoint (the candidate only
        // shrinks) and never influences the loop below, so it is dropped
        // up front — and permanently, via in-place compaction that keeps
        // children order.
        let cands = &mut self.scratch.shrink_cands;
        cands.clear();
        for &ch in &self.arena.get(id).children {
            if c.intersects(&self.arena.get(ch).rect) {
                cands.push(ch);
            }
        }

        // Shrink away partial overlaps with existing children, one dimension
        // at a time, always keeping the maximum candidate volume.
        loop {
            let mut best: Option<sth_geometry::Shrink> = None;
            let mut kept = 0;
            for r in 0..cands.len() {
                let child = cands[r];
                let child_rect = &self.arena.get(child).rect;
                if !c.intersects(child_rect) {
                    continue;
                }
                cands[kept] = child;
                kept += 1;
                if c.contains_rect(child_rect) {
                    continue; // will become a child of the new hole
                }
                if let Some(s) = best_shrink(&c, child_rect) {
                    if best.as_ref().is_none_or(|b| s.remaining_volume > b.remaining_volume) {
                        best = Some(s);
                    }
                } else {
                    // The child swallows the candidate entirely; the deeper
                    // recursion handles that region.
                    return;
                }
            }
            cands.truncate(kept);
            match best {
                Some(s) => {
                    s.apply(&mut c);
                    if c.is_empty() {
                        return;
                    }
                }
                None => break,
            }
        }

        // Children fully inside the candidate become children of the hole.
        self.scratch.participants.clear();
        for &ch in &self.arena.get(id).children {
            if c.contains_rect(&self.arena.get(ch).rect) {
                self.scratch.participants.push(ch);
            }
        }

        // Exact tuples in the hole's own region. Every counted rectangle is
        // inside q, so a result-stream counter is sufficient feedback.
        let mut t_c = feedback.count(&c) as f64;
        for i in 0..self.scratch.participants.len() {
            let p = self.scratch.participants[i];
            t_c -= feedback.count(&self.arena.get(p).rect) as f64;
        }
        let t_c = t_c.max(0.0);

        if c.approx_eq(&self.arena.get(id).rect) {
            // The candidate covers the whole bucket: all children are
            // participants, so t_c is exactly the bucket's own-region count.
            self.arena.get_mut(id).freq = t_c;
            self.invalidate_merges(id);
            return;
        }

        // Skip slivers: holes whose own region carries no volume cannot
        // influence any estimate.
        let mut own_vol = c.volume();
        for i in 0..self.scratch.participants.len() {
            own_vol -= self.arena.volume_of(self.scratch.participants[i]);
        }
        if own_vol <= self.config.min_hole_volume_frac * self.arena.volume_of(id) {
            return;
        }

        let hole = self.arena.alloc(Bucket {
            rect: c,
            freq: t_c,
            parent: Some(id),
            children: self.scratch.participants.clone(),
        });
        for i in 0..self.scratch.participants.len() {
            let p = self.scratch.participants[i];
            self.arena.get_mut(p).parent = Some(hole);
        }
        let parts = &self.scratch.participants;
        let b = self.arena.get_mut(id);
        b.children.retain(|ch| !parts.contains(ch));
        b.children.push(hole);
        b.freq = (b.freq - t_c).max(0.0);
        self.nonroot_count += 1;
        sth_platform::obs::incr(sth_platform::obs::Counter::Drills);
        self.arena.tighten_hull(id);
        if !self.scratch.participants.is_empty() {
            self.arena.tighten_hull(hole);
            self.merge_accel.mark_dirty(hole);
        }
        self.invalidate_merges(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_data::Dataset;
    use sth_index::{KdCountTree, ScanCounter};
    use sth_query::{CardinalityEstimator, SelfTuning};

    fn domain() -> Rect {
        Rect::cube(2, 0.0, 100.0)
    }

    /// A dataset with a dense 10x10 block at [40,60)² and nothing else.
    fn block_dataset() -> Dataset {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                xs.push(40.0 + i as f64);
                ys.push(40.0 + j as f64);
            }
        }
        Dataset::from_columns("block", domain(), vec![xs, ys])
    }

    #[test]
    fn drilling_learns_exact_counts() {
        let ds = block_dataset();
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(domain(), 10, ds.len() as f64);
        let q = Rect::from_bounds(&[40.0, 40.0], &[60.0, 60.0]);
        h.refine(&q, &counter);
        h.check_invariants().unwrap();
        assert_eq!(h.bucket_count(), 1);
        // The hole now answers the query exactly.
        assert!((h.estimate(&q) - 400.0).abs() < 1e-6);
        // And the root's own region holds the remainder (0 tuples).
        let corner = Rect::from_bounds(&[0.0, 0.0], &[30.0, 30.0]);
        assert!(h.estimate(&corner) < 1e-6);
    }

    #[test]
    fn full_domain_query_updates_root_in_place() {
        let ds = block_dataset();
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(domain(), 10, 123.0); // wrong total
        h.refine(&domain(), &counter);
        assert_eq!(h.bucket_count(), 0, "no hole for a candidate equal to the bucket");
        assert!((h.estimate(&domain()) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_shrinks_candidate() {
        let ds = block_dataset();
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(domain(), 10, ds.len() as f64);
        // First query drills a hole on the left half of the block.
        let q1 = Rect::from_bounds(&[30.0, 30.0], &[50.0, 70.0]);
        h.refine(&q1, &counter);
        // Second query overlaps the first hole; its root-level candidate must
        // shrink to avoid it.
        let q2 = Rect::from_bounds(&[45.0, 35.0], &[65.0, 65.0]);
        h.refine(&q2, &counter);
        h.check_invariants().unwrap();
        assert!(h.bucket_count() >= 2);
        // Estimates for both learned regions are exact.
        assert!((h.estimate(&q2) - ds.count_in_scan(&q2) as f64).abs() < 1.0 + 1e-6);
    }

    #[test]
    fn nested_queries_build_nested_buckets() {
        let ds = block_dataset();
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(domain(), 10, ds.len() as f64);
        let outer = Rect::from_bounds(&[35.0, 35.0], &[65.0, 65.0]);
        let inner = Rect::from_bounds(&[45.0, 45.0], &[55.0, 55.0]);
        h.refine(&outer, &counter);
        h.refine(&inner, &counter);
        h.check_invariants().unwrap();
        assert_eq!(h.bucket_count(), 2);
        // The inner hole must be a child of the outer hole.
        let root_children = &h.arena.get(h.root()).children;
        assert_eq!(root_children.len(), 1);
        let outer_id = root_children[0];
        assert_eq!(h.arena.get(outer_id).children.len(), 1);
        assert!((h.estimate(&inner) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn feedback_via_kd_tree_matches_scan() {
        let ds = block_dataset();
        let tree = KdCountTree::build(&ds);
        let scan = ScanCounter::new(&ds);
        let mut h1 = StHoles::with_total(domain(), 20, ds.len() as f64);
        let mut h2 = StHoles::with_total(domain(), 20, ds.len() as f64);
        let queries = [
            Rect::from_bounds(&[30.0, 30.0], &[50.0, 70.0]),
            Rect::from_bounds(&[45.0, 35.0], &[65.0, 65.0]),
            Rect::from_bounds(&[10.0, 10.0], &[90.0, 50.0]),
        ];
        for q in &queries {
            h1.refine(q, &tree);
            h2.refine(q, &scan);
        }
        for q in &queries {
            assert!((h1.estimate(q) - h2.estimate(q)).abs() < 1e-6);
        }
    }

    #[test]
    fn frozen_histogram_ignores_feedback() {
        let ds = block_dataset();
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(domain(), 10, ds.len() as f64);
        h.set_frozen(true);
        let q = Rect::from_bounds(&[40.0, 40.0], &[60.0, 60.0]);
        h.refine(&q, &counter);
        assert_eq!(h.bucket_count(), 0);
        h.set_frozen(false);
        h.refine(&q, &counter);
        assert_eq!(h.bucket_count(), 1);
    }
}
