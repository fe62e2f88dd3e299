//! The histogram proper: construction, estimation, invariants.

use sth_geometry::Rect;
use sth_index::RangeCounter;
use sth_platform::obs;
use sth_query::{CardinalityEstimator, Estimator, SelfTuning};

use crate::{Bucket, BucketArena, BucketId};

/// Which merge shapes the compaction pass may use. STHoles uses both;
/// the restricted variants exist for the `ablation_merge_policy` bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergePolicy {
    /// Parent–child and sibling–sibling merges (the paper's algorithm).
    All,
    /// Only parent–child merges.
    ParentChildOnly,
    /// Only sibling–sibling merges (falls back to parent–child when no
    /// sibling pair exists, so compaction always terminates).
    SiblingFirst,
}

/// Tuning knobs for [`StHoles`].
#[derive(Clone, Debug)]
pub struct SthConfig {
    /// Maximum number of buckets, *excluding* the fixed root (the paper's
    /// bucket budget: "when we say that the bucket limit is one bucket we
    /// mean it is one bucket plus this root").
    pub budget: usize,
    /// Candidate holes whose own volume is below this fraction of the
    /// enclosing bucket's volume are not drilled; guards against
    /// floating-point slivers.
    pub min_hole_volume_frac: f64,
    /// Merge shapes allowed during compaction.
    pub merge_policy: MergePolicy,
    /// Prunes the sibling-merge search of wide parents. With `Some(cap)`,
    /// a bucket with at most `2·max(cap, 2)` children has every pair of
    /// children evaluated. Above that, the evaluated pairs are each
    /// child's `min(cap, 2)` lowest-growth partners (growth: volume of
    /// the pair's hull minus the volumes of both children), plus the
    /// `max(8·cap, 16)` lowest-growth pairs overall. The cheapest merge
    /// is almost always between hull-compatible neighbors, so this
    /// preserves merge quality while evaluating O(children) pairs instead
    /// of O(children²). `None` forces the exact all-pairs search
    /// everywhere.
    pub sibling_neighbor_cap: Option<usize>,
}

impl SthConfig {
    /// Default configuration with the given bucket budget.
    pub fn with_budget(budget: usize) -> Self {
        Self {
            budget,
            min_hole_volume_frac: 1e-12,
            merge_policy: MergePolicy::All,
            sibling_neighbor_cap: Some(6),
        }
    }
}

/// The STHoles self-tuning histogram.
///
/// ```
/// use sth_geometry::Rect;
/// use sth_histogram::StHoles;
/// use sth_index::{RangeCounter, ResultSetCounter};
/// use sth_query::{CardinalityEstimator, SelfTuning};
///
/// // A 2-d attribute space holding 1,000 tuples.
/// let domain = Rect::cube(2, 0.0, 100.0);
/// let mut hist = StHoles::with_total(domain.clone(), 50, 1_000.0);
///
/// // Before any feedback, estimation falls back to uniformity.
/// let q = Rect::from_bounds(&[0.0, 0.0], &[50.0, 50.0]);
/// assert_eq!(hist.estimate(&q), 250.0);
///
/// // A query executes and returns 10 rows; the histogram refines itself
/// // from that result stream and afterwards answers the query exactly.
/// let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![5.0 + i as f64, 7.0]).collect();
/// hist.refine(&q, &ResultSetCounter::new(rows));
/// assert!((hist.estimate(&q) - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct StHoles {
    pub(crate) arena: BucketArena,
    pub(crate) root: BucketId,
    pub(crate) config: SthConfig,
    pub(crate) nonroot_count: usize,
    frozen: bool,
    domain: Rect,
    /// Incremental best-merge state (per-parent caches + penalty heaps).
    /// Pure acceleration: rebuilt lazily, skipped by `Clone`/serialization.
    pub(crate) merge_accel: crate::merge::MergeAccel,
    /// Reusable buffers for the refine hot path. Dead storage between
    /// calls; skipped by `Clone`/serialization.
    pub(crate) scratch: crate::scratch::RefineScratch,
}

impl Clone for StHoles {
    /// Clones the logical histogram state only; the clone starts with
    /// empty acceleration state and scratch buffers.
    fn clone(&self) -> Self {
        Self {
            arena: self.arena.clone(),
            root: self.root,
            config: self.config.clone(),
            nonroot_count: self.nonroot_count,
            frozen: self.frozen,
            domain: self.domain.clone(),
            merge_accel: Default::default(),
            scratch: Default::default(),
        }
    }
}

impl StHoles {
    /// Creates an empty histogram (root bucket only) over `domain` with the
    /// given bucket budget. The root frequency starts at zero; prefer
    /// [`StHoles::with_total`] when the table cardinality is known (every
    /// DBMS knows it).
    pub fn new(domain: Rect, budget: usize) -> Self {
        Self::with_total(domain, budget, 0.0)
    }

    /// Creates an empty histogram whose root carries the total tuple count.
    pub fn with_total(domain: Rect, budget: usize, total: f64) -> Self {
        assert!(total >= 0.0 && total.is_finite());
        let mut arena = BucketArena::new();
        let root = arena.alloc(Bucket::leaf(domain.clone(), total, None));
        Self {
            arena,
            root,
            config: SthConfig::with_budget(budget),
            nonroot_count: 0,
            frozen: false,
            domain,
            merge_accel: Default::default(),
            scratch: Default::default(),
        }
    }

    /// Creates a histogram with an explicit configuration.
    pub fn with_config(domain: Rect, config: SthConfig, total: f64) -> Self {
        let mut h = Self::with_total(domain, 0, total);
        h.config = config;
        h
    }

    /// Assembles a histogram from pre-built parts (used by the binary
    /// decoder). The caller is responsible for handing over a consistent
    /// tree; [`StHoles::check_invariants`] verifies it.
    pub(crate) fn assemble(
        arena: BucketArena,
        root: BucketId,
        config: SthConfig,
        nonroot_count: usize,
        domain: Rect,
    ) -> Self {
        let mut h = Self {
            arena,
            root,
            config,
            nonroot_count,
            frozen: false,
            domain,
            merge_accel: Default::default(),
            scratch: Default::default(),
        };
        // Freshly allocated buckets carry conservative (own-box) children
        // hulls; tighten them once so traversal pruning starts effective.
        let parents: Vec<BucketId> =
            h.arena.iter().filter(|(_, b)| !b.children.is_empty()).map(|(id, _)| id).collect();
        for id in parents {
            h.arena.tighten_hull(id);
        }
        h
    }

    /// The attribute-value domain (root box).
    pub fn domain(&self) -> &Rect {
        &self.domain
    }

    /// The root bucket id.
    pub fn root(&self) -> BucketId {
        self.root
    }

    /// Bucket budget (excluding the root).
    pub fn budget(&self) -> usize {
        self.config.budget
    }

    /// Changes the bucket budget. Shrinking the budget compacts the
    /// histogram immediately.
    pub fn set_budget(&mut self, budget: usize) {
        self.config.budget = budget;
        self.compact();
    }

    /// Restricts the merge shapes used during compaction (ablation knob).
    pub fn set_merge_policy(&mut self, policy: MergePolicy) {
        self.config.merge_policy = policy;
    }

    /// Number of buckets excluding the root.
    pub fn bucket_count(&self) -> usize {
        self.nonroot_count
    }

    /// Shared access to the bucket arena (read-only diagnostics).
    pub fn arena(&self) -> &BucketArena {
        &self.arena
    }

    /// Sets the root's total so `estimate(domain)` matches the table
    /// cardinality; useful when the table grows.
    pub fn set_total(&mut self, total: f64) {
        let current: f64 = self.arena.iter().map(|(_, b)| b.freq).sum();
        let root = self.root;
        let root_freq = &mut self.arena.get_mut(root).freq;
        *root_freq = (*root_freq + total - current).max(0.0);
        self.invalidate_merges(root);
    }

    /// Sum of all bucket frequencies (= estimated table cardinality).
    pub fn total_freq(&self) -> f64 {
        self.arena.iter().map(|(_, b)| b.freq).sum()
    }

    /// Exponentially ages all bucket frequencies by `factor ∈ (0, 1]`.
    ///
    /// On evolving tables, stale feedback should lose weight: periodically
    /// decaying frequencies and re-anchoring the total with
    /// [`StHoles::set_total`] keeps the histogram tracking the live
    /// distribution instead of the one it learned first. (Adaptive-histogram
    /// practice; the paper's experiments use static data.)
    pub fn decay(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor <= 1.0, "decay factor must be in (0, 1]");
        let ids: Vec<BucketId> = self.arena.iter().map(|(id, _)| id).collect();
        for id in ids {
            self.arena.get_mut(id).freq *= factor;
        }
        self.merge_accel.invalidate_all();
    }

    /// Recursive estimation (Eq. 1): each bucket contributes
    /// `freq · vol(q ∩ own region) / vol(own region)`.
    fn estimate_rec(&self, id: BucketId, q: &Rect) -> f64 {
        let b = self.arena.get(id);
        let Some(qb) = b.rect.intersection(q) else {
            return 0.0;
        };
        let mut est = 0.0;
        // Volume of q ∩ (own region of b) = vol(q ∩ box(b)) − Σ vol(q ∩ box(child)).
        let mut v_q_own = qb.volume();
        // Children-hull gate: when the query misses the cached hull it
        // misses every child, so all overlaps below would be zero — the
        // skip is exact, not approximate.
        if !b.children.is_empty() {
            if qb.intersects_packed(self.arena.hull(id)) {
                for &c in &b.children {
                    let overlap = qb.overlap_volume_packed(self.arena.bounds(c));
                    if overlap > 0.0 {
                        v_q_own -= overlap;
                        est += self.estimate_rec(c, q);
                    }
                }
            } else {
                sth_platform::obs::incr(sth_platform::obs::Counter::HullGatePrunes);
            }
        }
        let v_own = self.arena.own_volume(id);
        if v_own > 0.0 && v_q_own > 0.0 {
            est += b.freq * (v_q_own / v_own).min(1.0);
        } else if v_q_own > 0.0 || qb == b.rect {
            // Degenerate own region fully covered by the query.
            est += b.freq;
        }
        est
    }

    /// Verifies the structural invariants of the bucket tree; returns a
    /// description of the first violation. Used by tests and property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = 0usize;
        for (id, b) in self.arena.iter() {
            seen += 1;
            if !b.freq.is_finite() || b.freq < 0.0 {
                return Err(format!("bucket {id}: bad freq {}", b.freq));
            }
            if b.rect.is_empty() {
                return Err(format!("bucket {id}: empty rect {}", b.rect));
            }
            match b.parent {
                None => {
                    if id != self.root {
                        return Err(format!("bucket {id}: non-root without parent"));
                    }
                }
                Some(p) => {
                    if !self.arena.contains(p) {
                        return Err(format!("bucket {id}: dangling parent {p}"));
                    }
                    let pb = self.arena.get(p);
                    if !pb.rect.contains_rect(&b.rect) {
                        return Err(format!(
                            "bucket {id} {} escapes parent {p} {}",
                            b.rect, pb.rect
                        ));
                    }
                    if !pb.children.contains(&id) {
                        return Err(format!("bucket {id}: not in parent {p}'s child list"));
                    }
                }
            }
            if self.arena.volume_of(id) != b.rect.volume() {
                return Err(format!("bucket {id}: stale cached volume"));
            }
            for (i, &c1) in b.children.iter().enumerate() {
                if !self.arena.contains(c1) {
                    return Err(format!("bucket {id}: dangling child {c1}"));
                }
                // The cached children hull must stay conservative.
                let hull = self.arena.hull(id);
                let cb = self.arena.bounds(c1);
                let n = cb.len() / 2;
                if (0..n).any(|d| cb[d] < hull[d] || cb[n + d] > hull[n + d]) {
                    return Err(format!("bucket {id}: child {c1} escapes cached children hull"));
                }
                if self.arena.get(c1).parent != Some(id) {
                    return Err(format!("bucket {id}: child {c1} has wrong parent"));
                }
                for &c2 in &b.children[i + 1..] {
                    let r1 = &self.arena.get(c1).rect;
                    let r2 = &self.arena.get(c2).rect;
                    if r1.intersects(r2) {
                        return Err(format!("siblings {c1} {r1} and {c2} {r2} overlap"));
                    }
                }
            }
        }
        if seen != self.nonroot_count + 1 {
            return Err(format!(
                "bucket count mismatch: arena has {seen}, counter says {}",
                self.nonroot_count + 1
            ));
        }
        if self.nonroot_count > self.config.budget {
            return Err(format!(
                "budget exceeded: {} > {}",
                self.nonroot_count, self.config.budget
            ));
        }
        Ok(())
    }
}

impl CardinalityEstimator for StHoles {
    fn estimate(&self, rect: &Rect) -> f64 {
        self.estimate_rec(self.root, rect)
    }

    fn name(&self) -> &str {
        "stholes"
    }
}

impl Estimator for StHoles {
    fn ndim(&self) -> usize {
        self.domain.ndim()
    }

    fn bucket_count(&self) -> usize {
        self.nonroot_count
    }
}

impl SelfTuning for StHoles {
    fn refine(&mut self, query: &Rect, feedback: &dyn RangeCounter) {
        if self.frozen {
            return;
        }
        let _t = obs::time_hist(obs::HistKind::RefineNs);
        self.drill_for_query(query, feedback);
        self.compact();
    }

    fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    fn frozen(&self) -> bool {
        self.frozen
    }

    fn audit(&self) -> Result<(), String> {
        self.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Rect {
        Rect::cube(2, 0.0, 100.0)
    }

    /// Builds the 4-bucket histogram of Fig. 1 of the paper:
    /// root (2 tuples own), b1 (4), b2 (3) with child b3 (3).
    fn fig1() -> StHoles {
        let mut h = StHoles::with_total(domain(), 10, 2.0);
        let root = h.root;
        let b1 = h.arena.alloc(Bucket::leaf(
            Rect::from_bounds(&[5.0, 55.0], &[40.0, 95.0]),
            4.0,
            Some(root),
        ));
        let b2 = h.arena.alloc(Bucket::leaf(
            Rect::from_bounds(&[50.0, 10.0], &[95.0, 45.0]),
            3.0,
            Some(root),
        ));
        h.arena.get_mut(root).children.extend([b1, b2]);
        let b3 = h.arena.alloc(Bucket::leaf(
            Rect::from_bounds(&[60.0, 20.0], &[80.0, 40.0]),
            3.0,
            Some(b2),
        ));
        h.arena.get_mut(b2).children.push(b3);
        h.nonroot_count = 3;
        h.check_invariants().unwrap();
        h
    }

    #[test]
    fn empty_histogram_estimates_uniformly() {
        let h = StHoles::with_total(domain(), 10, 1000.0);
        assert_eq!(h.estimate(&domain()), 1000.0);
        let quarter = Rect::from_bounds(&[0.0, 0.0], &[50.0, 50.0]);
        assert!((h.estimate(&quarter) - 250.0).abs() < 1e-9);
        let outside = Rect::from_bounds(&[200.0, 200.0], &[300.0, 300.0]);
        assert_eq!(h.estimate(&outside), 0.0);
    }

    #[test]
    fn nested_buckets_estimate_their_own_regions() {
        let h = fig1();
        // Full domain: all tuples.
        assert!((h.estimate(&domain()) - 12.0).abs() < 1e-9);
        // Query covering exactly b2's box gets b2 + its child b3.
        let q2 = Rect::from_bounds(&[50.0, 10.0], &[95.0, 45.0]);
        assert!((h.estimate(&q2) - 6.0).abs() < 1e-9);
        // Query covering exactly b3.
        let q3 = Rect::from_bounds(&[60.0, 20.0], &[80.0, 40.0]);
        assert!((h.estimate(&q3) - 3.0).abs() < 1e-9);
        // Query in root's own region only: proportional share of root's 2.
        let q = Rect::from_bounds(&[0.0, 0.0], &[5.0, 55.0]);
        let root_own = h.arena.own_volume(h.root);
        let expected = 2.0 * (5.0 * 55.0) / root_own;
        assert!((h.estimate(&q) - expected).abs() < 1e-9);
    }

    #[test]
    fn estimation_is_additive_over_disjoint_queries() {
        let h = fig1();
        let left = Rect::from_bounds(&[0.0, 0.0], &[50.0, 100.0]);
        let right = Rect::from_bounds(&[50.0, 0.0], &[100.0, 100.0]);
        let total = h.estimate(&domain());
        assert!((h.estimate(&left) + h.estimate(&right) - total).abs() < 1e-6);
    }

    #[test]
    fn set_total_adjusts_root_only() {
        let mut h = fig1();
        h.set_total(100.0);
        assert!((h.total_freq() - 100.0).abs() < 1e-9);
        // Non-root buckets untouched: domain-wide estimate hits new total.
        assert!((h.estimate(&domain()) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn invariants_catch_overlapping_siblings() {
        let mut h = StHoles::with_total(domain(), 10, 1.0);
        let root = h.root;
        let a = h.arena.alloc(Bucket::leaf(Rect::cube(2, 10.0, 30.0), 1.0, Some(root)));
        let b = h.arena.alloc(Bucket::leaf(Rect::cube(2, 20.0, 40.0), 1.0, Some(root)));
        h.arena.get_mut(root).children.extend([a, b]);
        h.nonroot_count = 2;
        assert!(h.check_invariants().unwrap_err().contains("overlap"));
    }

    #[test]
    fn decay_scales_all_frequencies() {
        let mut h = fig1();
        let before = h.total_freq();
        h.decay(0.5);
        assert!((h.total_freq() - before * 0.5).abs() < 1e-9);
        h.check_invariants().unwrap();
        // Re-anchoring restores the advertised cardinality.
        h.set_total(before);
        assert!((h.total_freq() - before).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn decay_rejects_bad_factor() {
        let mut h = fig1();
        h.decay(0.0);
    }

    #[test]
    fn arena_clone_roundtrip() {
        let h = fig1();
        // Rebuild a second histogram from a cloned bucket arena and check
        // the two agree.
        let arena_clone = h.arena.clone();
        let h2 = StHoles {
            arena: arena_clone,
            root: h.root,
            config: h.config.clone(),
            nonroot_count: h.nonroot_count,
            frozen: false,
            domain: h.domain.clone(),
            merge_accel: Default::default(),
            scratch: Default::default(),
        };
        assert_eq!(h.estimate(&domain()), h2.estimate(&domain()));
    }

    #[test]
    fn clone_drops_acceleration_state_but_agrees() {
        let mut h = fig1();
        // Warm up the merge accelerator, then clone: the clone must answer
        // identically from a cold start.
        let warm = h.best_merge();
        let mut c = h.clone();
        assert_eq!(c.best_merge(), warm);
        assert_eq!(c.estimate(&domain()), h.estimate(&domain()));
    }
}
