//! Bucket merging: compacting the histogram back under its budget.
//!
//! A merge replaces two buckets by one, choosing the pair whose merge
//! changes the histogram's estimates the least (merge penalty, Eq. 2 of the
//! paper). Two merge shapes exist (paper §2.1 "Removing buckets"):
//!
//! * **Parent–child**: the child's region is folded back into the parent.
//! * **Sibling–sibling**: two siblings are replaced by a bucket over their
//!   bounding box; if that box partially overlaps other siblings it is
//!   extended until every other sibling is either disjoint or fully
//!   enclosed (the enclosed ones — *participants* — become children of the
//!   merged bucket, cf. Fig. 3 of the paper).
//!
//! ## Acceleration
//!
//! The cheapest merge is found through [`MergeAccel`]: per-parent cached
//! [`ParentMerges`] entries plus two global min-heaps (one per merge shape)
//! keyed by `(penalty, parent, version)`. Structural changes mark the
//! affected parents *dirty*; the next [`StHoles::best_merge`] call
//! recomputes only those parents, bumps their version counter (lazily
//! invalidating any queued heap entries), and then answers from the heap
//! tops — O(log parents) per steady-state merge instead of a full parent
//! scan. Each cache entry also memoizes its parent's sibling-merge
//! geometry (see `SiblingMemo`), so a refresh whose child list is
//! unchanged reruns no box-extension fixpoint. A drill or merge that
//! removes children and appends new ones is repaired, not rebuilt: a
//! pair whose box no edited child cuts keeps it without a sweep (see
//! `ListEdit`). The remaining sweeps settle early on wide parents: a
//! pair whose box is the exact children hull is a *hull-closing
//! witness*, and any later sweep whose box takes in both children of a
//! witness ends at that hull too (see `HullWitnesses`).
//! [`StHoles::best_merge_exhaustive`] keeps the original full scan, with
//! every fixpoint recomputed by the plain sweep, as a brute-force oracle.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::cmp::Reverse;

use sth_geometry::Rect;
use sth_platform::obs;

use crate::scratch::RefineScratch;
use crate::{Bucket, BucketArena, BucketId, StHoles};

/// A concrete merge to apply.
#[derive(Clone, Debug, PartialEq)]
pub enum MergeOp {
    /// Fold `child` into `parent`.
    ParentChild {
        /// The surviving parent.
        parent: BucketId,
        /// The child to fold in.
        child: BucketId,
    },
    /// Replace siblings `a` and `b` (children of `parent`) by one bucket.
    Siblings {
        /// Common parent.
        parent: BucketId,
        /// First sibling.
        a: BucketId,
        /// Second sibling.
        b: BucketId,
    },
}

/// A merge candidate with its penalty.
#[derive(Clone, Debug, PartialEq)]
pub struct MergePenalty {
    /// Estimated change in histogram estimates caused by the merge.
    pub penalty: f64,
    /// The merge itself.
    pub op: MergeOp,
}

/// Cached cheapest merges below one parent bucket: the best merge of a
/// child into this parent, and the best sibling–sibling merge among its
/// children. Invalidated whenever the parent or one of its children
/// changes structurally.
#[derive(Clone, Debug, Default)]
pub struct ParentMerges {
    /// Cheapest parent–child merge (child into this bucket).
    pub best_parent_child: Option<MergePenalty>,
    /// Cheapest sibling–sibling merge among this bucket's children.
    pub best_siblings: Option<MergePenalty>,
}

/// One queued heap candidate: the cheapest merge of one shape under
/// `parent`, valid only while `version` matches the accelerator's current
/// version for that parent (lazy deletion).
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    penalty: f64,
    parent: BucketId,
    version: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Penalties are finite sums of absolute values (never NaN, never
        // −0.0), so total_cmp agrees with the numeric order. The parent
        // tiebreak reproduces the original scan order (ascending slot).
        self.penalty
            .total_cmp(&other.penalty)
            .then(self.parent.cmp(&other.parent))
            .then(self.version.cmp(&other.version))
    }
}

/// Sibling-merge geometry of one parent, memoized in its cache entry:
/// the children it was computed from, the candidate pairs, and per pair
/// the extended box `bn` with its volume, its participants and the
/// volume it takes over from the parent.
///
/// Pair selection and the extension fixpoints read only the children's
/// ids, boxes and box volumes, so the memo is a function of the child
/// list: ids in order, with bit-identical boxes. It stays whole while
/// that list is unchanged and is repaired after the edits drills and
/// merges make (see [`ListEdit`]). Frequencies, own volumes and the
/// pair's grandchildren are never memoized; the penalty arithmetic reads
/// them afresh on every refresh.
#[derive(Debug, Default)]
struct SiblingMemo {
    /// Children the memo was computed from, in children order.
    kids: Vec<BucketId>,
    /// Their packed bounds, `2·ndim` values each, so that a recycled slot
    /// id carrying a different box never matches.
    bounds: Vec<f64>,
    /// Candidate pairs as positions into `kids`, sorted.
    pairs: Vec<(u32, u32)>,
    /// Per pair, the packed extended box.
    boxes: Vec<f64>,
    /// Per pair, the volume of its box.
    vols: Vec<f64>,
    /// Per pair, `v_move` before clamping: the box volume minus the
    /// volumes of the pair's two children, then of its participants in
    /// children order.
    v_moves: Vec<f64>,
    /// Per pair, the participant positions in children order,
    /// concatenated: pair `t` owns `parts[part_ends[t - 1]..part_ends[t]]`.
    parts: Vec<u32>,
    part_ends: Vec<u32>,
}

impl SiblingMemo {
    fn clear(&mut self) {
        self.kids.clear();
        self.bounds.clear();
        self.pairs.clear();
        self.boxes.clear();
        self.vols.clear();
        self.v_moves.clear();
        self.parts.clear();
        self.part_ends.clear();
    }

    /// Child `p`'s packed box as the memo saw it (`span` = `2·ndim`); the
    /// child may have died since.
    fn kid_bounds(&self, p: usize, span: usize) -> &[f64] {
        &self.bounds[p * span..(p + 1) * span]
    }

    /// Pair `t`'s extended box (`span` = `2·ndim`).
    fn bn(&self, t: usize, span: usize) -> &[f64] {
        &self.boxes[t * span..(t + 1) * span]
    }

    /// Pair `t`'s participant positions, in children order.
    fn participants(&self, t: usize) -> &[u32] {
        let start = if t == 0 { 0 } else { self.part_ends[t - 1] as usize };
        &self.parts[start..self.part_ends[t] as usize]
    }
}

/// What the repair of a [`SiblingMemo`] does with one candidate pair of
/// the new child list.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Plan {
    /// Keeps old pair `u`'s box, without a sweep.
    Keep(u32),
    /// Sweeps from the pair's hull (a new pair, or one an edited child
    /// cuts).
    Sweep,
}

/// How a parent's child list differs from the one its [`SiblingMemo`]
/// was computed from, and the repair plan for each candidate pair.
///
/// Every library edit of a child list removes some children (`R`) and
/// appends new ones (`A`) after the survivors, which keep their ids,
/// boxes and relative order. A drill moves the children inside its hole
/// under the hole; a sibling merge replaces its pair and participants by
/// the merged bucket; a parent–child merge replaces the child by the
/// child's own children. A surviving pair with old box `F` keeps `F`
/// when every appended child misses `F` or lies inside it and every
/// removed child overlapping `F` lies inside an appended one; every
/// other pair sweeps. DESIGN.md "Hot path" has the proof.
#[derive(Debug, Default)]
pub(crate) struct ListEdit {
    /// Per arena slot, 1 + its position in the old list during `survey`,
    /// 0 otherwise.
    slot_pos: Vec<u32>,
    /// Per survivor (the new list's first `s` children), its old position.
    old_pos: Vec<u32>,
    /// Per old position, the new position, or `u32::MAX` when removed.
    new_pos: Vec<u32>,
    /// Old positions of the removed children that lie inside no appended
    /// child.
    uncovered: Vec<u32>,
    /// Per candidate pair of the new list, what the repair does with it.
    plan: Vec<Plan>,
}

impl ListEdit {
    /// Matches the new child list `kids` against `old`'s and returns the
    /// number `s` of survivors: `kids[..s]` appear in `old` in the same
    /// order with bit-identical boxes, and `kids[s..]` are appended. A
    /// list that changed any other way (a survivor out of order, or after
    /// an appended child) clears `old`, so the memo is rebuilt.
    fn survey(
        &mut self,
        arena: &BucketArena,
        old: &mut SiblingMemo,
        kids: &[BucketId],
        span: usize,
    ) -> usize {
        for (p, &c) in old.kids.iter().enumerate() {
            if c >= self.slot_pos.len() {
                self.slot_pos.resize(c + 1, 0);
            }
            self.slot_pos[c] = p as u32 + 1;
        }
        self.old_pos.clear();
        let (mut appending, mut ordered) = (false, true);
        for &c in kids {
            let p = self.slot_pos.get(c).map_or(0, |&p| p as usize);
            if p == 0 || !same_bits(old.kid_bounds(p - 1, span), arena.bounds(c)) {
                appending = true;
            } else if appending || self.old_pos.last().is_some_and(|&q| q as usize >= p - 1) {
                ordered = false;
                break;
            } else {
                self.old_pos.push(p as u32 - 1);
            }
        }
        for &c in &old.kids {
            self.slot_pos[c] = 0;
        }
        if !ordered {
            old.clear();
            self.old_pos.clear();
        }
        self.new_pos.clear();
        self.new_pos.resize(old.kids.len(), u32::MAX);
        for (t, &p) in self.old_pos.iter().enumerate() {
            self.new_pos[p as usize] = t as u32;
        }
        self.old_pos.len()
    }

    /// Plans every candidate pair `pairs` of the new list `kids`, whose
    /// first `s` children survive from `old` (after [`ListEdit::survey`]).
    /// Both pair lists are sorted and survivors keep their order, so one
    /// forward cursor finds each surviving pair in `old`.
    fn plan_pairs(
        &mut self,
        arena: &BucketArena,
        old: &SiblingMemo,
        kids: &[BucketId],
        s: usize,
        pairs: &[(u32, u32)],
    ) {
        let span = arena.bounds(kids[0]).len();
        let appended = &kids[s..];
        self.uncovered.clear();
        for (p, &q) in self.new_pos.iter().enumerate() {
            let r = old.kid_bounds(p, span);
            if q == u32::MAX && !appended.iter().any(|&a| inside(r, arena.bounds(a))) {
                self.uncovered.push(p as u32);
            }
        }
        self.plan.clear();
        let mut u = 0;
        for &(pi, pj) in pairs {
            let mut plan = Plan::Sweep;
            if (pi as usize) < s && (pj as usize) < s {
                let was = (self.old_pos[pi as usize], self.old_pos[pj as usize]);
                while old.pairs.get(u).is_some_and(|&q| q < was) {
                    u += 1;
                }
                if old.pairs.get(u) == Some(&was) {
                    let f = old.bn(u, span);
                    let keep = appended.iter().all(|&a| {
                        let b = arena.bounds(a);
                        !overlaps(f, b) || inside(b, f)
                    }) && self
                        .uncovered
                        .iter()
                        .all(|&r| !overlaps(f, old.kid_bounds(r as usize, span)));
                    if keep {
                        plan = Plan::Keep(u as u32);
                    }
                }
            }
            self.plan.push(plan);
        }
    }
}

/// One parent's cache entry.
#[derive(Debug, Default)]
struct ParentEntry {
    merges: ParentMerges,
    memo: SiblingMemo,
    /// The buffers the next refresh builds into, swapped with `memo`.
    spare: SiblingMemo,
}

/// `true` when packed boxes `a` and `b` share interior volume — the
/// predicate under which the sibling extension absorbs a box.
fn overlaps(a: &[f64], b: &[f64]) -> bool {
    let n = a.len() / 2;
    (0..n).all(|d| a[d].max(b[d]) < a[n + d].min(b[n + d]))
}

/// `true` when packed box `inner` lies inside packed box `outer`.
fn inside(inner: &[f64], outer: &[f64]) -> bool {
    let n = inner.len() / 2;
    (0..n).all(|d| outer[d] <= inner[d] && inner[n + d] <= outer[n + d])
}

/// `true` when `a` and `b` hold the same bits.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Volume of packed box `b`.
fn packed_volume(b: &[f64]) -> f64 {
    let n = b.len() / 2;
    let mut v = 1.0;
    for d in 0..n {
        v *= b[n + d] - b[d];
    }
    v
}

/// The volume and tuples a sibling merge takes over from its parent's
/// own region (volume `v_p_own` holding `f_p` tuples), from the unclamped
/// `v_move`.
fn moved_share(v_move: f64, f_p: f64, v_p_own: f64) -> (f64, f64) {
    let v_move = v_move.max(0.0);
    let rho_p = if v_p_own > 0.0 { f_p / v_p_own } else { 0.0 };
    (v_move, (rho_p * v_move).min(f_p))
}

/// Hull-closing witnesses of one sibling-memo refresh.
///
/// A sibling fixpoint is the *least* box around its pair that every other
/// sibling misses or lies inside. The exact children hull `H` is such a
/// box for every pair, so every fixpoint lies inside `H`. A pair whose
/// fixpoint comes out bit-equal to `H` is *hull-closing*. Once a later
/// sweep's box holds both children of a hull-closing pair, its fixpoint
/// holds them too and no sibling cuts it, so it holds their least box
/// `H`: the fixpoint is `H`. The sweep stops there, and its participants
/// are the children overlapping `H` (`members`) other than its pair —
/// exactly what a plain sweep ending at `H` swallows. Witnesses hold for
/// one child list only; `start` forgets them.
#[derive(Debug, Default)]
pub(crate) struct HullWitnesses {
    /// The packed exact children hull `H`.
    hull: Vec<f64>,
    /// Positions of the children overlapping `H`, in children order.
    members: Vec<u32>,
    /// Per child position, the positions it forms hull-closing pairs with.
    partners: Vec<Vec<u32>>,
    /// Per child position, whether the current sweep's box holds it (one
    /// of the pair or a participant).
    taken: Vec<bool>,
}

impl HullWitnesses {
    /// Starts a refresh over `kids` (at least one): computes `H` and its
    /// members, and forgets every witness of the previous refresh.
    fn start(&mut self, arena: &BucketArena, kids: &[BucketId]) {
        let hull = &mut self.hull;
        hull.clear();
        hull.extend_from_slice(arena.bounds(kids[0]));
        let n = hull.len() / 2;
        for &c in &kids[1..] {
            let b = arena.bounds(c);
            for d in 0..n {
                hull[d] = hull[d].min(b[d]);
                hull[n + d] = hull[n + d].max(b[n + d]);
            }
        }
        self.members.clear();
        self.members.extend(
            (0..kids.len() as u32).filter(|&p| overlaps(hull, arena.bounds(kids[p as usize]))),
        );
        self.partners.iter_mut().for_each(Vec::clear);
        if self.partners.len() < kids.len() {
            self.partners.resize_with(kids.len(), Vec::new);
        }
        self.taken.clear();
        self.taken.resize(kids.len(), false);
    }

    /// Marks position `p` as held by the sweep's box; `true` when that
    /// completes a hull-closing pair.
    fn take(&mut self, p: u32) -> bool {
        self.taken[p as usize] = true;
        self.partners[p as usize].iter().any(|&q| self.taken[q as usize])
    }

    /// Ends the sweep of pair (`pi`, `pj`), whose box held `parts`: clears
    /// the marks, writes `H` and its participants if the sweep was
    /// `settled`, and records the pair if its box is `H`.
    fn finish(&mut self, pi: u32, pj: u32, settled: bool, bn: &mut [f64], parts: &mut Vec<u32>) {
        for &p in [pi, pj].iter().chain(parts.iter()) {
            self.taken[p as usize] = false;
        }
        if settled {
            obs::incr(obs::Counter::SiblingHullJumps);
            bn.copy_from_slice(&self.hull);
            parts.clear();
            parts.extend(self.members.iter().filter(|&&p| p != pi && p != pj));
        }
        self.record(pi, pj, bn);
    }

    /// Records pair (`pi`, `pj`), whose fixpoint is `bn`, as a witness if
    /// `bn` is `H`.
    fn record(&mut self, pi: u32, pj: u32, bn: &[f64]) {
        if same_bits(bn, &self.hull) {
            self.partners[pi as usize].push(pj);
            self.partners[pj as usize].push(pi);
        }
    }
}

/// Incremental best-merge state: per-parent caches, a dirty set, and two
/// global min-heaps with versioned lazy deletion.
///
/// Not part of the histogram's logical state: `Clone` and persistence drop
/// it (`rebuild_all` makes the first `best_merge` after a rebuild start
/// from scratch).
#[derive(Debug)]
pub(crate) struct MergeAccel {
    cache: HashMap<BucketId, ParentEntry>,
    /// Per-slot version; bumping it invalidates all queued heap entries.
    version: Vec<u64>,
    dirty: Vec<BucketId>,
    dirty_flag: Vec<bool>,
    heap_pc: BinaryHeap<Reverse<HeapEntry>>,
    heap_sib: BinaryHeap<Reverse<HeapEntry>>,
    rebuild_all: bool,
}

impl Default for MergeAccel {
    fn default() -> Self {
        Self {
            cache: HashMap::new(),
            version: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: Vec::new(),
            heap_pc: BinaryHeap::new(),
            heap_sib: BinaryHeap::new(),
            rebuild_all: true,
        }
    }
}

impl MergeAccel {
    fn ensure(&mut self, id: BucketId) {
        if id >= self.version.len() {
            self.version.resize(id + 1, 0);
            self.dirty_flag.resize(id + 1, false);
        }
    }

    /// Queues `id` for recomputation at the next `best_merge`.
    pub(crate) fn mark_dirty(&mut self, id: BucketId) {
        self.ensure(id);
        if !self.dirty_flag[id] {
            self.dirty_flag[id] = true;
            self.dirty.push(id);
        }
    }

    /// Drops everything; the next `best_merge` rebuilds from the tree.
    pub(crate) fn invalidate_all(&mut self) {
        self.rebuild_all = true;
    }

    /// Pops stale entries off `heap` and returns (a copy of) the valid top.
    fn peek_valid(heap: &mut BinaryHeap<Reverse<HeapEntry>>, version: &[u64]) -> Option<HeapEntry> {
        while let Some(&Reverse(top)) = heap.peek() {
            if version.get(top.parent).copied() == Some(top.version) {
                return Some(top);
            }
            heap.pop();
        }
        None
    }
}

impl StHoles {
    /// Applies minimum-penalty merges until the bucket count is back under
    /// the budget.
    /// Public compaction entry point — exposed for diagnostics and
    /// profiling tools.
    pub fn compact_now(&mut self) {
        self.compact();
    }

    pub(crate) fn compact(&mut self) {
        while self.nonroot_count > self.config.budget {
            match self.best_merge() {
                Some(m) => self.apply_merge(&m.op),
                None => break, // nothing mergeable (degenerate tree)
            }
        }
    }

    /// Returns the cheapest merge under the configured
    /// [`crate::MergePolicy`].
    ///
    /// Steady-state cost is O(dirty parents) recomputation plus O(log
    /// parents) heap maintenance; see the module docs. The result is
    /// identical to [`StHoles::best_merge_exhaustive`].
    pub fn best_merge(&mut self) -> Option<MergePenalty> {
        self.refresh_merge_accel();
        let policy = self.config.merge_policy;
        let accel = &mut self.merge_accel;
        let pc = MergeAccel::peek_valid(&mut accel.heap_pc, &accel.version);
        let sib = match policy {
            crate::MergePolicy::ParentChildOnly => None,
            _ => MergeAccel::peek_valid(&mut accel.heap_sib, &accel.version),
        };
        // Tie rules reproduce the original full scan: parents visited in
        // ascending slot order, parent–child considered before siblings,
        // strict `<` (first candidate wins).
        let pick_pc = match (&pc, &sib) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(p), Some(s)) => match policy {
                crate::MergePolicy::ParentChildOnly => true,
                crate::MergePolicy::SiblingFirst => false,
                crate::MergePolicy::All => match p.penalty.total_cmp(&s.penalty) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => p.parent <= s.parent,
                },
            },
        };
        let winner = if pick_pc { pc.unwrap() } else { sib.unwrap() };
        let entry =
            &accel.cache.get(&winner.parent).expect("valid heap entry without cache").merges;
        let mp = if pick_pc { &entry.best_parent_child } else { &entry.best_siblings };
        Some(mp.as_ref().expect("valid heap entry without candidate").clone())
    }

    /// Brute-force reference for [`StHoles::best_merge`]: rescans every
    /// parent and recomputes every penalty and every sibling fixpoint,
    /// ignoring the incremental acceleration state. O(buckets · children²);
    /// oracle for tests.
    pub fn best_merge_exhaustive(&self) -> Option<MergePenalty> {
        let mut scratch = RefineScratch::default();
        let policy = self.config.merge_policy;
        let mut best: Option<MergePenalty> = None;
        let mut best_pc: Option<MergePenalty> = None;
        fn consider(slot: &mut Option<MergePenalty>, cand: &Option<MergePenalty>) {
            if let Some(c) = cand {
                if slot.as_ref().is_none_or(|b| c.penalty < b.penalty) {
                    *slot = Some(c.clone());
                }
            }
        }
        for (id, b) in self.arena.iter() {
            if b.children.is_empty() {
                continue;
            }
            let (mut memo, mut spare) = Default::default();
            let entry = self.compute_parent_merges(id, &mut scratch, &mut memo, &mut spare, false);
            consider(&mut best_pc, &entry.best_parent_child);
            match policy {
                crate::MergePolicy::All => {
                    consider(&mut best, &entry.best_parent_child);
                    consider(&mut best, &entry.best_siblings);
                }
                crate::MergePolicy::ParentChildOnly => {
                    consider(&mut best, &entry.best_parent_child);
                }
                crate::MergePolicy::SiblingFirst => {
                    consider(&mut best, &entry.best_siblings);
                }
            }
        }
        best.or(best_pc)
    }

    /// Recomputes dirty parents, refreshes their heap entries, and
    /// occasionally compacts the heaps of accumulated stale entries.
    fn refresh_merge_accel(&mut self) {
        let mut accel = std::mem::take(&mut self.merge_accel);
        let mut scratch = std::mem::take(&mut self.scratch);
        if accel.rebuild_all {
            accel.rebuild_all = false;
            accel.cache.clear();
            accel.heap_pc.clear();
            accel.heap_sib.clear();
            accel.dirty.clear();
            accel.dirty_flag.iter_mut().for_each(|f| *f = false);
            for (id, b) in self.arena.iter() {
                if !b.children.is_empty() {
                    accel.mark_dirty(id);
                }
            }
        }
        let mut dirty = std::mem::take(&mut accel.dirty);
        for &id in &dirty {
            accel.dirty_flag[id] = false;
            accel.version[id] = accel.version[id].wrapping_add(1);
            if self.arena.contains(id) && !self.arena.get(id).children.is_empty() {
                let entry = accel.cache.entry(id).or_default();
                let (memo, spare) = (&mut entry.memo, &mut entry.spare);
                entry.merges = self.compute_parent_merges(id, &mut scratch, memo, spare, true);
                let version = accel.version[id];
                if let Some(mp) = &entry.merges.best_parent_child {
                    accel
                        .heap_pc
                        .push(Reverse(HeapEntry { penalty: mp.penalty, parent: id, version }));
                }
                if let Some(mp) = &entry.merges.best_siblings {
                    accel
                        .heap_sib
                        .push(Reverse(HeapEntry { penalty: mp.penalty, parent: id, version }));
                }
            } else {
                accel.cache.remove(&id);
            }
        }
        dirty.clear();
        accel.dirty = dirty;
        // Lazy deletion lets stale entries pile up; rebuild both heaps from
        // the cache once they dominate. Amortized O(1) per merge.
        let live = accel.cache.len();
        let stale_heavy = |len: usize| len > 64 && len > 4 * live;
        if stale_heavy(accel.heap_pc.len()) || stale_heavy(accel.heap_sib.len()) {
            sth_platform::obs::incr(sth_platform::obs::Counter::HeapRebuilds);
            accel.heap_pc.clear();
            accel.heap_sib.clear();
            for (&id, ParentEntry { merges: entry, .. }) in &accel.cache {
                let version = accel.version[id];
                if let Some(mp) = &entry.best_parent_child {
                    accel
                        .heap_pc
                        .push(Reverse(HeapEntry { penalty: mp.penalty, parent: id, version }));
                }
                if let Some(mp) = &entry.best_siblings {
                    accel
                        .heap_sib
                        .push(Reverse(HeapEntry { penalty: mp.penalty, parent: id, version }));
                }
            }
        }
        self.scratch = scratch;
        self.merge_accel = accel;
    }

    /// Marks the merge candidates of `id` and of its parent stale — called
    /// after any structural change (frequency, box set, child list) at `id`.
    pub(crate) fn invalidate_merges(&mut self, id: BucketId) {
        self.merge_accel.mark_dirty(id);
        if self.arena.contains(id) {
            if let Some(p) = self.arena.get(id).parent {
                self.merge_accel.mark_dirty(p);
            }
        }
    }

    /// Computes the cheapest merges below parent `id`, allocation-free:
    /// own volumes are computed once per child, and the sibling candidates
    /// take their extended boxes from `memo`, which is first brought up to
    /// date with `id`'s children using `spare`'s buffers (an empty memo
    /// recomputes every fixpoint, with hull-closing witnesses when
    /// `witnessed`).
    fn compute_parent_merges(
        &self,
        id: BucketId,
        scratch: &mut RefineScratch,
        memo: &mut SiblingMemo,
        spare: &mut SiblingMemo,
        witnessed: bool,
    ) -> ParentMerges {
        self.refresh_sibling_memo(id, memo, spare, scratch, witnessed);
        let child_owns = &mut scratch.child_owns;
        let bucket = self.arena.get(id);
        let kids = &bucket.children;
        let v_p = self.arena.own_volume(id);
        child_owns.clear();
        for &c in kids {
            child_owns.push(self.arena.own_volume(c));
        }

        let f_p = bucket.freq;
        let mut entry = ParentMerges::default();
        for (i, &c) in kids.iter().enumerate() {
            // Penalty of folding `c` into `id`: both regions are afterwards
            // estimated with the pooled density.
            let f_c = self.arena.get(c).freq;
            let v_c = child_owns[i];
            let v_n = v_p + v_c;
            let rho_n = if v_n > 0.0 { (f_p + f_c) / v_n } else { 0.0 };
            let penalty = (f_p - rho_n * v_p).abs() + (f_c - rho_n * v_c).abs();
            if entry.best_parent_child.as_ref().is_none_or(|b| penalty < b.penalty) {
                entry.best_parent_child =
                    Some(MergePenalty { penalty, op: MergeOp::ParentChild { parent: id, child: c } });
            }
        }

        for (t, &(pi, pj)) in memo.pairs.iter().enumerate() {
            let penalty = self.sibling_penalty(id, v_p, child_owns, memo, t);
            if entry.best_siblings.as_ref().is_none_or(|x| penalty < x.penalty) {
                entry.best_siblings = Some(MergePenalty {
                    penalty,
                    op: MergeOp::Siblings {
                        parent: id,
                        a: kids[pi as usize],
                        b: kids[pj as usize],
                    },
                });
            }
        }
        entry
    }

    /// Brings `memo` up to date with `parent`'s children. An unchanged
    /// child list (same ids, bit-identical boxes) keeps everything. After
    /// removals and appends ([`ListEdit`]) the candidate pairs are
    /// reselected, each surviving pair that no edited child cuts keeps its
    /// box, and every other pair sweeps from its hull. With `witnessed`,
    /// hull-closing witnesses (the kept ones first) settle those sweeps
    /// early. The new memo is built in `new` and swapped into `memo`, so
    /// each parent reuses its own two buffers.
    fn refresh_sibling_memo(
        &self,
        parent: BucketId,
        memo: &mut SiblingMemo,
        new: &mut SiblingMemo,
        scratch: &mut RefineScratch,
        witnessed: bool,
    ) {
        let kids = &self.arena.get(parent).children;
        let span = 2 * self.domain().ndim();
        if memo.kids == *kids
            && kids
                .iter()
                .enumerate()
                .all(|(p, &c)| same_bits(memo.kid_bounds(p, span), self.arena.bounds(c)))
        {
            return;
        }
        let RefineScratch {
            pair_buf,
            best2,
            x_order,
            active,
            sib_parts,
            witnesses,
            edit,
            ..
        } = scratch;
        let s = edit.survey(&self.arena, memo, kids, span);
        new.clear();
        new.kids.extend_from_slice(kids);
        for &c in kids {
            new.bounds.extend_from_slice(self.arena.bounds(c));
        }
        self.sibling_pair_positions(parent, &mut new.pairs, pair_buf, best2);
        if new.pairs.is_empty() {
            std::mem::swap(memo, new);
            return;
        }
        edit.plan_pairs(&self.arena, memo, kids, s, &new.pairs);

        let mut witnesses = witnessed.then_some(witnesses);
        if let Some(w) = witnesses.as_deref_mut() {
            w.start(&self.arena, kids);
            for (&(pi, pj), &plan) in new.pairs.iter().zip(&edit.plan) {
                if let Plan::Keep(u) = plan {
                    w.record(pi, pj, memo.bn(u as usize, span));
                }
            }
        }
        x_order.clear();
        for (&(pi, pj), &plan) in new.pairs.iter().zip(&edit.plan) {
            let first_part = new.parts.len();
            let vol = if let Plan::Keep(u) = plan {
                obs::incr(obs::Counter::SiblingMemoKept);
                let u = u as usize;
                let f = memo.bn(u, span);
                new.boxes.extend_from_slice(f);
                // Survivors keep their order and the appended children
                // come last, so the participants stay in children order.
                new.parts.extend(
                    memo.participants(u)
                        .iter()
                        .map(|&p| edit.new_pos[p as usize])
                        .filter(|&q| q != u32::MAX),
                );
                new.parts.extend(
                    (s..kids.len())
                        .filter(|&q| overlaps(f, self.arena.bounds(kids[q])))
                        .map(|q| q as u32),
                );
                memo.vols[u]
            } else {
                if x_order.is_empty() {
                    self.sort_by_dim0(kids, x_order);
                }
                let at = new.boxes.len();
                new.boxes.resize(at + span, 0.0);
                let bn = &mut new.boxes[at..];
                let w = witnesses.as_deref_mut();
                self.sibling_fixpoint(kids, pi, pj, x_order, active, bn, sib_parts, w);
                new.parts.extend_from_slice(sib_parts);
                packed_volume(bn)
            };
            let (a, b) = (kids[pi as usize], kids[pj as usize]);
            let v_move = self.raw_v_move(vol, a, b, &new.parts[first_part..], kids);
            new.vols.push(vol);
            new.v_moves.push(v_move);
            new.part_ends.push(new.parts.len() as u32);
        }
        std::mem::swap(memo, new);
    }

    /// Fills `pairs` with the sibling pairs worth evaluating under
    /// `parent`, as positions into its children list. With `cap` =
    /// `sibling_neighbor_cap`, up to `2·max(cap, 2)` children every pair
    /// is evaluated. Above that, the pairs are each child's `min(cap, 2)`
    /// lowest-growth partners plus the `max(8·cap, 16)` lowest-growth
    /// pairs overall (see [`crate::SthConfig`]).
    ///
    /// Deterministic: pruned candidates are sorted by position (the
    /// original collected them in a `HashSet`, making tie-breaks among
    /// equal penalties run-to-run random).
    fn sibling_pair_positions(
        &self,
        parent: BucketId,
        pairs: &mut Vec<(u32, u32)>,
        pair_buf: &mut Vec<(f64, u32, u32)>,
        best2: &mut Vec<[(f64, u32); 2]>,
    ) {
        pairs.clear();
        let kids = &self.arena.get(parent).children;
        let k = kids.len();
        if k < 2 {
            return;
        }
        let cap = self.config.sibling_neighbor_cap;
        let exhaustive = match cap {
            None => true,
            Some(cap) => k <= cap.max(2) * 2,
        };
        if exhaustive {
            for i in 0..k as u32 {
                for j in i + 1..k as u32 {
                    pairs.push((i, j));
                }
            }
            return;
        }
        let cap = cap.unwrap();
        // Hull growth = vol(hull(a,b)) − vol(a) − vol(b): a cheap proxy for
        // how much foreign volume a merge would absorb. This proxy loop is
        // O(children²) per cache refresh and dominates merge-search cost on
        // flat trees, so it runs on the packed bounds / cached volumes.
        let n = self.arena.bounds(kids[0]).len() / 2;
        pair_buf.clear();
        best2.clear();
        best2.resize(k, [(f64::INFINITY, u32::MAX); 2]);
        // Per-child best neighbors keep isolated children mergeable; a small
        // global top-up catches cheap pairs clustered in one region.
        let update = |best: &mut [(f64, u32); 2], g: f64, j: u32| {
            if g < best[0].0 {
                best[1] = best[0];
                best[0] = (g, j);
            } else if g < best[1].0 {
                best[1] = (g, j);
            }
        };
        for i in 0..k {
            let bi = self.arena.bounds(kids[i]);
            let v_i = self.arena.volume_of(kids[i]);
            for j in i + 1..k {
                let bj = self.arena.bounds(kids[j]);
                let v_j = self.arena.volume_of(kids[j]);
                let mut v = 1.0;
                for d in 0..n {
                    v *= bi[n + d].max(bj[n + d]) - bi[d].min(bj[d]);
                }
                // Both subtraction orders: each child sees the growth with
                // its own volume subtracted first, exactly as the original
                // full j-loop computed it (the two differ in the last ulp).
                let g_ij = v - v_i - v_j;
                let g_ji = v - v_j - v_i;
                pair_buf.push((g_ij, i as u32, j as u32));
                update(&mut best2[i], g_ij, j as u32);
                update(&mut best2[j], g_ji, i as u32);
            }
        }
        let push_id_ordered = |pairs: &mut Vec<(u32, u32)>, i: u32, j: u32| {
            if kids[i as usize] < kids[j as usize] {
                pairs.push((i, j));
            } else {
                pairs.push((j, i));
            }
        };
        for (i, best) in best2.iter().enumerate() {
            for &(_, j) in best.iter().take(cap.min(2)) {
                if j != u32::MAX {
                    push_id_ordered(pairs, i as u32, j);
                }
            }
        }
        let global_top = (cap * 8).max(16);
        if pair_buf.len() > global_top {
            pair_buf.select_nth_unstable_by(global_top, |a, b| a.0.partial_cmp(&b.0).unwrap());
            pair_buf.truncate(global_top);
        }
        for &(_, i, j) in pair_buf.iter() {
            push_id_ordered(pairs, i, j);
        }
        // Positions map 1:1 to ids, and the orientation above is canonical,
        // so duplicates are textual and sort+dedup removes them all.
        pairs.sort_unstable();
        pairs.dedup();
    }

    /// Child positions of `kids` by ascending dim-0 lower edge (position
    /// as tiebreak, so the order is deterministic under equal edges): the
    /// sweep order of [`StHoles::sibling_fixpoint`].
    fn sort_by_dim0(&self, kids: &[BucketId], x_order: &mut Vec<u32>) {
        x_order.clear();
        x_order.extend(0..kids.len() as u32);
        x_order.sort_unstable_by(|&a, &b| {
            let xa = self.arena.bounds(kids[a as usize])[0];
            let xb = self.arena.bounds(kids[b as usize])[0];
            xa.total_cmp(&xb).then(a.cmp(&b))
        });
    }

    /// Extends the hull of the children at positions `pi`, `pj` of `kids`
    /// until every other child is disjoint from it or inside it (Fig. 3
    /// (b)). Writes the packed box to `bn` and the positions of the
    /// children it swallows (the participants), in children order, to
    /// `parts`. `x_order` comes from [`StHoles::sort_by_dim0`]. With
    /// `witnesses` (a memo refresh over `kids`, see [`HullWitnesses`]) the
    /// sweep stops as soon as its box holds a hull-closing pair; without
    /// them it is the plain sweep to stability.
    #[allow(clippy::too_many_arguments)]
    fn sibling_fixpoint(
        &self,
        kids: &[BucketId],
        pi: u32,
        pj: u32,
        x_order: &[u32],
        active: &mut Vec<u32>,
        bn: &mut [f64],
        parts: &mut Vec<u32>,
        mut witnesses: Option<&mut HullWitnesses>,
    ) {
        obs::incr(obs::Counter::SiblingFixpoints);
        let ba = self.arena.bounds(kids[pi as usize]);
        let bb = self.arena.bounds(kids[pj as usize]);
        let n = ba.len() / 2;
        for d in 0..n {
            bn[d] = ba[d].min(bb[d]);
            bn[n + d] = ba[n + d].max(bb[n + d]);
        }
        // The box only ever grows, and each pass runs to stability, so the
        // result is the least fixpoint — independent of visit order (min /
        // max are exact, so even the bits are order-independent). Three
        // consequences are exploited here:
        //
        // * sweeping children by ascending dim-0 lower edge (`x_order`)
        //   lets a pass stop at the first child starting past the current
        //   box — everything later is disjoint in dim 0;
        // * a child the box has swallowed stays swallowed, so it moves
        //   from the `active` worklist straight into the participant list
        //   and is never rescanned — later passes only revisit children
        //   that were still disjoint;
        // * a box holding both children of a hull-closing witness can only
        //   grow to the children hull, so with `witnesses` the sweep stops
        //   there and `finish` writes that hull.
        active.clear();
        active.extend(x_order.iter().copied().filter(|&p| p != pi && p != pj));
        parts.clear();
        if let Some(w) = witnesses.as_deref_mut() {
            w.taken[pi as usize] = true;
            w.taken[pj as usize] = true;
        }
        let mut settled = false;
        'sweep: loop {
            let mut changed = false;
            let mut kept = 0;
            let mut idx = 0;
            while idx < active.len() {
                let pos32 = active[idx];
                let bs = self.arena.bounds(kids[pos32 as usize]);
                if bs[0] > bn[n] {
                    // Everything from here on starts past the box: still
                    // disjoint, keep it on the worklist for later passes.
                    while idx < active.len() {
                        active[kept] = active[idx];
                        kept += 1;
                        idx += 1;
                    }
                    break;
                }
                idx += 1;
                if !overlaps(bn, bs) {
                    active[kept] = pos32;
                    kept += 1;
                    continue;
                }
                for d in 0..n {
                    if bs[d] < bn[d] {
                        bn[d] = bs[d];
                        changed = true;
                    }
                    if bs[n + d] > bn[n + d] {
                        bn[n + d] = bs[n + d];
                        changed = true;
                    }
                }
                // Contained now (extension covers the box exactly): a
                // permanent participant.
                parts.push(pos32);
                if witnesses.as_deref_mut().is_some_and(|w| w.take(pos32)) {
                    settled = true;
                    break 'sweep;
                }
            }
            active.truncate(kept);
            if !changed {
                break;
            }
        }
        if let Some(w) = witnesses {
            w.finish(pi, pj, settled, bn, parts);
        }
        // Positions were collected in sweep order; the volume sums of the
        // penalty must run in children order to stay bit-identical to a
        // plain scan.
        parts.sort_unstable();
    }

    /// `v_move` before clamping, of merging siblings `a`, `b` into a box
    /// of volume `bn_vol` that swallows the children at positions `parts`
    /// of `kids`: the volume the merge takes over from the parent's own
    /// region.
    fn raw_v_move(
        &self,
        bn_vol: f64,
        a: BucketId,
        b: BucketId,
        parts: &[u32],
        kids: &[BucketId],
    ) -> f64 {
        let mut v = bn_vol - self.arena.volume_of(a) - self.arena.volume_of(b);
        for &p in parts {
            v -= self.arena.volume_of(kids[p as usize]);
        }
        v
    }

    /// Penalty of merging memo pair `t` of `parent` into its extended box,
    /// which swallows the pair's participants.
    fn sibling_penalty(
        &self,
        parent: BucketId,
        v_p_own: f64,
        child_owns: &[f64],
        memo: &SiblingMemo,
        t: usize,
    ) -> f64 {
        let pa = self.arena.get(parent);
        let (pi, pj) = (memo.pairs[t].0 as usize, memo.pairs[t].1 as usize);
        let (a, b) = (pa.children[pi], pa.children[pj]);
        let (v_move, f_move) = moved_share(memo.v_moves[t], pa.freq, v_p_own);

        // Own volume of the merged bucket: its box minus all child boxes
        // (former children of a and b, plus the participants).
        let mut v_n = memo.vols[t];
        for &c in self.arena.get(a).children.iter().chain(&self.arena.get(b).children) {
            v_n -= self.arena.volume_of(c);
        }
        for &p in memo.participants(t) {
            v_n -= self.arena.volume_of(pa.children[p as usize]);
        }
        let v_n = v_n.max(0.0);

        let f_a = self.arena.get(a).freq;
        let f_b = self.arena.get(b).freq;
        let f_n = f_a + f_b + f_move;
        let rho_n = if v_n > 0.0 { f_n / v_n } else { 0.0 };
        let v_a = child_owns[pi];
        let v_b = child_owns[pj];
        (f_a - rho_n * v_a).abs() + (f_b - rho_n * v_b).abs() + (f_move - rho_n * v_move).abs()
    }

    /// Applies a merge. The operation must refer to live buckets with the
    /// stated relationships.
    pub(crate) fn apply_merge(&mut self, op: &MergeOp) {
        sth_platform::obs::incr(sth_platform::obs::Counter::Merges);
        match *op {
            MergeOp::ParentChild { parent, child } => {
                debug_assert_eq!(self.arena.get(child).parent, Some(parent));
                let removed = {
                    let b = self.arena.get_mut(parent);
                    b.children.retain(|&c| c != child);
                    self.arena.dealloc(child)
                };
                for &gc in &removed.children {
                    self.arena.get_mut(gc).parent = Some(parent);
                }
                let p = self.arena.get_mut(parent);
                p.children.extend(&removed.children);
                p.freq += removed.freq;
                self.nonroot_count -= 1;
                self.arena.tighten_hull(parent);
                self.merge_accel.mark_dirty(child);
                self.invalidate_merges(parent);
            }
            MergeOp::Siblings { parent, a, b } => {
                let mut scratch = std::mem::take(&mut self.scratch);
                let RefineScratch { x_order, active, sib_parts, participants, bn: bn_box, .. } =
                    &mut scratch;
                let pa = self.arena.get(parent);
                let kids = &pa.children;
                let pos = |id| kids.iter().position(|&c| c == id).expect("merge of a non-child");
                let (pi, pj) = (pos(a) as u32, pos(b) as u32);
                self.sort_by_dim0(kids, x_order);
                bn_box.resize(2 * self.domain().ndim(), 0.0);
                self.sibling_fixpoint(kids, pi, pj, x_order, active, bn_box, sib_parts, None);
                participants.clear();
                participants.extend(sib_parts.iter().map(|&p| kids[p as usize]));
                let v_p_own = self.arena.own_volume(parent);
                let v_move = self.raw_v_move(packed_volume(bn_box), a, b, sib_parts, kids);
                let (_, f_move) = moved_share(v_move, pa.freq, v_p_own);
                let (lo, hi) = bn_box.split_at(bn_box.len() / 2);
                let rect = Rect::from_bounds(lo, hi);

                let removed_a = self.arena.dealloc(a);
                let removed_b = self.arena.dealloc(b);
                let mut children = removed_a.children;
                children.extend(removed_b.children);
                children.extend(participants.iter());
                let f_n = removed_a.freq + removed_b.freq + f_move;
                let bn =
                    self.arena.alloc(Bucket { rect, freq: f_n, parent: Some(parent), children });
                for i in 0..self.arena.get(bn).children.len() {
                    let c = self.arena.get(bn).children[i];
                    self.arena.get_mut(c).parent = Some(bn);
                }
                let p = self.arena.get_mut(parent);
                p.children.retain(|&c| c != a && c != b && !participants.contains(&c));
                p.children.push(bn);
                p.freq = (p.freq - f_move).max(0.0);
                self.scratch = scratch;
                self.nonroot_count -= 1;
                self.arena.tighten_hull(parent);
                self.arena.tighten_hull(bn);
                self.merge_accel.mark_dirty(a);
                self.merge_accel.mark_dirty(b);
                // `bn` may itself be a parent now — queue it for a fresh
                // cache entry (its recycled slot may hold stale state).
                self.merge_accel.mark_dirty(bn);
                self.invalidate_merges(parent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_platform::check::prelude::*;
    use sth_platform::rng::Rng;
    use sth_query::CardinalityEstimator;

    fn domain() -> Rect {
        Rect::cube(2, 0.0, 100.0)
    }

    /// Histogram with root and two disjoint children, plus a grandchild.
    fn build() -> (StHoles, BucketId, BucketId, BucketId) {
        let mut h = StHoles::with_total(domain(), 10, 10.0);
        let root = h.root();
        let a = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[0.0, 0.0], &[20.0, 20.0]), 40.0, Some(root)));
        let b = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[60.0, 60.0], &[80.0, 80.0]), 8.0, Some(root)));
        h.arena.get_mut(root).children.extend([a, b]);
        let gc = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[5.0, 5.0], &[10.0, 10.0]), 30.0, Some(a)));
        h.arena.get_mut(a).children.push(gc);
        h.nonroot_count = 3;
        h.check_invariants().unwrap();
        (h, a, b, gc)
    }

    #[test]
    fn parent_child_merge_preserves_total_and_reparents() {
        let (mut h, a, _b, gc) = build();
        let total = h.total_freq();
        h.apply_merge(&MergeOp::ParentChild { parent: a, child: gc });
        h.check_invariants().unwrap();
        assert_eq!(h.bucket_count(), 2);
        assert!((h.total_freq() - total).abs() < 1e-9);
        assert!((h.arena.get(a).freq - 70.0).abs() < 1e-9);
    }

    #[test]
    fn grandchildren_survive_parent_child_merge() {
        let (mut h, a, _b, gc) = build();
        let root = h.root();
        h.apply_merge(&MergeOp::ParentChild { parent: root, child: a });
        h.check_invariants().unwrap();
        // gc is now a direct child of root.
        assert_eq!(h.arena.get(gc).parent, Some(root));
        assert!(h.arena.get(root).children.contains(&gc));
    }

    #[test]
    fn sibling_merge_produces_hull_bucket() {
        let (mut h, a, b, gc) = build();
        let root = h.root();
        let total = h.total_freq();
        h.apply_merge(&MergeOp::Siblings { parent: root, a, b });
        h.check_invariants().unwrap();
        assert_eq!(h.bucket_count(), 2); // merged bucket + gc
        assert!((h.total_freq() - total).abs() < 1e-9);
        let kids = &h.arena.get(root).children;
        assert_eq!(kids.len(), 1);
        let bn = kids[0];
        let r = &h.arena.get(bn).rect;
        assert!(r.contains_rect(&Rect::from_bounds(&[0.0, 0.0], &[20.0, 20.0])));
        assert!(r.contains_rect(&Rect::from_bounds(&[60.0, 60.0], &[80.0, 80.0])));
        // gc lives under the merged bucket now.
        assert_eq!(h.arena.get(gc).parent, Some(bn));
    }

    #[test]
    fn sibling_merge_extends_over_partial_overlaps() {
        // Three siblings where the hull of (a, b) partially cuts c: the merge
        // must extend to fully include c, making it a participant (Fig. 3).
        let mut h = StHoles::with_total(domain(), 10, 10.0);
        let root = h.root();
        let a = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[0.0, 0.0], &[10.0, 10.0]), 5.0, Some(root)));
        let b = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[50.0, 40.0], &[60.0, 50.0]), 5.0, Some(root)));
        let c = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[20.0, 20.0], &[45.0, 60.0]), 5.0, Some(root)));
        h.arena.get_mut(root).children.extend([a, b, c]);
        h.nonroot_count = 3;
        h.check_invariants().unwrap();
        h.apply_merge(&MergeOp::Siblings { parent: root, a, b });
        h.check_invariants().unwrap();
        let kids = h.arena.get(root).children.clone();
        assert_eq!(kids.len(), 1);
        let bn = kids[0];
        assert!(h.arena.get(bn).rect.contains_rect(&Rect::from_bounds(&[20.0, 20.0], &[45.0, 60.0])));
        assert_eq!(h.arena.get(c).parent, Some(bn));
    }

    #[test]
    fn best_merge_prefers_identical_densities() {
        // Two siblings of equal density merge for free; a third with wildly
        // different density should not be chosen.
        let mut h = StHoles::with_total(domain(), 10, 0.0);
        let root = h.root();
        let a = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[0.0, 0.0], &[10.0, 10.0]), 100.0, Some(root)));
        let b = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[10.0, 0.0], &[20.0, 10.0]), 100.0, Some(root)));
        let c = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&[50.0, 50.0], &[60.0, 60.0]), 10_000.0, Some(root)));
        h.arena.get_mut(root).children.extend([a, b, c]);
        h.nonroot_count = 3;
        let best = h.best_merge().unwrap();
        assert!(best.penalty < 1e-6, "equal-density merge should be free, got {}", best.penalty);
        match best.op {
            MergeOp::Siblings { a: x, b: y, .. } => {
                assert_eq!([x.min(y), x.max(y)], [a.min(b), a.max(b)]);
            }
            ref other => panic!("expected sibling merge, got {other:?}"),
        }
    }

    #[test]
    fn best_merge_matches_exhaustive_oracle() {
        let (mut h, _a, _b, _gc) = build();
        let oracle = h.best_merge_exhaustive();
        let fast = h.best_merge();
        assert_eq!(fast, oracle);
        // Still in agreement after a structural change.
        let op = fast.unwrap().op;
        h.apply_merge(&op);
        assert_eq!(h.best_merge(), h.best_merge_exhaustive());
    }

    #[test]
    fn drill_inside_a_child_reuses_every_sibling_fixpoint() {
        use sth_data::Dataset;
        use sth_index::ScanCounter;
        use sth_platform::obs::{force_metrics, read, Counter};

        force_metrics(true);
        let mut h = StHoles::with_total(domain(), 10, 100.0);
        let root = h.root();
        let boxes =
            [([0.0, 0.0], [20.0, 20.0]), ([30.0, 0.0], [50.0, 20.0]), ([0.0, 30.0], [20.0, 50.0])];
        let kids: Vec<BucketId> = boxes
            .iter()
            .map(|(lo, hi)| {
                h.arena.alloc(Bucket::leaf(Rect::from_bounds(lo, hi), 10.0, Some(root)))
            })
            .collect();
        h.arena.get_mut(root).children.extend(&kids);
        h.nonroot_count = kids.len();
        let before = read(Counter::SiblingFixpoints);
        h.best_merge();
        assert_eq!(read(Counter::SiblingFixpoints) - before, 3, "one fixpoint per sibling pair");

        // The drill dirties the root through its child, but leaves the
        // root's child list as it was.
        let points = vec![vec![6.0, 7.0, 8.0], vec![6.0, 7.0, 8.0]];
        let ds = Dataset::from_columns("drill", domain(), points);
        h.drill_only(&Rect::from_bounds(&[5.0, 5.0], &[10.0, 10.0]), &ScanCounter::new(&ds));
        assert_eq!(h.arena.get(kids[0]).children.len(), 1, "no hole drilled");
        assert_eq!(h.arena.get(root).children, kids);
        let before = read(Counter::SiblingFixpoints);
        let fast = h.best_merge();
        assert_eq!(read(Counter::SiblingFixpoints), before, "the root's refresh reran a fixpoint");
        assert_eq!(fast, h.best_merge_exhaustive());
    }

    /// Every field of a memo, its floats as bits, for exact comparison.
    #[derive(Debug, PartialEq)]
    struct MemoBits {
        kids: Vec<BucketId>,
        bounds: Vec<u64>,
        pairs: Vec<(u32, u32)>,
        boxes: Vec<u64>,
        vols: Vec<u64>,
        v_moves: Vec<u64>,
        parts: Vec<u32>,
        part_ends: Vec<u32>,
    }

    fn memo_bits(m: &SiblingMemo) -> MemoBits {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        MemoBits {
            kids: m.kids.clone(),
            bounds: bits(&m.bounds),
            pairs: m.pairs.clone(),
            boxes: bits(&m.boxes),
            vols: bits(&m.vols),
            v_moves: bits(&m.v_moves),
            parts: m.parts.clone(),
            part_ends: m.part_ends.clone(),
        }
    }

    #[test]
    fn hull_witnesses_settle_only_pairs_that_hold_a_closing_pair() {
        use sth_platform::obs::{force_metrics, read, Counter};

        // Corners 0 and 1 close the hull. A bar across the middle (2)
        // reaches corner 0 with stub 3 and corner 1 with stub 4, but only
        // the pairs whose sweep takes in both corners end at the hull.
        force_metrics(true);
        let mut h = StHoles::with_total(domain(), 10, 100.0);
        let root = h.root();
        let boxes = [
            ([0.0, 0.0], [10.0, 10.0]),
            ([90.0, 90.0], [100.0, 100.0]),
            ([5.0, 40.0], [95.0, 60.0]),
            ([20.0, 0.0], [30.0, 20.0]),
            ([20.0, 80.0], [30.0, 100.0]),
        ];
        for (lo, hi) in boxes {
            let c = h.arena.alloc(Bucket::leaf(Rect::from_bounds(&lo, &hi), 10.0, Some(root)));
            h.arena.get_mut(root).children.push(c);
        }
        h.nonroot_count = boxes.len();
        h.check_invariants().unwrap();
        let (mut scratch, mut spare) = (RefineScratch::default(), SiblingMemo::default());
        let mut plain = SiblingMemo::default();
        h.refresh_sibling_memo(root, &mut plain, &mut spare, &mut scratch, false);
        let (fixpoints, jumps) = (read(Counter::SiblingFixpoints), read(Counter::SiblingHullJumps));
        let mut witnessed = SiblingMemo::default();
        h.refresh_sibling_memo(root, &mut witnessed, &mut spare, &mut scratch, true);
        assert_eq!(read(Counter::SiblingFixpoints) - fixpoints, 10, "one fixpoint per pair");
        // (0, 1) closes the hull by sweeping; (0, 4), (1, 3) and (3, 4)
        // then settle on it. (2, 3) and (2, 4) take in one corner each.
        assert_eq!(read(Counter::SiblingHullJumps) - jumps, 3);
        assert_eq!(memo_bits(&witnessed), memo_bits(&plain));
        assert_eq!(h.best_merge(), h.best_merge_exhaustive());
    }

    /// Up to `k` disjoint children of `[0, 100)^ndim`, thrown at random
    /// onto a grid of step 5 (so edges often coincide) and kept when they
    /// overlap no earlier child. With sides of 5 to `5·max_side`, `max_side`
    /// from 5 to 12, most sets have candidate pairs that sweep out to the
    /// children hull and others that stop short of it.
    fn scattered_children(ndim: usize, k: usize, max_side: u32, rng: &mut Rng) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = Vec::new();
        for _ in 0..100 * k {
            if out.len() == k {
                break;
            }
            let mut b: Vec<f64> = (0..ndim).map(|_| 5.0 * rng.gen_range(0..20u32) as f64).collect();
            for d in 0..ndim {
                b.push((b[d] + 5.0 * rng.gen_range(1..max_side + 1) as f64).min(100.0));
            }
            if out.iter().all(|o| !overlaps(o, &b)) {
                out.push(b);
            }
        }
        out
    }

    check! {
        cases = 48;

        /// A memo rebuilt with hull-closing witnesses equals the plain
        /// sweep's, bit for bit: every candidate pair's box and its
        /// participants in children order. The second round drops a random
        /// third of the children and rebuilds with the same scratch, so
        /// witnesses left over from the first child list would show.
        fn hull_witnesses_match_the_plain_sweep(
            ndim in 3usize..7,
            k in 13usize..121,
            max_side in 5u32..13,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let mut h = StHoles::with_total(Rect::cube(ndim, 0.0, 100.0), 200, 1000.0);
            let root = h.root();
            for b in scattered_children(ndim, k, max_side, &mut rng) {
                let (lo, hi) = b.split_at(ndim);
                let c = h.arena.alloc(Bucket::leaf(Rect::from_bounds(lo, hi), 1.0, Some(root)));
                h.arena.get_mut(root).children.push(c);
            }
            let (mut scratch, mut spare) = (RefineScratch::default(), SiblingMemo::default());
            for _ in 0..2 {
                let (mut plain, mut witnessed) = (SiblingMemo::default(), SiblingMemo::default());
                h.refresh_sibling_memo(root, &mut plain, &mut spare, &mut scratch, false);
                h.refresh_sibling_memo(root, &mut witnessed, &mut spare, &mut scratch, true);
                prop_assert_eq!(memo_bits(&witnessed), memo_bits(&plain));
                h.arena.get_mut(root).children.retain(|_| !rng.gen_bool(1.0 / 3.0));
            }
        }
    }

    /// Appends under `parent` a box that each of its children misses or
    /// lies inside, and moves the ones inside it under it, as a drill
    /// does: the least such box around `seed` (packed, inside the parent).
    fn drill_shaped(h: &mut StHoles, parent: BucketId, seed: &[f64]) -> BucketId {
        let n = seed.len() / 2;
        let mut b = seed.to_vec();
        let mut grown = true;
        while grown {
            grown = false;
            for &c in &h.arena.get(parent).children {
                let cb = h.arena.bounds(c);
                if overlaps(&b, cb) && !inside(cb, &b) {
                    for d in 0..n {
                        b[d] = b[d].min(cb[d]);
                        b[n + d] = b[n + d].max(cb[n + d]);
                    }
                    grown = true;
                }
            }
        }
        let inner: Vec<BucketId> = h.arena.get(parent).children.iter().copied()
            .filter(|&c| inside(h.arena.bounds(c), &b))
            .collect();
        let rect = Rect::from_bounds(&b[..n], &b[n..]);
        let hole = h.arena.alloc(Bucket { rect, freq: 1.0, parent: Some(parent), children: inner.clone() });
        for &c in &inner {
            h.arena.get_mut(c).parent = Some(hole);
        }
        let p = h.arena.get_mut(parent);
        p.children.retain(|c| !inner.contains(c));
        p.children.push(hole);
        h.nonroot_count += 1;
        h.arena.tighten_hull(parent);
        h.arena.tighten_hull(hole);
        hole
    }

    /// The root's memo rebuilt from empty by the plain sweep.
    fn rebuilt(h: &StHoles) -> SiblingMemo {
        let mut memo = SiblingMemo::default();
        let (mut spare, mut scratch) = (SiblingMemo::default(), RefineScratch::default());
        h.refresh_sibling_memo(h.root(), &mut memo, &mut spare, &mut scratch, false);
        memo
    }

    check! {
        cases = 48;

        /// A memo repaired across each kind of child-list edit equals one
        /// rebuilt from empty, bit for bit: pairs, boxes, participants,
        /// box volumes and `v_move`s. The edits: a drill, a
        /// sibling merge, a parent–child merge of the child holding the
        /// most grandchildren, and a drill whose hole a sibling merge then
        /// swallows before the next refresh.
        fn repaired_memo_matches_a_rebuild(
            ndim in 3usize..7,
            k in 13usize..121,
            max_side in 5u32..13,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let mut h = StHoles::with_total(Rect::cube(ndim, 0.0, 100.0), 1000, 1000.0);
            let root = h.root();
            for b in scattered_children(ndim, k, max_side, &mut rng) {
                let (lo, hi) = b.split_at(ndim);
                let c = h.arena.alloc(Bucket::leaf(Rect::from_bounds(lo, hi), 1.0, Some(root)));
                h.arena.get_mut(root).children.push(c);
                h.nonroot_count += 1;
            }
            h.arena.tighten_hull(root);
            let (mut scratch, mut spare) = (RefineScratch::default(), SiblingMemo::default());
            let mut memo = SiblingMemo::default();
            h.refresh_sibling_memo(root, &mut memo, &mut spare, &mut scratch, true);
            let seed_box = |rng: &mut Rng| -> Vec<f64> {
                let mut b: Vec<f64> =
                    (0..ndim).map(|_| 5.0 * rng.gen_range(0..19u32) as f64).collect();
                for d in 0..ndim {
                    b.push((b[d] + 5.0 * rng.gen_range(1..5u32) as f64).min(100.0));
                }
                b
            };
            // A hole can swallow every other child; the sibling merges
            // need two.
            let random_pair = |h: &StHoles, rng: &mut Rng| {
                let kids = &h.arena.get(root).children;
                (kids.len() > 1).then(|| {
                    let i = rng.gen_range(0..kids.len());
                    let j = (i + 1 + rng.gen_range(0..kids.len() - 1)) % kids.len();
                    MergeOp::Siblings { parent: root, a: kids[i], b: kids[j] }
                })
            };
            for step in 0..4 {
                match step {
                    0 => {
                        drill_shaped(&mut h, root, &seed_box(&mut rng));
                    }
                    1 => {
                        if let Some(op) = random_pair(&h, &mut rng) {
                            h.apply_merge(&op);
                        }
                    }
                    2 => {
                        let kids = &h.arena.get(root).children;
                        let child = *kids
                            .iter()
                            .max_by_key(|&&c| h.arena.get(c).children.len())
                            .unwrap();
                        h.apply_merge(&MergeOp::ParentChild { parent: root, child });
                    }
                    _ => {
                        let hole = drill_shaped(&mut h, root, &seed_box(&mut rng));
                        let kids = &h.arena.get(root).children;
                        if kids.len() > 1 {
                            let other = kids[rng.gen_range(0..kids.len() - 1)];
                            h.apply_merge(&MergeOp::Siblings { parent: root, a: other, b: hole });
                        }
                    }
                }
                h.check_invariants().map_err(|e| format!("step {step}: {e}"))?;
                h.refresh_sibling_memo(root, &mut memo, &mut spare, &mut scratch, true);
                prop_assert_eq!(memo_bits(&memo), memo_bits(&rebuilt(&h)), "step {step}");
            }
        }
    }

    /// Root over 2-d children with the given boxes, in that order.
    fn wide_root(boxes: &[([f64; 2], [f64; 2])]) -> (StHoles, Vec<BucketId>) {
        let mut h = StHoles::with_total(domain(), 50, 100.0);
        let root = h.root();
        let kids: Vec<BucketId> = boxes
            .iter()
            .map(|(lo, hi)| h.arena.alloc(Bucket::leaf(Rect::from_bounds(lo, hi), 10.0, Some(root))))
            .collect();
        h.arena.get_mut(root).children.extend(&kids);
        h.nonroot_count = kids.len();
        h.arena.tighten_hull(root);
        h.check_invariants().unwrap();
        (h, kids)
    }

    /// Five scattered 2-d children: every pair's fixpoint is easy to
    /// work out by hand.
    const FIVE: [([f64; 2], [f64; 2]); 5] = [
        ([0.0, 0.0], [10.0, 10.0]),
        ([20.0, 0.0], [30.0, 10.0]),
        ([0.0, 60.0], [10.0, 70.0]),
        ([80.0, 80.0], [90.0, 90.0]),
        ([40.0, 40.0], [50.0, 50.0]),
    ];

    /// The repair plan of the refreshed memo's pair of children `a`, `b`.
    fn plan_of(h: &StHoles, memo: &SiblingMemo, scratch: &RefineScratch, a: BucketId, b: BucketId) -> Plan {
        let kids = &h.arena.get(h.root()).children;
        let pos = |c| kids.iter().position(|&x| x == c).unwrap() as u32;
        let t = memo
            .pairs
            .iter()
            .position(|&(i, j)| (i, j) == (pos(a), pos(b)) || (j, i) == (pos(a), pos(b)))
            .expect("not a candidate pair");
        scratch.edit.plan[t]
    }

    /// Runs `edit` between a memo build and its refresh, and returns the
    /// refreshed memo with the counts of kept pairs and sweeps run.
    fn repair_after(
        h: &mut StHoles,
        scratch: &mut RefineScratch,
        edit: impl FnOnce(&mut StHoles),
    ) -> (SiblingMemo, u64, u64) {
        use sth_platform::obs::{force_metrics, read, Counter};
        force_metrics(true);
        let (mut memo, mut spare) = (SiblingMemo::default(), SiblingMemo::default());
        h.refresh_sibling_memo(h.root(), &mut memo, &mut spare, scratch, true);
        edit(h);
        let (kept, swept) = (read(Counter::SiblingMemoKept), read(Counter::SiblingFixpoints));
        h.refresh_sibling_memo(h.root(), &mut memo, &mut spare, scratch, true);
        let counts = (read(Counter::SiblingMemoKept) - kept, read(Counter::SiblingFixpoints) - swept);
        assert_eq!(memo_bits(&memo), memo_bits(&rebuilt(h)));
        (memo, counts.0, counts.1)
    }

    #[test]
    fn repair_keeps_every_pair_a_drill_leaves_alone() {
        // The hole swallows child 3 far from the others: every pair of
        // survivors keeps its box, and only the hole's own pairs sweep.
        let (mut h, k) = wide_root(&FIVE);
        let mut scratch = RefineScratch::default();
        let (memo, kept, swept) = repair_after(&mut h, &mut scratch, |h| {
            drill_shaped(h, h.root(), &[60.0, 60.0, 95.0, 95.0]);
        });
        assert_eq!((memo.pairs.len(), kept, swept), (10, 6, 4));
        assert_eq!(plan_of(&h, &memo, &scratch, k[0], k[4]), Plan::Keep(3));
        let hole = *h.arena.get(h.root()).children.last().unwrap();
        assert_eq!(plan_of(&h, &memo, &scratch, k[0], hole), Plan::Sweep);
        assert_eq!(h.best_merge(), h.best_merge_exhaustive());

        // This hole swallows child 4 and reaches up into the box of pair
        // (2, 3), [0, 60]–[90, 90], without lying inside it: that pair
        // sweeps from its hull, out to [0, 0]–[90, 90]. The other five
        // pairs of survivors keep their boxes.
        let (mut h, k) = wide_root(&FIVE);
        let (memo, kept, swept) = repair_after(&mut h, &mut scratch, |h| {
            drill_shaped(h, h.root(), &[35.0, 0.0, 55.0, 65.0]);
        });
        assert_eq!(plan_of(&h, &memo, &scratch, k[2], k[3]), Plan::Sweep);
        assert_eq!(plan_of(&h, &memo, &scratch, k[0], k[1]), Plan::Keep(0));
        assert_eq!((kept, swept), (5, 5));
        assert_eq!(h.best_merge(), h.best_merge_exhaustive());
    }

    #[test]
    fn repair_sweeps_from_the_hull_after_a_parent_child_merge() {
        // Folding child 4 (which holds a grandchild) into the root removes
        // a child that no appended one covers: the pairs whose box held it
        // sweep from their hull, the others keep their boxes.
        let (mut h, k) = wide_root(&FIVE);
        let g = h.arena.alloc(Bucket::leaf(
            Rect::from_bounds(&[42.0, 42.0], &[48.0, 48.0]),
            5.0,
            Some(k[4]),
        ));
        h.arena.get_mut(k[4]).children.push(g);
        h.nonroot_count += 1;
        h.arena.tighten_hull(k[4]);
        let mut scratch = RefineScratch::default();
        let (memo, kept, swept) = repair_after(&mut h, &mut scratch, |h| {
            h.apply_merge(&MergeOp::ParentChild { parent: h.root(), child: k[4] });
        });
        // (0, 3) and (1, 3) held child 4; (0, 1), (0, 2), (1, 2) and (2, 3)
        // did not. The grandchild pairs are new.
        assert_eq!(plan_of(&h, &memo, &scratch, k[0], k[3]), Plan::Sweep);
        assert_eq!(plan_of(&h, &memo, &scratch, k[1], k[3]), Plan::Sweep);
        assert_eq!(plan_of(&h, &memo, &scratch, k[2], k[3]), Plan::Keep(7));
        assert_eq!((kept, swept), (4, 6));
    }

    #[test]
    fn reordered_child_list_is_rebuilt() {
        let (mut h, k) = wide_root(&FIVE);
        let mut scratch = RefineScratch::default();
        let (_, kept, swept) = repair_after(&mut h, &mut scratch, |h| {
            h.arena.get_mut(h.root()).children.swap(0, 1);
        });
        assert_eq!((kept, swept), (0, 10));
        assert!(scratch.edit.plan.iter().all(|&p| p == Plan::Sweep));
        assert_eq!(h.arena.get(h.root()).children[..2], [k[1], k[0]]);

        // A new child ahead of the survivors is not an append either.
        let (mut h, _) = wide_root(&FIVE);
        let (_, kept, swept) = repair_after(&mut h, &mut scratch, |h| {
            let root = h.root();
            let rect = Rect::from_bounds(&[60.0, 0.0], &[70.0, 10.0]);
            let c = h.arena.alloc(Bucket::leaf(rect, 10.0, Some(root)));
            h.arena.get_mut(root).children.insert(0, c);
            h.nonroot_count += 1;
        });
        assert_eq!((kept, swept), (0, 15));
    }

    #[test]
    fn heap_survives_slot_recycling() {
        // Merging and re-drilling recycles arena slots; stale heap entries
        // for the old occupant must never be served for the new one.
        let (mut h, _a, _b, _gc) = build();
        while let Some(m) = h.best_merge() {
            h.apply_merge(&m.op);
            assert_eq!(h.best_merge(), h.best_merge_exhaustive());
            if h.bucket_count() == 0 {
                break;
            }
        }
        assert_eq!(h.bucket_count(), 0);
    }

    #[test]
    fn compact_enforces_budget_and_preserves_total() {
        let (mut h, _a, _b, _gc) = build();
        let total = h.total_freq();
        h.config.budget = 1;
        h.compact();
        h.check_invariants().unwrap();
        assert!(h.bucket_count() <= 1);
        assert!((h.total_freq() - total).abs() < 1e-9);
        // Estimates still defined everywhere.
        assert!(h.estimate(&domain()).is_finite());
    }

    #[test]
    fn merge_to_zero_buckets() {
        let (mut h, _a, _b, _gc) = build();
        h.config.budget = 0;
        h.compact();
        h.check_invariants().unwrap();
        assert_eq!(h.bucket_count(), 0);
    }
}
