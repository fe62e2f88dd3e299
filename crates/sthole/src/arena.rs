//! Slotted bucket storage.

use sth_geometry::Rect;

/// Index of a bucket inside the arena. Stable across unrelated insertions
/// and removals; slots are recycled through a free list.
pub type BucketId = usize;

/// One histogram bucket.
///
/// `freq` counts the tuples in the bucket's *own region*: the box minus the
/// boxes of the children. Children boxes are pairwise disjoint and contained
/// in the parent box.
#[derive(Clone, Debug)]
pub struct Bucket {
    /// Bounding box of the bucket (children included).
    pub rect: Rect,
    /// Tuple count of the bucket's own region (box minus child boxes).
    pub freq: f64,
    /// Parent bucket; `None` only for the root.
    pub parent: Option<BucketId>,
    /// Child buckets ("holes").
    pub children: Vec<BucketId>,
}

impl Bucket {
    /// Creates a childless bucket.
    pub fn leaf(rect: Rect, freq: f64, parent: Option<BucketId>) -> Self {
        Self { rect, freq, parent, children: Vec::new() }
    }
}

/// Slotted arena of buckets with recycled ids.
///
/// Besides the bucket slots themselves the arena maintains three
/// cache-linear side arrays, indexed by slot:
///
/// * `bounds` — each bucket's box in packed form
///   (`[lo_0..lo_{n-1}, hi_0..hi_{n-1}]`, `2·ndim` values per slot), so the
///   hot traversal loops test intersection against flat `f64` runs instead
///   of chasing `Option<Bucket>` slots;
/// * `vols` — each bucket's box volume, cached once at `alloc` (bucket
///   boxes are immutable after insertion, so the cache never goes stale);
/// * `hulls` — a packed bounding box of the bucket's *children*, used to
///   skip whole sibling groups during traversal. Initialised to the
///   bucket's own box, which is always a conservative (correct) hull since
///   children are contained in their parent; [`BucketArena::tighten_hull`]
///   shrinks it to the exact union for better pruning.
///
/// Side entries of freed slots are left stale and rewritten on recycle.
#[derive(Clone, Debug, Default)]
pub struct BucketArena {
    slots: Vec<Option<Bucket>>,
    free: Vec<BucketId>,
    ndim: usize,
    bounds: Vec<f64>,
    vols: Vec<f64>,
    hulls: Vec<f64>,
}

impl BucketArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a bucket and returns its id.
    pub fn alloc(&mut self, bucket: Bucket) -> BucketId {
        let n = bucket.rect.ndim();
        if self.ndim == 0 {
            self.ndim = n;
        }
        debug_assert_eq!(n, self.ndim, "mixed dimensionality in arena");
        let vol = bucket.rect.volume();
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id] = Some(bucket);
                id
            }
            None => {
                self.slots.push(Some(bucket));
                self.bounds.resize(self.slots.len() * 2 * n, 0.0);
                self.hulls.resize(self.slots.len() * 2 * n, 0.0);
                self.vols.push(0.0);
                self.slots.len() - 1
            }
        };
        let span = 2 * n;
        let rect = &self.slots[id].as_ref().expect("just stored").rect;
        let dst = &mut self.bounds[id * span..(id + 1) * span];
        dst[..n].copy_from_slice(rect.lo());
        dst[n..].copy_from_slice(rect.hi());
        self.hulls[id * span..(id + 1) * span].copy_from_slice(dst);
        self.vols[id] = vol;
        id
    }

    /// The bucket's box in packed form (`2·ndim` values: lows then highs).
    #[inline]
    pub fn bounds(&self, id: BucketId) -> &[f64] {
        debug_assert!(self.contains(id), "bounds of dead bucket");
        let span = 2 * self.ndim;
        &self.bounds[id * span..(id + 1) * span]
    }

    /// Cached volume of the bucket's box (not the own region).
    #[inline]
    pub fn volume_of(&self, id: BucketId) -> f64 {
        debug_assert!(self.contains(id), "volume of dead bucket");
        self.vols[id]
    }

    /// Packed bounding box of the bucket's children. Conservative: always
    /// contains every child box, but may be looser than their exact union
    /// until [`BucketArena::tighten_hull`] runs.
    #[inline]
    pub fn hull(&self, id: BucketId) -> &[f64] {
        debug_assert!(self.contains(id), "hull of dead bucket");
        let span = 2 * self.ndim;
        &self.hulls[id * span..(id + 1) * span]
    }

    /// Recomputes `id`'s children hull as the exact union of its child
    /// boxes (or the bucket's own box when childless — still a valid,
    /// vacuously conservative hull). Allocation-free: the child bounds are
    /// folded straight into the hull slot.
    pub fn tighten_hull(&mut self, id: BucketId) {
        let n = self.ndim;
        let span = 2 * n;
        let Self { slots, bounds, hulls, .. } = self;
        let children = &slots[id].as_ref().expect("dangling bucket id").children;
        let hull = &mut hulls[id * span..(id + 1) * span];
        let Some((&first, rest)) = children.split_first() else {
            hull.copy_from_slice(&bounds[id * span..(id + 1) * span]);
            return;
        };
        hull.copy_from_slice(&bounds[first * span..(first + 1) * span]);
        for &c in rest {
            let cb = &bounds[c * span..(c + 1) * span];
            for d in 0..n {
                hull[d] = hull[d].min(cb[d]);
                hull[n + d] = hull[n + d].max(cb[n + d]);
            }
        }
    }

    /// Removes a bucket, recycling its slot. The caller is responsible for
    /// unlinking it from parent/child lists first.
    pub fn dealloc(&mut self, id: BucketId) -> Bucket {
        let b = self.slots[id].take().expect("dealloc of empty slot");
        self.free.push(id);
        b
    }

    /// Shared access. Panics on a dangling id.
    #[inline]
    pub fn get(&self, id: BucketId) -> &Bucket {
        self.slots[id].as_ref().expect("dangling bucket id")
    }

    /// Mutable access. Panics on a dangling id.
    #[inline]
    pub fn get_mut(&mut self, id: BucketId) -> &mut Bucket {
        self.slots[id].as_mut().expect("dangling bucket id")
    }

    /// `true` when `id` refers to a live bucket.
    pub fn contains(&self, id: BucketId) -> bool {
        self.slots.get(id).is_some_and(Option::is_some)
    }

    /// Number of live buckets.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` when no bucket is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(id, bucket)` pairs of live buckets.
    pub fn iter(&self) -> impl Iterator<Item = (BucketId, &Bucket)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|b| (i, b)))
    }

    /// Total slot count, live and freed alike — the arena's allocation
    /// footprint, which the verbatim image codec must reproduce exactly.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Direct slot access, `None` for freed slots.
    pub(crate) fn slot(&self, i: usize) -> Option<&Bucket> {
        self.slots.get(i).and_then(Option::as_ref)
    }

    /// The free list, in pop order from the back: the next `alloc`
    /// recycles the *last* entry. Part of the process image because slot
    /// assignment feeds deterministic tie-breaking in the merge search.
    pub(crate) fn free_list(&self) -> &[BucketId] {
        &self.free
    }

    /// Rebuilds an arena from an exact slot layout: `slots[i]` occupies
    /// slot `i` (`None` = freed), `free` is the free list verbatim. The
    /// side arrays (bounds, volumes, hulls) are derived from the rects
    /// with the same arithmetic `alloc` uses; children hulls are
    /// tightened to the exact union, which is semantically equivalent to
    /// whatever conservative hulls the original process carried (hulls
    /// only prune traversal, they never change results).
    pub(crate) fn from_slots(slots: Vec<Option<Bucket>>, free: Vec<BucketId>) -> Self {
        let ndim = slots.iter().flatten().next().map_or(0, |b| b.rect.ndim());
        let span = 2 * ndim;
        let mut bounds = vec![0.0; slots.len() * span];
        let mut vols = vec![0.0; slots.len()];
        let mut hulls = vec![0.0; slots.len() * span];
        for (i, slot) in slots.iter().enumerate() {
            if let Some(b) = slot {
                let dst = &mut bounds[i * span..(i + 1) * span];
                dst[..ndim].copy_from_slice(b.rect.lo());
                dst[ndim..].copy_from_slice(b.rect.hi());
                hulls[i * span..(i + 1) * span].copy_from_slice(dst);
                vols[i] = b.rect.volume();
            }
        }
        let mut arena = Self { slots, free, ndim, bounds, vols, hulls };
        let parents: Vec<BucketId> = arena
            .iter()
            .filter(|(_, b)| !b.children.is_empty())
            .map(|(id, _)| id)
            .collect();
        for id in parents {
            arena.tighten_hull(id);
        }
        arena
    }

    /// Volume of a bucket's own region: its box minus the child boxes.
    /// Uses the cached box volumes; identical arithmetic (and children
    /// order) to recomputing from the rectangles.
    pub fn own_volume(&self, id: BucketId) -> f64 {
        let b = self.get(id);
        let mut v = self.vols[id];
        for &c in &b.children {
            v -= self.vols[c];
        }
        // Floating-point cancellation can produce tiny negatives.
        v.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: f64, hi: f64) -> Rect {
        Rect::cube(2, lo, hi)
    }

    #[test]
    fn alloc_dealloc_recycles() {
        let mut a = BucketArena::new();
        let id0 = a.alloc(Bucket::leaf(rect(0.0, 10.0), 5.0, None));
        let id1 = a.alloc(Bucket::leaf(rect(1.0, 2.0), 1.0, Some(id0)));
        assert_eq!(a.len(), 2);
        a.dealloc(id1);
        assert_eq!(a.len(), 1);
        assert!(!a.contains(id1));
        let id2 = a.alloc(Bucket::leaf(rect(3.0, 4.0), 1.0, Some(id0)));
        assert_eq!(id2, id1, "slot not recycled");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn own_volume_subtracts_children() {
        let mut a = BucketArena::new();
        let root = a.alloc(Bucket::leaf(rect(0.0, 10.0), 5.0, None));
        let child = a.alloc(Bucket::leaf(rect(0.0, 5.0), 2.0, Some(root)));
        a.get_mut(root).children.push(child);
        assert_eq!(a.own_volume(root), 100.0 - 25.0);
        assert_eq!(a.own_volume(child), 25.0);
    }

    #[test]
    fn iter_skips_freed() {
        let mut a = BucketArena::new();
        let id0 = a.alloc(Bucket::leaf(rect(0.0, 1.0), 0.0, None));
        let id1 = a.alloc(Bucket::leaf(rect(0.0, 1.0), 0.0, None));
        a.dealloc(id0);
        let ids: Vec<BucketId> = a.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![id1]);
    }

    #[test]
    #[should_panic(expected = "dangling bucket id")]
    fn dangling_access_panics() {
        let mut a = BucketArena::new();
        let id = a.alloc(Bucket::leaf(rect(0.0, 1.0), 0.0, None));
        a.dealloc(id);
        let _ = a.get(id);
    }

    #[test]
    fn side_arrays_track_allocations() {
        let mut a = BucketArena::new();
        let root = a.alloc(Bucket::leaf(rect(0.0, 10.0), 5.0, None));
        assert_eq!(a.bounds(root), &[0.0, 0.0, 10.0, 10.0]);
        assert_eq!(a.volume_of(root), 100.0);
        // Hull starts as the bucket's own box — conservative but valid.
        assert_eq!(a.hull(root), &[0.0, 0.0, 10.0, 10.0]);

        let c0 = a.alloc(Bucket::leaf(rect(1.0, 2.0), 1.0, Some(root)));
        let c1 = a.alloc(Bucket::leaf(rect(4.0, 6.0), 1.0, Some(root)));
        a.get_mut(root).children.extend([c0, c1]);
        a.tighten_hull(root);
        assert_eq!(a.hull(root), &[1.0, 1.0, 6.0, 6.0]);

        // Dropping a child and re-tightening shrinks the hull again.
        a.get_mut(root).children.retain(|&c| c != c1);
        a.dealloc(c1);
        a.tighten_hull(root);
        assert_eq!(a.hull(root), &[1.0, 1.0, 2.0, 2.0]);

        // Recycled slots get fresh side data.
        let c2 = a.alloc(Bucket::leaf(rect(7.0, 9.0), 1.0, Some(root)));
        assert_eq!(c2, c1);
        assert_eq!(a.bounds(c2), &[7.0, 7.0, 9.0, 9.0]);
        assert_eq!(a.volume_of(c2), 4.0);

        // Childless tighten resets to the own box.
        a.tighten_hull(c2);
        assert_eq!(a.hull(c2), &[7.0, 7.0, 9.0, 9.0]);
    }
}
