//! Binary persistence for [`StHoles`]: one codec, the verbatim process
//! image (`STI1`).
//!
//! Query optimizers keep their synopses in the catalog, and an STHoles
//! synopsis keeps learning from query feedback after it is stored. So the
//! encoding captures the arena **verbatim**: every slot in place (freed
//! slots included, as explicit gaps), the free list in pop order, children
//! lists in order, plus config, root, domain and the frozen flag. The
//! merge search breaks penalty ties in ascending *slot* order, and
//! zero-penalty ties between empty buckets are common, so a decoder that
//! renumbered slots could legally pick a different (equally cheap) merge
//! than the original would have, and the two states would drift apart.
//! Decoding the image reconstructs the exact process state instead:
//! replaying the same refinement stream produces bit for bit the same
//! histogram, including every tie-breaking decision. `sth-store` proves
//! this with crash-at-every-offset golden-hash tests.
//!
//! Pure acceleration state (merge heaps, scratch buffers, cached hulls)
//! is *not* stored: it is rebuilt lazily and contractually changes no
//! results (`best_merge` ≡ `best_merge_exhaustive`, hulls only prune).
//!
//! Identity is a separate concern: [`StHoles::golden_hash`] hashes a
//! canonical pre-order walk (`STH1` layout, slots renumbered in walk
//! order), so logically equal histograms hash equal whatever their slot
//! history. That byte stream is never decoded.
//!
//! The little-endian primitives and the hash live in
//! [`sth_platform::codec`], shared with the durable store's snapshot, log
//! and manifest formats.

use std::fmt;

use sth_geometry::Rect;
use sth_platform::codec::{ByteReader, ByteWriter, CodecError};
use sth_query::SelfTuning;

use crate::{Bucket, BucketArena, BucketId, MergePolicy, StHoles, SthConfig};

const MAGIC: &[u8; 4] = b"STI1";
/// Magic of the canonical walk behind [`StHoles::golden_hash`].
const GOLDEN_MAGIC: &[u8; 4] = b"STH1";
const VERSION: u8 = 1;

/// Largest slot count the decoder accepts; guards allocation against
/// hostile length fields.
const MAX_SLOTS: usize = 1 << 24;

/// Errors produced by [`StHoles::from_bytes`].
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input does not start with the expected magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Input ended prematurely or contained malformed values.
    Corrupt(&'static str),
}

impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> Self {
        DecodeError::Corrupt(e.what())
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an STHoles histogram (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported histogram version {v}"),
            DecodeError::Corrupt(what) => write!(f, "corrupt histogram encoding: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_rect(out: &mut ByteWriter, r: &Rect) {
    for d in 0..r.ndim() {
        out.f64(r.lo()[d]);
        out.f64(r.hi()[d]);
    }
}

fn get_rect(r: &mut ByteReader<'_>, dim: usize) -> Result<Rect, DecodeError> {
    let mut lo = vec![0.0; dim];
    let mut hi = vec![0.0; dim];
    for d in 0..dim {
        lo[d] = r.finite_f64("non-finite bound")?;
        hi[d] = r.finite_f64("non-finite bound")?;
    }
    Rect::new(&lo, &hi).map_err(|_| DecodeError::Corrupt("invalid rectangle"))
}

impl StHoles {
    /// The header both layouts share: magic, version, domain, config.
    fn put_header(&self, out: &mut ByteWriter, magic: &[u8; 4]) {
        out.bytes(magic);
        out.u8(VERSION);
        out.u32(self.domain().ndim() as u32);
        put_rect(out, self.domain());
        out.u32(self.config.budget as u32);
        out.f64(self.config.min_hole_volume_frac);
        out.u8(match self.config.merge_policy {
            MergePolicy::All => 0,
            MergePolicy::ParentChildOnly => 1,
            MergePolicy::SiblingFirst => 2,
        });
        match self.config.sibling_neighbor_cap {
            None => out.u32(u32::MAX),
            Some(c) => out.u32(c as u32),
        }
    }

    /// Encodes the histogram as a verbatim process image: the exact arena
    /// slot layout, free list, and children order, so a decoded histogram
    /// replays future refinements bit-identically (see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let arena = self.arena();
        let mut out = ByteWriter::with_capacity(64 + 64 * arena.slot_count());
        self.put_header(&mut out, MAGIC);
        out.u32(self.root() as u32);
        out.u32(self.bucket_count() as u32);
        out.u8(self.frozen() as u8);

        out.u32(arena.slot_count() as u32);
        for i in 0..arena.slot_count() {
            match arena.slot(i) {
                None => out.u8(0),
                Some(b) => {
                    out.u8(1);
                    put_rect(&mut out, &b.rect);
                    out.f64(b.freq);
                    out.u32(b.parent.map_or(u32::MAX, |p| p as u32));
                    out.len_u32(b.children.len());
                    for &c in &b.children {
                        out.u32(c as u32);
                    }
                }
            }
        }
        out.len_u32(arena.free_list().len());
        for &f in arena.free_list() {
            out.u32(f as u32);
        }
        out.into_bytes()
    }

    /// 64-bit FNV-1a hash of the histogram's logical state: the golden
    /// hash behind the durable store's bit-identical recovery proof.
    ///
    /// Hashes the canonical `STH1` walk (header, then every bucket in
    /// pre-order as parent number, rect, frequency), not
    /// [`StHoles::to_bytes`]: two histograms hash equal iff their bucket
    /// trees, frequencies and configs are identical, whatever the arena
    /// slots or the frozen flag.
    pub fn golden_hash(&self) -> u64 {
        let mut out = ByteWriter::with_capacity(64 + 64 * self.bucket_count());
        self.put_header(&mut out, GOLDEN_MAGIC);
        out.u32((self.bucket_count() + 1) as u32);
        // Buckets are numbered in pop order; each stack entry carries its
        // parent's number.
        let mut next = 0u32;
        let mut stack = vec![(self.root(), u32::MAX)];
        while let Some((id, parent)) = stack.pop() {
            let b = self.arena().get(id);
            out.u32(parent);
            put_rect(&mut out, &b.rect);
            out.f64(b.freq);
            stack.extend(b.children.iter().rev().map(|&c| (c, next)));
            next += 1;
        }
        sth_platform::codec::fnv1a(out.as_bytes())
    }

    /// Decodes a process image produced by [`StHoles::to_bytes`].
    ///
    /// Total over arbitrary bytes: every structural claim in the input
    /// (slot references, free-list entries, linkage, tree shape) is
    /// validated, ending with [`StHoles::check_invariants`], so corrupt
    /// input yields `Err`, never a panic or an inconsistent histogram.
    pub fn from_bytes(bytes: &[u8]) -> Result<StHoles, DecodeError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let dim = r.u32()? as usize;
        if dim == 0 || dim > 1024 {
            return Err(DecodeError::Corrupt("implausible dimensionality"));
        }
        let domain = get_rect(&mut r, dim)?;
        let budget = r.u32()? as usize;
        let min_hole_volume_frac = r.finite_f64("non-finite config value")?;
        let merge_policy = match r.u8()? {
            0 => MergePolicy::All,
            1 => MergePolicy::ParentChildOnly,
            2 => MergePolicy::SiblingFirst,
            _ => return Err(DecodeError::Corrupt("unknown merge policy")),
        };
        let cap = r.u32()?;
        let sibling_neighbor_cap = if cap == u32::MAX { None } else { Some(cap as usize) };
        let config =
            SthConfig { budget, min_hole_volume_frac, merge_policy, sibling_neighbor_cap };
        let root = r.u32()? as usize;
        let nonroot_count = r.u32()? as usize;
        let frozen = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::Corrupt("bad frozen flag")),
        };

        let slot_count = r.count_u32(MAX_SLOTS, "implausible slot count")?;
        let mut slots: Vec<Option<Bucket>> = Vec::with_capacity(slot_count);
        let mut live = 0usize;
        for _ in 0..slot_count {
            match r.u8()? {
                0 => slots.push(None),
                1 => {
                    let rect = get_rect(&mut r, dim)?;
                    let freq = r.finite_f64("non-finite frequency")?;
                    if freq < 0.0 {
                        return Err(DecodeError::Corrupt("negative frequency"));
                    }
                    let parent_raw = r.u32()?;
                    let parent = if parent_raw == u32::MAX {
                        None
                    } else {
                        Some(parent_raw as BucketId)
                    };
                    let n_children = r.count_u32(slot_count, "implausible child count")?;
                    let mut children = Vec::with_capacity(n_children);
                    for _ in 0..n_children {
                        children.push(r.u32()? as BucketId);
                    }
                    slots.push(Some(Bucket { rect, freq, parent, children }));
                    live += 1;
                }
                _ => return Err(DecodeError::Corrupt("bad slot tag")),
            }
        }
        let free_count = r.count_u32(slot_count, "implausible free count")?;
        let mut free = Vec::with_capacity(free_count);
        for _ in 0..free_count {
            free.push(r.u32()? as BucketId);
        }
        r.expect_exhausted()?;

        // Structural validation before arena assembly: every reference
        // must land on a slot of the right liveness, exactly once.
        if live + free.len() != slot_count {
            return Err(DecodeError::Corrupt("free list does not cover dead slots"));
        }
        let mut seen_free = vec![false; slot_count];
        for &f in &free {
            if f >= slot_count || slots[f].is_some() || seen_free[f] {
                return Err(DecodeError::Corrupt("bad free-list entry"));
            }
            seen_free[f] = true;
        }
        if live == 0 || root >= slot_count || slots[root].is_none() {
            return Err(DecodeError::Corrupt("missing root"));
        }
        if nonroot_count != live - 1 {
            return Err(DecodeError::Corrupt("bucket count mismatch"));
        }
        let mut child_of = vec![usize::MAX; slot_count];
        for (i, slot) in slots.iter().enumerate() {
            let Some(b) = slot else { continue };
            match b.parent {
                None if i != root => return Err(DecodeError::Corrupt("multiple roots")),
                Some(p) if p >= slot_count || slots[p].is_none() => {
                    return Err(DecodeError::Corrupt("dangling parent reference"))
                }
                _ => {}
            }
            for &c in &b.children {
                if c >= slot_count || slots[c].is_none() || c == i || child_of[c] != usize::MAX {
                    return Err(DecodeError::Corrupt("bad child reference"));
                }
                if slots[c].as_ref().unwrap().parent != Some(i) {
                    return Err(DecodeError::Corrupt("parent/child link mismatch"));
                }
                child_of[c] = i;
            }
        }
        // Reachability: every non-root live slot must hang off the tree
        // (check_invariants walks from the root, so an orphan cycle would
        // otherwise go unnoticed).
        for (i, slot) in slots.iter().enumerate() {
            if slot.is_some() && i != root && child_of[i] == usize::MAX {
                return Err(DecodeError::Corrupt("orphan bucket"));
            }
        }

        let arena = BucketArena::from_slots(slots, free);
        let mut hist = StHoles::assemble(arena, root, config, nonroot_count, domain);
        hist.set_frozen(frozen);
        hist.check_invariants().map_err(|_| DecodeError::Corrupt("invariant violation"))?;
        Ok(hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_index::ScanCounter;
    use sth_query::CardinalityEstimator;

    fn trained() -> StHoles {
        let ds = sth_data::cross::CrossSpec::cross2d().scaled(0.02).generate();
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(ds.domain().clone(), 20, ds.len() as f64);
        let wl = sth_query::WorkloadSpec { count: 60, ..sth_query::WorkloadSpec::paper(0.01, 4) }
            .generate(ds.domain(), None);
        for q in wl.queries() {
            h.refine(q.rect(), &counter);
        }
        h
    }

    #[test]
    fn roundtrip_preserves_estimates() {
        let h = trained();
        let bytes = h.to_bytes();
        let back = StHoles::from_bytes(&bytes).unwrap();
        assert_eq!(back.bucket_count(), h.bucket_count());
        assert_eq!(back.budget(), h.budget());
        let probes = [
            Rect::from_bounds(&[0.0, 0.0], &[1000.0, 1000.0]),
            Rect::from_bounds(&[480.0, 100.0], &[520.0, 900.0]),
            Rect::from_bounds(&[100.0, 480.0], &[900.0, 520.0]),
            Rect::from_bounds(&[10.0, 10.0], &[50.0, 50.0]),
        ];
        for p in &probes {
            assert_eq!(h.estimate(p).to_bits(), back.estimate(p).to_bits(), "mismatch on {p}");
        }
    }

    #[test]
    fn decoded_histogram_keeps_learning() {
        let h = trained();
        let ds = sth_data::cross::CrossSpec::cross2d().scaled(0.02).generate();
        let counter = ScanCounter::new(&ds);
        let mut back = StHoles::from_bytes(&h.to_bytes()).unwrap();
        let q = Rect::from_bounds(&[200.0, 200.0], &[400.0, 400.0]);
        back.refine(&q, &counter);
        back.check_invariants().unwrap();
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(StHoles::from_bytes(b"nope").unwrap_err(), DecodeError::BadMagic);
        assert_eq!(StHoles::from_bytes(b"STI1\x09").unwrap_err(), DecodeError::BadVersion(9));
        let mut truncated = trained().to_bytes();
        truncated.truncate(truncated.len() - 3);
        assert!(matches!(StHoles::from_bytes(&truncated).unwrap_err(), DecodeError::Corrupt(_)));
    }

    #[test]
    fn rejects_bitflips_gracefully() {
        // Flipping any single byte must never panic — either it decodes to a
        // still-valid histogram or returns an error.
        let bytes = trained().to_bytes();
        for i in (0..bytes.len()).step_by(7) {
            let mut m = bytes.clone();
            m[i] ^= 0xFF;
            let _ = StHoles::from_bytes(&m);
        }
    }

    #[test]
    fn empty_histogram_roundtrip() {
        let h = StHoles::with_total(Rect::cube(3, 0.0, 10.0), 5, 42.0);
        let back = StHoles::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(back.bucket_count(), 0);
        assert_eq!(back.estimate(&Rect::cube(3, 0.0, 10.0)), 42.0);
    }

    #[test]
    fn golden_hash_ignores_slot_history() {
        // The same two holes under one root, allocated in either order:
        // the images record swapped slots, the logical trees are equal.
        let domain = Rect::cube(2, 0.0, 100.0);
        let holes = [
            (Rect::from_bounds(&[0.0, 0.0], &[20.0, 20.0]), 1.0),
            (Rect::from_bounds(&[50.0, 50.0], &[70.0, 70.0]), 2.0),
        ];
        let build = |alloc_order: [usize; 2]| {
            let mut arena = BucketArena::new();
            let root = arena.alloc(Bucket::leaf(domain.clone(), 3.0, None));
            let mut ids = [0; 2];
            for i in alloc_order {
                ids[i] = arena.alloc(Bucket::leaf(holes[i].0.clone(), holes[i].1, Some(root)));
            }
            arena.get_mut(root).children = ids.to_vec();
            let h = StHoles::assemble(arena, root, SthConfig::with_budget(8), 2, domain.clone());
            h.check_invariants().unwrap();
            h
        };
        let (ab, ba) = (build([0, 1]), build([1, 0]));
        assert_ne!(ab.to_bytes(), ba.to_bytes());
        assert_eq!(ab.golden_hash(), ba.golden_hash());
    }
}
