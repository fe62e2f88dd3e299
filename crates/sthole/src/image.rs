//! Verbatim process-image persistence for [`StHoles`] — the durable
//! store's snapshot payload.
//!
//! [`StHoles::to_bytes`] (the catalog codec) deliberately *canonicalizes*:
//! it remaps arena slots to pre-order so logically equal histograms encode
//! identically. That is the right identity for golden hashes, but it is
//! lossy for one thing the durable store needs: **replay determinism**.
//! The merge search breaks penalty ties in ascending *slot* order, and
//! zero-penalty ties between empty buckets are common — so a histogram
//! whose slots were remapped can legally pick a different (equally cheap)
//! merge than the original process would have, and the two states drift
//! apart bit by bit from there.
//!
//! The image codec (`STI1`) therefore captures the arena **verbatim**:
//! every slot in place (freed slots included, as explicit gaps), the free
//! list in pop order, children lists in order, plus config, root, domain
//! and the frozen flag. Decoding reconstructs the exact process state, so
//! replaying the same refinement stream produces bit-for-bit the same
//! histogram as the process that never stopped — including every
//! tie-breaking decision. This is the property `sth-store` proves with
//! crash-at-every-offset golden-hash tests.
//!
//! Pure acceleration state (merge heaps, scratch buffers, cached hulls)
//! is *not* stored: it is rebuilt lazily and contractually changes no
//! results (`best_merge` ≡ `best_merge_exhaustive`, hulls only prune).

use sth_platform::codec::{ByteReader, ByteWriter};
use sth_query::SelfTuning;

use crate::persist::{get_rect, put_rect, DecodeError};
use crate::{Bucket, BucketArena, BucketId, MergePolicy, SthConfig, StHoles};

const MAGIC: &[u8; 4] = b"STI1";
const VERSION: u8 = 1;

/// Largest slot count the decoder accepts; guards allocation against
/// hostile length fields.
const MAX_SLOTS: usize = 1 << 24;

impl StHoles {
    /// Encodes the histogram as a verbatim process image: the exact arena
    /// slot layout, free list, and children order, so a decoded histogram
    /// replays future refinements bit-identically. See the module docs
    /// for why this is distinct from (and less canonical than)
    /// [`StHoles::to_bytes`].
    pub fn to_image_bytes(&self) -> Vec<u8> {
        let arena = self.arena();
        let mut out = ByteWriter::with_capacity(64 + 64 * arena.slot_count());
        out.bytes(MAGIC);
        out.u8(VERSION);
        out.u32(self.domain().ndim() as u32);
        put_rect(&mut out, self.domain());
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

    /// Decodes a process image produced by [`StHoles::to_image_bytes`].
    ///
    /// Total over arbitrary bytes: every structural claim in the input
    /// (slot references, free-list entries, linkage, tree shape) is
    /// validated, ending with [`StHoles::check_invariants`], so corrupt
    /// input yields `Err`, never a panic or an inconsistent histogram.
    pub fn from_image_bytes(bytes: &[u8]) -> Result<StHoles, DecodeError> {
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
    use sth_geometry::Rect;
    use sth_index::{ResultSetCounter, ScanCounter};
    use sth_query::WorkloadSpec;

    fn trained(queries: usize) -> (StHoles, sth_data::Dataset) {
        let ds = sth_data::cross::CrossSpec::cross2d().scaled(0.02).generate();
        let counter = ScanCounter::new(&ds);
        let mut h = StHoles::with_total(ds.domain().clone(), 12, ds.len() as f64);
        let wl = sth_query::WorkloadSpec { count: queries, ..WorkloadSpec::paper(0.01, 4) }
            .generate(ds.domain(), None);
        for q in wl.queries() {
            h.refine(q.rect(), &counter);
        }
        (h, ds)
    }

    #[test]
    fn image_roundtrip_restores_exact_state() {
        let (h, _) = trained(80);
        let back = StHoles::from_image_bytes(&h.to_image_bytes()).unwrap();
        // Canonical bytes equal (logical state identical)…
        assert_eq!(back.to_bytes(), h.to_bytes());
        // …and image bytes equal (slot layout identical too).
        assert_eq!(back.to_image_bytes(), h.to_image_bytes());
        assert_eq!(back.golden_hash(), h.golden_hash());
    }

    #[test]
    fn replay_after_image_roundtrip_is_bit_identical() {
        // The property the durable store stands on: decode(image) then
        // refine ≡ refine on the original, including merge tie-breaking.
        // A small budget over a low-density dataset forces plenty of
        // zero-penalty ties between empty buckets.
        let (mut h, ds) = trained(60);
        let mut back = StHoles::from_image_bytes(&h.to_image_bytes()).unwrap();
        let wl = sth_query::WorkloadSpec { count: 60, ..WorkloadSpec::paper(0.012, 9) }
            .generate(ds.domain(), None);
        let mut result = ResultSetCounter::empty(ds.ndim());
        let scan = ScanCounter::new(&ds);
        for q in wl.queries() {
            assert!(result.refill_from_counter(&scan, q.rect()));
            let truth = sth_index::RangeCounter::total(&result) as f64;
            h.refine_with_truth(q.rect(), &result, truth);
            back.refine_with_truth(q.rect(), &result, truth);
            assert_eq!(
                h.to_image_bytes(),
                back.to_image_bytes(),
                "replay diverged at query {}",
                q.rect()
            );
        }
        assert_eq!(h.golden_hash(), back.golden_hash());
    }

    #[test]
    fn frozen_flag_survives_the_image() {
        let (mut h, _) = trained(20);
        h.set_frozen(true);
        let back = StHoles::from_image_bytes(&h.to_image_bytes()).unwrap();
        assert!(back.frozen());
    }

    #[test]
    fn image_rejects_garbage_and_bitflips() {
        assert_eq!(StHoles::from_image_bytes(b"nope").unwrap_err(), DecodeError::BadMagic);
        assert_eq!(
            StHoles::from_image_bytes(b"STI1\x05").unwrap_err(),
            DecodeError::BadVersion(5)
        );
        let bytes = trained(40).0.to_image_bytes();
        let mut truncated = bytes.clone();
        truncated.truncate(truncated.len() - 2);
        assert!(StHoles::from_image_bytes(&truncated).is_err());
        // Any single-byte flip must decode to an error or a still-valid
        // histogram — never panic (the image has no whole-buffer CRC; the
        // store's section framing adds that layer on disk).
        for i in (0..bytes.len()).step_by(3) {
            let mut m = bytes.clone();
            m[i] ^= 0xFF;
            if let Ok(h) = StHoles::from_image_bytes(&m) {
                h.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn empty_histogram_image_roundtrip() {
        let h = StHoles::with_total(Rect::cube(3, 0.0, 10.0), 5, 42.0);
        let back = StHoles::from_image_bytes(&h.to_image_bytes()).unwrap();
        assert_eq!(back.bucket_count(), 0);
        assert_eq!(back.to_bytes(), h.to_bytes());
    }
}
