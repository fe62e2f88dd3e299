//! STHoles: a workload-aware, multidimensional, self-tuning histogram.
//!
//! Re-implementation of the data structure of Bruno, Chaudhuri and Gravano
//! (SIGMOD 2001), the representative self-tuning histogram analysed and
//! improved by the paper this repository reproduces.
//!
//! The histogram partitions the data space into a tree of rectangular
//! buckets. A bucket stores the number of tuples in its *own region* — its
//! box minus the boxes of its children ("holes"). Three operations:
//!
//! * **Estimation** (Eq. 1 of the paper): assume tuples are uniform within
//!   each bucket's own region and sum the per-bucket contributions
//!   `n(b) · vol(q ∩ b) / vol(b)`.
//! * **Drilling**: after a query executes, for every bucket intersecting the
//!   query compute the candidate hole `q ∩ box(b)`, shrink it along single
//!   dimensions until no child partially overlaps, then install it as a new
//!   child with the *exact* tuple count observed in the query result.
//! * **Merging**: when the bucket budget is exceeded, repeatedly apply the
//!   parent–child or sibling–sibling merge with the smallest penalty
//!   (Eq. 2), i.e. the merge that changes the histogram's estimates least.
//!
//! The tree mutates heavily, so buckets live in a slotted arena addressed by
//! [`BucketId`]s.

#![warn(missing_docs)]

mod arena;
mod consistency;
mod drill;
mod frozen;
mod histogram;
mod kernel;
mod merge;
mod persist;
mod scratch;
mod stats;

pub use arena::{Bucket, BucketArena, BucketId};
pub use consistency::{ConsistencyConfig, ConsistentStHoles};
pub use frozen::FrozenHistogram;
pub use histogram::{MergePolicy, StHoles, SthConfig};
pub use kernel::KERNEL_MIN_BATCH;
pub use merge::{MergeOp, MergePenalty, ParentMerges};
pub use persist::DecodeError;
pub use stats::HistogramStats;

/// Unit tests of the verbatim arena image (`STI1`) that
/// [`StHoles::to_bytes`] writes and [`StHoles::from_bytes`] reads: exact
/// process state, lockstep replay and malformed input. The codec itself
/// lives in `persist`, whose own tests cover estimates and errors.
#[cfg(test)]
mod image {
    mod tests {
        use sth_geometry::Rect;
        use sth_index::{ResultSetCounter, ScanCounter};
        use sth_query::{SelfTuning, WorkloadSpec};

        use crate::{DecodeError, StHoles};

        fn trained(queries: usize) -> (StHoles, sth_data::Dataset) {
            let ds = sth_data::cross::CrossSpec::cross2d().scaled(0.02).generate();
            let counter = ScanCounter::new(&ds);
            let mut h = StHoles::with_total(ds.domain().clone(), 12, ds.len() as f64);
            let wl = WorkloadSpec { count: queries, ..WorkloadSpec::paper(0.01, 4) }
                .generate(ds.domain(), None);
            for q in wl.queries() {
                h.refine(q.rect(), &counter);
            }
            (h, ds)
        }

        #[test]
        fn image_roundtrip_restores_exact_state() {
            let (h, _) = trained(80);
            let bytes = h.to_bytes();
            let back = StHoles::from_bytes(&bytes).unwrap();
            // Slot layout, free list and children order all survive…
            assert_eq!(back.to_bytes(), bytes);
            // …and so does the logical tree.
            assert_eq!(back.golden_hash(), h.golden_hash());
        }

        #[test]
        fn replay_after_image_roundtrip_is_bit_identical() {
            // The property the durable store stands on: decode(image) then
            // refine ≡ refine on the original, including merge tie-breaking.
            // A small budget over a low-density dataset forces plenty of
            // zero-penalty ties between empty buckets.
            let (mut h, ds) = trained(60);
            let mut back = StHoles::from_bytes(&h.to_bytes()).unwrap();
            let wl = WorkloadSpec { count: 60, ..WorkloadSpec::paper(0.012, 9) }
                .generate(ds.domain(), None);
            let mut result = ResultSetCounter::empty(ds.ndim());
            let scan = ScanCounter::new(&ds);
            for q in wl.queries() {
                assert!(result.refill_from_counter(&scan, q.rect()));
                let truth = sth_index::RangeCounter::total(&result) as f64;
                h.refine_with_truth(q.rect(), &result, truth);
                back.refine_with_truth(q.rect(), &result, truth);
                assert_eq!(h.to_bytes(), back.to_bytes(), "replay diverged at query {}", q.rect());
            }
            assert_eq!(h.golden_hash(), back.golden_hash());
        }

        #[test]
        fn frozen_flag_survives_the_image() {
            let (mut h, _) = trained(20);
            h.set_frozen(true);
            let back = StHoles::from_bytes(&h.to_bytes()).unwrap();
            assert!(back.frozen());
        }

        #[test]
        fn image_rejects_garbage_and_bitflips() {
            assert_eq!(StHoles::from_bytes(b"nope").unwrap_err(), DecodeError::BadMagic);
            assert_eq!(StHoles::from_bytes(b"STI1\x05").unwrap_err(), DecodeError::BadVersion(5));
            let bytes = trained(40).0.to_bytes();
            let mut truncated = bytes.clone();
            truncated.truncate(truncated.len() - 2);
            assert!(StHoles::from_bytes(&truncated).is_err());
            // Any single-byte flip must decode to an error or a still-valid
            // histogram — never panic (the image has no whole-buffer CRC; the
            // store's section framing adds that layer on disk).
            for i in (0..bytes.len()).step_by(3) {
                let mut m = bytes.clone();
                m[i] ^= 0xFF;
                if let Ok(h) = StHoles::from_bytes(&m) {
                    h.check_invariants().unwrap();
                }
            }
        }

        #[test]
        fn empty_histogram_image_roundtrip() {
            let h = StHoles::with_total(Rect::cube(3, 0.0, 10.0), 5, 42.0);
            let back = StHoles::from_bytes(&h.to_bytes()).unwrap();
            assert_eq!(back.bucket_count(), 0);
            assert_eq!(back.to_bytes(), h.to_bytes());
        }
    }
}
