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
mod image;
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
