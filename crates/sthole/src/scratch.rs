//! Reusable refine-path scratch buffers.
//!
//! Steady-state refinement (drill + compact on a warm histogram) must not
//! allocate. Every hot loop therefore borrows its temporary storage from a
//! single [`RefineScratch`] owned by `StHoles`. The ownership rule:
//!
//! * the scratch belongs to the *live* histogram only — `Clone` and
//!   persistence skip it (a clone starts with a fresh, empty scratch);
//! * buffers are cleared by the *user* at the start of each use, never by
//!   the producer, so capacity survives across queries;
//! * no scratch contents are ever read across public API calls — they are
//!   dead storage between calls.

use crate::arena::BucketId;
use crate::merge::{HullWitnesses, ListEdit};

/// Reusable buffers for the refine hot path. Contents are meaningless
/// between operations; only the allocated capacity matters.
#[derive(Debug, Default)]
pub(crate) struct RefineScratch {
    /// DFS stack for tree traversals.
    pub stack: Vec<BucketId>,
    /// Snapshot of buckets intersecting the current query.
    pub targets: Vec<BucketId>,
    /// Children captured by a candidate hole / merged sibling box.
    pub participants: Vec<BucketId>,
    /// Children still able to force a shrink of the candidate hole.
    pub shrink_cands: Vec<BucketId>,
    /// Per-child own-region volumes for the merge planner (children order).
    pub child_owns: Vec<f64>,
    /// (hull growth, i, j) triples for sibling-pair pruning.
    pub pair_buf: Vec<(f64, u32, u32)>,
    /// Two best merge partners per child during sibling-pair pruning.
    pub best2: Vec<[(f64, u32); 2]>,
    /// Packed extended box of the sibling merge being applied.
    pub bn: Vec<f64>,
    /// Participant positions found by one sibling fixpoint.
    pub sib_parts: Vec<u32>,
    /// Child positions sorted by dim-0 lower edge — the sweep order that
    /// lets the sibling extension loop stop at the first child starting
    /// past the tentative box.
    pub x_order: Vec<u32>,
    /// Children not yet absorbed by the tentative merged box — the
    /// extension loop's shrinking worklist.
    pub active: Vec<u32>,
    /// Hull-closing witnesses of the sibling memo being refreshed.
    pub witnesses: HullWitnesses,
    /// The child-list edit and repair plan of the memo being refreshed.
    pub edit: ListEdit,
}
