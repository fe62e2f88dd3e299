//! The refine path must be fully deterministic: same data, same queries,
//! same budget → byte-identical serialized histograms, across runs and
//! across rebuilds. The merge accelerator, the scratch buffers, and the
//! pruned sibling-candidate enumeration must not leak any iteration-order
//! nondeterminism (the pre-accelerator code ranked sibling candidates via
//! a `HashSet` and was *not* reproducible at large budgets).

use sth_data::cross::CrossSpec;
use sth_histogram::StHoles;
use sth_index::KdCountTree;
use sth_query::{SelfTuning, WorkloadSpec};

fn run_simulation() -> StHoles {
    let ds = CrossSpec::cross2d().scaled(0.02).generate();
    let tree = KdCountTree::build(&ds);
    let wl = WorkloadSpec { count: 500, ..WorkloadSpec::paper(0.01, 21) }
        .generate(ds.domain(), None);
    let mut h = StHoles::with_total(ds.domain().clone(), 150, ds.len() as f64);
    for q in wl.queries() {
        h.refine(q.rect(), &tree);
    }
    h.check_invariants().expect("invariants after simulation");
    h
}

/// Pinned golden hash of the 500-query Cross simulation at budget 150. If an
/// intentional algorithm change moves this value, re-pin it — the point
/// of the pin is that it *only* moves when the refine algorithm changes,
/// never from run to run.
const GOLDEN_FNV1A: u64 = 0xe211ba1d193b2176;

#[test]
fn refine_is_run_to_run_deterministic() {
    let a = run_simulation();
    let b = run_simulation();
    assert_eq!(a.to_bytes(), b.to_bytes(), "two identical simulations serialized differently");
    let golden = a.golden_hash();
    assert_eq!(
        golden, GOLDEN_FNV1A,
        "refine outcome drifted from the pinned golden hash (got {golden:#018x})"
    );
}

#[test]
fn roundtrip_of_simulation_result_is_stable() {
    // Decoding the image restores the exact process state, so
    // re-encoding it gives back the same bytes.
    let a = run_simulation().to_bytes();
    assert_eq!(StHoles::from_bytes(&a).expect("decode").to_bytes(), a);
}
