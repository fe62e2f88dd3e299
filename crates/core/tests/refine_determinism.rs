//! Golden pin of the refine path at the paper's headline shape: a 6-d
//! Gauss histogram initialized from MineClus clusters at budget 100. Its
//! root carries dozens of children, so sibling-merge search runs on the
//! pruned candidate set, far above the fanout of the Cross pin in
//! `sth-histogram`'s `refine_determinism` suite. Any change to merge
//! search or its caches that alters a single penalty bit moves the hash.

use sth_core::{build_initialized, InitConfig};
use sth_data::gauss::GaussSpec;
use sth_index::KdCountTree;
use sth_mineclus::{MineClus, MineClusConfig};
use sth_query::{SelfTuning, WorkloadSpec};

fn run_gauss_simulation() -> u64 {
    let ds = GaussSpec::paper().scaled(0.02).generate();
    let tree = KdCountTree::build(&ds);
    let mineclus = MineClus::new(MineClusConfig::default());
    let (mut h, _) = build_initialized(&ds, 100, &mineclus, &InitConfig::default(), None, &tree);
    let wl =
        WorkloadSpec { count: 400, ..WorkloadSpec::paper(0.01, 0xE0) }.generate(ds.domain(), None);
    for q in wl.queries() {
        h.refine(q.rect(), &tree);
    }
    h.check_invariants().expect("invariants after simulation");
    h.golden_hash()
}

/// Pinned golden hash of the MineClus-initialized 400-query Gauss simulation
/// at budget 100; re-pin only on an intentional algorithm change.
const GOLDEN_GAUSS_FNV1A: u64 = 0xe4547a7dd6a5769f;

#[test]
fn gauss_refine_matches_golden_hash() {
    let golden = run_gauss_simulation();
    assert_eq!(
        golden, GOLDEN_GAUSS_FNV1A,
        "refine outcome drifted from the pinned golden hash (got {golden:#018x})"
    );
}
