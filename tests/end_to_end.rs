//! Cross-crate integration tests: the paper's headline claims must hold at
//! a reduced scale that runs quickly in CI.

use sth::data::cross::CrossSpec;
use sth::data::gauss::GaussSpec;
use sth::eval::{run_simulation, DatasetSpec, ExperimentCtx, RunConfig, Variant};
use sth::prelude::*;

fn tiny_ctx() -> ExperimentCtx {
    ExperimentCtx {
        scale: 0.05,
        train: 80,
        sim: 80,
        buckets: vec![25],
        cluster_sample: None,
        seed: 0x1234,
    }
}

#[test]
fn initialization_halves_error_on_cross() {
    let ctx = tiny_ctx();
    let prep = ctx.prepare(DatasetSpec::Cross2d);
    let cfg = RunConfig { buckets: 25, train: ctx.train, sim: ctx.sim, ..RunConfig::paper(25, ctx.seed) };
    let init = run_simulation(&prep, &Variant::initialized_default(), &cfg);
    let uninit = run_simulation(&prep, &Variant::Uninitialized, &cfg);
    assert!(init.nae < uninit.nae, "init {} !< uninit {}", init.nae, uninit.nae);
    // Both beat the trivial histogram (NAE < 1).
    assert!(init.nae < 1.0);
    assert!(uninit.nae < 1.0 + 1e-9);
}

#[test]
fn initialization_wins_on_gauss_subspace_clusters() {
    let ctx = ExperimentCtx { scale: 0.03, ..tiny_ctx() };
    let prep = ctx.prepare(DatasetSpec::Gauss);
    let cfg = RunConfig {
        buckets: 40,
        train: ctx.train,
        sim: ctx.sim,
        cluster_sample: Some(3_000),
        ..RunConfig::paper(40, ctx.seed)
    };
    let init = run_simulation(&prep, &Variant::initialized_default(), &cfg);
    let uninit = run_simulation(&prep, &Variant::Uninitialized, &cfg);
    assert!(init.nae < uninit.nae, "init {} !< uninit {}", init.nae, uninit.nae);
    // The initialized histogram must carry subspace buckets at some point;
    // its report must show subspace clusters found.
    let report = init.init_report.expect("report");
    assert!(report.subspace_cluster_count(6) > 0, "no subspace clusters found on Gauss");
}

#[test]
fn full_pipeline_components_compose() {
    // The facade path: generate → index → cluster → initialize → train →
    // persist → restore → keep estimating.
    let data = CrossSpec::cross2d().scaled(0.02).generate();
    let engine = KdCountTree::build(&data);
    let mc = MineClus::new(MineClusConfig { alpha: 0.05, width: 30.0, ..MineClusConfig::default() });
    let (mut hist, _) = build_initialized(&data, 30, &mc, &InitConfig::default(), None, &engine);
    let wl = WorkloadSpec { count: 60, ..WorkloadSpec::paper(0.01, 3) }.generate(data.domain(), None);
    for q in wl.queries() {
        hist.refine(q.rect(), &engine);
    }
    hist.check_invariants().unwrap();
    let restored = StHoles::from_bytes(&hist.to_bytes()).unwrap();
    for q in wl.queries().iter().take(10) {
        assert_eq!(restored.estimate(q.rect()).to_bits(), hist.estimate(q.rect()).to_bits());
    }
}

#[test]
fn consistency_layer_composes_with_initialization() {
    // Initialization + the ISOMER-inspired IPF layer: constraints stay
    // satisfied while the underlying structure came from clustering.
    let data = CrossSpec::cross2d().scaled(0.03).generate();
    let engine = KdCountTree::build(&data);
    let mc = MineClus::new(MineClusConfig { alpha: 0.05, width: 30.0, ..MineClusConfig::default() });
    let (hist, _) = build_initialized(&data, 60, &mc, &InitConfig::default(), None, &engine);
    let mut consistent = ConsistentStHoles::new(
        hist,
        ConsistencyConfig { max_constraints: 20, ..ConsistencyConfig::default() },
    );
    let wl = WorkloadSpec { count: 50, ..WorkloadSpec::paper(0.01, 8) }.generate(data.domain(), None);
    for q in wl.queries() {
        consistent.refine(q.rect(), &engine);
    }
    assert!(consistent.mean_violation() < 0.2, "mean violation {}", consistent.mean_violation());
    consistent.inner().check_invariants().unwrap();
}

#[test]
fn trained_histogram_beats_trivial_everywhere_it_learned() {
    let data = GaussSpec::paper().scaled(0.02).generate();
    let engine = KdCountTree::build(&data);
    let trivial = TrivialHistogram::for_dataset(&data);
    let mut hist = build_uninitialized(&data, 60);
    let wl = WorkloadSpec { count: 300, ..WorkloadSpec::paper(0.01, 17) }.generate(data.domain(), None);
    let (train, sim) = wl.split_train(200);
    for q in train.queries() {
        hist.refine(q.rect(), &engine);
    }
    let mut err_h = 0.0;
    let mut err_t = 0.0;
    for q in sim.queries() {
        let truth = engine.count(q.rect()) as f64;
        err_h += (hist.estimate(q.rect()) - truth).abs();
        err_t += (trivial.estimate(q.rect()) - truth).abs();
    }
    assert!(err_h < err_t, "self-tuning {err_h} did not beat trivial {err_t}");
}
