//! Property-based tests for the simulation harness and the multi-tenant
//! registry.
//!
//! * Across randomized run parameters, learning during simulation is no
//!   worse on average (over the fixed [`sth_eval::FREEZE_SEED_LADDER`])
//!   than freezing the histogram after training. This is the property
//!   behind the deterministic `freeze_after_training_stops_learning` unit
//!   test; randomizing the bucket budget and workload length guards the
//!   margin against parameter luck.
//! * Registry routing is invisible: a mixed-tenant batch split by
//!   [`sth_eval::route_batch`] is bit-identical to asking each tenant's
//!   pinned view directly.
//! * Tenant and composite epochs stay monotone under concurrent
//!   republication from racing publisher threads, and each tenant's
//!   final view carries the composite epoch of its latest publish.
//! * A republished tenant view answers bit-identically to freezing its
//!   trainer, scalar and batch, and publishing one tenant leaves the
//!   others' views alone.

use sth_platform::check::prelude::*;

use sth_eval::{
    run_simulation, DatasetSpec, ExperimentCtx, Registry, RunConfig, TenantKey, Variant,
    FREEZE_SEED_LADDER,
};
use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::KdCountTree;
use sth_query::{CardinalityEstimator, SelfTuning, WorkloadSpec};

/// A tenant trained with `queries` refines of its own seeded workload,
/// plus the remaining workload rects for serving/further refinement.
fn trained_tenant(seed: u64, queries: usize) -> (StHoles, KdCountTree, Vec<Rect>) {
    let data = sth_data::cross::CrossSpec::cross2d().scaled(0.04).generate();
    let index = KdCountTree::build(&data);
    let wl = WorkloadSpec::paper(0.01, seed).generate(data.domain(), None);
    let mut hist = sth_core::build_uninitialized(&data, 48);
    for q in wl.queries().iter().take(queries) {
        hist.refine(q.rect(), &index);
    }
    let rest = wl.queries().iter().skip(queries).map(|q| q.rect().clone()).collect();
    (hist, index, rest)
}

fn tiny_ctx() -> ExperimentCtx {
    ExperimentCtx {
        scale: 0.05,
        train: 60,
        sim: 60,
        buckets: vec![20],
        cluster_sample: None,
        seed: 0xAB,
    }
}

check! {
    cases = 4;

    fn freeze_is_no_better_on_average(
        buckets in 12usize..25,
        sim in 45usize..70,
    ) {
        let prep = tiny_ctx().prepare(DatasetSpec::Cross2d);
        let mut live_sum = 0.0;
        let mut frozen_sum = 0.0;
        for seed in FREEZE_SEED_LADDER {
            let cfg = RunConfig {
                freeze_after_training: true,
                train: 5,
                sim,
                ..RunConfig::paper(buckets, seed)
            };
            let frozen = run_simulation(&prep, &Variant::Uninitialized, &cfg);
            let live = run_simulation(
                &prep,
                &Variant::Uninitialized,
                &RunConfig { freeze_after_training: false, ..cfg },
            );
            prop_assert!(live.nae.is_finite() && frozen.nae.is_finite());
            live_sum += live.nae;
            frozen_sum += frozen.nae;
        }
        let n = FREEZE_SEED_LADDER.len() as f64;
        prop_assert!(
            live_sum / n <= frozen_sum / n + 0.05,
            "learning during simulation hurt on average: live mean {} vs frozen mean {}",
            live_sum / n,
            frozen_sum / n
        );
    }

    fn routed_mixed_batches_are_bit_identical_to_direct_views(
        train_a in 5usize..25,
        train_b in 5usize..25,
        train_c in 5usize..25,
        stride in 1usize..5,
    ) {
        // Three tenants at different training depths, one interleaved
        // mixed batch: routing must neither reorder nor perturb a single
        // bit of any tenant's answers.
        let mut reg = Registry::new();
        let mut serves = Vec::new();
        for (t, (seed, queries)) in
            [(3u64, train_a), (17, train_b), (29, train_c)].into_iter().enumerate()
        {
            let (hist, _, rest) = trained_tenant(seed, queries);
            let id = reg.register(TenantKey::new("t", vec![t as u32]), &hist);
            prop_assert_eq!(id, t);
            serves.push(rest);
        }
        let mut batch: Vec<(usize, Rect)> = Vec::new();
        for j in 0..30 {
            let id = (j * stride) % serves.len();
            batch.push((id, serves[id][j % serves[id].len()].clone()));
        }
        let mut routed = Vec::new();
        reg.estimate_batch_routed(&batch, &mut routed);
        prop_assert_eq!(routed.len(), batch.len());
        for (j, (id, q)) in batch.iter().enumerate() {
            let direct = reg.load(*id).estimate(q);
            prop_assert_eq!(
                routed[j].to_bits(),
                direct.to_bits(),
                "query {} of tenant {} diverged: routed {} vs direct {}",
                j, id, routed[j], direct
            );
        }
    }

    fn tenant_views_match_the_trainer_freeze_after_every_publish(
        train in 0usize..20,
        rounds in 1usize..5,
        step in 1usize..8,
    ) {
        // One tenant refined and republished `rounds` times, `step`
        // queries apart, next to an idle one: after every publish the
        // hot tenant's view answers bit-identically to freezing its
        // trainer on both the scalar and the batch path, and the idle
        // tenant still serves the view it was registered with.
        let (mut hist, index, rest) = trained_tenant(71, train);
        let (idle, ..) = trained_tenant(73, 10);
        let mut reg = Registry::new();
        let hot = reg.register(TenantKey::new("hot", vec![0, 1]), &hist);
        let other = reg.register(TenantKey::new("idle", vec![0, 1]), &idle);
        let idle_frozen = idle.freeze();
        let probes: Vec<Rect> = rest.iter().rev().take(40).cloned().collect();
        let mut feed = rest.iter();
        for round in 0..rounds {
            for q in feed.by_ref().take(step) {
                hist.refine(q, &index);
            }
            let out = reg.publish(hot, &hist);
            prop_assert_eq!(out.tenant_epoch, 2 + round as u64);
            let (view, frozen) = (reg.load(hot), hist.freeze());
            prop_assert_eq!(view.composite_epoch(), out.composite_epoch);
            let mut batch = vec![f64::NAN; 2]; // stale garbage: must clear
            view.estimate_batch(&probes, &mut batch);
            prop_assert_eq!(batch.len(), probes.len());
            let idle_view = reg.load(other);
            prop_assert_eq!(idle_view.composite_epoch(), 1);
            for (j, p) in probes.iter().enumerate() {
                let want = frozen.estimate(p).to_bits();
                prop_assert_eq!(
                    view.estimate(p).to_bits(),
                    want,
                    "round {} probe {} scalar",
                    round,
                    j
                );
                prop_assert_eq!(batch[j].to_bits(), want, "round {} probe {} batch", round, j);
                prop_assert_eq!(
                    idle_view.estimate(p).to_bits(),
                    idle_frozen.estimate(p).to_bits(),
                    "idle tenant moved at round {} probe {}",
                    round,
                    j
                );
            }
        }
        prop_assert_eq!(reg.tenant_epoch(other), 1);
    }

    fn epochs_stay_monotone_under_concurrent_republish(
        publishers in 2usize..4,
        rounds in 2usize..4,
    ) {
        // Racing publisher threads on two shared tenants: both epoch
        // axes (per-tenant, registry composite) must increase within
        // each thread's serialized view, the final counts must account
        // for every publish exactly, and each tenant's cell must end on
        // the view of its latest composite tick.
        let mut reg = Registry::new();
        for t in 0..2u64 {
            let (hist, ..) = trained_tenant(41 + t, 8);
            reg.register(TenantKey::new("race", vec![t as u32]), &hist);
        }
        // Each publisher owns its own tenant replica at a distinct
        // training depth; all race their publishes into the shared
        // registry (ids alternate, so both tenants see contention).
        let pubs: Vec<_> = (0..publishers)
            .map(|p| {
                let id = p % 2;
                let (hist, index, rest) = trained_tenant(41 + id as u64, 8 + p);
                (id, hist, index, rest)
            })
            .collect();
        let reg = &reg;
        std::thread::scope(|s| {
            let handles: Vec<_> = pubs
                .into_iter()
                .enumerate()
                .map(|(p, (id, mut hist, index, rest))| {
                    s.spawn(move || {
                        let index = &index;
                        let mut last_tenant = 0u64;
                        let mut last_composite = 0u64;
                        for r in 0..rounds {
                            hist.refine(&rest[(p + r * publishers) % rest.len()], index);
                            let out = reg.publish(id, &hist);
                            assert!(
                                out.tenant_epoch > last_tenant,
                                "tenant epoch regressed: {} after {last_tenant}",
                                out.tenant_epoch
                            );
                            assert!(
                                out.composite_epoch > last_composite,
                                "composite epoch regressed"
                            );
                            last_tenant = out.tenant_epoch;
                            last_composite = out.composite_epoch;
                        }
                        (id, rounds as u64, last_composite)
                    })
                })
                .collect();
            // Composite epoch 1 is registration, before any publish.
            let mut newest = [1u64; 2];
            let mut total = 0u64;
            for h in handles {
                let (id, published, last_composite) = h.join().unwrap();
                total += published;
                newest[id] = newest[id].max(last_composite);
            }
            // Every publish bumped exactly one tenant epoch and
            // one composite tick; nothing was lost to the races.
            let per_tenant: u64 =
                (0..2).map(|id| reg.tenant_epoch(id) - 1).sum();
            assert_eq!(per_tenant, total, "publishes lost or double-counted");
            assert_eq!(reg.composite_epoch(), 1 + total);
            // The per-tenant publish lock orders the tick with the swap,
            // so no older view can land after a newer one.
            for (id, &want) in newest.iter().enumerate() {
                assert_eq!(
                    reg.load(id).composite_epoch(),
                    want,
                    "tenant {id} ended on a stale view"
                );
            }
        });
    }
}
