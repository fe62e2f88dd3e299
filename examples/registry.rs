//! Acceptance demo for the multi-tenant registry: many tables/subspaces
//! served concurrently out of one process, each tenant published as one
//! frozen snapshot.
//!
//! `STH_TENANTS` (default 8) tenants — each with its own dataset, kd-tree
//! execution engine, and training/serving workloads — are registered in a
//! [`sth::eval::Registry`] and driven by [`sth::eval::serve_training`]:
//! trainer workers cycle the tenants round-robin, absorbing training
//! queries and republishing each dirty tenant, while reader streams
//! answer a mixed-tenant estimate stream split per batch by
//! [`sth::eval::route_batch`]. The example asserts the properties the
//! design promises:
//!
//! * every tenant is trained and served: per-tenant publishes, routed
//!   sub-batches, and answered estimates are all non-zero, and each
//!   tenant's epoch equals 1 + its publishes;
//! * the registry's composite epoch, and the `snapshot_publishes`
//!   counter, account for every publish across all tenants exactly;
//! * mixed-tenant batches routed through the registry are bit-identical
//!   to asking each tenant's pinned view directly;
//! * publishing one tenant of a fresh two-tenant registry moves that
//!   tenant's epoch by exactly one, leaves the other tenant's epoch
//!   alone, and installs a view that answers bit-identically to freezing
//!   the trainer's histogram;
//! * per-tenant timelines attribute every routed sub-batch to a tenant
//!   epoch, and the aggregate obs rollup carries the registry counters.
//!
//! ```text
//! STH_AUDIT=1 cargo run --release --example registry
//! ```

use sth::eval::{serve_training, Registry, ServeConfig, TenantKey, TenantRuntime, Trainer};
use sth::platform::{obs, par};
use sth::prelude::*;

fn main() {
    obs::force_metrics(true);
    obs::force_audit(true);

    let tenants: usize =
        std::env::var("STH_TENANTS").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
    assert!(tenants >= 1, "STH_TENANTS must be at least 1");
    let cfg = ServeConfig { readers: 4, batch: 32, republish_every: 20, trainer_workers: 3 };
    if par::worker_count() < cfg.readers {
        std::env::set_var("STH_THREADS", cfg.readers.to_string());
    }

    // Each tenant is an independent table: its own correlated dataset,
    // its own kd-tree engine, its own workloads, its own bucket budget.
    let mut tables = Vec::with_capacity(tenants);
    let mut serve_rects: Vec<Vec<Rect>> = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let data = sth::data::cross::CrossSpec::cross2d().scaled(0.02).generate();
        let index = KdCountTree::build(&data);
        let wl = WorkloadSpec { count: 180, ..WorkloadSpec::paper(0.01, 1_000 + t as u64) }
            .generate(data.domain(), None);
        let (train, serve) = wl.split_train(120);
        serve_rects.push(serve.queries().iter().map(|q| q.rect().clone()).collect());
        tables.push((build_uninitialized(&data, 48), train, serve, index));
    }
    let runtimes = tables
        .iter_mut()
        .enumerate()
        .map(|(t, (hist, train, serve, index))| TenantRuntime {
            key: TenantKey::new(format!("table{t}"), vec![0, 1]),
            trainer: Trainer::Volatile(hist),
            train: &*train,
            serve: &*serve,
            counter: &*index,
        })
        .collect();
    println!("registry: {} tenants, {:?}", tenants, cfg);

    let mut registry = Registry::new();
    let report = serve_training(&mut registry, runtimes, &cfg).expect("no store");

    println!(
        "served {} estimates in {} routed sub-batches across {} readers; composite epoch {}",
        report.answered(),
        report.tenants.iter().map(|t| t.batches).sum::<u64>(),
        report.readers.len(),
        report.composite_final
    );
    for t in &report.tenants {
        println!(
            "  {}: {} publishes (epoch {}), {} answered in {} sub-batches",
            t.key, t.publishes, t.final_epoch, t.answered, t.batches
        );
    }

    // -- Acceptance: every tenant trained, served, and accounted --------
    assert_eq!(report.tenants.len(), tenants);
    let mut total_publishes = 0;
    for t in &report.tenants {
        assert!(t.publishes >= 1, "{} never republished", t.key);
        assert_eq!(t.final_epoch, 1 + t.publishes, "{} epoch drift", t.key);
        assert!(t.answered >= 1, "{} served nothing", t.key);
        assert!(t.batches >= 1, "{} got no routed sub-batches", t.key);
        assert_eq!(
            t.timeline.rows.iter().map(|r| r.answered).sum::<u64>(),
            t.answered,
            "{} timeline does not account for its estimates",
            t.key
        );
        total_publishes += t.publishes;
    }
    assert_eq!(
        report.composite_final,
        1 + total_publishes,
        "composite epoch must tick once per publication round"
    );
    let mixed_batches: u64 = report.readers.iter().map(|r| r.batches).sum();
    assert!(
        report.counters.get(obs::Counter::RegistryRoutes) >= mixed_batches,
        "registry routing counter did not advance: {} routes for {} mixed batches",
        report.counters.get(obs::Counter::RegistryRoutes),
        mixed_batches
    );
    assert_eq!(
        report.counters.get(obs::Counter::SnapshotPublishes),
        total_publishes,
        "every publish must swap exactly one snapshot"
    );

    // -- Acceptance: routing is invisible, bit for bit ------------------
    // A mixed batch interleaving every tenant, answered through the
    // routed path, must equal each tenant's pinned view exactly.
    let mixed: Vec<(usize, Rect)> = (0..tenants * 8)
        .map(|j| {
            let id = j % tenants;
            (id, serve_rects[id][j / tenants % serve_rects[id].len()].clone())
        })
        .collect();
    let mut routed = Vec::new();
    registry.estimate_batch_routed(&mixed, &mut routed);
    for (j, (id, q)) in mixed.iter().enumerate() {
        let direct = registry.load(*id).estimate(q);
        assert_eq!(
            routed[j].to_bits(),
            direct.to_bits(),
            "tenant {id} query {j}: routed {} != direct {direct}",
            routed[j]
        );
    }
    println!("mixed-tenant routing bit-identical on {} probes", mixed.len());

    // -- Acceptance: a publish replaces exactly one tenant's snapshot ----
    // A fresh two-tenant registry: refining and publishing one tenant
    // moves its epoch by exactly one, leaves the other tenant's epoch
    // where it was, and installs a view that answers every probe
    // bit-identically to freezing the trainer's histogram.
    let data = sth::data::cross::CrossSpec::cross2d().scaled(0.02).generate();
    let index = KdCountTree::build(&data);
    let mut hist = build_uninitialized(&data, 48);
    let wl = WorkloadSpec::paper(0.01, 4_242).generate(data.domain(), None);
    for q in wl.queries().iter().take(60) {
        hist.refine(q.rect(), &index);
    }
    let mut local = Registry::new();
    let id = local.register(TenantKey::new("orders", vec![0, 1]), &hist);
    let other = local.register(TenantKey::new("orders", vec![0, 2]), &hist);
    let (before, other_before) = (local.tenant_epoch(id), local.tenant_epoch(other));
    for q in wl.queries().iter().skip(60).take(1) {
        hist.refine(q.rect(), &index);
    }
    local.publish(id, &hist);
    assert_eq!(local.tenant_epoch(id), before + 1, "the published tenant's epoch");
    assert_eq!(local.tenant_epoch(other), other_before, "publishing one tenant moved another");
    let (view, frozen) = (local.load(id), hist.freeze());
    for (j, q) in wl.queries().iter().enumerate() {
        let (got, want) = (view.estimate(q.rect()), frozen.estimate(q.rect()));
        assert_eq!(got.to_bits(), want.to_bits(), "probe {j}: view {got} != freeze {want}");
    }
    println!(
        "publish: tenant epoch {before} -> {}, other tenant stays at {other_before}, \
         {} probes bit-identical to the trainer's freeze",
        local.tenant_epoch(id),
        wl.len()
    );

    obs::force_audit(false);
    obs::force_metrics(false);
    println!("registry example OK");
}
