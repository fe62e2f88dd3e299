//! Microbenchmarks of the histogram's core operations: estimation (live
//! and frozen read path), hole drilling, merge search, the concurrent
//! serve loop, the poll-based serving engine (coalesced vs single-request
//! services), durability (delta append, snapshot flush, cold recovery),
//! the k-d index (count, result stream, build), exact range counting (k-d
//! tree vs scan), and MineClus clustering.

use std::sync::Arc;
use std::time::Duration;

use sth_platform::bench::{black_box, Bench};
use sth_bench::cross_fixture;
use sth_core::{build_initialized, build_uninitialized, InitConfig};
use sth_data::gauss::GaussSpec;
use sth_eval::{
    serve_training, DatasetSpec, Registry, ServeConfig, TenantKey, TenantRuntime, Trainer,
};
use sth_geometry::Rect;
use sth_index::{KdCountTree, RangeCounter, ResultSetCounter, ScanCounter};
use sth_mineclus::{cluster_default, mine_best_dimset, MineClus, MineClusConfig};
use sth_platform::rng::Rng;
use sth_query::{CardinalityEstimator, Estimator, SelfTuning, WorkloadSpec};
use sth_store::vfs::{MemVfs, Vfs};
use sth_store::{DurableTrainer, Store, StoreConfig};

/// Builds a trained histogram with ~`buckets` buckets for estimation
/// benches.
fn trained_histogram(buckets: usize) -> (sth_histogram::StHoles, Vec<Rect>) {
    let prep = cross_fixture();
    let mut h = build_uninitialized(&prep.data, buckets);
    let wl = WorkloadSpec { count: 300, ..WorkloadSpec::paper(0.01, 3) }
        .generate(prep.data.domain(), None);
    for q in wl.queries() {
        h.refine(q.rect(), &*prep.index);
    }
    let probes: Vec<Rect> =
        wl.queries().iter().take(64).map(|q| q.rect().clone()).collect();
    (h, probes)
}

fn bench_estimate(c: &mut Bench) {
    let mut g = c.benchmark_group("estimate");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    for buckets in [50usize, 250] {
        let (h, probes) = trained_histogram(buckets);
        g.bench_function(format!("buckets_{buckets}"), |b| {
            let mut i = 0;
            b.iter(|| {
                let q = &probes[i % probes.len()];
                i += 1;
                black_box(h.estimate(q))
            });
        });
    }
    g.finish();
}

fn bench_estimate_frozen(c: &mut Bench) {
    // The packed read path against the same probes as `estimate`: function
    // names match across the two groups so the reports compare directly.
    let mut g = c.benchmark_group("estimate_frozen");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    for buckets in [50usize, 250] {
        let (h, probes) = trained_histogram(buckets);
        let frozen = h.freeze();
        g.bench_function(format!("buckets_{buckets}"), |b| {
            let mut i = 0;
            b.iter(|| {
                let q = &probes[i % probes.len()];
                i += 1;
                black_box(frozen.estimate(q))
            });
        });
        // The batch entry point amortizes the traversal scratch across
        // queries — the shape the serve loop actually runs.
        g.bench_function(format!("batch64_buckets_{buckets}"), |b| {
            let mut out = Vec::with_capacity(probes.len());
            b.iter(|| {
                out.clear();
                frozen.estimate_batch(&probes, &mut out);
                black_box(out.len())
            });
        });
    }
    g.finish();
}

fn bench_batch_kernel(c: &mut Bench) {
    // The lane-oriented batch kernel vs the scalar per-query loop on the
    // same frozen snapshot and probe set. Names carry the batch size so
    // per-query numbers divide out; `estimate_frozen/batch64_*` (above)
    // stays as the dispatching entry point for trajectory comparison.
    let mut g = c.benchmark_group("batch_kernel");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    for buckets in [50usize, 250] {
        let (h, probes) = trained_histogram(buckets);
        let frozen = h.freeze();
        for batch in [16usize, 64] {
            let slice = &probes[..batch.min(probes.len())];
            g.bench_function(format!("kernel{batch}_buckets_{buckets}"), |b| {
                let mut out = Vec::with_capacity(batch);
                b.iter(|| {
                    frozen.estimate_batch_kernel(slice, &mut out);
                    black_box(out.len())
                });
            });
            g.bench_function(format!("scalar{batch}_buckets_{buckets}"), |b| {
                let mut out = Vec::with_capacity(batch);
                b.iter(|| {
                    out.clear();
                    for q in slice {
                        out.push(frozen.estimate(q));
                    }
                    black_box(out.len())
                });
            });
        }
    }
    g.finish();
}

fn bench_serve_concurrent(c: &mut Bench) {
    // One full train-while-serving run of a single volatile tenant: the
    // trainer refines + republishes into a one-tenant registry while the
    // engine's reader streams answer batches from pinned views.
    let prep = cross_fixture();
    let wl = WorkloadSpec { count: 160, ..WorkloadSpec::paper(0.01, 11) }
        .generate(prep.data.domain(), None);
    let (train, serve) = wl.split_train(96);
    let mut g = c.benchmark_group("serve_concurrent");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    for readers in [2usize, 4] {
        g.bench_function(format!("readers_{readers}"), |b| {
            let cfg = ServeConfig { readers, batch: 16, republish_every: 24, trainer_workers: 1 };
            b.iter(|| {
                let mut h = build_uninitialized(&prep.data, 50);
                let tenant = TenantRuntime {
                    key: TenantKey::new("cross", vec![0, 1]),
                    trainer: Trainer::Volatile(&mut h),
                    train: &train,
                    serve: &serve,
                    counter: &*prep.index,
                };
                let report =
                    serve_training(&mut Registry::new(), vec![tenant], &cfg).expect("no store");
                black_box(report.answered())
            });
        });
    }
    g.finish();
}

fn bench_serve_engine(c: &mut Bench) {
    // The poll-based serving engine end to end: spin up the reactor, push
    // a fixed backlog of 4-query requests through the open loop, drain.
    // Two backlog sizes give two operating points (a light and a deep
    // queue), each with coalescing on (requests grouped up to 64 queries
    // for the lane kernel) and off (one request per service — the
    // thread-per-reader regime at equal thread count). Engine-thread
    // startup is included; it is the same across the on/off pairs, so
    // the delta isolates what coalescing buys.
    use sth_platform::snap::SnapshotCell;
    use sth_serve::{run_open, CellBackend, EngineConfig};

    let (h, probes) = trained_histogram(50);
    let cell = SnapshotCell::new(h.freeze());
    let mut g = c.benchmark_group("serve_engine");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    for requests in [64usize, 512] {
        for coalesce in [64usize, 1] {
            let cfg = EngineConfig { threads: 2, coalesce, deadline: None };
            let label = if coalesce > 1 { "coalesced" } else { "single" };
            g.bench_function(format!("open_{requests}req_{label}"), |b| {
                b.iter(|| {
                    let backend = CellBackend::new(&cell);
                    let (report, ()) = run_open(&backend, &cfg, false, |inj| {
                        for i in 0..requests {
                            let at = (i * 4) % (probes.len() - 4);
                            inj.inject(0, probes[at..at + 4].to_vec());
                        }
                    });
                    black_box(report.answered_total())
                });
            });
        }
    }
    g.finish();
}

fn bench_registry_route(c: &mut Bench) {
    // Multi-tenant routing overhead and publication cost. The routed
    // mixed batch is compared against answering the same number of probes
    // from one pinned tenant view (what routing costs on top of
    // estimation); the publish row freezes one tenant and swaps the
    // snapshot into its cell.
    let tenants = 4usize;
    let mut reg = Registry::new();
    let mut hists = Vec::with_capacity(tenants);
    let mut probes = Vec::new();
    for t in 0..tenants {
        let (h, p) = trained_histogram(50);
        reg.register(TenantKey::new(format!("t{t}"), vec![0, 1]), &h);
        hists.push(h);
        probes = p;
    }
    let mixed: Vec<(usize, Rect)> =
        (0..64).map(|j| (j % tenants, probes[j % probes.len()].clone())).collect();
    let single: Vec<Rect> = mixed.iter().map(|(_, q)| q.clone()).collect();

    let mut g = c.benchmark_group("registry_route");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function(format!("routed64_tenants_{tenants}"), |b| {
        let mut out = Vec::with_capacity(mixed.len());
        b.iter(|| {
            reg.estimate_batch_routed(&mixed, &mut out);
            black_box(out.len())
        });
    });
    g.bench_function("direct64_single_tenant", |b| {
        let view = reg.load(0);
        let mut out = Vec::with_capacity(single.len());
        b.iter(|| {
            view.estimate_batch(&single, &mut out);
            black_box(out.len())
        });
    });
    g.bench_function("publish", |b| {
        b.iter(|| black_box(reg.publish(0, &hists[0]).tenant_epoch));
    });
    g.finish();
}

fn bench_store_ops(c: &mut Bench) {
    // Durability costs on an in-memory VFS (no disk noise): the per-query
    // write-ahead append, a full snapshot generation, and the recovery
    // value proposition — cold `Store::open` (newest snapshot + tail
    // replay) vs retraining the same histogram from scratch.
    let prep = cross_fixture();
    let wl = WorkloadSpec { count: 200, ..WorkloadSpec::paper(0.01, 13) }
        .generate(prep.data.domain(), None);
    let mut g = c.benchmark_group("store_ops");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);

    // The log append alone: frame encode + CRC + VFS append. Flush
    // thresholds are parked at infinity so no snapshot sneaks in.
    g.bench_function("delta_append", |b| {
        let hist = build_uninitialized(&prep.data, 50);
        let cfg = StoreConfig {
            flush_every_deltas: usize::MAX,
            flush_every_bytes: u64::MAX,
            retain_generations: 2,
        };
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let mut store = Store::create("/bench", vfs, cfg, &hist).expect("create");
        let q = wl.queries()[0].rect().clone();
        let mut result = ResultSetCounter::empty(prep.data.ndim());
        result.refill_from_counter(&*prep.index, &q);
        let truth = result.total() as f64;
        b.iter(|| black_box(store.append_delta(&q, &result, truth).expect("append")));
    });

    // One snapshot generation end to end: codec encode, atomic publish,
    // manifest rewrite, retention GC of the generation that fell off.
    g.bench_function("snapshot_flush", |b| {
        let (h, _) = trained_histogram(50);
        let cfg = StoreConfig { retain_generations: 2, ..StoreConfig::default() };
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let mut store = Store::create("/bench", vfs, cfg, &h).expect("create");
        b.iter(|| black_box(store.flush_snapshot(&h).expect("flush")));
    });

    // 128 absorbed queries with the default flush-every-64 policy: a cold
    // open loads the newest snapshot and replays at most the active tail,
    // while losing the store means paying all 128 refines again.
    {
        let cfg = StoreConfig::default();
        let (train, _) = wl.split_train(128);
        let vfs = Arc::new(MemVfs::new());
        let hist = build_uninitialized(&prep.data, 50);
        let mut t =
            DurableTrainer::create("/bench", vfs.clone() as Arc<dyn Vfs>, cfg.clone(), hist)
                .expect("create");
        for q in train.queries() {
            t.absorb(q.rect(), &*prep.index).expect("absorb");
        }
        let files = vfs.files();
        g.bench_function("cold_open_128", |b| {
            b.iter(|| {
                let mem: Arc<dyn Vfs> = Arc::new(MemVfs::from_files(files.clone()));
                let (t, report) =
                    DurableTrainer::open("/bench", mem, cfg.clone()).expect("open");
                black_box((t.seq(), report.replayed))
            });
        });
        g.bench_function("full_retrain_128", |b| {
            b.iter(|| {
                let mut h = build_uninitialized(&prep.data, 50);
                for q in train.queries() {
                    h.refine(q.rect(), &*prep.index);
                }
                black_box(h.bucket_count())
            });
        });
    }
    g.finish();
}

fn bench_refine(c: &mut Bench) {
    let prep = cross_fixture();
    let wl = WorkloadSpec { count: 2_000, ..WorkloadSpec::paper(0.01, 5) }
        .generate(prep.data.domain(), None);
    let mut g = c.benchmark_group("refine");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    for buckets in [50usize, 250] {
        g.bench_function(format!("budget_{buckets}"), |b| {
            b.iter(|| {
                let mut h = build_uninitialized(&prep.data, buckets);
                for q in wl.queries().iter().take(200) {
                    h.refine(q.rect(), &*prep.index);
                }
                black_box(h.bucket_count())
            });
        });
    }
    // One serve_mixed tenant: Sky ×0.05 projected to dims 0–2, trained
    // from empty at budget 100 on its 150 feedback queries. Its root grows
    // to 70–76 children, so compaction is dominated by the sibling
    // fixpoints of a wide parent.
    let sky7 = DatasetSpec::Sky.generate(0.05);
    let sky = sky7.project(&[0, 1, 2]);
    let sky_index = KdCountTree::build(&sky);
    let seed = Rng::seed_from_u64(0xE0).fork(0).next_u64();
    let sky_wl = WorkloadSpec { count: 150, ..WorkloadSpec::paper(0.01, seed) }
        .generate(sky.domain(), None);
    g.bench_function("sky3d_budget_100", |b| {
        b.iter(|| {
            let mut h = build_uninitialized(&sky, 100);
            for q in sky_wl.queries() {
                h.refine(q.rect(), &sky_index);
            }
            black_box(h.bucket_count())
        });
    });
    // paper_sky's feedback path: Sky ×0.05, MineClus-initialized at budget
    // 50, fed the first 100 queries of the benchmark's first paper_sky
    // input, each probed once into a result stream whose zone map answers
    // drilling's recounts. The histogram is built once and cloned per
    // iteration, so clustering stays out of the timed loop.
    let sky7_index = KdCountTree::build(&sky7);
    let mineclus = MineClus::new(MineClusConfig::default());
    let (sky7_init, _) =
        build_initialized(&sky7, 50, &mineclus, &InitConfig::default(), None, &sky7_index);
    let sky7_wl = WorkloadSpec { count: 100, ..WorkloadSpec::paper(0.01, seed) }
        .generate(sky7.domain(), None);
    g.bench_function("sky7d_result_stream_budget_50", |b| {
        let mut result = ResultSetCounter::empty(sky7.ndim());
        b.iter(|| {
            let mut h = sky7_init.clone();
            for q in sky7_wl.queries() {
                result.refill_from_counter(&sky7_index, q.rect());
                let truth = result.total() as f64;
                h.refine_with_truth(q.rect(), &result, truth);
            }
            black_box(h.bucket_count())
        });
    });
    g.finish();
}

fn bench_refine_steady(c: &mut Bench) {
    // Steady state: the histogram is already at budget, so each refine is
    // one drill pass plus enough merges to get back under budget — the
    // per-query cost once the simulation loop has warmed up (bench_refine
    // measures the cold ramp-up instead).
    let prep = cross_fixture();
    let wl = WorkloadSpec { count: 2_000, ..WorkloadSpec::paper(0.01, 7) }
        .generate(prep.data.domain(), None);
    let mut g = c.benchmark_group("refine_steady");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    for buckets in [50usize, 250] {
        let (mut h, _) = trained_histogram(buckets);
        g.bench_function(format!("budget_{buckets}"), |b| {
            let mut i = 0;
            b.iter(|| {
                let q = wl.queries()[i % wl.len()].rect();
                i += 1;
                h.refine(q, &*prep.index);
                black_box(h.bucket_count())
            });
        });
    }
    g.finish();
}

fn bench_traversal(c: &mut Bench) {
    // The hull-gated tree walk behind both estimation and drilling.
    let mut g = c.benchmark_group("traversal");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    for buckets in [50usize, 250] {
        let (h, probes) = trained_histogram(buckets);
        g.bench_function(format!("buckets_intersecting_{buckets}"), |b| {
            let mut i = 0;
            b.iter(|| {
                let q = &probes[i % probes.len()];
                i += 1;
                black_box(h.buckets_intersecting(q).len())
            });
        });
    }
    g.finish();
}

fn bench_best_merge(c: &mut Bench) {
    let (mut h, _) = trained_histogram(250);
    c.bench_function("best_merge_scan_250", |b| b.iter(|| black_box(h.best_merge())));
}

fn bench_index(c: &mut Bench) {
    // The execution engine's three costs on the benchmark's tables: the
    // truth counts of serve_read's stream (its first 256 queries at the
    // default seed, Sky ×0.05), the same queries materialized as result
    // streams, and the build of one serve_mixed tenant's index (Sky ×0.05
    // projected to dims 0–2).
    let sky7 = DatasetSpec::Sky.generate(0.05);
    let index = KdCountTree::build(&sky7);
    let stream: Vec<Rect> = WorkloadSpec { count: 256, ..WorkloadSpec::paper(0.01, 0xE0) }
        .generate(sky7.domain(), None)
        .queries()
        .iter()
        .map(|q| q.rect().clone())
        .collect();
    let sky3 = sky7.project(&[0, 1, 2]);
    let mut g = c.benchmark_group("index");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    g.bench_function("kd_count_sky7d", |b| {
        b.iter(|| stream.iter().map(|q| index.count(q)).sum::<u64>())
    });
    g.bench_function("kd_fill_sky7d", |b| {
        let mut result = ResultSetCounter::empty(sky7.ndim());
        b.iter(|| {
            let mut rows = 0;
            for q in &stream {
                result.refill_from_counter(&index, q);
                rows += result.len();
            }
            rows
        })
    });
    g.bench_function("kd_build_sky3d", |b| {
        b.iter(|| KdCountTree::build(black_box(&sky3)).total())
    });
    g.finish();
}

fn bench_counting(c: &mut Bench) {
    // `ablation_index`: the k-d tree vs a full scan for exact range counts.
    let prep = cross_fixture();
    let scan = ScanCounter::new(&prep.data);
    let queries: Vec<Rect> = WorkloadSpec { count: 64, ..WorkloadSpec::paper(0.01, 9) }
        .generate(prep.data.domain(), None)
        .queries()
        .iter()
        .map(|q| q.rect().clone())
        .collect();
    let mut g = c.benchmark_group("ablation_index");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("kd_tree", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(prep.index.count(q))
        });
    });
    g.bench_function("scan", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(scan.count(q))
        });
    });
    g.finish();
}

fn bench_mineclus(c: &mut Bench) {
    // MineClus on its own: a whole clustering of a small Gauss input, and
    // one medoid trial's mining over 10k 7-d itemsets (Sky's
    // dimensionality), where the search runs over at most 128 distinct
    // itemsets rather than over the points.
    let ds = GaussSpec::paper().scaled(0.02).generate();
    // Dimension d is in an itemset with probability 0.3 + 0.08·d.
    let mut rng = Rng::seed_from_u64(0x5C);
    let masks: Vec<u64> = (0..10_000)
        .map(|_| (0..7).filter(|&d| rng.gen_bool(0.3 + 0.08 * d as f64)).map(|d| 1 << d).sum())
        .collect();
    let mut g = c.benchmark_group("mineclus");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    g.bench_function("cluster_default_gauss_2pct", |b| {
        b.iter(|| black_box(cluster_default(&ds).len()))
    });
    g.bench_function("mine_best_dimset_10k_7d", |b| {
        b.iter(|| black_box(mine_best_dimset(black_box(&masks), 7, 100, 1, 0.25)))
    });
    g.finish();
}

fn bench_obs_overhead(c: &mut Bench) {
    // Telemetry cost pins. The `_disabled` rows are the serving default
    // (no STH_METRICS / STH_TRACE / STH_FLIGHT): every recording entry
    // point must stay a relaxed load + branch, which the bench gate
    // enforces across PRs. The `_enabled` row documents the opt-in cost
    // of a histogram bump for reference.
    use sth_platform::obs;
    let mut g = c.benchmark_group("obs_overhead");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    obs::force_metrics(false);
    obs::flight::force(false);
    g.bench_function("counter_add_disabled", |b| {
        b.iter(|| obs::add(obs::Counter::Queries, black_box(1)))
    });
    g.bench_function("record_hist_disabled", |b| {
        b.iter(|| obs::record_hist(obs::HistKind::BatchEstimateNs, black_box(42)))
    });
    g.bench_function("hist_timer_disabled", |b| {
        b.iter(|| black_box(obs::time_hist(obs::HistKind::RefineNs)))
    });
    g.bench_function("event_disabled", |b| {
        b.iter(|| obs::event("bench", &[("i", obs::FieldValue::Int(black_box(1)))]))
    });
    obs::force_metrics(true);
    g.bench_function("record_hist_enabled", |b| {
        b.iter(|| obs::record_hist(obs::HistKind::BatchEstimateNs, black_box(42)))
    });
    obs::force_metrics(false);
    g.finish();
}

fn main() {
    // Anchor the JSON report at the repo root (perf trajectory).
    let mut c = Bench::new("core_ops")
        .output_at(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core_ops.json"));
    bench_estimate(&mut c);
    bench_estimate_frozen(&mut c);
    bench_batch_kernel(&mut c);
    bench_serve_concurrent(&mut c);
    bench_serve_engine(&mut c);
    bench_registry_route(&mut c);
    bench_store_ops(&mut c);
    bench_refine(&mut c);
    bench_refine_steady(&mut c);
    bench_traversal(&mut c);
    bench_best_merge(&mut c);
    bench_index(&mut c);
    bench_counting(&mut c);
    bench_mineclus(&mut c);
    bench_obs_overhead(&mut c);
    c.finish();
}
