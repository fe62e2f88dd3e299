//! serve_mixed: reads beside writes.
//!
//! Eight subspace projections of one Sky table are eight registry tenants,
//! each an uninitialized histogram behind a `DurableTrainer` on the real
//! filesystem (`StoreConfig::default()`: flush every 64 deltas or 1 MiB,
//! keep 3 generations, no fsync). One trainer thread absorbs feedback in
//! turns of `turn` queries per tenant and calls `Registry::publish` after
//! each turn, while one engine thread serves a mixed-tenant estimate
//! stream through `sth_serve::serve_closed`. It is the only workload that
//! exercises the store and the registry, and the only one whose read path
//! repins.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sth_baselines::TrivialHistogram;
use sth_core::build_uninitialized;
use sth_eval::{DatasetSpec, Registry, TenantId, TenantKey};
use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::{KdCountTree, RangeCounter, ResultSetCounter};
use sth_platform::obs::{self, Counter, HistKind, ValueHist};
use sth_platform::rng::Rng;
use sth_query::{CardinalityEstimator, SelfTuning, WorkloadSpec};
use sth_serve::{serve_closed, EngineConfig, EngineRun, DEFAULT_COALESCE};
use sth_store::vfs::{RealVfs, Vfs};
use sth_store::{DurableTrainer, Store, StoreConfig, StoreError};

use crate::hooks::{CountingVfs, RegistryBackend, ServiceLog, TimedBackend};
use crate::read::{account, ServeLayers};
use crate::report::Outcome;
use crate::stats;
use crate::trace::{Tracer, NONE};
use crate::Plan;

/// The tenants: 3-d and 4-d subspaces of Sky's 7 dimensions.
const SUBSPACES: [&[usize]; 8] = [
    &[0, 1, 2],
    &[3, 4, 5],
    &[0, 5, 6],
    &[1, 2, 3, 4],
    &[2, 4, 6],
    &[0, 3, 6],
    &[1, 5, 6],
    &[0, 2, 4, 6],
];

/// Seconds one untraced repetition (set-up, training beside the readers,
/// checks and reopening) takes on the reference machine; sets how many
/// repetitions fit in `--seconds`.
const REP_S: f64 = 3.0;
/// The tenants train on feedback drawn from this fixed seed, so every run
/// seed trains the same histograms with the same work; the run seed draws
/// the read stream. Which 150 queries a tenant trains on moves its NAE
/// far more than which 1,000 reads score it.
const TRAIN_SEED: u64 = 0xE0;

#[derive(Clone, Copy, Debug)]
struct MixedSpec {
    scale: f64,
    buckets: usize,
    /// Feedback queries each tenant absorbs per repetition.
    train: usize,
    /// Queries a tenant absorbs per turn before it is republished.
    turn: usize,
    /// Distinct read queries per tenant in the mixed stream.
    read: usize,
    streams: usize,
    batch: usize,
}

const FULL: MixedSpec = MixedSpec {
    scale: 0.05,
    buckets: 100,
    train: 150,
    turn: 25,
    read: 1000,
    streams: 8,
    batch: 32,
};

/// Small, but still past the store's 64-delta flush trigger.
const SMOKE: MixedSpec = MixedSpec {
    scale: 0.005,
    buckets: 30,
    train: 70,
    turn: 10,
    read: 40,
    streams: 4,
    batch: 16,
};

fn engine() -> EngineConfig {
    // Built explicitly, never from `STH_SERVE_*`; see `read::engine`.
    EngineConfig {
        threads: 1,
        coalesce: DEFAULT_COALESCE,
        deadline: Some(Duration::from_secs(1)),
    }
}

struct Tenant {
    index: KdCountTree,
    train: Vec<Rect>,
    read: Vec<Rect>,
    truth: Vec<f64>,
    h0: Vec<f64>,
}

/// The write side of one tenant: the packaged `DurableTrainer`, or the
/// traced replica of its absorb protocol built from `Store`'s public calls.
enum Trainer {
    Durable(DurableTrainer),
    Replica {
        store: Store,
        hist: StHoles,
        result: ResultSetCounter,
    },
}

impl Trainer {
    fn hist(&self) -> &StHoles {
        match self {
            Trainer::Durable(t) => t.hist(),
            Trainer::Replica { hist, .. } => hist,
        }
    }

    /// `DurableTrainer::absorb`. The replica records a span per public
    /// call and returns the probe's row count (0 for the packaged path).
    fn absorb(
        &mut self,
        q: &Rect,
        counter: &dyn RangeCounter,
        tr: &mut Tracer,
        id: u32,
    ) -> Result<u64, StoreError> {
        match self {
            Trainer::Durable(t) => t.absorb(q, counter).map(|_| 0),
            Trainer::Replica {
                store,
                hist,
                result,
            } => {
                let materialized = result.refill_from_counter(counter, q);
                tr.stage("index.probe", id);
                assert!(materialized, "the kd index always materializes result rows");
                let truth = result.total() as f64;
                store.append_delta(q, result, truth)?;
                tr.stage("store.append", id);
                hist.refine_with_truth(q, result, truth);
                tr.stage("sthole.refine", id);
                if store.should_flush() {
                    store.flush_snapshot(hist)?;
                    tr.stage("store.flush", id);
                }
                Ok(result.len() as u64)
            }
        }
    }
}

struct Rep {
    tenants: Vec<Tenant>,
    registry: Registry,
    trainers: Vec<Trainer>,
    stream: Vec<(TenantId, Rect)>,
}

fn setup(
    spec: &MixedSpec,
    seed: u64,
    dir: &Path,
    vfs: &Arc<dyn Vfs>,
    replica: bool,
) -> Result<Rep, StoreError> {
    let sky = DatasetSpec::Sky.generate(spec.scale);
    let (train_root, read_root) = (Rng::seed_from_u64(TRAIN_SEED), Rng::seed_from_u64(seed));
    let mut rep = Rep {
        tenants: Vec::new(),
        registry: Registry::new(),
        trainers: Vec::new(),
        stream: Vec::new(),
    };
    for (t, dims) in SUBSPACES.iter().enumerate() {
        let data = sky.project(dims);
        let index = KdCountTree::build(&data);
        let rects = |count, root: &Rng| -> Vec<Rect> {
            WorkloadSpec {
                count,
                ..WorkloadSpec::paper(0.01, root.fork(t as u64).next_u64())
            }
            .generate(data.domain(), None)
            .queries()
            .iter()
            .map(|q| q.rect().clone())
            .collect()
        };
        let (train, read) = (rects(spec.train, &train_root), rects(spec.read, &read_root));
        let h0 = TrivialHistogram::for_dataset(&data);
        let hist = build_uninitialized(&data, spec.buckets);
        let subspace: Vec<u32> = dims.iter().map(|&d| d as u32).collect();
        rep.registry
            .register(TenantKey::new("sky", subspace), &hist);
        let store_dir = dir.join(format!("tenant-{t}"));
        rep.trainers.push(if replica {
            let store = Store::create(store_dir, vfs.clone(), StoreConfig::default(), &hist)?;
            Trainer::Replica {
                store,
                hist,
                result: ResultSetCounter::empty(dims.len()),
            }
        } else {
            Trainer::Durable(DurableTrainer::create(
                store_dir,
                vfs.clone(),
                StoreConfig::default(),
                hist,
            )?)
        });
        rep.tenants.push(Tenant {
            truth: read.iter().map(|r| index.count(r) as f64).collect(),
            h0: read.iter().map(|r| h0.estimate(r)).collect(),
            index,
            train,
            read,
        });
    }
    // Round-robin interleave of the tenants' read queries.
    for i in 0..spec.read {
        for (t, tenant) in rep.tenants.iter().enumerate() {
            rep.stream.push((t, tenant.read[i].clone()));
        }
    }
    Ok(rep)
}

/// What the trainer thread measured.
#[derive(Default)]
struct Trained {
    wall_s: f64,
    absorbs: u64,
    rows: u64,
    publishes: Vec<u64>,
    shard_publishes: u64,
    shard_skips: u64,
    obs: obs::Snapshot,
}

/// Raises the engine's done flag when the trainer exits, by finishing or
/// by failing, so the closed loop always drains.
struct DoneOnDrop<'a>(&'a AtomicBool);

impl Drop for DoneOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn train(
    spec: &MixedSpec,
    tenants: &[Tenant],
    trainers: &mut [Trainer],
    registry: &Registry,
    tr: &mut Tracer,
) -> Result<Trained, StoreError> {
    let mut out = Trained {
        publishes: vec![0; tenants.len()],
        ..Trained::default()
    };
    let obs0 = obs::snapshot();
    let t0 = Instant::now();
    let span = tr.begin("mixed.train");
    let mut cursor = 0;
    while cursor < spec.train {
        let end = (cursor + spec.turn).min(spec.train);
        for (id, (tenant, trainer)) in tenants.iter().zip(trainers.iter_mut()).enumerate() {
            for q in &tenant.train[cursor..end] {
                out.rows += trainer.absorb(q, &tenant.index, tr, out.absorbs as u32)?;
                out.absorbs += 1;
            }
            let p = registry.publish(id, trainer.hist());
            tr.stage("registry.publish", id as u32);
            out.publishes[id] += 1;
            out.shard_publishes += p.shard_publishes;
            out.shard_skips += p.shard_skips;
        }
        cursor = end;
    }
    tr.end(span);
    out.wall_s = t0.elapsed().as_secs_f64();
    out.obs = obs::snapshot().delta(&obs0);
    Ok(out)
}

/// Trains on one thread while one engine thread serves the mixed stream.
fn serve_and_train(
    spec: &MixedSpec,
    rep: &mut Rep,
    log: &ServiceLog,
    tr: &mut Tracer,
) -> (Result<Trained, String>, EngineRun, Instant, Instant) {
    let done = AtomicBool::new(false);
    let readers_started = AtomicU64::new(0);
    let (tenants, trainers, registry, stream) =
        (&rep.tenants, &mut rep.trainers, &rep.registry, &rep.stream);
    let backend = TimedBackend {
        inner: RegistryBackend { registry },
        log,
    };
    std::thread::scope(|s| {
        let trainer = s.spawn(|| {
            let _done = DoneOnDrop(&done);
            // Hold the first publish until the engine is serving.
            while readers_started.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            train(spec, tenants, trainers, registry, tr)
        });
        let start = Instant::now();
        let run = serve_closed(
            &backend,
            stream,
            spec.streams,
            spec.batch,
            &engine(),
            &done,
            &readers_started,
        );
        let end = Instant::now();
        let trained = match trainer.join() {
            Ok(r) => r.map_err(|e| format!("trainer failed: {e}")),
            Err(_) => Err("trainer thread panicked".to_string()),
        };
        (trained, run, start, end)
    })
}

/// One repetition's end-to-end numbers.
struct RepResult {
    setup_s: f64,
    run_s: f64,
    query_us: f64,
    nae: f64,
    /// Golden hash of every tenant's final histogram.
    hashes: Vec<u64>,
}

/// Per-layer sums over traced repetitions.
#[derive(Default)]
struct MixedLayers {
    reps: u64,
    absorbs: u64,
    rows: u64,
    obs: obs::Snapshot,
    vfs_writes: u64,
    vfs_bytes: u64,
    shard_publishes: u64,
    shard_skips: u64,
    open_ms: Vec<f64>,
    latency: ValueHist,
    serve: ServeLayers,
}

fn rep(
    spec: &MixedSpec,
    seed: u64,
    dir: &Path,
    traced: Option<&mut MixedLayers>,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Option<RepResult> {
    let counting = Arc::new(CountingVfs::new(Arc::new(RealVfs)));
    let vfs: Arc<dyn Vfs> = if traced.is_some() {
        counting.clone()
    } else {
        Arc::new(RealVfs)
    };
    // A store refuses to be created over an existing one.
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let mut rep = match setup(spec, seed, dir, &vfs, traced.is_some()) {
        Ok(rep) => rep,
        Err(e) => {
            out.errors.push(format!("setup failed: {e}"));
            return None;
        }
    };
    let setup_s = t.elapsed().as_secs_f64();
    let log = ServiceLog::default();
    obs::force_metrics(traced.is_some());
    let (trained, run, start, end) = serve_and_train(spec, &mut rep, &log, tr);
    obs::force_metrics(false);
    account(&run.offered, &run.answered, &run.shed, out);
    let trained = match trained {
        Ok(t) => t,
        Err(e) => {
            out.errors.push(e);
            return None;
        }
    };
    out.attempted += trained.absorbs;

    // Every publish landed, and the served views end bit-identical to the
    // trainers' own final histograms.
    let (mut err, mut err_h0) = (0.0, 0.0);
    let mut hashes = Vec::with_capacity(rep.tenants.len());
    for (id, (tenant, trainer)) in rep.tenants.iter().zip(&rep.trainers).enumerate() {
        let epoch = rep.registry.tenant_epoch(id);
        out.check(epoch == 1 + trained.publishes[id], || {
            format!(
                "tenant {id}: epoch {epoch} after {} publishes",
                trained.publishes[id]
            )
        });
        let view = rep.registry.load(id);
        let frozen = trainer.hist().freeze();
        for (i, q) in tenant.read.iter().enumerate() {
            let (got, want) = (view.estimate(q), frozen.estimate(q));
            if got.to_bits() != want.to_bits() {
                out.failed += 1;
                out.errors.push(format!(
                    "tenant {id} query {i}: view {got} != trainer {want}"
                ));
            }
            err += (got - tenant.truth[i]).abs();
            err_h0 += (tenant.h0[i] - tenant.truth[i]).abs();
        }
        hashes.push(trainer.hist().golden_hash());
    }
    // Every store reopens to its trainer's exact state.
    let mut open_ms = Vec::with_capacity(hashes.len());
    for (id, &hash) in hashes.iter().enumerate() {
        let t = Instant::now();
        let reopened = DurableTrainer::open(
            dir.join(format!("tenant-{id}")),
            vfs.clone(),
            StoreConfig::default(),
        );
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match reopened {
            Ok((reopened, _)) => out.check(reopened.golden_hash() == hash, || {
                format!(
                    "tenant {id}: reopened store hash {:#x} != trainer hash {hash:#x}",
                    reopened.golden_hash()
                )
            }),
            Err(e) => out
                .errors
                .push(format!("tenant {id}: reopening the store failed: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(dir);

    let answered: u64 = run.answered.iter().sum();
    if let Some(layers) = traced {
        let (services, repin_ns) = log.drain();
        let engine_span = tr.push("serve.engine", start, end, NONE, NONE);
        for (k, s) in services.iter().enumerate() {
            tr.push("sthole.batch", s.start, s.end, engine_span, k as u32);
        }
        layers.serve.add_saturated(
            (end - start).as_nanos() as f64,
            &services,
            &repin_ns,
            &run.stats,
            &run.obs,
        );
        layers
            .serve
            .queue_ns
            .merge(run.obs.hist(HistKind::ServeQueueNs));
        for row in run.composite_rows.iter().flat_map(|m| m.values()) {
            layers.latency.merge(&row.batch_ns);
        }
        let (writes, bytes) = counting.totals();
        layers.reps += 1;
        layers.absorbs += trained.absorbs;
        layers.rows += trained.rows;
        layers.obs.merge(&trained.obs);
        layers.vfs_writes += writes;
        layers.vfs_bytes += bytes;
        layers.shard_publishes += trained.shard_publishes;
        layers.shard_skips += trained.shard_skips;
        layers.open_ms.extend_from_slice(&open_ms);
    }
    Some(RepResult {
        setup_s,
        run_s: trained.wall_s,
        query_us: (end - start).as_secs_f64() * 1e6 / answered.max(1) as f64,
        nae: err / err_h0,
        hashes,
    })
}

pub fn run(plan: &Plan) -> Outcome {
    let spec = if plan.smoke { SMOKE } else { FULL };
    let mut out = Outcome::default();
    let mut tr = Tracer::new(Instant::now());
    let dir = plan.work_dir.join("serve_mixed");
    // Every repetition replays the run seed's inputs into fresh stores.
    // Untraced repetitions give the end-to-end numbers; in a traced run
    // each is followed by one through the traced replica, which must end
    // on the same hashes.
    let reps = if plan.trace {
        plan.reps(2.0 * REP_S, 1)
    } else {
        plan.reps(REP_S, 3)
    };
    let mut layers = MixedLayers::default();
    let (mut results, mut traced_s) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let Some(base) = rep(
            &spec,
            plan.seed,
            &dir,
            None,
            &mut Tracer::new(Instant::now()),
            &mut out,
        ) else {
            continue;
        };
        // Training is deterministic whatever the readers do.
        if let Some(first) = results.first().map(|r: &RepResult| &r.hashes) {
            out.check(base.hashes == *first, || {
                format!("rerun hashes {:x?} != first hashes {first:x?}", base.hashes)
            });
        }
        if plan.trace {
            if let Some(t) = rep(&spec, plan.seed, &dir, Some(&mut layers), &mut tr, &mut out) {
                traced_s.push(t.run_s);
                out.check(t.hashes == base.hashes, || {
                    format!(
                        "replica hashes {:x?} != DurableTrainer hashes {:x?}",
                        t.hashes, base.hashes
                    )
                });
            }
        }
        results.push(base);
    }
    let base_s: Vec<f64> = results.iter().map(|r| r.run_s).collect();
    out.median("setup_s", results.iter().map(|r| r.setup_s).collect());
    out.median("run_s", base_s.clone());
    out.median("query_us", results.iter().map(|r| r.query_us).collect());
    out.mean("nae", results.iter().map(|r| r.nae).collect());
    if !plan.trace {
        return out;
    }
    let reps = layers.reps.max(1) as f64;
    let absorbs = layers.absorbs.max(1) as f64;
    let per_rep_s = |name: &str| tr.total_ns(name) as f64 * 1e-9 / reps;
    let p50 = |name: &str| stats::quantile(&tr.durations(name), 0.5);
    let refine = tr.durations("sthole.refine");
    out.layer("index.probe_s", per_rep_s("index.probe"));
    out.layer("index.probe_us_p50", p50("index.probe") * 1e-3);
    out.layer("index.rows_per_query", layers.rows as f64 / absorbs);
    out.layer(
        "index.probes_per_query",
        layers.obs.get(Counter::IndexProbes) as f64 / absorbs,
    );
    out.layer("sthole.refine_s", per_rep_s("sthole.refine"));
    out.layer("sthole.refine_us_p50", stats::quantile(&refine, 0.5) * 1e-3);
    out.layer(
        "sthole.refine_us_p99",
        stats::quantile(&refine, 0.99) * 1e-3,
    );
    out.layer(
        "sthole.drills_per_query",
        layers.obs.get(Counter::Drills) as f64 / absorbs,
    );
    out.layer(
        "sthole.merges_per_query",
        layers.obs.get(Counter::Merges) as f64 / absorbs,
    );
    out.layer(
        "sthole.heap_rebuilds",
        layers.obs.get(Counter::HeapRebuilds) as f64 / reps,
    );
    out.layer("store.append_us_p50", p50("store.append") * 1e-3);
    out.layer("store.flush_ms_p50", p50("store.flush") * 1e-6);
    out.layer(
        "store.flushes",
        tr.durations("store.flush").len() as f64 / reps,
    );
    out.layer("store.bytes_per_absorb", layers.vfs_bytes as f64 / absorbs);
    out.layer(
        "store.writes_per_absorb",
        layers.vfs_writes as f64 / absorbs,
    );
    out.layer("store.open_ms", stats::quantile(&layers.open_ms, 0.5));
    out.layer("registry.publish_us_p50", p50("registry.publish") * 1e-3);
    let rounds = (layers.shard_publishes + layers.shard_skips).max(1) as f64;
    out.layer(
        "registry.shard_publish_frac",
        layers.shard_publishes as f64 / rounds,
    );
    layers.serve.report(&mut out);
    out.layer("serve.latency_p90_us", layers.latency.p90() as f64 * 1e-3);
    out.layer("serve.latency_p99_us", layers.latency.p99() as f64 * 1e-3);
    let (wall, unaccounted) = tr.accounting("mixed.train");
    out.layer("trace.unaccounted_frac", unaccounted as f64 / wall as f64);
    out.layer(
        "trace.overhead_frac",
        stats::median(&traced_s) / stats::median(&base_s) - 1.0,
    );
    plan.keep_spans(&tr, &mut out);
    out
}
