//! Train-while-serve: the paper's online loop, end to end.
//!
//! A self-tuning histogram learns from the feedback of the queries it
//! serves. [`serve_training`] runs that loop over a [`Registry`]: trainer
//! workers refine each tenant's histogram from its training workload and
//! republish it every [`ServeConfig::republish_every`] queries, while the
//! [`sth_serve`] engine answers a mixed-tenant estimate stream from
//! whatever views are current. A single histogram is a one-tenant
//! registry, so its tenant and composite epochs are equal.
//!
//! Each tenant borrows its write path as a [`Trainer`]: in memory
//! (`Volatile`) or through a durable store's write-ahead delta log
//! (`Durable`), whose snapshot flushes are filed in the tenant's timeline
//! under the tenant epoch being served. The write-path machinery stays on
//! the trainer threads; the engine touches only packed immutable arrays,
//! and under `STH_AUDIT=1` verifies every freshly pinned view first.
//!
//! Trainers hold the epoch-1 views until the engine is live, and the last
//! one to exit raises the engine's done flag — on unwind too, so a trainer
//! panic never hangs the readers and becomes [`ServeReport::failure`] on a
//! partial report. Each stream then drains one final batch, served from
//! the final views. A store error stops its tenant (the in-memory
//! histogram, which stays published, equals the last durable state) and
//! makes the run return `Err`; [`DurableTrainer::open`] resumes from the
//! durable tail. With `STH_FLIGHT` set, a trainer panic or a store
//! poisoning leaves one flight-recorder dump of the final events.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::{RangeCounter, ResultSetCounter};
use sth_platform::obs;
use sth_query::{SelfTuning, Workload};
use sth_serve::{
    counter_marks, serve_closed, EngineConfig, EngineStats, EpochRow, EpochTimeline, ReaderStats,
    Registry, TenantId, TenantKey,
};
use sth_store::{DurableTrainer, StoreError};

/// Knobs for [`serve_training`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Logical reader streams, multiplexed over the engine's thread pool
    /// (at most `min(readers, worker_count)` threads by default;
    /// `STH_SERVE_THREADS` overrides).
    pub readers: usize,
    /// Mixed-stream queries per generated stream batch.
    pub batch: usize,
    /// Training queries a trainer absorbs per tenant turn before
    /// publishing that tenant.
    pub republish_every: usize,
    /// Trainer workers the tenants are dealt across, round-robin (never
    /// more workers than tenants).
    pub trainer_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { readers: 4, batch: 32, republish_every: 50, trainer_workers: 2 }
    }
}

/// A tenant's write path, borrowed for the run.
pub enum Trainer<'a> {
    /// Refines the histogram in memory.
    Volatile(&'a mut StHoles),
    /// Logs every query's feedback to a durable store before refining.
    /// Its counter must materialize result rows
    /// ([`StoreError::RowsUnavailable`] otherwise).
    Durable(&'a mut DurableTrainer),
}

impl Trainer<'_> {
    /// The histogram being trained.
    fn hist(&self) -> &StHoles {
        match self {
            Trainer::Volatile(hist) => hist,
            Trainer::Durable(trainer) => trainer.hist(),
        }
    }

    /// Learns from one training query. Returns the bytes of the snapshot
    /// flush it tripped, if it tripped one (bytes are 0 with metrics off).
    fn absorb(
        &mut self,
        query: &Rect,
        counter: &dyn RangeCounter,
        result: &mut ResultSetCounter,
    ) -> Result<Option<u64>, StoreError> {
        match self {
            Trainer::Volatile(hist) => {
                if result.refill_from_counter(counter, query) {
                    let truth = result.total() as f64;
                    hist.refine_with_truth(query, result, truth);
                } else {
                    hist.refine(query, counter);
                }
                Ok(None)
            }
            Trainer::Durable(trainer) => {
                let (_, _, bytes0) = counter_marks();
                let absorbed = trainer.absorb(query, counter)?;
                Ok(absorbed.flushed_gen.map(|_| counter_marks().2 - bytes0))
            }
        }
    }
}

/// Everything [`serve_training`] needs to drive one tenant.
pub struct TenantRuntime<'a> {
    /// Tenant identity.
    pub key: TenantKey,
    /// The tenant's write path.
    pub trainer: Trainer<'a>,
    /// Training workload, absorbed in order.
    pub train: &'a Workload,
    /// Serving workload, estimated by the readers.
    pub serve: &'a Workload,
    /// Feedback oracle for the training workload.
    pub counter: &'a (dyn RangeCounter + Sync),
}

/// One tenant's rollup out of a [`serve_training`] run.
#[derive(Clone, Debug)]
pub struct TenantServeReport {
    /// Tenant identity.
    pub key: TenantKey,
    /// Publishes the trainer ran: one per turn of up to `republish_every`
    /// training queries.
    pub publishes: u64,
    /// Final tenant epoch (= 1 + publishes).
    pub final_epoch: u64,
    /// Estimates answered for this tenant across all readers.
    pub answered: u64,
    /// Sub-batches routed to this tenant.
    pub batches: u64,
    /// The tenant trainer's obs delta: refine, store and publish work
    /// (reader-side work is not separable per tenant and rolls up in the
    /// aggregate).
    pub trainer_counters: obs::Snapshot,
    /// Per-tenant-epoch serving activity plus, for a durable tenant, its
    /// store flushes; epochs 1..=`final_epoch`.
    pub timeline: EpochTimeline,
}

/// Outcome of one [`serve_training`] run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-tenant rollups, tenant-id order.
    pub tenants: Vec<TenantServeReport>,
    /// Per-reader tallies (epochs here are *composite* epochs).
    pub readers: Vec<ReaderStats>,
    /// Counters and stats for the whole run (trainers + readers, merged
    /// deterministically).
    pub counters: obs::Snapshot,
    /// Final composite epoch (1 + publishes across all tenants).
    pub composite_final: u64,
    /// Aggregate serving activity on the composite-epoch timeline.
    pub composite_timeline: EpochTimeline,
    /// How the engine ran: services, coalescing, pin cache hits, sheds.
    pub engine: EngineStats,
    /// Estimates shed by deadline admission control, per tenant (all zero
    /// unless `STH_SERVE_DEADLINE_US` is set).
    pub shed_by_tenant: Vec<u64>,
    /// Set when a trainer worker panicked: the first panic message. The
    /// report is then *partial*: that worker's tenants end at their last
    /// successful publish and lack trainer counters and flush rows, while
    /// everything the readers served is still accounted.
    pub failure: Option<String>,
}

impl ServeReport {
    /// Total estimates answered across all readers.
    pub fn answered(&self) -> u64 {
        self.readers.iter().map(|r| r.answered).sum()
    }

    /// Total mixed batches the readers completed.
    pub fn batches(&self) -> u64 {
        self.readers.iter().map(|r| r.batches).sum()
    }

    /// Total requests answered from audited snapshots, across all
    /// readers.
    pub fn audited(&self) -> u64 {
        self.readers.iter().map(|r| r.audited).sum()
    }

    /// Total estimates shed by deadline admission control (zero unless
    /// `STH_SERVE_DEADLINE_US` is set).
    pub fn shed(&self) -> u64 {
        self.readers.iter().map(|r| r.shed).sum()
    }

    /// Distinct composite epochs served from, across all readers,
    /// ascending.
    pub fn epochs_observed(&self) -> Vec<u64> {
        let epochs: BTreeSet<u64> =
            self.readers.iter().flat_map(|r| r.epochs.iter().copied()).collect();
        epochs.into_iter().collect()
    }
}

/// Trainer-liveness drop guard: the last trainer worker to exit — by
/// finishing *or by panicking* — raises the engine's done flag. Without
/// the drop guarantee, a panicking trainer would leave the engine polling
/// the last views forever.
struct TrainerLive<'a> {
    live: &'a AtomicU64,
    done: &'a AtomicBool,
}

impl Drop for TrainerLive<'_> {
    fn drop(&mut self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done.store(true, Ordering::Release);
        }
    }
}

/// Renders a `JoinHandle::join` panic payload as a message. Panics carry
/// `&str` or `String` payloads in practice; anything else gets a marker.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&'static str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "trainer panicked with a non-string payload".to_string(),
        },
    }
}

/// One tenant's trainer-side totals.
#[derive(Default)]
struct TrainerTotals {
    counters: obs::Snapshot,
    /// Store flushes, keyed by the tenant epoch they happened under.
    flushes: BTreeMap<u64, EpochRow>,
}

/// One trainer worker: cycles through its share of the tenants, absorbing
/// up to `republish_every` training queries per turn and then publishing
/// the tenant — so publication pressure follows refinement pressure. A
/// tenant whose store fails trains no further; the first such error is
/// returned next to the totals.
fn train_share(
    registry: &Registry,
    mut share: Vec<(TenantId, TenantRuntime<'_>)>,
    republish_every: usize,
) -> (BTreeMap<TenantId, TrainerTotals>, Option<StoreError>) {
    let mut totals: BTreeMap<TenantId, TrainerTotals> = BTreeMap::new();
    let mut cursors = vec![0usize; share.len()];
    let mut result = ResultSetCounter::empty(1);
    let mut error = None;
    loop {
        let mut progressed = false;
        for (slot, (id, rt)) in share.iter_mut().enumerate() {
            let queries = rt.train.queries();
            if cursors[slot] >= queries.len() {
                continue;
            }
            progressed = true;
            let obs_before = obs::snapshot();
            let t = totals.entry(*id).or_default();
            let epoch = registry.tenant_epoch(*id);
            let mut end = (cursors[slot] + republish_every).min(queries.len());
            for q in &queries[cursors[slot]..end] {
                match rt.trainer.absorb(q.rect(), rt.counter, &mut result) {
                    Ok(None) => {}
                    Ok(Some(bytes)) => {
                        let row = t
                            .flushes
                            .entry(epoch)
                            .or_insert_with(|| EpochRow { epoch, ..EpochRow::default() });
                        row.flushes += 1;
                        row.store_bytes_flushed += bytes;
                    }
                    Err(e) => {
                        // The in-memory histogram still equals the last
                        // durable state: publish it and stop the tenant.
                        error.get_or_insert(e);
                        end = queries.len();
                        break;
                    }
                }
            }
            cursors[slot] = end;
            registry.publish(*id, rt.trainer.hist());
            t.counters.merge(&obs::snapshot().delta(&obs_before));
        }
        if !progressed {
            break;
        }
    }
    (totals, error)
}

/// Registers every tenant into the fresh `registry`, then trains them
/// while serving a mixed-tenant stream (see the module docs).
///
/// The tenants are dealt round-robin across
/// [`ServeConfig::trainer_workers`] threads; a tenant with `n` training
/// queries publishes `⌈n / republish_every⌉` times, its last turn
/// publishing its final state. The per-tenant serve workloads are
/// interleaved round-robin into one stream, which
/// [`ServeConfig::readers`] streams replay in batches of
/// [`ServeConfig::batch`] through the engine ([`EngineConfig::from_env`]).
pub fn serve_training(
    registry: &mut Registry,
    tenants: Vec<TenantRuntime<'_>>,
    cfg: &ServeConfig,
) -> Result<ServeReport, StoreError> {
    assert!(registry.tenant_count() == 0, "serve_training wants a fresh registry");
    assert!(!tenants.is_empty(), "serve_training needs at least one tenant");
    assert!(cfg.readers >= 1, "serve_training needs at least one reader");
    assert!(cfg.batch >= 1, "serve_training needs a non-empty batch");
    assert!(cfg.republish_every >= 1);
    assert!(cfg.trainer_workers >= 1);

    let _span = obs::span("eval.serve_training");

    for rt in &tenants {
        assert!(!rt.serve.is_empty(), "tenant {} has nothing to serve", rt.key);
        registry.register(rt.key.clone(), rt.trainer.hist());
    }
    let longest = tenants.iter().map(|rt| rt.serve.len()).max().unwrap_or(0);
    let mut stream: Vec<(TenantId, Rect)> = Vec::new();
    for round in 0..longest {
        for (id, rt) in tenants.iter().enumerate() {
            if let Some(q) = rt.serve.queries().get(round) {
                stream.push((id, q.rect().clone()));
            }
        }
    }

    let workers = cfg.trainer_workers.min(tenants.len());
    let mut shares: Vec<Vec<(TenantId, TenantRuntime<'_>)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (id, rt) in tenants.into_iter().enumerate() {
        shares[id % workers].push((id, rt));
    }

    let registry = &*registry;
    let done = AtomicBool::new(false);
    let readers_started = AtomicU64::new(0);
    let trainers_live = AtomicU64::new(workers as u64);
    let (joined, run) = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| {
                let (done, readers_started, live) = (&done, &readers_started, &trainers_live);
                s.spawn(move || {
                    let _flight = obs::flight::FlightDump::new("serve trainer");
                    let _live = TrainerLive { live, done };
                    // Hold the epoch-1 views until the engine is live.
                    // Deadlock-free: every engine thread bumps the
                    // counter before its poll loop.
                    while readers_started.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                    train_share(registry, share, cfg.republish_every)
                })
            })
            .collect();
        let run = serve_closed(
            registry,
            &stream,
            cfg.readers,
            cfg.batch,
            &EngineConfig::from_env(),
            &done,
            &readers_started,
        );
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (joined, run)
    });

    let mut totals: BTreeMap<TenantId, TrainerTotals> = BTreeMap::new();
    let (mut error, mut failure) = (None, None);
    for outcome in joined {
        match outcome {
            Ok((share_totals, share_error)) => {
                totals.extend(share_totals);
                error = error.or(share_error);
            }
            Err(payload) => {
                if failure.is_none() {
                    failure = Some(panic_message(payload));
                }
            }
        }
    }
    if let Some(e) = error {
        return Err(e);
    }

    let mut counters = run.obs;
    let mut tenants = Vec::with_capacity(run.tenant_rows.len());
    for (id, maps) in run.tenant_rows.into_iter().enumerate() {
        let t = totals.remove(&id).unwrap_or_default();
        counters.merge(&t.counters);
        let final_epoch = registry.tenant_epoch(id);
        let (answered, batches) = maps
            .iter()
            .flat_map(|m| m.values())
            .fold((0, 0), |(a, b), row| (a + row.answered, b + row.batches));
        tenants.push(TenantServeReport {
            key: registry.key(id).clone(),
            publishes: final_epoch - 1,
            final_epoch,
            answered,
            batches,
            trainer_counters: t.counters,
            timeline: EpochTimeline::assemble(final_epoch, maps, t.flushes),
        });
    }
    let composite_final = registry.composite_epoch();
    let report = ServeReport {
        tenants,
        readers: run.streams,
        counters,
        composite_final,
        composite_timeline: EpochTimeline::assemble(
            composite_final,
            run.composite_rows,
            BTreeMap::new(),
        ),
        engine: run.stats,
        shed_by_tenant: run.shed,
        failure,
    };
    if obs::event_enabled() {
        obs::event(
            "serve",
            &[
                ("tenants", obs::FieldValue::Int(report.tenants.len() as u64)),
                ("readers", obs::FieldValue::Int(report.readers.len() as u64)),
                ("composite_final", obs::FieldValue::Int(report.composite_final)),
                ("answered", obs::FieldValue::Int(report.answered())),
                ("obs", obs::FieldValue::Raw(&report.counters.to_json())),
                ("timeline", obs::FieldValue::Raw(&report.composite_timeline.to_json())),
            ],
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use sth_data::cross::CrossSpec;
    use sth_index::KdCountTree;
    use sth_query::{CardinalityEstimator, WorkloadSpec};
    use sth_store::vfs::{FaultVfs, MemVfs, Vfs};
    use sth_store::StoreConfig;

    type Fixture = (StHoles, Workload, Workload, KdCountTree);

    fn fixture() -> Fixture {
        let data = CrossSpec::cross2d().scaled(0.05).generate();
        let index = KdCountTree::build(&data);
        let wl = WorkloadSpec::paper(0.01, 97).generate(data.domain(), None);
        let (train, serve) = wl.split_train(wl.len() / 2);
        let hist = sth_core::build_uninitialized(&data, 64);
        (hist, train, serve, index)
    }

    /// A smaller tenant for the multi-tenant runs, one workload per seed.
    fn tenant_fixture(seed: u64) -> Fixture {
        let data = CrossSpec::cross2d().scaled(0.04).generate();
        let index = KdCountTree::build(&data);
        let wl = WorkloadSpec::paper(0.01, seed).generate(data.domain(), None);
        let (train, serve) = wl.split_train(wl.len() / 2);
        let hist = sth_core::build_uninitialized(&data, 48);
        (hist, train, serve, index)
    }

    /// Volatile runtimes over `fixtures`, keyed `t{seed}`.
    fn runtimes(fixtures: &mut [(u64, Fixture)]) -> Vec<TenantRuntime<'_>> {
        fixtures
            .iter_mut()
            .map(|(seed, (hist, train, serve, index))| TenantRuntime {
                key: TenantKey::new(format!("t{seed}"), vec![0, 1]),
                trainer: Trainer::Volatile(hist),
                train: &*train,
                serve: &*serve,
                counter: &*index,
            })
            .collect()
    }

    /// Runs one tenant through a fresh registry.
    fn serve_one<'a>(
        trainer: Trainer<'a>,
        train: &'a Workload,
        serve: &'a Workload,
        counter: &'a (dyn RangeCounter + Sync),
        cfg: &ServeConfig,
    ) -> Result<ServeReport, StoreError> {
        let key = TenantKey::new("t", vec![0, 1]);
        let tenant = TenantRuntime { key, trainer, train, serve, counter };
        serve_training(&mut Registry::new(), vec![tenant], cfg)
    }

    /// Store generations flushed since `create` (which writes gen 1).
    fn flushed(trainer: &DurableTrainer) -> u64 {
        trainer.store().generations().last().expect("a retained generation").gen - 1
    }

    fn flush_rows(tenant: &TenantServeReport) -> u64 {
        tenant.timeline.rows.iter().map(|r| r.flushes).sum()
    }

    #[test]
    fn serve_loop_observes_multiple_epochs() {
        let (mut hist, train, serve, index) = fixture();
        let cfg = ServeConfig { readers: 4, batch: 16, republish_every: 10, trainer_workers: 1 };
        let report = serve_one(Trainer::Volatile(&mut hist), &train, &serve, &index, &cfg).unwrap();
        let tenant = &report.tenants[0];
        assert!(tenant.publishes >= 2, "expected republishes, got {}", tenant.publishes);
        assert_eq!(tenant.final_epoch, 1 + tenant.publishes);
        let epochs = report.epochs_observed();
        assert!(epochs.len() >= 2, "readers saw epochs {epochs:?}");
        // The drain batch guarantees every reader served the final epoch.
        for r in &report.readers {
            assert_eq!(r.epochs.last(), Some(&tenant.final_epoch));
            assert!(r.answered >= 1);
        }
        assert!(report.answered() >= cfg.batch as u64);
        // Deadlines are disabled by default: nothing sheds, ever.
        assert_eq!(report.shed(), 0);
        assert_eq!(report.engine.shed_requests, 0);
    }

    #[test]
    fn serve_timeline_attributes_every_batch_to_an_epoch() {
        let (mut hist, train, serve, index) = fixture();
        let cfg = ServeConfig { readers: 3, batch: 16, republish_every: 10, trainer_workers: 1 };
        let report = serve_one(Trainer::Volatile(&mut hist), &train, &serve, &index, &cfg).unwrap();
        let tenant = &report.tenants[0];
        let tl = &tenant.timeline;
        // Contiguous rows 1..=final_epoch, jointly accounting for every
        // batch and every answered estimate.
        assert_eq!(tl.rows.len() as u64, tenant.final_epoch);
        for (i, row) in tl.rows.iter().enumerate() {
            assert_eq!(row.epoch, i as u64 + 1);
            assert_eq!(row.publishes, (row.epoch > 1) as u64);
            assert_eq!(row.batches, row.batch_ns.count(), "one latency sample per batch");
        }
        assert_eq!(tl.batches(), report.batches());
        assert_eq!(tl.rows.iter().map(|r| r.answered).sum::<u64>(), report.answered());
        // Real time passed: the overall latency distribution is non-empty
        // and ordered.
        let all = tl.batch_ns_overall();
        assert_eq!(all.count(), report.batches());
        assert!(all.p50() <= all.p99() && all.p99() <= all.p999());
        // Renderings agree on the row count.
        assert_eq!(tl.render_table().lines().count(), tl.rows.len() + 1);
        assert!(tl.to_json().contains("\"epoch\": 1"));
    }

    #[test]
    fn audited_serve_checks_every_loaded_snapshot() {
        obs::force_audit(true);
        obs::force_metrics(true);
        let (mut hist, train, serve, index) = fixture();
        let cfg = ServeConfig { readers: 2, batch: 8, republish_every: 25, trainer_workers: 1 };
        let report = serve_one(Trainer::Volatile(&mut hist), &train, &serve, &index, &cfg).unwrap();
        // Every answered request came off an audited snapshot: the audit
        // runs once per fresh pin, and a request only completes against a
        // pin that passed it.
        assert_eq!(report.audited(), report.batches());
        assert_eq!(report.engine.audits, report.engine.pins);
        assert!(report.engine.pins >= 2, "the epoch moved, so the engine repinned");
        // Publish traffic shows up in the merged obs delta; load traffic
        // is now pin-cached, so snapshot loads equal fresh pins rather
        // than batches.
        let publishes = report.tenants[0].publishes;
        assert_eq!(report.counters.get(obs::Counter::SnapshotPublishes), publishes);
        assert_eq!(report.counters.get(obs::Counter::SnapshotLoads), report.engine.pins);
        // A one-tenant run is a registry run: every generated mixed batch
        // is routed once.
        assert_eq!(report.counters.get(obs::Counter::RegistryRoutes), report.batches());
        // With metrics on, the serve-path histograms populate: one batch
        // fill sample per completed stream batch, one estimate-latency
        // sample per engine service (coalescing makes services <= batches),
        // and one queue-wait sample per answered request.
        assert_eq!(report.counters.hist(obs::HistKind::ServeBatchFill).count(), report.batches());
        assert_eq!(
            report.counters.hist(obs::HistKind::BatchEstimateNs).count(),
            report.engine.services
        );
        assert!(report.engine.services <= report.batches());
        assert_eq!(
            report.counters.hist(obs::HistKind::ServeQueueNs).count(),
            report.batches()
        );
        assert_eq!(report.counters.get(obs::Counter::EngineServices), report.engine.services);
        assert!(report.counters.hist(obs::HistKind::RefineNs).count() > 0);
        obs::force_audit(false);
        obs::force_metrics(false);
    }

    /// Forwards to a real index but panics partway through the run —
    /// and advertises no `collect_rows` support, so the trainer's
    /// fallback path calls `count` on every refine.
    struct PanickyCounter<'a> {
        inner: &'a KdCountTree,
        remaining: AtomicU64,
    }

    impl RangeCounter for PanickyCounter<'_> {
        fn count(&self, rect: &Rect) -> u64 {
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 0 {
                panic!("injected counter failure");
            }
            self.inner.count(rect)
        }

        fn total(&self) -> u64 {
            self.inner.total()
        }
    }

    #[test]
    fn trainer_panic_yields_partial_report_with_failure_marker() {
        obs::flight::force(true);
        let (mut hist, train, serve, index) = fixture();
        let counter = PanickyCounter { inner: &index, remaining: AtomicU64::new(25) };
        let cfg = ServeConfig { readers: 2, batch: 8, republish_every: 5, trainer_workers: 1 };
        let report =
            serve_one(Trainer::Volatile(&mut hist), &train, &serve, &counter, &cfg).unwrap();
        let failure = report.failure.as_deref().expect("trainer panic must be captured");
        assert!(failure.contains("injected counter failure"), "got {failure:?}");
        // The partial report stays internally consistent: final_epoch is
        // the last successful publish, publishes excludes the initial
        // epoch-1 snapshot, and the readers drained instead of hanging.
        let tenant = &report.tenants[0];
        assert_eq!(tenant.publishes, tenant.final_epoch - 1);
        assert!(tenant.final_epoch >= 1);
        assert!(report.answered() >= 1, "readers must have been released and drained");
        assert_eq!(tenant.timeline.rows.len() as u64, tenant.final_epoch);
        // The trainer's flight guard dumped the pre-panic ring.
        let dump = obs::flight::last_dump().expect("panic must dump the flight recorder");
        assert!(dump.contains("serve trainer"), "dump names the trainer guard:\n{dump}");
        obs::flight::force(false);
    }

    #[test]
    fn durable_serve_trains_identically_to_the_volatile_loop() {
        let (hist, train, serve, index) = fixture();
        let golden_volatile = {
            let (mut volatile, ..) = fixture();
            let mut result = ResultSetCounter::empty(2);
            for q in train.queries() {
                assert!(result.refill_from_counter(&index, q.rect()));
                let truth = result.total() as f64;
                volatile.refine_with_truth(q.rect(), &result, truth);
            }
            volatile.golden_hash()
        };

        let mem = Arc::new(MemVfs::new());
        let store_cfg =
            StoreConfig { flush_every_deltas: 8, flush_every_bytes: u64::MAX, retain_generations: 2 };
        let mut trainer =
            DurableTrainer::create("/durable-serve", mem.clone(), store_cfg.clone(), hist)
                .expect("create");
        let cfg = ServeConfig { readers: 3, batch: 16, republish_every: 10, trainer_workers: 1 };
        let report = serve_one(Trainer::Durable(&mut trainer), &train, &serve, &index, &cfg)
            .expect("serve_training");
        assert_eq!(trainer.seq(), train.len() as u64);
        let flushes = flushed(&trainer);
        assert!(flushes >= 1, "expected snapshot flushes, got {flushes}");
        assert!(report.epochs_observed().len() >= 2);
        // Per-epoch flush attribution sums back to the run totals.
        assert_eq!(flush_rows(&report.tenants[0]), flushes);
        // The durable write path absorbs exactly what the volatile loop
        // refines on: same feedback, same state, bit for bit.
        assert_eq!(trainer.golden_hash(), golden_volatile);
        drop(trainer);

        // And the store round-trips it: a cold reopen is the same state.
        let (reopened, recovery) =
            DurableTrainer::open("/durable-serve", mem, store_cfg).expect("open");
        assert_eq!(recovery.seq, train.len() as u64);
        assert_eq!(reopened.golden_hash(), golden_volatile);
    }

    #[test]
    fn killed_durable_serve_resumes_from_the_tail() {
        let store_cfg =
            StoreConfig { flush_every_deltas: 6, flush_every_bytes: u64::MAX, retain_generations: 2 };
        let cfg = ServeConfig { readers: 2, batch: 8, republish_every: 10, trainer_workers: 1 };

        // Reference: an uncrashed durable serve run, also recording the
        // total write cost so the kill lands mid-run.
        let (hist, train, serve, index) = fixture();
        let ref_mem = Arc::new(MemVfs::new());
        let ref_vfs = Arc::new(FaultVfs::unlimited(ref_mem));
        let mut reference = DurableTrainer::create(
            "/durable-serve",
            ref_vfs.clone() as Arc<dyn Vfs>,
            store_cfg.clone(),
            hist,
        )
        .expect("create");
        serve_one(Trainer::Durable(&mut reference), &train, &serve, &index, &cfg)
            .expect("reference serve_training");
        let total_cost = ref_vfs.consumed();

        // Crash-kill: same run, half the write budget. With the flight
        // recorder forced on, the poisoning must leave a black-box dump
        // whose final entries are the absorbs leading into the crash.
        obs::flight::force(true);
        let (hist, ..) = fixture();
        let mem = Arc::new(MemVfs::new());
        let vfs = Arc::new(FaultVfs::new(mem.clone(), total_cost / 2));
        let mut trainer =
            DurableTrainer::create("/durable-serve", vfs as Arc<dyn Vfs>, store_cfg.clone(), hist)
                .expect("create");
        let died = serve_one(Trainer::Durable(&mut trainer), &train, &serve, &index, &cfg);
        assert!(died.is_err(), "half the write budget must kill the trainer");
        let dump = obs::flight::last_dump().expect("poisoning must dump the flight recorder");
        assert!(dump.contains("store poisoned"), "dump reason names the poisoning:\n{dump}");
        assert!(dump.contains("\"ev\": \"absorb\""), "dump carries pre-crash absorbs:\n{dump}");
        assert!(
            dump.contains("\"ev\": \"store_poisoned\""),
            "dump ends with the poisoning event itself:\n{dump}"
        );
        obs::flight::force(false);
        drop(trainer);

        // Reopen on the torn disk and finish the training workload from
        // the durable tail.
        let (mut resumed, recovery) =
            DurableTrainer::open("/durable-serve", mem, store_cfg).expect("open after kill");
        assert!(recovery.seq < train.len() as u64, "crash should land mid-run");
        let (_, rest) = train.split_train(recovery.seq as usize);
        serve_one(Trainer::Durable(&mut resumed), &rest, &serve, &index, &cfg)
            .expect("resumed serve");
        assert_eq!(resumed.seq(), train.len() as u64);
        // Crash + recovery + resume lands bit-identically on the
        // reference run's final state.
        assert_eq!(resumed.golden_hash(), reference.golden_hash());
    }

    #[test]
    fn served_estimates_match_final_snapshot_re_estimation() {
        let (mut hist, train, serve, index) = fixture();
        let cfg = ServeConfig::default();
        serve_one(Trainer::Volatile(&mut hist), &train, &serve, &index, &cfg).unwrap();
        // After the loop the live histogram equals the last published
        // snapshot: freezing again must be bit-identical per query.
        let frozen = hist.freeze();
        for q in serve.queries() {
            assert_eq!(
                frozen.estimate(q.rect()).to_bits(),
                CardinalityEstimator::estimate(&hist, q.rect()).to_bits()
            );
        }
    }

    #[test]
    fn publishes_once_per_turn_without_a_duplicate_final_publish() {
        let (mut hist, train, serve, index) = fixture();
        let cfg = ServeConfig { readers: 2, batch: 16, republish_every: 25, trainer_workers: 1 };
        // Four full turns: the last one ends exactly at the workload's end.
        let (train, _) = train.split_train(4 * cfg.republish_every);
        let mut reg = Registry::new();
        let tenant = TenantRuntime {
            key: TenantKey::new("t", vec![0, 1]),
            trainer: Trainer::Volatile(&mut hist),
            train: &train,
            serve: &serve,
            counter: &index,
        };
        let report = serve_training(&mut reg, vec![tenant], &cfg).unwrap();
        // The last turn's publish is the final state: nothing publishes
        // it again.
        let turns = (train.len() / cfg.republish_every) as u64;
        assert_eq!(report.tenants[0].publishes, turns);
        assert_eq!((reg.tenant_epoch(0), reg.composite_epoch()), (1 + turns, 1 + turns));
        assert_eq!(report.composite_final, 1 + turns);
    }

    #[test]
    fn registry_run_end_to_end() {
        let mut fixtures: Vec<(u64, Fixture)> =
            [41u64, 43, 47].into_iter().map(|s| (s, tenant_fixture(s))).collect();
        let mut reg = Registry::new();
        let cfg = ServeConfig { readers: 2, batch: 24, republish_every: 10, trainer_workers: 2 };
        let report = serve_training(&mut reg, runtimes(&mut fixtures), &cfg).unwrap();

        assert_eq!(report.tenants.len(), 3);
        assert_eq!(report.composite_final, reg.composite_epoch());
        let mut publishes_total = 0;
        for (id, t) in report.tenants.iter().enumerate() {
            assert_eq!(t.final_epoch, 1 + t.publishes, "tenant {id} epochs");
            assert!(t.publishes >= 2, "tenant {id} republished");
            assert!(t.answered >= 1, "tenant {id} was served");
            assert_eq!(t.timeline.rows.len() as u64, t.final_epoch);
            assert_eq!(
                t.timeline.rows.iter().map(|r| r.answered).sum::<u64>(),
                t.answered,
                "tenant {id} timeline accounts for every estimate"
            );
            publishes_total += t.publishes;
        }
        // Every publication round ticked the composite clock exactly once.
        assert_eq!(report.composite_final, 1 + publishes_total);
        assert_eq!(
            report.composite_timeline.rows.iter().map(|r| r.answered).sum::<u64>(),
            report.answered(),
            "composite timeline accounts for every estimate"
        );
        // Readers saw more than one composite epoch and drained the end.
        for r in &report.readers {
            assert!(r.answered >= 1);
            assert!(!r.epochs.is_empty());
        }
        assert!(report.answered() >= cfg.batch as u64);
        // Deadlines are disabled by default: nothing sheds, ever.
        assert!(report.shed_by_tenant.iter().all(|&s| s == 0));
        assert_eq!(report.engine.shed_requests, 0);
        assert!(report.engine.services > 0);
    }

    #[test]
    fn registry_run_routes_bit_identically_to_the_final_snapshots() {
        let mut fixtures: Vec<(u64, Fixture)> =
            [53u64, 59].into_iter().map(|s| (s, tenant_fixture(s))).collect();
        let mut reg = Registry::new();
        let report =
            serve_training(&mut reg, runtimes(&mut fixtures), &ServeConfig::default()).unwrap();
        assert_eq!(report.tenants.len(), 2);
        // After the run, routing a mixed batch equals per-tenant answers
        // from the final views, bit for bit.
        let batch: Vec<(TenantId, Rect)> = fixtures
            .iter()
            .enumerate()
            .flat_map(|(id, (_, (_, _, wl, _)))| {
                wl.queries().iter().take(10).map(move |q| (id, q.rect().clone()))
            })
            .collect();
        let mut routed = Vec::new();
        reg.estimate_batch_routed(&batch, &mut routed);
        for (j, (id, q)) in batch.iter().enumerate() {
            let view = reg.load(*id);
            assert_eq!(routed[j].to_bits(), view.estimate(q).to_bits());
        }
    }

    #[test]
    fn durable_and_volatile_tenants_share_one_run() {
        let (mut volatile, train, serve, index) = fixture();
        let (train, _) = train.split_train(200);
        let store_cfg =
            StoreConfig { flush_every_deltas: 8, flush_every_bytes: u64::MAX, retain_generations: 2 };
        let mut durable =
            DurableTrainer::create("/mixed", Arc::new(MemVfs::new()), store_cfg, fixture().0)
                .expect("create");
        let tenants = vec![
            TenantRuntime {
                key: TenantKey::new("durable", vec![0, 1]),
                trainer: Trainer::Durable(&mut durable),
                train: &train,
                serve: &serve,
                counter: &index,
            },
            TenantRuntime {
                key: TenantKey::new("volatile", vec![0, 1]),
                trainer: Trainer::Volatile(&mut volatile),
                train: &train,
                serve: &serve,
                counter: &index,
            },
        ];
        let mut reg = Registry::new();
        let cfg = ServeConfig { readers: 2, batch: 16, republish_every: 10, trainer_workers: 2 };
        let report = serve_training(&mut reg, tenants, &cfg).expect("serve_training");

        // Same feedback through both write paths: same state, bit for bit,
        // published the same number of times.
        assert_eq!(durable.seq(), train.len() as u64);
        assert_eq!(durable.golden_hash(), volatile.golden_hash());
        assert_eq!(report.tenants[0].publishes, report.tenants[1].publishes);
        let (d, v) = (reg.load(0), reg.load(1));
        for q in serve.queries() {
            assert_eq!(d.estimate(q.rect()).to_bits(), v.estimate(q.rect()).to_bits());
        }
        // Only the durable tenant flushed, and its timeline files every
        // flush.
        assert!(flushed(&durable) >= 1);
        assert_eq!(flush_rows(&report.tenants[0]), flushed(&durable));
        assert_eq!(flush_rows(&report.tenants[1]), 0, "a volatile tenant never flushes");
    }

    #[test]
    fn trainer_panic_on_one_tenant_spares_the_other_worker() {
        let mut fixtures: Vec<(u64, Fixture)> = [71u64, 73, 79]
            .into_iter()
            .map(|s| {
                let (hist, train, serve, index) = tenant_fixture(s);
                (s, (hist, train.split_train(200).0, serve, index))
            })
            .collect();
        let spare = tenant_fixture(73).3;
        let panicky = PanickyCounter { inner: &spare, remaining: AtomicU64::new(25) };
        let mut tenants = runtimes(&mut fixtures);
        // Tenants are dealt round-robin: tenant 1 is worker 1's only one.
        tenants[1].counter = &panicky;
        let mut reg = Registry::new();
        let cfg = ServeConfig { readers: 2, batch: 24, republish_every: 10, trainer_workers: 2 };
        let report = serve_training(&mut reg, tenants, &cfg).expect("no store in this run");

        let failure = report.failure.as_deref().expect("trainer panic must be captured");
        assert!(failure.contains("injected counter failure"), "got {failure:?}");
        // Every reader drained instead of hanging, and every tenant was
        // served and accounted.
        for r in &report.readers {
            assert!(r.answered >= 1);
        }
        for t in &report.tenants {
            assert!(t.answered >= 1, "{} was not served", t.key);
            assert_eq!(t.final_epoch, 1 + t.publishes);
            assert_eq!(t.timeline.rows.len() as u64, t.final_epoch);
        }
        // Worker 0 trained tenants 0 and 2 to the end: their final views
        // are their trainers' final freezes.
        for id in [0, 2] {
            let (hist, train, serve, _) = &fixtures[id].1;
            let turns = train.len().div_ceil(cfg.republish_every) as u64;
            assert_eq!(report.tenants[id].publishes, turns, "tenant {id} stopped early");
            let (view, frozen) = (reg.load(id), hist.freeze());
            for q in serve.queries() {
                assert_eq!(view.estimate(q.rect()).to_bits(), frozen.estimate(q.rect()).to_bits());
            }
        }
    }

    /// Asserts that `view` answers every `serve` query bit-identically to
    /// `hist`'s freeze.
    fn assert_view_is_freeze(view: &sth_serve::TenantView, hist: &StHoles, serve: &Workload) {
        let frozen = hist.freeze();
        for q in serve.queries() {
            assert_eq!(view.estimate(q.rect()).to_bits(), frozen.estimate(q.rect()).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "fresh registry")]
    fn serve_training_wants_a_fresh_registry() {
        let (mut hist, train, serve, index) = fixture();
        let mut reg = Registry::new();
        reg.register(TenantKey::new("earlier", vec![0, 1]), &hist);
        let tenant = TenantRuntime {
            key: TenantKey::new("t", vec![0, 1]),
            trainer: Trainer::Volatile(&mut hist),
            train: &train,
            serve: &serve,
            counter: &index,
        };
        let _ = serve_training(&mut reg, vec![tenant], &ServeConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn serve_training_needs_a_tenant() {
        let _ = serve_training(&mut Registry::new(), Vec::new(), &ServeConfig::default());
    }

    #[test]
    #[should_panic(expected = "has nothing to serve")]
    fn a_tenant_with_nothing_to_serve_is_rejected() {
        let (mut hist, train, serve, index) = fixture();
        let (nothing, _) = serve.split_train(0);
        let cfg = ServeConfig::default();
        let _ = serve_one(Trainer::Volatile(&mut hist), &train, &nothing, &index, &cfg);
    }

    #[test]
    fn an_empty_training_workload_serves_the_initial_snapshot() {
        let (mut hist, train, serve, index) = fixture();
        let golden = hist.golden_hash();
        let (none, _) = train.split_train(0);
        let cfg = ServeConfig { readers: 2, batch: 16, republish_every: 10, trainer_workers: 1 };
        let report = serve_one(Trainer::Volatile(&mut hist), &none, &serve, &index, &cfg).unwrap();
        let tenant = &report.tenants[0];
        assert_eq!((tenant.publishes, tenant.final_epoch, report.composite_final), (0, 1, 1));
        assert_eq!(report.epochs_observed(), [1]);
        assert_eq!(tenant.timeline.rows.len(), 1);
        assert!(report.readers.iter().all(|r| r.answered >= 1), "every reader drained");
        assert_eq!(hist.golden_hash(), golden, "nothing was trained");
        assert!(report.failure.is_none());
    }

    #[test]
    fn a_partial_last_turn_publishes_the_final_state() {
        let (mut hist, train, serve, index) = fixture();
        let cfg = ServeConfig { readers: 2, batch: 16, republish_every: 20, trainer_workers: 1 };
        // Four full turns and a three-query fifth.
        let (train, _) = train.split_train(4 * cfg.republish_every + 3);
        let mut reg = Registry::new();
        let tenant = TenantRuntime {
            key: TenantKey::new("t", vec![0, 1]),
            trainer: Trainer::Volatile(&mut hist),
            train: &train,
            serve: &serve,
            counter: &index,
        };
        let report = serve_training(&mut reg, vec![tenant], &cfg).unwrap();
        assert_eq!(report.tenants[0].publishes, 5);
        assert_eq!(reg.tenant_epoch(0), 6);
        assert_view_is_freeze(&reg.load(0), &hist, &serve);
    }

    #[test]
    fn tenant_reports_follow_registration_order() {
        let mut fixtures: Vec<(u64, Fixture)> = [83u64, 89, 97]
            .into_iter()
            .map(|s| {
                let (hist, train, serve, index) = tenant_fixture(s);
                (s, (hist, train.split_train(40).0, serve, index))
            })
            .collect();
        let mut reg = Registry::new();
        let cfg = ServeConfig { readers: 2, batch: 16, republish_every: 10, trainer_workers: 2 };
        let report = serve_training(&mut reg, runtimes(&mut fixtures), &cfg).unwrap();
        let keys: Vec<String> = report.tenants.iter().map(|t| t.key.to_string()).collect();
        assert_eq!(keys, ["t83[0,1]", "t89[0,1]", "t97[0,1]"]);
        for (id, t) in report.tenants.iter().enumerate() {
            assert_eq!(reg.id_of(&t.key), Some(id));
            assert_eq!(reg.key(id), &t.key);
            assert_eq!(t.final_epoch, reg.tenant_epoch(id));
        }
        assert_eq!(report.shed_by_tenant.len(), 3);
    }

    #[test]
    fn per_tenant_tallies_add_up_to_the_reader_totals() {
        let (mut a, train_a, serve_a, index_a) = tenant_fixture(101);
        let (mut b, train_b, serve_b, index_b) = tenant_fixture(103);
        // Uneven serve workloads: tenant a appears in few stream rounds.
        let (serve_a, _) = serve_a.split_train(5);
        let (train_a, _) = train_a.split_train(30);
        let (train_b, _) = train_b.split_train(30);
        let tenants = vec![
            TenantRuntime {
                key: TenantKey::new("a", vec![0, 1]),
                trainer: Trainer::Volatile(&mut a),
                train: &train_a,
                serve: &serve_a,
                counter: &index_a,
            },
            TenantRuntime {
                key: TenantKey::new("b", vec![0, 1]),
                trainer: Trainer::Volatile(&mut b),
                train: &train_b,
                serve: &serve_b,
                counter: &index_b,
            },
        ];
        let cfg = ServeConfig { readers: 3, batch: 12, republish_every: 10, trainer_workers: 2 };
        let report = serve_training(&mut Registry::new(), tenants, &cfg).unwrap();
        assert!(report.tenants.iter().all(|t| t.answered >= 1), "both tenants were served");
        let answered: u64 = report.tenants.iter().map(|t| t.answered).sum();
        assert_eq!(answered, report.answered());
        // A mixed batch splits into at least one request per tenant in it.
        let requests: u64 = report.tenants.iter().map(|t| t.batches).sum();
        assert!(requests >= report.batches());
        assert!(report.tenants[0].answered < report.tenants[1].answered);
    }

    #[test]
    fn final_states_do_not_depend_on_the_worker_count() {
        let cfg = ServeConfig { readers: 2, batch: 16, republish_every: 10, trainer_workers: 1 };
        let final_goldens = |workers: usize| {
            let mut fixtures: Vec<(u64, Fixture)> = [107u64, 109, 113]
                .into_iter()
                .map(|s| {
                    let (hist, train, serve, index) = tenant_fixture(s);
                    (s, (hist, train.split_train(50).0, serve, index))
                })
                .collect();
            let cfg = ServeConfig { trainer_workers: workers, ..cfg };
            let report = serve_training(&mut Registry::new(), runtimes(&mut fixtures), &cfg)
                .unwrap();
            let publishes: Vec<u64> = report.tenants.iter().map(|t| t.publishes).collect();
            assert_eq!(publishes, [5, 5, 5], "{workers} workers");
            fixtures.iter().map(|(_, (hist, ..))| hist.golden_hash()).collect::<Vec<u64>>()
        };
        assert_eq!(final_goldens(1), final_goldens(3));
    }

    #[test]
    fn report_totals_sum_the_readers() {
        let reader = |answered, batches, audited, shed, epochs: &[u64]| ReaderStats {
            answered,
            batches,
            audited,
            shed,
            epochs: epochs.to_vec(),
        };
        let report = ServeReport {
            tenants: Vec::new(),
            readers: vec![reader(10, 3, 2, 1, &[1, 3]), reader(7, 2, 2, 0, &[2, 3, 5])],
            counters: obs::Snapshot::default(),
            composite_final: 5,
            composite_timeline: EpochTimeline::default(),
            engine: EngineStats::default(),
            shed_by_tenant: Vec::new(),
            failure: None,
        };
        assert_eq!(report.answered(), 17);
        assert_eq!(report.batches(), 5);
        assert_eq!(report.audited(), 4);
        assert_eq!(report.shed(), 1);
        assert_eq!(report.epochs_observed(), [1, 2, 3, 5], "distinct and ascending");
    }

    #[test]
    fn the_last_trainer_to_exit_raises_done_even_by_unwinding() {
        let (live, done) = (AtomicU64::new(2), AtomicBool::new(false));
        drop(TrainerLive { live: &live, done: &done });
        assert!(!done.load(Ordering::Acquire), "a trainer is still live");
        let unwound = std::thread::scope(|s| {
            s.spawn(|| {
                let _live = TrainerLive { live: &live, done: &done };
                panic!("trainer died");
            })
            .join()
        });
        assert!(unwound.is_err());
        assert!(done.load(Ordering::Acquire), "the panicking last trainer raised done");
        assert_eq!(live.load(Ordering::Acquire), 0);
    }

    #[test]
    fn panic_payloads_render_as_messages() {
        assert_eq!(panic_message(Box::new("static str")), "static str");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(
            panic_message(Box::new(17u32)),
            "trainer panicked with a non-string payload"
        );
    }
}
