//! serve_read: one frozen snapshot served by the reactor's open loop.
//!
//! A producer thread injects 4-query requests into `sth_serve::run_open`
//! and one engine thread answers them, coalescing queued requests into
//! lane-kernel batches. Two phases per repetition: a fixed offered rate
//! (latency, timed from each request's due time) and a bounded window of
//! outstanding requests (capacity). The snapshot never changes, so the
//! write path (refine, clustering, store, registry) is bypassed.

use std::time::{Duration, Instant};

use sth_baselines::TrivialHistogram;
use sth_core::{build_initialized, InitConfig};
use sth_eval::{evaluate_self_tuning, DatasetSpec, ExperimentCtx};
use sth_geometry::Rect;
use sth_histogram::FrozenHistogram;
use sth_index::RangeCounter;
use sth_mineclus::{MineClus, MineClusConfig};
use sth_platform::obs::{self, Counter, HistKind, ValueHist};
use sth_platform::snap::SnapshotCell;
use sth_query::{CardinalityEstimator, WorkloadSpec};
use sth_serve::{
    run_open, CellBackend, EngineConfig, EngineStats, Injector, OpenReport, DEFAULT_COALESCE,
};

use crate::hooks::{Service, ServiceLog, TimedBackend};
use crate::report::Outcome;
use crate::stats;
use crate::trace::{Tracer, NONE};
use crate::{timed, Plan};

/// Queries per injected request.
const REQUEST: usize = 4;
/// Requests kept outstanding in the capacity phase.
const WINDOW: u64 = 64;
/// An injection this late (ns) past its due time counts as late…
const LATE_NS: f64 = 50_000.0;
/// …and a fixed-rate phase with more late injections than this share is
/// invalid and run again.
const MAX_LATE_FRAC: f64 = 0.01;
const PHASE_ATTEMPTS: usize = 3;
/// Set-ups per run; each builds the served snapshot from scratch.
const SETUPS: usize = 3;
/// Seconds one untraced repetition (warm-up, fixed rate, capacity) takes
/// on the reference machine, counting its share of the set-ups; sets how
/// many repetitions fit in `--seconds`.
const REP_S: f64 = 1.8;
/// The served snapshot is trained on a fixed workload so that every seed
/// serves the same histogram; the seed drives the request stream.
const SNAPSHOT_SEED: u64 = 0xE0;

#[derive(Clone, Copy, Debug)]
struct ReadSpec {
    scale: f64,
    buckets: usize,
    /// Training queries the served snapshot learns from during setup.
    train: usize,
    /// Distinct queries the request stream cycles through.
    stream: usize,
    rate_qps: f64,
    warmup_s: f64,
    fixed_s: f64,
    /// Queries answered per capacity phase.
    capacity_queries: usize,
}

const FULL: ReadSpec = ReadSpec {
    scale: 0.05,
    buckets: 250,
    train: 100,
    stream: 4096,
    rate_qps: 50_000.0,
    warmup_s: 0.1,
    fixed_s: 0.5,
    capacity_queries: 50_000,
};

const SMOKE: ReadSpec = ReadSpec {
    scale: 0.005,
    buckets: 60,
    train: 40,
    stream: 256,
    rate_qps: 50_000.0,
    warmup_s: 0.05,
    fixed_s: 0.2,
    capacity_queries: 20_000,
};

fn engine() -> EngineConfig {
    // Built explicitly: `EngineConfig::from_env` would let `STH_SERVE_*`
    // variables change the program under test. The deadline only guards
    // against a stalled engine; at this load nothing waits that long.
    EngineConfig {
        threads: 1,
        coalesce: DEFAULT_COALESCE,
        deadline: Some(Duration::from_secs(1)),
    }
}

struct Served {
    cell: SnapshotCell<FrozenHistogram>,
    stream: Vec<Rect>,
    truth: Vec<f64>,
    h0: Vec<f64>,
}

fn setup(spec: &ReadSpec, seed: u64) -> Served {
    let prep = ExperimentCtx {
        scale: spec.scale,
        ..ExperimentCtx::paper()
    }
    .prepare(DatasetSpec::Sky);
    let (data, index) = (&*prep.data, &*prep.index);
    let mineclus = MineClus::new(MineClusConfig::default());
    let (mut hist, _) = build_initialized(
        data,
        spec.buckets,
        &mineclus,
        &InitConfig::default(),
        None,
        index,
    );
    let train = WorkloadSpec {
        count: spec.train,
        ..WorkloadSpec::paper(0.01, SNAPSHOT_SEED)
    }
    .generate(data.domain(), None);
    evaluate_self_tuning(&mut hist, &train, index, true);
    let stream: Vec<Rect> = WorkloadSpec {
        count: spec.stream,
        ..WorkloadSpec::paper(0.01, seed)
    }
    .generate(data.domain(), None)
    .queries()
    .iter()
    .map(|q| q.rect().clone())
    .collect();
    let truth = stream.iter().map(|r| index.count(r) as f64).collect();
    let h0 = TrivialHistogram::for_dataset(data);
    let h0 = stream.iter().map(|r| h0.estimate(r)).collect();
    Served {
        cell: SnapshotCell::new(hist.freeze()),
        stream,
        truth,
        h0,
    }
}

type Backend<'a> = TimedBackend<'a, CellBackend<'a>>;

pub fn run(plan: &Plan) -> Outcome {
    let spec = if plan.smoke { SMOKE } else { FULL };
    let (served, setup_s) = timed(|| setup(&spec, plan.seed));
    let mut setup_s = vec![setup_s];
    let log = ServiceLog::default();
    let backend = TimedBackend {
        inner: CellBackend::new(&served.cell),
        log: &log,
    };
    let mut out = Outcome::default();
    let mut tr = Tracer::new(Instant::now());
    let mut layers = ServeLayers::default();
    // Untraced repetitions give the end-to-end numbers; a traced run
    // alternates them with traced ones, and the capacity walls of the two
    // give the tracing overhead.
    let (mut latency_us, mut run_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let reps = if plan.trace {
        2 * plan.reps(2.0 * REP_S, 1)
    } else {
        plan.reps(REP_S, 3)
    };
    for i in 0..reps {
        // The later set-ups (timed only) are spread over the run like the
        // repetitions.
        if setup_s.len() < SETUPS && i >= setup_s.len() * reps / SETUPS {
            setup_s.push(timed(|| setup(&spec, plan.seed)).1);
        }
        let traced = plan.trace && i % 2 == 1;
        obs::force_metrics(traced);
        let fixed = fixed_rate_phase(&spec, &served.stream, &backend, &mut out);
        let cap = capacity(&spec, &served.stream, &backend, &mut out);
        let wall = (cap.end - cap.start).as_secs_f64();
        if traced {
            for p in [&fixed, &cap] {
                p.trace(&mut tr);
                layers.add(p);
            }
            traced_s.push(wall);
        } else {
            latency_us.push(stats::median(&fixed.latency_ns()) * 1e-3);
            run_s.push(wall);
        }
    }
    obs::force_metrics(false);
    while setup_s.len() < SETUPS {
        setup_s.push(timed(|| setup(&spec, plan.seed)).1);
    }
    check_answers(&served, &backend, &mut out);
    if plan.trace {
        layers.report(&mut out);
        out.layer(
            "trace.overhead_frac",
            stats::median(&traced_s) / stats::median(&run_s) - 1.0,
        );
        let (wall, unaccounted) = tr.accounting("serve.request");
        out.layer("trace.unaccounted_frac", unaccounted as f64 / wall as f64);
        plan.keep_spans(&tr, &mut out);
    }
    out.median("setup_s", setup_s);
    out.median("run_s", run_s);
    out.median("query_us", latency_us);
    out
}

/// Books a finished engine run: every query offered was answered or
/// shed, and a shed query is a failed one.
pub fn account(offered: &[u64], answered: &[u64], shed: &[u64], out: &mut Outcome) {
    for (t, ((&o, &a), &s)) in offered.iter().zip(answered).zip(shed).enumerate() {
        out.attempted += o;
        out.failed += s;
        if o != a + s {
            out.failed += o.abs_diff(a + s);
            out.errors.push(format!(
                "tenant {t}: offered {o} != answered {a} + shed {s}"
            ));
        }
    }
}

fn account_open(report: &OpenReport, out: &mut Outcome) {
    account(&report.offered, &report.answered, &report.shed, out)
}

/// One open-loop phase as the producer and the engine saw it.
struct Phase {
    start: Instant,
    end: Instant,
    /// Per request: when it was due, and when the producer injected it;
    /// empty for a capacity phase, which has no schedule.
    due: Vec<Instant>,
    injected: Vec<Instant>,
    services: Vec<Service>,
    /// Per request: the index of the service that answered it; empty when
    /// a request was shed.
    served_by: Vec<usize>,
    repin_ns: Vec<u64>,
    stats: EngineStats,
    obs: obs::Snapshot,
}

impl Phase {
    /// Per request: injected minus due, ns.
    fn late_ns(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.injected)
            .map(|(&d, &i)| (i - d).as_nanos() as f64)
            .collect()
    }

    fn late_frac(&self) -> f64 {
        self.late_ns().iter().filter(|&&l| l > LATE_NS).count() as f64 / self.due.len() as f64
    }

    /// Per request: answered minus due, ns.
    fn latency_ns(&self) -> Vec<f64> {
        self.served_by
            .iter()
            .zip(&self.due)
            .map(|(&k, &d)| (self.services[k].end - d).as_nanos() as f64)
            .collect()
    }

    /// The phase with its services, and each request split into the
    /// generator's lateness, the queue wait and its service, which add up
    /// to the request's latency.
    fn trace(&self, tr: &mut Tracer) {
        let phase = tr.push("serve.phase", self.start, self.end, NONE, NONE);
        for (k, s) in self.services.iter().enumerate() {
            tr.push("sthole.batch", s.start, s.end, phase, k as u32);
        }
        for (r, &k) in self.served_by.iter().enumerate() {
            let (due, injected, s) = (self.due[r], self.injected[r], &self.services[k]);
            let request = tr.push("serve.request", due, s.end, phase, r as u32);
            tr.push("loadgen.late", due, injected, request, r as u32);
            tr.push("serve.queue", injected, s.start, request, r as u32);
            tr.push("serve.service", s.start, s.end, request, r as u32);
        }
    }
}

/// A warm-up, then the first fixed-rate phase whose generator kept to its
/// schedule. A late generator is the host's fault, not the engine's, so
/// when every attempt ran late the last one is kept with a warning
/// rather than failing the run; `loadgen.late_frac` shows it when traced.
fn fixed_rate_phase(
    spec: &ReadSpec,
    stream: &[Rect],
    backend: &Backend<'_>,
    out: &mut Outcome,
) -> Phase {
    fixed_rate(spec, spec.warmup_s, stream, backend, out);
    let mut attempt = 1;
    loop {
        let p = fixed_rate(spec, spec.fixed_s, stream, backend, out);
        if p.late_frac() <= MAX_LATE_FRAC {
            return p;
        }
        if attempt == PHASE_ATTEMPTS {
            eprintln!(
                "benchmark: warning: {PHASE_ATTEMPTS} fixed-rate phases in a row had over {}% of \
                 injections more than {} us late; keeping the last",
                100.0 * MAX_LATE_FRAC,
                LATE_NS * 1e-3
            );
            return p;
        }
        attempt += 1;
    }
}

/// Offers `spec.rate_qps` for `secs` seconds on a fixed schedule.
fn fixed_rate(
    spec: &ReadSpec,
    secs: f64,
    stream: &[Rect],
    backend: &Backend<'_>,
    out: &mut Outcome,
) -> Phase {
    let interval = Duration::from_secs_f64(REQUEST as f64 / spec.rate_qps);
    let requests = (secs / interval.as_secs_f64()) as usize;
    backend.log.drain();
    let start = Instant::now();
    let (report, (due, injected)) = run_open(backend, &engine(), false, |inj| {
        // Start a little ahead so the engine thread is polling by the
        // first due time.
        let t0 = Instant::now() + Duration::from_millis(1);
        let due: Vec<Instant> = (0..requests).map(|i| t0 + interval * i as u32).collect();
        let mut injected = Vec::with_capacity(requests);
        let mut cursor = 0;
        for &at in &due {
            let mut now = Instant::now();
            while now < at {
                std::hint::spin_loop();
                now = Instant::now();
            }
            injected.push(now);
            inj.inject(0, stream[cursor..cursor + REQUEST].to_vec());
            cursor = (cursor + REQUEST) % stream.len();
        }
        (due, injected)
    });
    let end = Instant::now();
    account_open(&report, out);
    let (services, repin_ns) = backend.log.drain();
    let served_by = if report.shed_total() == 0 {
        serving_order(&services, requests)
    } else {
        Vec::new()
    };
    Phase {
        start,
        end,
        due,
        injected,
        services,
        served_by,
        repin_ns,
        stats: report.stats,
        obs: report.obs,
    }
}

/// The service that answered each request. One engine thread serves one
/// FIFO queue and coalesces whole requests, so services answer requests
/// in injection order.
fn serving_order(services: &[Service], requests: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(requests);
    for (k, s) in services.iter().enumerate() {
        order.extend(std::iter::repeat_n(k, s.queries as usize / REQUEST));
    }
    assert_eq!(order.len(), requests, "every offered request was answered");
    order
}

/// Answers `spec.capacity_queries` queries with `WINDOW` requests kept
/// outstanding. The phase runs from the first injection until the engine
/// has drained.
fn capacity(spec: &ReadSpec, stream: &[Rect], backend: &Backend<'_>, out: &mut Outcome) -> Phase {
    let requests = spec.capacity_queries / REQUEST;
    backend.log.drain();
    let (report, start) = run_open(backend, &engine(), false, |inj| {
        let start = Instant::now();
        let mut cursor = 0;
        for _ in 0..requests {
            wait_for_room(inj);
            inj.inject(0, stream[cursor..cursor + REQUEST].to_vec());
            cursor = (cursor + REQUEST) % stream.len();
        }
        start
    });
    let end = Instant::now();
    account_open(&report, out);
    let (services, repin_ns) = backend.log.drain();
    Phase {
        start,
        end,
        due: Vec::new(),
        injected: Vec::new(),
        services,
        served_by: Vec::new(),
        repin_ns,
        stats: report.stats,
        obs: report.obs,
    }
}

/// Sleeps while `WINDOW` requests are outstanding. Sleeping rather than
/// spinning leaves the engine thread its core: the two vCPUs of the
/// reference machine slow each other down when both are busy, which cost
/// a spinning producer about 20% of the engine's capacity. The window
/// holds about a millisecond of work, so it never drains during a sleep.
fn wait_for_room(inj: &Injector<'_, '_, Backend<'_>>) {
    while inj.pending() >= WINDOW {
        std::thread::sleep(Duration::from_micros(20));
    }
}

/// Serves every stream query once with result capture, checks each
/// estimate bit for bit against the snapshot's own `estimate`, and scores
/// the served estimates (NAE against H0).
fn check_answers(served: &Served, backend: &Backend<'_>, out: &mut Outcome) {
    let (report, slots) = run_open(backend, &engine(), true, |inj| {
        served
            .stream
            .chunks(REQUEST)
            .map(|c| {
                wait_for_room(inj);
                inj.inject(0, c.to_vec())
            })
            .collect::<Vec<usize>>()
    });
    backend.log.drain();
    account_open(&report, out);
    let results = report.results.expect("capture was on");
    let frozen = served.cell.load();
    let (mut err, mut err_h0) = (0.0, 0.0);
    // Requests were injected in stream order, so a request's capture slot
    // is the stream index of its first query.
    for (chunk, slot) in served.stream.chunks(REQUEST).zip(slots) {
        for (k, q) in chunk.iter().enumerate() {
            let i = slot + k;
            let (got, want) = (results[i], frozen.estimate(q));
            if got.to_bits() != want.to_bits() {
                out.failed += 1;
                out.errors.push(format!(
                    "query {i}: served {got} != snapshot estimate {want}"
                ));
            }
            err += (got - served.truth[i]).abs();
            err_h0 += (served.h0[i] - served.truth[i]).abs();
        }
    }
    out.mean("nae", vec![err / err_h0]);
}

/// Serving-side layer metrics summed over traced phases. Service-level
/// metrics come from saturated phases (serve_read's capacity phases,
/// serve_mixed's engine run); request waits from open-loop phases.
#[derive(Default)]
pub struct ServeLayers {
    phases: u64,
    wall_ns: f64,
    service_ns: Vec<f64>,
    queries: u64,
    services: u64,
    coalesced: u64,
    pins: u64,
    kernel_calls: u64,
    lanes_pruned: u64,
    repin_ns: Vec<f64>,
    /// Queue wait of every answered request, ns.
    pub queue_ns: ValueHist,
    latency_ns: Vec<f64>,
    late_ns: Vec<f64>,
}

impl ServeLayers {
    pub fn add_saturated(
        &mut self,
        wall_ns: f64,
        services: &[Service],
        repin_ns: &[u64],
        stats: &EngineStats,
        obs: &obs::Snapshot,
    ) {
        self.phases += 1;
        self.wall_ns += wall_ns;
        self.service_ns
            .extend(services.iter().map(|s| (s.end - s.start).as_nanos() as f64));
        self.queries += services.iter().map(|s| u64::from(s.queries)).sum::<u64>();
        self.services += stats.services;
        self.coalesced += stats.coalesced_services;
        self.pins += stats.pins;
        self.kernel_calls += obs.get(Counter::BatchKernelCalls);
        self.lanes_pruned += obs.get(Counter::BatchLanesPruned);
        self.repin_ns.extend(repin_ns.iter().map(|&ns| ns as f64));
    }

    fn add(&mut self, p: &Phase) {
        if p.due.is_empty() {
            self.add_saturated(
                (p.end - p.start).as_nanos() as f64,
                &p.services,
                &p.repin_ns,
                &p.stats,
                &p.obs,
            );
        } else {
            self.queue_ns.merge(p.obs.hist(HistKind::ServeQueueNs));
            self.latency_ns.extend(p.latency_ns());
            self.late_ns.extend(p.late_ns());
        }
    }

    pub fn report(&self, out: &mut Outcome) {
        let phases = self.phases.max(1) as f64;
        let busy: f64 = self.service_ns.iter().sum();
        let services = self.services.max(1) as f64;
        out.layer(
            "sthole.batch_us_p50",
            stats::quantile(&self.service_ns, 0.5) * 1e-3,
        );
        out.layer(
            "sthole.batch_ns_per_query",
            busy / self.queries.max(1) as f64,
        );
        out.layer(
            "sthole.kernel_calls_per_service",
            self.kernel_calls as f64 / services,
        );
        out.layer(
            "sthole.lanes_pruned_per_query",
            self.lanes_pruned as f64 / self.queries.max(1) as f64,
        );
        out.layer("serve.services", self.services as f64 / phases);
        out.layer("serve.queries_per_service", self.queries as f64 / services);
        out.layer("serve.coalesced_frac", self.coalesced as f64 / services);
        out.layer("serve.busy_frac", busy / self.wall_ns);
        out.layer("serve.queue_us_p50", self.queue_ns.p50() as f64 * 1e-3);
        out.layer("snap.pins", self.pins as f64 / phases);
        out.layer("snap.repin_ns_p50", stats::quantile(&self.repin_ns, 0.5));
        if !self.latency_ns.is_empty() {
            out.layer(
                "serve.latency_p90_us",
                stats::quantile(&self.latency_ns, 0.90) * 1e-3,
            );
            out.layer(
                "serve.latency_p99_us",
                stats::quantile(&self.latency_ns, 0.99) * 1e-3,
            );
        }
        if !self.late_ns.is_empty() {
            let late = self.late_ns.iter().filter(|&&l| l > LATE_NS).count();
            out.layer("loadgen.late_frac", late as f64 / self.late_ns.len() as f64);
            out.layer(
                "loadgen.late_us_p99",
                stats::quantile(&self.late_ns, 0.99) * 1e-3,
            );
        }
    }
}
