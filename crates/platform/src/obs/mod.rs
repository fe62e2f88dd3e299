//! Observability: counters, value-distribution stats, latency histograms,
//! span timers, a structured JSON event log, and a crash flight recorder —
//! all on `std` alone, per the hermetic-build policy.
//!
//! The simulation pipeline is one giant feedback loop (~20k queries per
//! run); a silent bug in it corrupts every NAE number the experiments
//! report. This module is the standing detector: the hot paths of
//! `sth-sthole`, `sth-index`, `sth-mineclus`, `sth-store` and `sth-eval`
//! increment process-wide named counters and the eval runner snapshots
//! them per run. The serving tier additionally records *distributions* —
//! mergeable log-linear value histograms ([`hist`]) for tail-latency
//! reporting — and keeps a per-thread ring of recent events ([`flight`])
//! that is dumped as a black-box trace when a serve loop dies.
//!
//! ## Cost model
//!
//! Everything is disabled by default. [`add`]/[`record`]/[`record_hist`]
//! start with one relaxed atomic load and a branch; the counters
//! themselves are thread-local `Cell`s (no contention, no RMW). Histogram
//! recording is one index computation plus a thread-local array bump.
//! Thread-locality is also what makes per-run deltas *exact*: each
//! `sth-eval` sweep job runs entirely on one worker thread, so a
//! before/after [`snapshot`] delta contains exactly that run's events,
//! and the sweep merges the per-job snapshots in job order —
//! deterministic regardless of worker count.
//!
//! ## Runtime gating
//!
//! * `STH_METRICS=1` — enable counters, stats and histograms.
//! * `STH_TRACE=1` — JSON-lines event log to stderr (implies metrics).
//! * `STH_TRACE=<path>` — event log appended to `<path>` instead.
//! * `STH_AUDIT=1` — `sth-eval` runs `check_invariants()` after every
//!   refinement (see `evaluate_self_tuning`); not consulted here beyond
//!   [`audit_enabled`].
//! * `STH_FLIGHT=1|<N>|<path>` — flight recorder ring (see [`flight`]).
//!
//! Tests use [`force_metrics`]/[`force_audit`]/[`flight::force`] to opt
//! in without touching the environment of the whole test process.

pub mod flight;
pub mod hist;

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use hist::{HistKind, ValueHist};

use hist::N_HISTS;

/// The workspace-wide counter catalogue. One variant per hot-path event;
/// the JSON name is [`Counter::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Queries pushed through `evaluate_self_tuning`.
    Queries,
    /// Index executions: one per `count`/`collect_rows` against a dataset
    /// index (`KdCountTree`, `ScanCounter`). The feedback loop's contract
    /// is **one probe per query**.
    IndexProbes,
    /// Rows materialized into result streams.
    ResultRows,
    /// Counts answered from an already-materialized result set (candidate
    /// holes during drilling). Cheap; not index work.
    ResultRecounts,
    /// k-d tree nodes visited across all probes.
    KdNodesVisited,
    /// Holes drilled into the bucket tree.
    Drills,
    /// Bucket merges applied during compaction.
    Merges,
    /// Stale-heavy merge-heap rebuilds.
    HeapRebuilds,
    /// Sibling-merge box-extension fixpoints run: one per candidate pair
    /// of a parent whose memoized sibling geometry is rebuilt, plus one
    /// per applied sibling merge.
    SiblingFixpoints,
    /// Whole sibling groups skipped by the cached children-hull gate.
    HullGatePrunes,
    /// IPF sweeps over the constraint window.
    IpfSweeps,
    /// IPF inner scaling iterations (≥ sweeps × constraints when active).
    IpfInnerIters,
    /// Feedback constraints added to the consistency window.
    ConstraintsAdded,
    /// Constraints invalidated (ISOMER-style) for persistent violation.
    ConstraintsDropped,
    /// MineClus extraction rounds.
    ClusterRounds,
    /// MineClus medoid trials across all rounds.
    ClusterTrials,
    /// `STH_AUDIT` invariant checks executed.
    AuditChecks,
    /// Frozen snapshots published into a [`crate::snap::SnapshotCell`].
    SnapshotPublishes,
    /// Snapshot guards handed out by [`crate::snap::SnapshotCell::load`].
    SnapshotLoads,
    /// Delta records durably appended to a store's log.
    StoreDeltaAppends,
    /// Snapshot generations flushed by a store.
    StoreSnapshotFlushes,
    /// Invocations of the lane-oriented batch-estimate kernel
    /// (`FrozenHistogram::estimate_batch_kernel`).
    BatchKernelCalls,
    /// Candidate (query × child) lane expansions the batch kernel skipped —
    /// hull-gated lanes plus zero-overlap children that never spawned.
    BatchLanesPruned,
    /// Bytes written by snapshot-generation flushes (snapshot file +
    /// manifest), the store side of the serve timeline.
    StoreBytesFlushed,
    /// Mixed-tenant batches split and routed by a histogram registry.
    RegistryRoutes,
    /// Coalesced estimate services executed by the serve engine (one per
    /// `estimate_batch` call the reactor issues against a pinned
    /// snapshot, covering one or more queued requests).
    EngineServices,
    /// Engine services that answered more than one queued request in a
    /// single batch — the coalescing win counter.
    EngineCoalescedBatches,
    /// Queries dropped by the serve engine's deadline admission control.
    EngineShedQueries,
}

impl Counter {
    /// Every counter, in JSON/report order.
    pub const ALL: [Counter; 28] = [
        Counter::Queries,
        Counter::IndexProbes,
        Counter::ResultRows,
        Counter::ResultRecounts,
        Counter::KdNodesVisited,
        Counter::Drills,
        Counter::Merges,
        Counter::HeapRebuilds,
        Counter::SiblingFixpoints,
        Counter::HullGatePrunes,
        Counter::IpfSweeps,
        Counter::IpfInnerIters,
        Counter::ConstraintsAdded,
        Counter::ConstraintsDropped,
        Counter::ClusterRounds,
        Counter::ClusterTrials,
        Counter::AuditChecks,
        Counter::SnapshotPublishes,
        Counter::SnapshotLoads,
        Counter::StoreDeltaAppends,
        Counter::StoreSnapshotFlushes,
        Counter::BatchKernelCalls,
        Counter::BatchLanesPruned,
        Counter::StoreBytesFlushed,
        Counter::RegistryRoutes,
        Counter::EngineServices,
        Counter::EngineCoalescedBatches,
        Counter::EngineShedQueries,
    ];

    /// Stable snake_case name used in event-log JSON.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::Queries => "queries",
            Counter::IndexProbes => "index_probes",
            Counter::ResultRows => "result_rows",
            Counter::ResultRecounts => "result_recounts",
            Counter::KdNodesVisited => "kd_nodes_visited",
            Counter::Drills => "drills",
            Counter::Merges => "merges",
            Counter::HeapRebuilds => "heap_rebuilds",
            Counter::SiblingFixpoints => "sibling_fixpoints",
            Counter::HullGatePrunes => "hull_gate_prunes",
            Counter::IpfSweeps => "ipf_sweeps",
            Counter::IpfInnerIters => "ipf_inner_iters",
            Counter::ConstraintsAdded => "constraints_added",
            Counter::ConstraintsDropped => "constraints_dropped",
            Counter::ClusterRounds => "cluster_rounds",
            Counter::ClusterTrials => "cluster_trials",
            Counter::AuditChecks => "audit_checks",
            Counter::SnapshotPublishes => "snapshot_publishes",
            Counter::SnapshotLoads => "snapshot_loads",
            Counter::StoreDeltaAppends => "store_delta_appends",
            Counter::StoreSnapshotFlushes => "store_snapshot_flushes",
            Counter::BatchKernelCalls => "batch_kernel_calls",
            Counter::BatchLanesPruned => "batch_lanes_pruned",
            Counter::StoreBytesFlushed => "store_bytes_flushed",
            Counter::RegistryRoutes => "registry_routes",
            Counter::EngineServices => "engine_services",
            Counter::EngineCoalescedBatches => "engine_coalesced_batches",
            Counter::EngineShedQueries => "engine_shed_queries",
        }
    }
}

const N_COUNTERS: usize = Counter::ALL.len();

/// Value-distribution statistics tracked alongside the counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum StatKind {
    /// Rows materialized per index probe.
    RowsPerProbe,
    /// Mean relative constraint violation after each IPF pass.
    IpfViolation,
    /// Wall-clock seconds per MineClus extraction round.
    ClusterRoundSecs,
}

impl StatKind {
    /// Every stat, in JSON/report order.
    pub const ALL: [StatKind; 3] =
        [StatKind::RowsPerProbe, StatKind::IpfViolation, StatKind::ClusterRoundSecs];

    /// Stable snake_case name used in event-log JSON.
    pub const fn name(self) -> &'static str {
        match self {
            StatKind::RowsPerProbe => "rows_per_probe",
            StatKind::IpfViolation => "ipf_violation",
            StatKind::ClusterRoundSecs => "cluster_round_secs",
        }
    }
}

const N_STATS: usize = StatKind::ALL.len();

/// Aggregate of one value distribution: count / sum / min / max.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StatAgg {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (`+inf` when empty).
    pub min: f64,
    /// Largest recorded value (`-inf` when empty).
    pub max: f64,
}

impl Default for StatAgg {
    fn default() -> Self {
        Self { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl StatAgg {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn fold(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn absorb(&mut self, other: &StatAgg) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

thread_local! {
    static COUNTERS: [Cell<u64>; N_COUNTERS] = const { [const { Cell::new(0) }; N_COUNTERS] };
    static STATS: [Cell<StatAgg>; N_STATS] =
        [const { Cell::new(StatAgg { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }) }; N_STATS];
    // Dense per-kind bucket arrays, allocated lazily on first recording.
    // Dense keeps `record_hist` a single indexed bump; `snapshot` converts
    // to the sparse mergeable form.
    static HISTS: [RefCell<Vec<u64>>; N_HISTS] = const { [const { RefCell::new(Vec::new()) }; N_HISTS] };
}

// Tri-state force overrides: 0 = follow the environment, 1 = forced off,
// 2 = forced on. Tests use these; production code reads the env once.
static FORCE_METRICS: AtomicU8 = AtomicU8::new(0);
static FORCE_AUDIT: AtomicU8 = AtomicU8::new(0);

struct EnvCfg {
    metrics: bool,
    audit: bool,
    /// `None` = tracing off, `Some(None)` = stderr, `Some(Some(path))` = file.
    trace: Option<Option<String>>,
}

fn env_cfg() -> &'static EnvCfg {
    static CFG: OnceLock<EnvCfg> = OnceLock::new();
    CFG.get_or_init(|| {
        let flag = |k: &str| std::env::var(k).is_ok_and(|v| v == "1");
        let trace = match std::env::var("STH_TRACE") {
            Ok(v) if v.is_empty() || v == "0" => None,
            Ok(v) if v == "1" => Some(None),
            Ok(v) => Some(Some(v)),
            Err(_) => None,
        };
        EnvCfg { metrics: flag("STH_METRICS") || trace.is_some(), audit: flag("STH_AUDIT"), trace }
    })
}

/// `true` when counters/stats are being collected (`STH_METRICS=1`, any
/// `STH_TRACE` sink, or a [`force_metrics`] override).
#[inline]
pub fn metrics_enabled() -> bool {
    match FORCE_METRICS.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => env_cfg().metrics,
    }
}

/// `true` when the JSON event log is active (`STH_TRACE` set).
#[inline]
pub fn trace_enabled() -> bool {
    env_cfg().trace.is_some()
}

/// `true` when invariant auditing is requested (`STH_AUDIT=1` or a
/// [`force_audit`] override). The audit hook lives in `sth-eval`.
#[inline]
pub fn audit_enabled() -> bool {
    match FORCE_AUDIT.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => env_cfg().audit,
    }
}

/// Overrides the `STH_METRICS` gate for this process (tests).
pub fn force_metrics(on: bool) {
    FORCE_METRICS.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Overrides the `STH_AUDIT` gate for this process (tests).
pub fn force_audit(on: bool) {
    FORCE_AUDIT.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Adds `n` to a counter on the current thread. One relaxed load + branch
/// when disabled.
#[inline]
pub fn add(c: Counter, n: u64) {
    if metrics_enabled() {
        COUNTERS.with(|cs| {
            let cell = &cs[c as usize];
            cell.set(cell.get() + n);
        });
    }
}

/// Increments a counter by one.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Convenience for index implementations: accounts one probe's
/// materialized result stream ([`Counter::ResultRows`] plus the
/// [`StatKind::RowsPerProbe`] distribution).
#[inline]
pub fn note_rows_materialized(rows: usize) {
    if metrics_enabled() {
        add(Counter::ResultRows, rows as u64);
        record(StatKind::RowsPerProbe, rows as f64);
    }
}

/// Records one value into a distribution stat.
#[inline]
pub fn record(s: StatKind, v: f64) {
    if metrics_enabled() {
        STATS.with(|ss| {
            let cell = &ss[s as usize];
            let mut agg = cell.get();
            agg.fold(v);
            cell.set(agg);
        });
    }
}

/// Records one value into a log-linear value histogram on the current
/// thread. One relaxed load + branch when disabled; one bucket-index
/// computation plus an array bump when enabled.
#[inline]
pub fn record_hist(k: HistKind, v: u64) {
    if metrics_enabled() {
        HISTS.with(|hs| {
            let mut dense = hs[k as usize].borrow_mut();
            if dense.is_empty() {
                dense.resize(hist::N_BUCKETS, 0);
            }
            dense[hist::bucket_index(v)] += 1;
        });
    }
}

/// Reads one counter's current value on this thread. Cheap enough to
/// bracket a single operation (the serve timeline reads kernel counters
/// around every batch).
#[inline]
pub fn read(c: Counter) -> u64 {
    COUNTERS.with(|cs| cs[c as usize].get())
}

/// RAII latency timer: records the guarded scope's wall-clock nanoseconds
/// into a value histogram on drop. Construction is free when metrics are
/// disabled.
#[must_use = "a histogram timer measures the scope it is bound to"]
pub struct HistTimer {
    active: Option<(HistKind, Instant)>,
}

/// Opens a latency scope recording into histogram `k` when it drops.
#[inline]
pub fn time_hist(k: HistKind) -> HistTimer {
    let active = metrics_enabled().then(|| (k, Instant::now()));
    HistTimer { active }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some((k, start)) = self.active.take() {
            record_hist(k, start.elapsed().as_nanos() as u64);
        }
    }
}

/// A point-in-time copy of this thread's counters and stats. Deltas of two
/// snapshots bracket a unit of single-threaded work exactly; snapshots
/// from different workers [`Snapshot::merge`] associatively.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    counters: [u64; N_COUNTERS],
    stats: [StatAgg; N_STATS],
    hists: [ValueHist; N_HISTS],
}

/// Captures the current thread's counters, stats and histograms.
pub fn snapshot() -> Snapshot {
    let mut s = Snapshot::default();
    COUNTERS.with(|cs| {
        for (out, cell) in s.counters.iter_mut().zip(cs.iter()) {
            *out = cell.get();
        }
    });
    STATS.with(|ss| {
        for (out, cell) in s.stats.iter_mut().zip(ss.iter()) {
            *out = cell.get();
        }
    });
    HISTS.with(|hs| {
        for (out, cell) in s.hists.iter_mut().zip(hs.iter()) {
            let dense = cell.borrow();
            for (i, &c) in dense.iter().enumerate() {
                if c > 0 {
                    out.record_n(hist::bucket_high(i), c);
                }
            }
        }
    });
    s
}

impl Snapshot {
    /// Value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Aggregate of one stat.
    pub fn stat(&self, s: StatKind) -> StatAgg {
        self.stats[s as usize]
    }

    /// One value histogram.
    pub fn hist(&self, k: HistKind) -> &ValueHist {
        &self.hists[k as usize]
    }

    /// Events since `earlier` (a snapshot taken before this one on the same
    /// thread). Counters and histogram buckets subtract exactly; stat
    /// min/max cannot be un-merged, so the delta keeps this snapshot's
    /// bounds when any values were recorded.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = Snapshot::default();
        for i in 0..N_COUNTERS {
            d.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        for i in 0..N_STATS {
            let (now, was) = (self.stats[i], earlier.stats[i]);
            if now.count > was.count {
                d.stats[i] = StatAgg {
                    count: now.count - was.count,
                    sum: now.sum - was.sum,
                    min: now.min,
                    max: now.max,
                };
            }
        }
        for i in 0..N_HISTS {
            d.hists[i] = self.hists[i].delta(&earlier.hists[i]);
        }
        d
    }

    /// Accumulates another snapshot (e.g. a parallel worker's per-run
    /// delta) into this one.
    pub fn merge(&mut self, other: &Snapshot) {
        for i in 0..N_COUNTERS {
            self.counters[i] += other.counters[i];
        }
        for i in 0..N_STATS {
            self.stats[i].absorb(&other.stats[i]);
        }
        for i in 0..N_HISTS {
            self.hists[i].merge(&other.hists[i]);
        }
    }

    /// `true` when nothing was counted or recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.stats.iter().all(|s| s.count == 0)
            && self.hists.iter().all(|h| h.is_empty())
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters": {...}, "stats": {...}, "hists": {...}}`. All counters
    /// appear (zeros included) so consumers can rely on the full
    /// catalogue; stats and histograms appear only when they recorded at
    /// least one value.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {}", c.name(), self.get(*c));
        }
        s.push_str("}, \"stats\": {");
        let mut first = true;
        for k in StatKind::ALL {
            let agg = self.stat(k);
            if agg.count == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(
                s,
                "\"{}\": {{\"count\": {}, \"sum\": {:.6}, \"min\": {:.6}, \"max\": {:.6}}}",
                k.name(),
                agg.count,
                agg.sum,
                agg.min,
                agg.max
            );
        }
        s.push_str("}, \"hists\": {");
        let mut first = true;
        for k in HistKind::ALL {
            let h = self.hist(k);
            if h.is_empty() {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(s, "\"{}\": {}", k.name(), h.to_json());
        }
        s.push_str("}}");
        s
    }
}

/// One field value in a structured event.
#[derive(Clone, Copy, Debug)]
pub enum FieldValue<'a> {
    /// A JSON string (escaped on write).
    Str(&'a str),
    /// A floating-point number.
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// Pre-rendered JSON embedded verbatim (e.g. [`Snapshot::to_json`]).
    Raw(&'a str),
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Renders one event line without writing it — the pure half of [`event`],
/// used directly by tests.
pub fn format_event(kind: &str, fields: &[(&str, FieldValue)]) -> String {
    let mut s = String::with_capacity(64);
    let _ = write!(
        s,
        "{{\"ev\": \"{}\", \"t_us\": {}",
        json_escape(kind),
        process_start().elapsed().as_micros()
    );
    for (key, value) in fields {
        let _ = write!(s, ", \"{}\": ", json_escape(key));
        match value {
            FieldValue::Str(v) => {
                let _ = write!(s, "\"{}\"", json_escape(v));
            }
            FieldValue::Num(v) => {
                if v.is_finite() {
                    let _ = write!(s, "{v:.6}");
                } else {
                    let _ = write!(s, "\"{v}\"");
                }
            }
            FieldValue::Int(v) => {
                let _ = write!(s, "{v}");
            }
            FieldValue::Raw(v) => s.push_str(v),
        }
    }
    s.push('}');
    s
}

enum SinkOut {
    Stderr,
    File(std::fs::File),
}

fn sink() -> Option<&'static Mutex<SinkOut>> {
    static SINK: OnceLock<Option<Mutex<SinkOut>>> = OnceLock::new();
    SINK.get_or_init(|| {
        let out = match env_cfg().trace.as_ref()? {
            None => SinkOut::Stderr,
            Some(path) => SinkOut::File(
                std::fs::OpenOptions::new().create(true).append(true).open(path).ok()?,
            ),
        };
        Some(Mutex::new(out))
    })
    .as_ref()
}

/// `true` when [`event`] has any consumer: the `STH_TRACE` sink or the
/// flight recorder. Call sites with non-trivial field construction (e.g.
/// a [`Snapshot::to_json`]) gate on this instead of [`trace_enabled`] so
/// flight-only runs still capture their events.
#[inline]
pub fn event_enabled() -> bool {
    trace_enabled() || flight::active()
}

/// Emits one structured event as a JSON line:
/// `{"ev": "<kind>", "t_us": <µs since process start>, ...fields}`.
/// The line goes to the `STH_TRACE` sink when tracing is on and into the
/// [`flight`] ring when the recorder is active (independently gated).
/// No-op (two relaxed loads + branches) when both are off.
pub fn event(kind: &str, fields: &[(&str, FieldValue)]) {
    let to_flight = flight::active();
    let to_trace = trace_enabled();
    if !to_flight && !to_trace {
        return;
    }
    let line = format_event(kind, fields);
    if to_flight {
        flight::push_line(&line);
    }
    if to_trace {
        let Some(sink) = sink() else { return };
        let mut out = sink.lock().unwrap_or_else(|e| e.into_inner());
        let _ = match &mut *out {
            SinkOut::Stderr => writeln!(std::io::stderr().lock(), "{line}"),
            SinkOut::File(f) => writeln!(f, "{line}"),
        };
    }
}

/// RAII span timer: emits a `span` event with the elapsed time on drop.
/// Construction is free when tracing is disabled.
#[must_use = "a span measures the scope it is bound to"]
pub struct Span {
    active: Option<(&'static str, Instant)>,
}

/// Opens a span named `name`; the returned guard emits
/// `{"ev": "span", "name": ..., "elapsed_us": ...}` when dropped (to the
/// trace sink and/or the flight ring, whichever is active).
pub fn span(name: &'static str) -> Span {
    let active = event_enabled().then(|| (name, Instant::now()));
    Span { active }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, start)) = self.active.take() {
            event(
                "span",
                &[
                    ("name", FieldValue::Str(name)),
                    ("elapsed_us", FieldValue::Int(start.elapsed().as_micros() as u64)),
                ],
            );
        }
    }
}

/// Finds `"key": "value"` in one event line and returns the unescaped
/// value. Scanner for the format [`format_event`] writes, not a general
/// JSON parser (same contract as `bench::parse_report`).
pub fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                esc => out.push(esc),
            },
            c => out.push(c),
        }
    }
    None
}

/// Finds `"key": <number>` in one event line and parses it.
pub fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Finds `"key": <integer>` and parses it exactly — counters are u64 and
/// must not round-trip through f64 (values above 2^53 would round).
/// Falls back to [`field_num`] truncation when the field was written as a
/// float.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    match rest[..end].parse() {
        Ok(v) => Some(v),
        Err(_) => field_num(line, key).map(|v| v as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test drives the force flag through both states: the flag is
    // process-global and the test harness runs tests concurrently, so
    // splitting this up would race.
    #[test]
    fn counters_are_thread_local_and_gateable() {
        force_metrics(false);
        let off = snapshot();
        add(Counter::Queries, 7);
        record(StatKind::IpfViolation, 1.0);
        assert!(snapshot().delta(&off).is_empty());

        force_metrics(true);
        let before = snapshot();
        add(Counter::Drills, 3);
        incr(Counter::Merges);
        record(StatKind::RowsPerProbe, 10.0);
        record(StatKind::RowsPerProbe, 2.0);
        let d = snapshot().delta(&before);
        assert_eq!(d.get(Counter::Drills), 3);
        assert_eq!(d.get(Counter::Merges), 1);
        let agg = d.stat(StatKind::RowsPerProbe);
        assert_eq!(agg.count, 2);
        assert_eq!(agg.sum, 12.0);
        assert_eq!(agg.min, 2.0);
        assert_eq!(agg.max, 10.0);
        assert_eq!(agg.mean(), 6.0);

        // Another thread's counts never leak into this thread's snapshot.
        let here = snapshot();
        std::thread::spawn(|| {
            force_metrics(true);
            add(Counter::Drills, 1_000);
        })
        .join()
        .unwrap();
        assert_eq!(snapshot(), here);
    }

    #[test]
    fn merge_accumulates_across_snapshots() {
        let mut a = Snapshot::default();
        let mut b = Snapshot::default();
        a.counters[Counter::Drills as usize] = 2;
        a.stats[StatKind::RowsPerProbe as usize].fold(5.0);
        b.counters[Counter::Drills as usize] = 3;
        b.stats[StatKind::RowsPerProbe as usize].fold(1.0);
        a.merge(&b);
        assert_eq!(a.get(Counter::Drills), 5);
        let agg = a.stat(StatKind::RowsPerProbe);
        assert_eq!((agg.count, agg.sum, agg.min, agg.max), (2, 6.0, 1.0, 5.0));
    }

    #[test]
    fn snapshot_json_roundtrips_through_field_scanners() {
        let mut s = Snapshot::default();
        s.counters[Counter::IndexProbes as usize] = 42;
        s.stats[StatKind::IpfViolation as usize].fold(0.25);
        let json = s.to_json();
        assert_eq!(field_u64(&json, "index_probes"), Some(42));
        assert_eq!(field_u64(&json, "queries"), Some(0), "zero counters still present");
        assert!(json.contains("\"ipf_violation\""));
        assert!(!json.contains("rows_per_probe"), "empty stats omitted");
    }

    #[test]
    fn format_event_is_parseable() {
        let inner = Snapshot::default();
        let line = format_event(
            "run",
            &[
                ("variant", FieldValue::Str("initialized(\"x\")")),
                ("seed", FieldValue::Int(7)),
                ("nae", FieldValue::Num(0.5)),
                ("obs", FieldValue::Raw(&inner.to_json())),
            ],
        );
        assert_eq!(field_str(&line, "ev").as_deref(), Some("run"));
        assert_eq!(field_str(&line, "variant").as_deref(), Some("initialized(\"x\")"));
        assert_eq!(field_u64(&line, "seed"), Some(7));
        assert_eq!(field_num(&line, "nae"), Some(0.5));
        assert!(field_num(&line, "t_us").is_some());
        assert_eq!(field_u64(&line, "drills"), Some(0));
    }

    #[test]
    fn spans_are_free_when_disabled() {
        let s = span("noop");
        assert!(s.active.is_none() || event_enabled());
        drop(s);
    }

    #[test]
    fn snapshot_carries_hists_through_delta_and_merge() {
        // Built directly (no thread-local recording) so this test does not
        // touch the process-global force flags the gate test owns.
        let mut before = Snapshot::default();
        before.hists[HistKind::RefineNs as usize].record(500);
        let mut now = before.clone();
        now.hists[HistKind::RefineNs as usize].record(1_000);
        now.hists[HistKind::RefineNs as usize].record(2_000);
        now.hists[HistKind::ServeBatchFill as usize].record(32);
        let d = now.delta(&before);
        let h = d.hist(HistKind::RefineNs);
        assert_eq!(h.count(), 2);
        assert!(h.p50() >= 1_000 && h.max() >= 2_000);
        assert_eq!(d.hist(HistKind::ServeBatchFill).count(), 1);
        assert!(!d.is_empty());
        let mut rebuilt = before.clone();
        rebuilt.merge(&d);
        assert_eq!(rebuilt, now, "delta∘merge round-trips");
        let json = d.to_json();
        assert!(json.contains("\"refine_ns\": {\"count\": 2"));
        assert!(!json.contains("store_append_ns"), "empty hists omitted");
    }
}
