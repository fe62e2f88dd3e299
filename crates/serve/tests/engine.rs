//! Engine semantics against a deterministic mock backend: closed-loop
//! accounting invariants, exact shed accounting under forced overload,
//! panic flight dumps, and open-loop result capture.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use sth_geometry::Rect;
use sth_platform::obs;
use sth_serve::{route_batch, run_open, serve_closed, Backend, EngineConfig, Pinned, TenantId};

/// A pinned mock snapshot: estimates are a pure function of the query and
/// the epoch, so bit-identity checks are trivial.
struct MockPinned {
    tenant: TenantId,
    epoch: u64,
    /// Estimating sleeps this long per call (overload lever).
    delay: Duration,
    /// Estimating panics (flight-dump lever).
    poisoned: bool,
}

impl Pinned for MockPinned {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn estimate_batch(&self, queries: &[Rect], out: &mut Vec<f64>) {
        if self.poisoned {
            panic!("injected estimator failure for tenant {}", self.tenant);
        }
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        out.clear();
        out.extend(
            queries
                .iter()
                .map(|q| q.lo()[0].abs() + self.tenant as f64 * 10.0 + self.epoch as f64 * 1000.0),
        );
    }

    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Mock backend: per-tenant epochs advance externally; `repin` follows the
/// real `load_if_newer` contract (None iff epoch unchanged, seen=0 pins).
struct MockBackend {
    epochs: Vec<AtomicU64>,
    delay: Duration,
    poisoned: bool,
}

impl MockBackend {
    fn new(tenants: usize) -> Self {
        Self {
            epochs: (0..tenants).map(|_| AtomicU64::new(1)).collect(),
            delay: Duration::ZERO,
            poisoned: false,
        }
    }
}

impl Backend for MockBackend {
    type Pinned = MockPinned;

    fn tenant_count(&self) -> usize {
        self.epochs.len()
    }

    fn repin(&self, tenant: TenantId, seen: u64) -> Option<MockPinned> {
        let epoch = self.epochs[tenant].load(Ordering::Acquire);
        if epoch == seen {
            return None;
        }
        Some(MockPinned { tenant, epoch, delay: self.delay, poisoned: self.poisoned })
    }
}

fn mixed_stream(tenants: usize, len: usize) -> Vec<(TenantId, Rect)> {
    (0..len)
        .map(|i| {
            let lo = i as f64;
            (i % tenants, Rect::from_bounds(&[lo, -1.0], &[lo + 0.5, 1.0]))
        })
        .collect()
}

fn run_closed(
    backend: &MockBackend,
    stream: &[(TenantId, Rect)],
    streams: usize,
    batch: usize,
    cfg: &EngineConfig,
    publishes: u64,
) -> sth_serve::EngineRun {
    let done = AtomicBool::new(false);
    let started = AtomicU64::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while started.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            for _ in 0..publishes {
                std::thread::sleep(Duration::from_millis(2));
                for e in &backend.epochs {
                    e.fetch_add(1, Ordering::AcqRel);
                }
            }
            done.store(true, Ordering::Release);
        });
        serve_closed(backend, stream, streams, batch, cfg, &done, &started)
    })
}

#[test]
fn closed_loop_accounts_for_every_offered_query() {
    let backend = MockBackend::new(3);
    let stream = mixed_stream(3, 48);
    let run = run_closed(&backend, &stream, 4, 8, &EngineConfig::default(), 3);
    for t in 0..3 {
        assert_eq!(
            run.offered[t],
            run.answered[t] + run.shed[t],
            "tenant {t}: every offered query is answered or shed"
        );
        assert_eq!(run.shed[t], 0, "no deadline, nothing shed");
        assert!(run.answered[t] > 0, "tenant {t} saw traffic");
    }
    assert_eq!(run.streams.len(), 4);
    for (s, st) in run.streams.iter().enumerate() {
        assert!(st.batches >= 1, "stream {s} completed at least its final batch");
        assert!(st.answered >= 1, "stream {s} answered something");
        assert_eq!(st.shed, 0);
        assert!(!st.epochs.is_empty(), "stream {s} observed epochs");
        assert!(st.epochs.windows(2).all(|w| w[0] < w[1]), "epochs ascending");
    }
    let answered_by_streams: u64 = run.streams.iter().map(|s| s.answered).sum();
    assert_eq!(answered_by_streams, run.answered.iter().sum::<u64>());
    assert_eq!(run.stats.shed_requests, 0);
    assert!(run.stats.services > 0);
    assert!(run.stats.pins >= 3, "each tenant pinned at least once");
    // The final epoch (1 initial + publishes) is served from by every
    // stream's final batch.
    for st in &run.streams {
        assert_eq!(*st.epochs.last().unwrap(), 4, "final batch served from the final epoch");
    }
}

#[test]
fn forced_overload_sheds_exactly_and_loudly() {
    let mut backend = MockBackend::new(2);
    backend.delay = Duration::from_millis(3);
    let stream = mixed_stream(2, 32);
    let cfg = EngineConfig {
        threads: 2,
        coalesce: 1,
        deadline: Some(Duration::from_micros(1)),
    };
    let run = run_closed(&backend, &stream, 6, 8, &cfg, 2);
    let mut total_shed = 0;
    for t in 0..2 {
        assert_eq!(
            run.offered[t],
            run.answered[t] + run.shed[t],
            "tenant {t}: shed accounting is exact, never silent"
        );
        total_shed += run.shed[t];
    }
    assert!(total_shed > 0, "tiny deadline + slow estimator must shed");
    assert_eq!(run.stats.shed_queries, total_shed);
    let stream_shed: u64 = run.streams.iter().map(|s| s.shed).sum();
    assert_eq!(stream_shed, total_shed, "per-stream shed sums to per-tenant shed");
}

#[test]
fn coalescing_batches_multiple_requests_per_service() {
    let backend = MockBackend::new(1);
    let stream = mixed_stream(1, 16);
    // Single engine thread, many streams: requests from different streams
    // pile up in the one queue and must coalesce.
    let cfg = EngineConfig { threads: 1, coalesce: 64, deadline: None };
    let run = run_closed(&backend, &stream, 8, 4, &cfg, 1);
    assert!(
        run.stats.coalesced_services > 0,
        "8 streams through 1 thread must produce coalesced services"
    );
    assert!(run.stats.max_service_queries > 4, "a service exceeded one request's batch");
    assert_eq!(run.offered[0], run.answered[0]);
}

#[test]
fn engine_thread_panic_dumps_flight_recorder_once() {
    let mut backend = MockBackend::new(1);
    backend.poisoned = true;
    let stream = mixed_stream(1, 8);
    obs::flight::force(true);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_closed(&backend, &stream, 2, 4, &EngineConfig::default(), 0)
    }));
    obs::flight::force(false);
    let err = result.expect_err("poisoned estimator must propagate the panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&'static str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("injected estimator failure"), "original payload preserved: {msg}");
    let dump = obs::flight::last_dump().expect("panic must dump the flight recorder");
    assert!(
        dump.contains("panic in serve engine thread"),
        "dump names the engine thread: {dump}"
    );
    assert!(dump.contains("tenant 0"), "dump names the owning tenant: {dump}");
}

#[test]
fn open_loop_captures_results_in_injection_order() {
    let backend = MockBackend::new(2);
    let cfg = EngineConfig { threads: 2, coalesce: 16, deadline: None };
    let rects: Vec<Rect> = (0..40)
        .map(|i| Rect::from_bounds(&[i as f64, 0.0], &[i as f64 + 0.25, 1.0]))
        .collect();
    let (report, slots) = run_open(&backend, &cfg, true, |inj| {
        let mut slots = Vec::new();
        for (i, r) in rects.iter().enumerate() {
            slots.push((i, inj.inject(i % 2, vec![r.clone()])));
        }
        slots
    });
    assert_eq!(report.offered_total(), 40);
    assert_eq!(report.answered_total(), 40);
    assert_eq!(report.shed_total(), 0);
    assert_eq!(report.latency.count(), 40, "every injected request is a latency sample");
    let results = report.results.expect("capture was on");
    assert_eq!(results.len(), 40);
    for (i, slot) in slots {
        let tenant = i % 2;
        let expected = rects[i].lo()[0].abs() + tenant as f64 * 10.0 + 1000.0;
        assert_eq!(
            results[slot].to_bits(),
            expected.to_bits(),
            "request {i} landed at its slot with the exact estimate"
        );
    }
}

#[test]
fn open_loop_survives_producer_panic() {
    let backend = MockBackend::new(1);
    let cfg = EngineConfig { threads: 2, ..EngineConfig::default() };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_open(&backend, &cfg, false, |inj| {
            inj.inject(0, vec![Rect::from_bounds(&[0.0, 0.0], &[1.0, 1.0])]);
            panic!("producer bailed");
        })
    }));
    // The producer's unwind must not hang the engine threads; the scope
    // tears down and the original payload propagates.
    let err = result.expect_err("producer panic propagates");
    let msg = err.downcast_ref::<&'static str>().copied().unwrap_or_default();
    assert_eq!(msg, "producer bailed");
}

#[test]
fn route_batch_groups_by_tenant_in_input_order() {
    let stream = mixed_stream(3, 10);
    let groups = route_batch(&stream);
    assert_eq!(groups.len(), 3);
    let mut seen = 0;
    for (tenant, idxs) in &groups {
        assert!(idxs.windows(2).all(|w| w[0] < w[1]), "input order preserved");
        for &j in idxs {
            assert_eq!(stream[j].0, *tenant);
        }
        seen += idxs.len();
    }
    assert_eq!(seen, 10, "every query routed exactly once");
}

#[test]
fn uncoalesced_open_loop_serves_every_request_alone() {
    // One slow engine thread: requests pile up behind every service.
    let mut backend = MockBackend::new(2);
    backend.delay = Duration::from_millis(1);
    let cfg = EngineConfig { threads: 1, coalesce: 1, deadline: None };
    // Mostly one-query requests, so any cap above one would merge them.
    let sizes: Vec<usize> = (0..30).map(|i| if i % 5 == 4 { 3 } else { 1 }).collect();
    let (report, ()) = run_open(&backend, &cfg, false, |inj| {
        for (i, &n) in sizes.iter().enumerate() {
            let lo = i as f64;
            let rects = vec![Rect::from_bounds(&[lo, 0.0], &[lo + 0.5, 1.0]); n];
            inj.inject(i % 2, rects);
        }
    });
    let queries: u64 = sizes.iter().map(|&n| n as u64).sum();
    assert_eq!(report.answered_total(), queries);
    assert_eq!(report.latency.count(), sizes.len() as u64);
    // A cap of one query never merges two waiting requests: one service
    // per request, and the largest service is the largest request.
    assert_eq!(report.stats.services, sizes.len() as u64);
    assert_eq!(report.stats.coalesced_services, 0);
    assert_eq!(report.stats.max_service_queries, 3);
}

#[test]
fn open_loop_without_capture_hands_out_no_slots() {
    let backend = MockBackend::new(3);
    let cfg = EngineConfig { threads: 2, ..EngineConfig::default() };
    let (report, slots) = run_open(&backend, &cfg, false, |inj| {
        (0..12)
            .map(|i| inj.inject(i % 3, vec![Rect::from_bounds(&[0.0, 0.0], &[1.0, 1.0])]))
            .collect::<Vec<usize>>()
    });
    assert!(slots.iter().all(|&s| s == usize::MAX), "slots without capture: {slots:?}");
    assert!(report.results.is_none());
    assert_eq!(report.offered, [4, 4, 4]);
    assert_eq!(report.answered, report.offered);
}

#[test]
#[should_panic(expected = "unknown tenant")]
fn injecting_for_an_unknown_tenant_panics() {
    let backend = MockBackend::new(2);
    let cfg = EngineConfig { threads: 1, ..EngineConfig::default() };
    run_open(&backend, &cfg, false, |inj| {
        inj.inject(2, vec![Rect::from_bounds(&[0.0, 0.0], &[1.0, 1.0])]);
    });
}

#[test]
#[should_panic(expected = "the backend does not have")]
fn closed_loop_rejects_a_stream_routed_past_the_backend() {
    let backend = MockBackend::new(2);
    let stream = mixed_stream(3, 9);
    let (done, started) = (AtomicBool::new(true), AtomicU64::new(0));
    serve_closed(&backend, &stream, 1, 4, &EngineConfig::default(), &done, &started);
}

#[test]
fn cell_backend_repins_only_after_a_publish() {
    use sth_platform::snap::SnapshotCell;
    use sth_query::{CardinalityEstimator, SelfTuning, WorkloadSpec};

    let data = sth_data::cross::CrossSpec::cross2d().scaled(0.03).generate();
    let index = sth_index::KdCountTree::build(&data);
    let wl = WorkloadSpec::paper(0.01, 19).generate(data.domain(), None);
    let mut hist = sth_core::build_uninitialized(&data, 32);
    let cell = SnapshotCell::new(hist.freeze());
    let backend = sth_serve::CellBackend::new(&cell);
    assert_eq!(backend.tenant_count(), 1);
    let first = backend.repin(0, 0).expect("seen = 0 always pins");
    // A single cell has one clock: the composite epoch is the epoch.
    assert_eq!((first.epoch(), first.composite_epoch()), (1, 1));
    assert!(backend.repin(0, 1).is_none(), "a current pin was refreshed");

    for q in wl.queries().iter().take(40) {
        hist.refine(q.rect(), &index);
    }
    cell.publish(hist.freeze());
    let second = backend.repin(0, 1).expect("a publish must refresh the pin");
    assert_eq!((second.epoch(), second.composite_epoch()), (2, 2));
    second.check_invariants().unwrap();
    let queries: Vec<Rect> = wl.queries()[40..80].iter().map(|q| q.rect().clone()).collect();
    let mut out = vec![f64::NAN; 3]; // stale garbage: must clear
    Pinned::estimate_batch(&second, &queries, &mut out);
    assert_eq!(out.len(), queries.len());
    for (q, v) in queries.iter().zip(&out) {
        assert_eq!(v.to_bits(), CardinalityEstimator::estimate(&hist, q).to_bits());
    }
}
