//! Multi-tenant histogram registry.
//!
//! The paper's histograms are per-(table, column-set) structures; a
//! realistic serving tier holds thousands of them behind one surface. The
//! [`Registry`] owns one tenant per [`TenantKey`], routes mixed-tenant
//! estimate batches to the right histogram ([`Registry::estimate_batch_routed`],
//! preserving the estimator zoo's clear-then-fill contract), and publishes
//! each tenant as one frozen snapshot ([`TenantView`]) in its own
//! [`SnapshotCell`]: a reader pins a whole tenant with a single load and
//! answers every estimate with one walk over one bucket tree.
//!
//! ## Epochs, two axes of them
//!
//! * **Tenant epochs** — the tenant's cell counts its publishes, so the
//!   tenant epoch stays contiguous from 1 — the shape [`EpochTimeline`]
//!   wants for per-tenant attribution.
//! * **Composite epochs** — a registry-wide [`EpochClock`] ticks once per
//!   publish, totally ordering all tenants' publishes on one timeline for
//!   the aggregate report. Each view carries the composite epoch of the
//!   publish that installed it.
//!
//! [`serve_registry`] drives the whole thing end to end: tenant trainers
//! run on scoped threads (tenants dealt round-robin across workers; each
//! turn absorbs a tenant's next slice of training queries and immediately
//! publishes that dirty tenant), while the [`sth_serve`] engine serves the
//! mixed-tenant stream — routing each generated batch by tenant
//! ([`sth_serve::route_batch`]), answering each tenant's requests from one
//! cached pin (refreshed only when the tenant epoch moves), and
//! attributing every request to both the tenant epoch and the composite
//! epoch. Obs counters and latency samples roll up per-tenant and in
//! aggregate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sth_geometry::Rect;
use sth_histogram::{FrozenHistogram, StHoles};
use sth_index::{RangeCounter, ResultSetCounter};
use sth_platform::obs;
use sth_platform::snap::{EpochClock, SnapshotCell, SnapshotGuard};
use sth_query::{CardinalityEstimator, Estimator, SelfTuning, Workload};
use sth_serve::{
    route_batch, serve_closed, Backend, EngineConfig, EngineStats, EpochTimeline, Pinned,
    ReaderStats, TenantId,
};

/// Identity of one histogram tenant: the table it models and the column
/// subspace (ascending dimension indices) it covers.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantKey {
    /// Table (or dataset) name.
    pub table: String,
    /// Column subspace the histogram covers, as dimension indices.
    pub subspace: Vec<u32>,
}

impl TenantKey {
    /// Convenience constructor.
    pub fn new(table: impl Into<String>, subspace: impl Into<Vec<u32>>) -> Self {
        Self { table: table.into(), subspace: subspace.into() }
    }
}

impl std::fmt::Display for TenantKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[", self.table)?;
        for (i, d) in self.subspace.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// One tenant's published state: the frozen snapshot of its histogram and
/// the composite epoch of the publish that installed it. Readers pin it
/// with a single [`Registry::load`]; the guard keeps it alive no matter
/// what the trainer republishes meanwhile.
#[derive(Clone, Debug)]
pub struct TenantView {
    frozen: FrozenHistogram,
    composite_epoch: u64,
}

impl TenantView {
    /// Scalar estimate from the tenant's frozen snapshot.
    pub fn estimate(&self, q: &Rect) -> f64 {
        self.frozen.estimate(q)
    }

    /// Batch estimate from the tenant's frozen snapshot; clears then
    /// fills `out`.
    pub fn estimate_batch(&self, queries: &[Rect], out: &mut Vec<f64>) {
        self.frozen.estimate_batch(queries, out)
    }

    /// The composite epoch of the publish that installed this view.
    pub fn composite_epoch(&self) -> u64 {
        self.composite_epoch
    }

    /// The snapshot's structural invariants. Serve readers run this under
    /// `STH_AUDIT=1`.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.frozen.check_invariants()
    }
}

/// What one [`Registry::publish`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PublishOutcome {
    /// The tenant's new epoch.
    pub tenant_epoch: u64,
    /// The registry-wide composite epoch of this publish.
    pub composite_epoch: u64,
    /// Always 1: every publish replaces the tenant's one snapshot. Kept,
    /// with `shard_skips`, while the benchmark's
    /// `registry.shard_publish_frac` metric still reads them.
    pub shard_publishes: u64,
    /// Always 0; see `shard_publishes`.
    pub shard_skips: u64,
}

struct Tenant {
    key: TenantKey,
    cell: SnapshotCell<TenantView>,
    /// Orders this tenant's concurrent publishers (see
    /// [`Registry::publish`]). It guards no data, so a lock poisoned by a
    /// panicking publisher is safe to take again.
    publish_lock: Mutex<()>,
}

/// The multi-tenant histogram registry. See the module docs.
#[derive(Default)]
pub struct Registry {
    tenants: Vec<Tenant>,
    by_key: BTreeMap<TenantKey, TenantId>,
    clock: EpochClock,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tenant at its initial histogram state. The tenant
    /// starts at epoch 1 (the [`SnapshotCell`] convention); composite
    /// epoch 1 denotes "registered, never republished".
    ///
    /// Panics on a duplicate key — tenant identity is the registry's one
    /// uniqueness invariant.
    pub fn register(&mut self, key: TenantKey, hist: &StHoles) -> TenantId {
        assert!(
            !self.by_key.contains_key(&key),
            "tenant {key} is already registered"
        );
        let view = TenantView { frozen: hist.freeze(), composite_epoch: self.clock.now() };
        let id = self.tenants.len();
        self.tenants.push(Tenant {
            key: key.clone(),
            cell: SnapshotCell::new(view),
            publish_lock: Mutex::new(()),
        });
        self.by_key.insert(key, id);
        id
    }

    /// Publishes the tenant's current histogram state: freezes it, ticks
    /// the composite clock and swaps the new view into the tenant's cell.
    /// The freeze runs outside the tenant's lock; the tick and the swap
    /// run under it, so a racing publisher cannot install an older
    /// composite epoch after a newer one.
    pub fn publish(&self, id: TenantId, hist: &StHoles) -> PublishOutcome {
        let tenant = &self.tenants[id];
        let frozen = hist.freeze();
        let _order = tenant.publish_lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let composite_epoch = self.clock.tick();
        let tenant_epoch = tenant.cell.publish(TenantView { frozen, composite_epoch });
        PublishOutcome { tenant_epoch, composite_epoch, shard_publishes: 1, shard_skips: 0 }
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The key of a registered tenant.
    pub fn key(&self, id: TenantId) -> &TenantKey {
        &self.tenants[id].key
    }

    /// Looks a tenant up by key.
    pub fn id_of(&self, key: &TenantKey) -> Option<TenantId> {
        self.by_key.get(key).copied()
    }

    /// Pins the tenant's current view.
    pub fn load(&self, id: TenantId) -> SnapshotGuard<TenantView> {
        self.tenants[id].cell.load()
    }

    /// Pins the tenant's current view only if its epoch differs from
    /// `seen` (`seen = 0` always pins) — the engine's pin-cache refresh.
    pub fn load_if_newer(&self, id: TenantId, seen: u64) -> Option<SnapshotGuard<TenantView>> {
        self.tenants[id].cell.load_if_newer(seen)
    }

    /// The tenant's current epoch.
    pub fn tenant_epoch(&self, id: TenantId) -> u64 {
        self.tenants[id].cell.epoch()
    }

    /// The registry-wide composite epoch (reading of the shared clock).
    pub fn composite_epoch(&self) -> u64 {
        self.clock.now()
    }

    /// Routes a mixed-tenant batch: splits by tenant, pins each tenant's
    /// view once, answers each sub-batch through the frozen batch path
    /// (kernel-sized sub-batches ride the lane kernel), and scatters the
    /// results back in input order. Clears then fills `out`.
    ///
    /// Bit-identical to estimating each query alone against its tenant:
    /// the batch kernel is proven per-query bit-identical to the scalar
    /// walk, so no grouping decision can move an estimate's bits.
    pub fn estimate_batch_routed(&self, batch: &[(TenantId, Rect)], out: &mut Vec<f64>) {
        obs::incr(obs::Counter::RegistryRoutes);
        out.clear();
        out.resize(batch.len(), 0.0);
        let mut rects = Vec::new();
        let mut sub = Vec::new();
        for (id, idxs) in route_batch(batch) {
            let view = self.load(id);
            rects.clear();
            rects.extend(idxs.iter().map(|&j| batch[j].1.clone()));
            view.estimate_batch(&rects, &mut sub);
            for (&j, v) in idxs.iter().zip(&sub) {
                out[j] = *v;
            }
        }
    }
}

/// The registry as an engine backend: one tenant per cell, pins
/// refreshed via [`Registry::load_if_newer`], routing marks counted per
/// generated batch.
struct RegistryBackend<'a> {
    registry: &'a Registry,
}

impl Backend for RegistryBackend<'_> {
    type Pinned = TenantPin;

    fn tenant_count(&self) -> usize {
        self.registry.tenant_count()
    }

    fn repin(&self, tenant: TenantId, seen: u64) -> Option<TenantPin> {
        self.registry.load_if_newer(tenant, seen).map(TenantPin)
    }

    fn mark_route(&self) {
        obs::incr(obs::Counter::RegistryRoutes);
    }
}

/// A pinned tenant view — newtype over the guard because the orphan
/// rule won't let this crate implement the foreign [`Pinned`] trait
/// directly on the foreign [`SnapshotGuard`] wrapper.
struct TenantPin(SnapshotGuard<TenantView>);

impl Pinned for TenantPin {
    fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    fn composite_epoch(&self) -> u64 {
        TenantView::composite_epoch(&self.0)
    }

    fn estimate_batch(&self, queries: &[Rect], out: &mut Vec<f64>) {
        TenantView::estimate_batch(&self.0, queries, out)
    }

    fn check_invariants(&self) -> Result<(), String> {
        TenantView::check_invariants(&self.0)
    }
}

/// Everything [`serve_registry`] needs to drive one tenant: identity,
/// trainable histogram, its workloads, and its feedback oracle.
pub struct TenantRuntime {
    /// Tenant identity.
    pub key: TenantKey,
    /// The mutable histogram the tenant's trainer refines.
    pub hist: StHoles,
    /// Training workload (refined, single-probe feedback discipline).
    pub train: Workload,
    /// Serving workload (estimated by the readers).
    pub serve: Workload,
    /// Feedback oracle for the training workload.
    pub counter: Arc<dyn RangeCounter + Send + Sync>,
}

/// Knobs for [`serve_registry`].
#[derive(Clone, Debug)]
pub struct RegistryServeConfig {
    /// Logical reader streams, multiplexed over the engine's thread pool
    /// (at most `min(readers, worker_count)` threads by default).
    pub readers: usize,
    /// Mixed-stream queries per generated stream batch.
    pub batch: usize,
    /// Training queries a trainer absorbs per tenant turn before
    /// publishing that tenant.
    pub republish_every: usize,
    /// Trainer workers the tenants are dealt across (also bounded by the
    /// pool's worker count).
    pub trainer_workers: usize,
}

impl Default for RegistryServeConfig {
    fn default() -> Self {
        Self { readers: 4, batch: 32, republish_every: 25, trainer_workers: 2 }
    }
}

/// One tenant's rollup out of a [`serve_registry`] run.
#[derive(Clone, Debug)]
pub struct TenantServeReport {
    /// Tenant identity.
    pub key: TenantKey,
    /// Publication rounds the trainer ran (excluding registration).
    pub publishes: u64,
    /// Final tenant epoch (= 1 + publishes).
    pub final_epoch: u64,
    /// Estimates answered for this tenant across all readers.
    pub answered: u64,
    /// Sub-batches routed to this tenant.
    pub batches: u64,
    /// The tenant trainer's obs delta (refine-side work only; reader-side
    /// work is not separable per tenant and rolls up in the aggregate).
    pub trainer_counters: obs::Snapshot,
    /// Per-tenant-epoch serving activity, epochs 1..=`final_epoch`.
    pub timeline: EpochTimeline,
}

/// Outcome of one [`serve_registry`] run.
#[derive(Clone, Debug)]
pub struct RegistryServeReport {
    /// Per-tenant rollups, tenant-id order.
    pub tenants: Vec<TenantServeReport>,
    /// Per-reader tallies (epochs here are *composite* epochs).
    pub readers: Vec<ReaderStats>,
    /// Counters and stats for the whole run (trainers + readers, merged
    /// deterministically).
    pub counters: obs::Snapshot,
    /// Final composite epoch (total publication rounds + 1).
    pub composite_final: u64,
    /// Aggregate serving activity on the composite-epoch timeline.
    pub composite_timeline: EpochTimeline,
    /// How the engine ran: services, coalescing, pin cache hits, sheds.
    pub engine: EngineStats,
    /// Estimates shed by deadline admission control, per tenant (all zero
    /// unless `STH_SERVE_DEADLINE_US` is set).
    pub shed_by_tenant: Vec<u64>,
}

impl RegistryServeReport {
    /// Total estimates answered across all tenants.
    pub fn answered(&self) -> u64 {
        self.tenants.iter().map(|t| t.answered).sum()
    }

    /// Total sub-batches served across all tenants.
    pub fn batches(&self) -> u64 {
        self.tenants.iter().map(|t| t.batches).sum()
    }
}

/// Per-tenant publication totals a trainer worker accumulates.
#[derive(Default)]
struct TrainerTotals {
    publishes: u64,
    counters: obs::Snapshot,
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

/// Registers every runtime into `registry`, then trains all tenants while
/// concurrently serving a mixed-tenant estimate stream.
///
/// Trainers: the tenants are dealt round-robin across
/// [`RegistryServeConfig::trainer_workers`] pool workers; each worker
/// cycles through its tenants, absorbing up to `republish_every` training
/// queries per turn (the same single-probe feedback discipline as
/// [`crate::serve_concurrent`]) and publishing the dirty tenant before
/// moving on — so publication pressure follows refinement pressure.
/// A tenant's final state is always published by its last turn.
///
/// Serving: the per-tenant serve workloads are interleaved round-robin
/// into one mixed stream and handed to the [`sth_serve`] engine — each
/// generated batch is routed by tenant, answered from cached tenant
/// pins (refreshed when the tenant epoch moves), and attributed to both
/// the tenant epoch and the composite epoch.
pub fn serve_registry(
    registry: &mut Registry,
    runtimes: Vec<TenantRuntime>,
    cfg: &RegistryServeConfig,
) -> RegistryServeReport {
    assert!(registry.tenant_count() == 0, "serve_registry wants a fresh registry");
    assert!(!runtimes.is_empty(), "serve_registry needs at least one tenant");
    assert!(cfg.readers >= 1, "serve_registry needs at least one reader");
    assert!(cfg.batch >= 1, "serve_registry needs a non-empty batch");
    assert!(cfg.republish_every >= 1);
    assert!(cfg.trainer_workers >= 1);

    let _span = obs::span("eval.serve_registry");

    // Register every tenant and build the mixed serve stream (round-robin
    // interleave of the per-tenant serve workloads).
    let mut per_tenant: Vec<(TenantId, TenantRuntime)> = Vec::with_capacity(runtimes.len());
    let mut serve_rects: Vec<Vec<Rect>> = Vec::with_capacity(runtimes.len());
    for rt in runtimes {
        assert!(!rt.serve.is_empty(), "tenant {} has nothing to serve", rt.key);
        let id = registry.register(rt.key.clone(), &rt.hist);
        serve_rects.push(rt.serve.queries().iter().map(|q| q.rect().clone()).collect());
        per_tenant.push((id, rt));
    }
    let longest = serve_rects.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut stream: Vec<(TenantId, Rect)> = Vec::new();
    for round in 0..longest {
        for (id, rects) in serve_rects.iter().enumerate() {
            if let Some(r) = rects.get(round) {
                stream.push((id, r.clone()));
            }
        }
    }

    // Deal tenants round-robin across trainer workers; each worker owns
    // its bucket outright (the mutex is uncontended — it only exists to
    // move mutable runtimes into the scoped closure).
    let workers = cfg.trainer_workers.min(per_tenant.len());
    let mut buckets: Vec<Mutex<Vec<(TenantId, TenantRuntime)>>> =
        (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    for (i, entry) in per_tenant.into_iter().enumerate() {
        buckets[i % workers].get_mut().unwrap().push(entry);
    }

    let done = AtomicBool::new(false);
    let readers_started = AtomicU64::new(0);
    let trainers_live = AtomicU64::new(workers as u64);
    let registry_ref = &*registry;

    let (trainer_outcomes, run) = std::thread::scope(|s| {
        let trainer_handles: Vec<_> = buckets
            .iter()
            .map(|bucket| {
                s.spawn(|| {
                    let _flight = obs::flight::FlightDump::new("registry trainer");
                    // Raise the done flag when the last worker exits —
                    // even on panic, so the engine never hangs.
                    let _live = TrainerLive { live: &trainers_live, done: &done };
                    // Hold the epoch-1 views until the engine is
                    // live (same guarantee as `serve_concurrent`).
                    while readers_started.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                    let mut mine =
                        bucket.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                    let mut totals: BTreeMap<TenantId, TrainerTotals> = BTreeMap::new();
                    let mut cursors = vec![0usize; mine.len()];
                    let mut result = ResultSetCounter::empty(1);
                    loop {
                        let mut progressed = false;
                        for (slot, (id, rt)) in mine.iter_mut().enumerate() {
                            let queries = rt.train.queries();
                            if cursors[slot] >= queries.len() {
                                continue;
                            }
                            progressed = true;
                            let obs_before = obs::snapshot();
                            let end = (cursors[slot] + cfg.republish_every).min(queries.len());
                            for q in &queries[cursors[slot]..end] {
                                if result.refill_from_counter(rt.counter.as_ref(), q.rect()) {
                                    let truth = result.total() as f64;
                                    rt.hist.refine_with_truth(q.rect(), &result, truth);
                                } else {
                                    rt.hist.refine(q.rect(), rt.counter.as_ref());
                                }
                            }
                            cursors[slot] = end;
                            registry_ref.publish(*id, &rt.hist);
                            let t = totals.entry(*id).or_default();
                            t.publishes += 1;
                            t.counters.merge(&obs::snapshot().delta(&obs_before));
                        }
                        if !progressed {
                            break;
                        }
                    }
                    // Tenants with empty training workloads still produce
                    // a totals row so the report covers every tenant.
                    for (id, _) in mine.iter() {
                        totals.entry(*id).or_default();
                    }
                    totals
                })
            })
            .collect();

        let backend = RegistryBackend { registry: registry_ref };
        let run = serve_closed(
            &backend,
            &stream,
            cfg.readers,
            cfg.batch,
            &EngineConfig::from_env(),
            &done,
            &readers_started,
        );
        let trainer_outcomes: Vec<BTreeMap<TenantId, TrainerTotals>> = trainer_handles
            .into_iter()
            .map(|h| h.join().expect("registry trainer worker panicked"))
            .collect();
        (trainer_outcomes, run)
    });

    // Roll up: per-tenant totals (each tenant lives in exactly one
    // worker's map), aggregate counters, both timeline layers.
    let mut totals: BTreeMap<TenantId, TrainerTotals> = BTreeMap::new();
    for map in trainer_outcomes {
        for (id, t) in map {
            debug_assert!(!totals.contains_key(&id), "tenant {id} trained twice");
            totals.insert(id, t);
        }
    }
    let mut counters = run.obs;
    let mut tenant_maps = run.tenant_rows;

    let mut tenants = Vec::with_capacity(registry.tenant_count());
    for id in 0..registry.tenant_count() {
        let t = totals.remove(&id).unwrap_or_default();
        counters.merge(&t.counters);
        let final_epoch = registry.tenant_epoch(id);
        let maps = std::mem::take(&mut tenant_maps[id]);
        let (answered, batches) =
            maps.iter().flat_map(|m| m.values()).fold((0, 0), |(a, b), row| {
                (a + row.answered, b + row.batches)
            });
        tenants.push(TenantServeReport {
            key: registry.key(id).clone(),
            publishes: t.publishes,
            final_epoch,
            answered,
            batches,
            trainer_counters: t.counters,
            timeline: EpochTimeline::assemble(final_epoch, maps, BTreeMap::new()),
        });
    }

    let composite_final = registry.composite_epoch();
    let report = RegistryServeReport {
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
    };
    if obs::event_enabled() {
        obs::event(
            "serve_registry",
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
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_data::cross::CrossSpec;
    use sth_index::KdCountTree;
    use sth_query::{CardinalityEstimator, WorkloadSpec};

    fn tenant_fixture(seed: u64) -> (StHoles, Workload, Workload, Arc<KdCountTree>) {
        let data = CrossSpec::cross2d().scaled(0.04).generate();
        let index = Arc::new(KdCountTree::build(&data));
        let wl = WorkloadSpec::paper(0.01, seed).generate(data.domain(), None);
        let (train, serve) = wl.split_train(wl.len() / 2);
        let hist = sth_core::build_uninitialized(&data, 48);
        (hist, train, serve, index)
    }

    fn trained(seed: u64, queries: usize) -> (StHoles, Arc<KdCountTree>, Workload) {
        let (mut hist, train, serve, index) = tenant_fixture(seed);
        for q in train.queries().iter().take(queries) {
            hist.refine(q.rect(), index.as_ref());
        }
        (hist, index, serve)
    }

    #[test]
    fn register_and_lookup() {
        let (hist, ..) = trained(11, 10);
        let mut reg = Registry::new();
        let a = reg.register(TenantKey::new("orders", vec![0, 1]), &hist);
        let b = reg.register(TenantKey::new("orders", vec![0, 2]), &hist);
        assert_eq!(reg.tenant_count(), 2);
        assert_ne!(a, b);
        assert_eq!(reg.id_of(&TenantKey::new("orders", vec![0, 2])), Some(b));
        assert_eq!(reg.id_of(&TenantKey::new("orders", vec![9])), None);
        assert_eq!(reg.key(a).to_string(), "orders[0,1]");
        assert_eq!(reg.tenant_epoch(a), 1);
        assert_eq!(reg.composite_epoch(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_key_panics() {
        let (hist, ..) = trained(11, 5);
        let mut reg = Registry::new();
        reg.register(TenantKey::new("t", vec![0]), &hist);
        reg.register(TenantKey::new("t", vec![0]), &hist);
    }

    #[test]
    fn publish_replaces_one_tenant_snapshot() {
        let (mut hist, index, serve) = trained(13, 20);
        let mut reg = Registry::new();
        let id = reg.register(TenantKey::new("t", vec![0, 1]), &hist);
        let other = reg.register(TenantKey::new("u", vec![0, 1]), &hist);
        for q in serve.queries().iter().take(5) {
            hist.refine(q.rect(), index.as_ref());
        }
        let outcome = reg.publish(id, &hist);
        let expected = PublishOutcome {
            tenant_epoch: 2,
            composite_epoch: 2,
            shard_publishes: 1,
            shard_skips: 0,
        };
        assert_eq!(outcome, expected);
        assert_eq!(reg.tenant_epoch(other), 1, "publishing one tenant moved another");
        let (view, frozen) = (reg.load(id), hist.freeze());
        assert_eq!(view.composite_epoch(), 2);
        view.check_invariants().unwrap();
        for q in serve.queries() {
            assert_eq!(view.estimate(q.rect()).to_bits(), frozen.estimate(q.rect()).to_bits());
        }
    }

    #[test]
    fn clean_republish_installs_a_new_snapshot() {
        let (hist, _, serve) = trained(29, 20);
        let mut reg = Registry::new();
        let id = reg.register(TenantKey::new("t", vec![0, 1]), &hist);
        let before = reg.load(id);
        // No content diff is taken: republishing an unchanged histogram
        // ticks both epochs and swaps in a fresh view with equal answers.
        let outcome = reg.publish(id, &hist);
        let expected = PublishOutcome {
            tenant_epoch: 2,
            composite_epoch: 2,
            shard_publishes: 1,
            shard_skips: 0,
        };
        assert_eq!(outcome, expected);
        let after = reg.load(id);
        assert!(!std::ptr::eq(&*before, &*after), "publish kept the old view");
        assert_eq!((after.epoch(), after.composite_epoch()), (2, 2));
        for q in serve.queries() {
            assert_eq!(after.estimate(q.rect()).to_bits(), before.estimate(q.rect()).to_bits());
        }
    }

    #[test]
    fn root_only_tenant_answers_like_its_freeze() {
        let (hist, _, serve, _) = tenant_fixture(31);
        assert_eq!(hist.bucket_count(), 0, "fixture is not root-only");
        let mut reg = Registry::new();
        let id = reg.register(TenantKey::new("t", vec![0, 1]), &hist);
        let (view, frozen) = (reg.load(id), hist.freeze());
        view.check_invariants().unwrap();
        let outside = Rect::from_bounds(&[1e6, 1e6], &[2e6, 2e6]);
        for q in serve.queries().iter().map(|q| q.rect()).chain([&outside]) {
            assert_eq!(view.estimate(q).to_bits(), frozen.estimate(q).to_bits());
        }
        assert_eq!(view.estimate(&outside), 0.0);
    }

    #[test]
    fn view_batch_path_is_bit_identical_and_clears_out() {
        let (hist, _, serve) = trained(59, 30);
        let mut reg = Registry::new();
        let id = reg.register(TenantKey::new("t", vec![0, 1]), &hist);
        let (view, frozen) = (reg.load(id), hist.freeze());
        let queries: Vec<Rect> = serve.queries().iter().map(|q| q.rect().clone()).collect();
        let mut out = vec![f64::NAN; 3]; // stale garbage: must clear
        view.estimate_batch(&queries, &mut out);
        let mut expected = Vec::new();
        frozen.estimate_batch(&queries, &mut expected);
        assert_eq!(out.len(), queries.len());
        for (j, q) in queries.iter().enumerate() {
            assert_eq!(out[j].to_bits(), expected[j].to_bits(), "query {j} batch drifted");
            assert_eq!(out[j].to_bits(), view.estimate(q).to_bits(), "query {j} scalar drifted");
        }
    }

    #[test]
    fn pinned_view_survives_a_republish() {
        let (mut hist, index, serve) = trained(17, 15);
        let mut reg = Registry::new();
        let id = reg.register(TenantKey::new("t", vec![0, 1]), &hist);
        let (pinned, before) = (reg.load(id), hist.freeze());
        for q in serve.queries().iter().take(10) {
            hist.refine(q.rect(), index.as_ref());
        }
        reg.publish(id, &hist);
        let (fresh, after) = (reg.load(id), hist.freeze());
        // The old guard keeps answering from the view it pinned; a new
        // load sees the republished one.
        assert_eq!((pinned.epoch(), pinned.composite_epoch()), (1, 1));
        assert_eq!((fresh.epoch(), fresh.composite_epoch()), (2, 2));
        let mut moved = 0;
        for q in serve.queries().iter().map(|q| q.rect()) {
            assert_eq!(pinned.estimate(q).to_bits(), before.estimate(q).to_bits());
            assert_eq!(fresh.estimate(q).to_bits(), after.estimate(q).to_bits());
            moved += usize::from(before.estimate(q).to_bits() != after.estimate(q).to_bits());
        }
        assert!(moved > 0, "refinement moved no estimate, so nothing was tested");
    }

    #[test]
    fn composite_clock_orders_publishes_across_tenants() {
        let (hist, ..) = trained(37, 10);
        let mut reg = Registry::new();
        let ids: Vec<TenantId> =
            (0..3u32).map(|t| reg.register(TenantKey::new("t", vec![t]), &hist)).collect();
        let order = [0, 1, 0, 2, 2, 0];
        let mut tenant_epochs = [1u64; 3];
        for (k, &t) in order.iter().enumerate() {
            let out = reg.publish(ids[t], &hist);
            tenant_epochs[t] += 1;
            assert_eq!(out.composite_epoch, 2 + k as u64, "one tick per publish, in call order");
            assert_eq!(out.tenant_epoch, tenant_epochs[t], "tenant {t} counted another's publish");
            assert_eq!(reg.load(ids[t]).composite_epoch(), out.composite_epoch);
        }
        assert_eq!(reg.composite_epoch(), 1 + order.len() as u64);
        let latest: Vec<u64> = ids.iter().map(|&id| reg.load(id).composite_epoch()).collect();
        assert_eq!(latest, [7, 3, 6], "each view carries its own latest tick");
        let epochs: Vec<u64> = ids.iter().map(|&id| reg.tenant_epoch(id)).collect();
        assert_eq!(epochs, [4, 2, 3]);
    }

    #[test]
    fn late_registration_starts_at_the_current_composite_epoch() {
        let (hist, ..) = trained(43, 10);
        let mut reg = Registry::new();
        let a = reg.register(TenantKey::new("a", vec![0, 1]), &hist);
        reg.publish(a, &hist);
        reg.publish(a, &hist);
        // Registering does not tick the clock: the newcomer's view is
        // stamped with the current reading, its own epoch starts at 1.
        let b = reg.register(TenantKey::new("b", vec![0, 1]), &hist);
        assert_eq!(reg.composite_epoch(), 3);
        assert_eq!(reg.tenant_epoch(b), 1);
        assert_eq!(reg.load(b).composite_epoch(), 3);
        let out = reg.publish(b, &hist);
        assert_eq!((out.tenant_epoch, out.composite_epoch), (2, 4));
        assert_eq!(reg.tenant_epoch(a), 3);
    }

    #[test]
    fn load_if_newer_pins_only_after_a_publish() {
        let (mut hist, index, serve) = trained(47, 10);
        let mut reg = Registry::new();
        let id = reg.register(TenantKey::new("t", vec![0, 1]), &hist);
        let first = reg.load_if_newer(id, 0).expect("seen = 0 always pins");
        assert_eq!(first.epoch(), 1);
        assert!(reg.load_if_newer(id, first.epoch()).is_none(), "a current pin was refreshed");
        hist.refine(serve.queries()[0].rect(), index.as_ref());
        reg.publish(id, &hist);
        let second = reg.load_if_newer(id, first.epoch()).expect("a publish must refresh the pin");
        assert_eq!((second.epoch(), second.composite_epoch()), (2, 2));
        assert!(reg.load_if_newer(id, second.epoch()).is_none());
    }

    #[test]
    fn publish_recovers_from_a_poisoned_lock() {
        let (hist, ..) = trained(19, 10);
        let mut reg = Registry::new();
        let id = reg.register(TenantKey::new("t", vec![0, 1]), &hist);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = reg.tenants[id].publish_lock.lock().unwrap();
                panic!("publisher died holding the publish lock");
            })
            .join()
        });
        assert!(died.is_err());
        assert!(reg.tenants[id].publish_lock.is_poisoned());
        // The lock guards no data, so later publishes go through.
        let outcome = reg.publish(id, &hist);
        assert_eq!((outcome.tenant_epoch, outcome.composite_epoch), (2, 2));
        assert_eq!(reg.load(id).composite_epoch(), 2);
    }

    #[test]
    fn backend_repins_only_republished_tenants() {
        let (hist, _, serve) = trained(53, 12);
        let mut reg = Registry::new();
        let a = reg.register(TenantKey::new("a", vec![0, 1]), &hist);
        let b = reg.register(TenantKey::new("b", vec![0, 1]), &hist);
        let backend = RegistryBackend { registry: &reg };
        assert_eq!(backend.tenant_count(), 2);
        let (pa, pb) = (backend.repin(a, 0).unwrap(), backend.repin(b, 0).unwrap());
        reg.publish(a, &hist);
        let pa2 = backend.repin(a, pa.epoch()).expect("republished tenant must repin");
        assert_eq!((pa2.epoch(), pa2.composite_epoch()), (2, 2));
        assert!(backend.repin(b, pb.epoch()).is_none(), "untouched tenant repinned");
        pa2.check_invariants().unwrap();
        let queries: Vec<Rect> = serve.queries().iter().map(|q| q.rect().clone()).collect();
        let mut via_pin = vec![f64::NAN; 3];
        pa2.estimate_batch(&queries, &mut via_pin);
        let mut direct = Vec::new();
        reg.load(a).estimate_batch(&queries, &mut direct);
        assert_eq!(via_pin.len(), queries.len());
        for (j, (x, y)) in via_pin.iter().zip(&direct).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "query {j} drifted through the pin");
        }
    }

    #[test]
    fn routing_an_empty_batch_clears_out() {
        let (hist, ..) = trained(61, 5);
        let mut reg = Registry::new();
        reg.register(TenantKey::new("t", vec![0, 1]), &hist);
        let mut out = vec![1.0; 4]; // stale garbage: must clear
        reg.estimate_batch_routed(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn routed_batches_are_bit_identical_to_per_tenant_estimates() {
        let mut reg = Registry::new();
        let mut frozen = Vec::new();
        for seed in [23u64, 29, 31] {
            let (hist, ..) = trained(seed, 25);
            reg.register(TenantKey::new(format!("t{seed}"), vec![0, 1]), &hist);
            frozen.push(hist.freeze());
        }
        // A mixed batch cycling through tenants, kernel-sized per tenant.
        let mut batch = Vec::new();
        for i in 0..30 {
            let lo = (i % 10) as f64 * 9.0;
            batch.push((i % 3, Rect::from_bounds(&[lo, lo * 0.3], &[lo + 20.0, lo * 0.3 + 30.0])));
        }
        let mut routed = vec![f64::NAN; 2]; // stale garbage: must clear
        reg.estimate_batch_routed(&batch, &mut routed);
        assert_eq!(routed.len(), batch.len());
        for (j, (id, q)) in batch.iter().enumerate() {
            let direct = frozen[*id].estimate(q);
            assert_eq!(
                routed[j].to_bits(),
                direct.to_bits(),
                "query {j} (tenant {id}) drifted"
            );
            let view = reg.load(*id);
            assert_eq!(view.estimate(q).to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn serve_registry_end_to_end() {
        let mut runtimes = Vec::new();
        for seed in [41u64, 43, 47] {
            let (hist, train, serve, index) = tenant_fixture(seed);
            runtimes.push(TenantRuntime {
                key: TenantKey::new(format!("t{seed}"), vec![0, 1]),
                hist,
                train,
                serve,
                counter: index,
            });
        }
        let mut reg = Registry::new();
        let cfg =
            RegistryServeConfig { readers: 2, batch: 24, republish_every: 10, trainer_workers: 2 };
        let report = serve_registry(&mut reg, runtimes, &cfg);

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

    sth_platform::check! {
        cases = 3;

        /// Coalescing is invisible across tenants: mixed batches split by
        /// `route_batch` and pushed through the engine (whatever the
        /// coalescing cap groups together) answer bit-identically to
        /// asking each tenant's pinned view directly, query by query.
        #[test]
        fn coalesced_mixed_engine_batches_are_bit_identical(
            request_len in 1usize..5,
            coalesce in 1usize..97,
        ) {
            use sth_platform::check::prelude::*;

            let mut reg = Registry::new();
            for seed in [61u64, 67, 71] {
                let (hist, ..) = trained(seed, 20);
                reg.register(TenantKey::new(format!("t{seed}"), vec![0, 1]), &hist);
            }
            let mixed: Vec<(TenantId, Rect)> = (0..36)
                .map(|i| {
                    let lo = (i % 9) as f64 * 8.0;
                    (i % 3, Rect::from_bounds(&[lo, lo * 0.5], &[lo + 18.0, lo * 0.5 + 25.0]))
                })
                .collect();
            let backend = RegistryBackend { registry: &reg };
            let cfg = EngineConfig { threads: 2, coalesce, deadline: None };
            let (report, injected) = sth_serve::run_open(&backend, &cfg, true, |inj| {
                let mut injected = Vec::new();
                // Requests follow the routing split of fixed-size mixed
                // batches, exactly like the closed loop generates them.
                for chunk in mixed.chunks(request_len * 3) {
                    for (tenant, idxs) in route_batch(chunk) {
                        let rects: Vec<Rect> =
                            idxs.iter().map(|&j| chunk[j].1.clone()).collect();
                        let slot = inj.inject(tenant, rects.clone());
                        injected.push((tenant, rects, slot));
                    }
                }
                injected
            });
            prop_assert_eq!(report.shed_total(), 0);
            prop_assert_eq!(report.answered_total(), mixed.len() as u64);
            let results = report.results.expect("capture was on");
            for (tenant, rects, slot) in injected {
                let view = reg.load(tenant);
                for (k, q) in rects.iter().enumerate() {
                    prop_assert_eq!(
                        results[slot + k].to_bits(),
                        view.estimate(q).to_bits(),
                        "tenant {} slot {} drifted through the engine",
                        tenant,
                        slot + k
                    );
                }
            }
        }
    }

    #[test]
    fn serve_registry_routes_bit_identically_to_the_final_snapshots() {
        let mut runtimes = Vec::new();
        let mut serves = Vec::new();
        for seed in [53u64, 59] {
            let (hist, train, serve, index) = tenant_fixture(seed);
            serves.push(serve.clone());
            runtimes.push(TenantRuntime {
                key: TenantKey::new(format!("t{seed}"), vec![0, 1]),
                hist,
                train,
                serve,
                counter: index,
            });
        }
        let mut reg = Registry::new();
        let report = serve_registry(&mut reg, runtimes, &RegistryServeConfig::default());
        assert_eq!(report.tenants.len(), 2);
        // After the run, routing a mixed batch equals per-tenant answers
        // from the final views, bit for bit.
        let batch: Vec<(TenantId, Rect)> = serves
            .iter()
            .enumerate()
            .flat_map(|(id, wl)| {
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
}
