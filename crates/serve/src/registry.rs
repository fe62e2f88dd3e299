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
//!   tenant epoch stays contiguous from 1 — the shape
//!   [`crate::EpochTimeline`] wants for per-tenant attribution.
//! * **Composite epochs** — a registry-wide [`EpochClock`] ticks once per
//!   publish, totally ordering all tenants' publishes on one timeline for
//!   the aggregate report. Each view carries the composite epoch of the
//!   publish that installed it.
//!
//! The registry is itself an engine [`Backend`]: one request queue per
//! tenant, pins refreshed through [`Registry::load_if_newer`], one
//! `registry_routes` count per generated mixed batch.
//! `sth_eval::serve_training` trains tenants into a registry while
//! [`crate::serve_closed`] serves from it; that driver lives in `sth-eval`
//! because it needs the write path (index feedback, durable store).

use std::collections::BTreeMap;
use std::sync::Mutex;

use sth_geometry::Rect;
use sth_histogram::{FrozenHistogram, StHoles};
use sth_platform::obs;
use sth_platform::snap::{EpochClock, SnapshotCell, SnapshotGuard};
use sth_query::{CardinalityEstimator, Estimator};

use crate::engine::{route_batch, Backend, Pinned, TenantId};

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

/// The registry as an engine backend: one queue per tenant, pins
/// refreshed via [`Registry::load_if_newer`], routing marks counted per
/// generated batch.
impl Backend for Registry {
    type Pinned = SnapshotGuard<TenantView>;

    fn tenant_count(&self) -> usize {
        Registry::tenant_count(self)
    }

    fn repin(&self, tenant: TenantId, seen: u64) -> Option<Self::Pinned> {
        self.load_if_newer(tenant, seen)
    }

    fn mark_route(&self) {
        obs::incr(obs::Counter::RegistryRoutes);
    }
}

/// A pinned tenant view.
impl Pinned for SnapshotGuard<TenantView> {
    fn epoch(&self) -> u64 {
        SnapshotGuard::epoch(self)
    }

    fn composite_epoch(&self) -> u64 {
        TenantView::composite_epoch(self)
    }

    fn estimate_batch(&self, queries: &[Rect], out: &mut Vec<f64>) {
        TenantView::estimate_batch(self, queries, out)
    }

    fn check_invariants(&self) -> Result<(), String> {
        TenantView::check_invariants(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use sth_data::cross::CrossSpec;
    use sth_index::KdCountTree;
    use sth_query::{SelfTuning, Workload, WorkloadSpec};

    fn tenant_fixture(seed: u64) -> (StHoles, Workload, Workload, KdCountTree) {
        let data = CrossSpec::cross2d().scaled(0.04).generate();
        let index = KdCountTree::build(&data);
        let wl = WorkloadSpec::paper(0.01, seed).generate(data.domain(), None);
        let (train, serve) = wl.split_train(wl.len() / 2);
        let hist = sth_core::build_uninitialized(&data, 48);
        (hist, train, serve, index)
    }

    fn trained(seed: u64, queries: usize) -> (StHoles, KdCountTree, Workload) {
        let (mut hist, train, serve, index) = tenant_fixture(seed);
        for q in train.queries().iter().take(queries) {
            hist.refine(q.rect(), &index);
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
            hist.refine(q.rect(), &index);
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
            hist.refine(q.rect(), &index);
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
        hist.refine(serve.queries()[0].rect(), &index);
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
        let backend = &reg;
        assert_eq!(Backend::tenant_count(backend), 2);
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
    fn tenant_keys_render_every_subspace_shape() {
        assert_eq!(TenantKey::new("orders", Vec::<u32>::new()).to_string(), "orders[]");
        assert_eq!(TenantKey::new("orders", vec![3]).to_string(), "orders[3]");
        assert_eq!(TenantKey::new("sky", vec![0, 4, 7]).to_string(), "sky[0,4,7]");
    }

    #[test]
    fn unpublished_refinement_stays_invisible() {
        let (mut hist, index, serve) = trained(67, 10);
        let mut reg = Registry::new();
        let id = reg.register(TenantKey::new("t", vec![0, 1]), &hist);
        let registered = hist.freeze();
        for q in serve.queries().iter().take(10) {
            hist.refine(q.rect(), &index);
        }
        // Registration froze a copy: readers keep the registered state
        // until the trainer publishes.
        let view = reg.load(id);
        assert_eq!((view.epoch(), reg.tenant_epoch(id)), (1, 1));
        let mut moved = 0;
        for q in serve.queries().iter().map(|q| q.rect()) {
            assert_eq!(view.estimate(q).to_bits(), registered.estimate(q).to_bits());
            let live = CardinalityEstimator::estimate(&hist, q);
            moved += usize::from(live.to_bits() != registered.estimate(q).to_bits());
        }
        assert!(moved > 0, "refinement moved no estimate, so nothing was tested");
    }

    #[test]
    fn racing_publishers_keep_both_clocks_consistent() {
        let (hist, ..) = trained(73, 10);
        let mut reg = Registry::new();
        let a = reg.register(TenantKey::new("a", vec![0, 1]), &hist);
        let b = reg.register(TenantKey::new("b", vec![0, 1]), &hist);
        let (threads, rounds) = (4u64, 8u64);
        // Two publishers per tenant; each reports the newest composite
        // epoch it was handed.
        let newest: Vec<(TenantId, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (reg, hist) = (&reg, &hist);
                    let id = if t % 2 == 0 { a } else { b };
                    s.spawn(move || {
                        let mut last = 0;
                        for _ in 0..rounds {
                            let out = reg.publish(id, hist);
                            assert!(out.composite_epoch > last, "a publisher saw time run back");
                            last = out.composite_epoch;
                        }
                        (id, last)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every publish ticked each clock exactly once, and each tenant
        // ends on the view of its newest tick: the publish lock keeps a
        // slower publisher from installing an older composite epoch.
        let per_tenant = threads / 2 * rounds;
        assert_eq!((reg.tenant_epoch(a), reg.tenant_epoch(b)), (1 + per_tenant, 1 + per_tenant));
        assert_eq!(reg.composite_epoch(), 1 + threads * rounds);
        for id in [a, b] {
            let view = reg.load(id);
            let tick = newest.iter().filter(|(t, _)| *t == id).map(|(_, e)| *e).max();
            assert_eq!(Some(view.composite_epoch()), tick, "tenant {id} holds a stale view");
            assert_eq!(view.epoch(), reg.tenant_epoch(id));
        }
    }

    #[test]
    fn each_routed_batch_counts_one_registry_route() {
        obs::force_metrics(true);
        let (hist, _, serve) = trained(79, 10);
        let mut reg = Registry::new();
        for t in 0..2u32 {
            reg.register(TenantKey::new("t", vec![t]), &hist);
        }
        let batch: Vec<(TenantId, Rect)> = serve.queries()[..12]
            .iter()
            .enumerate()
            .map(|(j, q)| (j % 2, q.rect().clone()))
            .collect();
        let before = obs::read(obs::Counter::RegistryRoutes);
        let mut out = Vec::new();
        reg.estimate_batch_routed(&batch, &mut out);
        reg.estimate_batch_routed(&[], &mut out);
        Backend::mark_route(&reg);
        // One count per call, however many tenants a batch spans.
        assert_eq!(obs::read(obs::Counter::RegistryRoutes) - before, 3);
        obs::force_metrics(false);
    }

    sth_platform::check! {
        cases = 3;

        /// Coalescing is invisible across tenants: mixed batches split by
        /// `route_batch` and pushed through the engine (whatever the
        /// coalescing cap groups together) answer bit-identically to
        /// asking each tenant's pinned view directly, query by query.
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
            let cfg = EngineConfig { threads: 2, coalesce, deadline: None };
            let (report, injected) = crate::run_open(&reg, &cfg, true, |inj| {
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
}
