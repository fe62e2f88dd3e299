//! What `serve_training` does when a tenant's write path fails or cannot
//! log its feedback: the run returns `Err`, the failed tenant stops with
//! its last durable state published, and every other tenant trains on.
//!
//! These tests poison stores, and a poisoning dumps the flight recorder
//! whenever it is on. They run in their own process, so those dumps
//! cannot land in the `last_dump` slot that a library test is reading.

use std::sync::Arc;

use sth_data::cross::CrossSpec;
use sth_eval::{
    serve_training, Registry, ServeConfig, TenantKey, TenantRuntime, TenantView, Trainer,
};
use sth_geometry::Rect;
use sth_histogram::StHoles;
use sth_index::{KdCountTree, RangeCounter};
use sth_query::{CardinalityEstimator, SelfTuning, Workload, WorkloadSpec};
use sth_store::vfs::{FaultVfs, MemVfs, Vfs};
use sth_store::{DurableTrainer, StoreConfig, StoreError};

fn fixture() -> (StHoles, Workload, Workload, KdCountTree) {
    let data = CrossSpec::cross2d().scaled(0.05).generate();
    let index = KdCountTree::build(&data);
    let wl = WorkloadSpec::paper(0.01, 97).generate(data.domain(), None);
    let (train, serve) = wl.split_train(wl.len() / 2);
    let hist = sth_core::build_uninitialized(&data, 64);
    (hist, train, serve, index)
}

fn store_cfg(flush_every_deltas: usize) -> StoreConfig {
    StoreConfig { flush_every_deltas, flush_every_bytes: u64::MAX, retain_generations: 2 }
}

fn key(table: &str) -> TenantKey {
    TenantKey::new(table, vec![0, 1])
}

/// Asserts that `view` answers every `serve` query bit-identically to
/// `hist`'s freeze.
fn assert_view_is_freeze(view: &TenantView, hist: &StHoles, serve: &Workload) {
    let frozen = hist.freeze();
    for q in serve.queries() {
        assert_eq!(view.estimate(q.rect()).to_bits(), frozen.estimate(q.rect()).to_bits());
    }
}

/// Forwards counts to a real index but cannot materialize result rows.
struct CountOnly<'a>(&'a KdCountTree);

impl RangeCounter for CountOnly<'_> {
    fn count(&self, rect: &Rect) -> u64 {
        self.0.count(rect)
    }

    fn total(&self) -> u64 {
        self.0.total()
    }
}

#[test]
fn a_durable_tenant_refuses_a_count_only_counter() {
    let (hist, train, serve, index) = fixture();
    let (train, _) = train.split_train(30);
    let mut trainer =
        DurableTrainer::create("/count-only", Arc::new(MemVfs::new()), store_cfg(8), hist)
            .expect("create");
    let golden = trainer.golden_hash();
    let counter = CountOnly(&index);
    let mut reg = Registry::new();
    let tenant = TenantRuntime {
        key: key("t"),
        trainer: Trainer::Durable(&mut trainer),
        train: &train,
        serve: &serve,
        counter: &counter,
    };
    let cfg = ServeConfig { readers: 2, batch: 16, republish_every: 10, trainer_workers: 1 };
    match serve_training(&mut reg, vec![tenant], &cfg) {
        Err(StoreError::RowsUnavailable) => {}
        other => panic!("expected RowsUnavailable, got {:?}", other.err()),
    }
    // Nothing was logged or learned; the tenant stopped after publishing
    // its unchanged state once.
    assert_eq!((trainer.seq(), trainer.golden_hash()), (0, golden));
    assert!(!trainer.store().poisoned());
    assert_eq!(reg.tenant_epoch(0), 2);
    assert_view_is_freeze(&reg.load(0), trainer.hist(), &serve);
}

#[test]
fn a_volatile_tenant_trains_from_a_count_only_counter() {
    let (mut hist, train, serve, index) = fixture();
    let (train, _) = train.split_train(60);
    let counter = CountOnly(&index);
    let untrained = hist.golden_hash();
    let mut reference = fixture().0;
    for q in train.queries() {
        reference.refine(q.rect(), &counter);
    }
    let tenant = TenantRuntime {
        key: key("t"),
        trainer: Trainer::Volatile(&mut hist),
        train: &train,
        serve: &serve,
        counter: &counter,
    };
    let cfg = ServeConfig { readers: 2, batch: 16, republish_every: 20, trainer_workers: 1 };
    let report = serve_training(&mut Registry::new(), vec![tenant], &cfg)
        .expect("a volatile tenant has no store to refuse it");
    assert_eq!(report.tenants[0].publishes, 3);
    // The counter-driven refine path, query by query.
    assert_eq!(hist.golden_hash(), reference.golden_hash());
    assert_ne!(hist.golden_hash(), untrained, "nothing was learned");
}

#[test]
fn a_store_failure_leaves_the_last_durable_state_published() {
    let (hist, train, serve, index) = fixture();
    let (train, _) = train.split_train(100);
    let cfg = ServeConfig { readers: 2, batch: 8, republish_every: 10, trainer_workers: 1 };

    // Reference: the write cost of an uninterrupted run.
    let probe = Arc::new(FaultVfs::unlimited(Arc::new(MemVfs::new())));
    let mut reference =
        DurableTrainer::create("/torn", probe.clone() as Arc<dyn Vfs>, store_cfg(6), hist)
            .expect("create");
    let tenant = TenantRuntime {
        key: key("t"),
        trainer: Trainer::Durable(&mut reference),
        train: &train,
        serve: &serve,
        counter: &index,
    };
    serve_training(&mut Registry::new(), vec![tenant], &cfg).expect("reference run");

    // Same run with half the write budget.
    let mem = Arc::new(MemVfs::new());
    let vfs = Arc::new(FaultVfs::new(mem.clone(), probe.consumed() / 2));
    let mut trainer =
        DurableTrainer::create("/torn", vfs as Arc<dyn Vfs>, store_cfg(6), fixture().0)
            .expect("create");
    let mut reg = Registry::new();
    let tenant = TenantRuntime {
        key: key("t"),
        trainer: Trainer::Durable(&mut trainer),
        train: &train,
        serve: &serve,
        counter: &index,
    };
    let died = serve_training(&mut reg, vec![tenant], &cfg);
    assert!(matches!(died, Err(StoreError::Io(_))), "half the write budget must fail a write");
    assert!(trainer.seq() < train.len() as u64, "the failure should land mid-run");
    // The registry serves the trainer's in-memory state, which is exactly
    // what a reopen recovers from disk.
    assert_view_is_freeze(&reg.load(0), trainer.hist(), &serve);
    let golden = trainer.golden_hash();
    drop(trainer);
    let (reopened, _) = DurableTrainer::open("/torn", mem, store_cfg(6)).expect("open");
    assert_eq!(reopened.golden_hash(), golden);
}

#[test]
fn a_store_failure_spares_the_other_tenants_of_its_worker() {
    let (hist, train, serve, index) = fixture();
    let (train, _) = train.split_train(60);
    let (mut volatile, ..) = fixture();
    // A write budget that covers `create` and tears the first append.
    let probe = Arc::new(FaultVfs::unlimited(Arc::new(MemVfs::new())));
    DurableTrainer::create("/dies", probe.clone() as Arc<dyn Vfs>, store_cfg(8), fixture().0)
        .expect("create");
    let vfs = Arc::new(FaultVfs::new(Arc::new(MemVfs::new()), probe.consumed() + 1));
    let mut dying =
        DurableTrainer::create("/dies", vfs as Arc<dyn Vfs>, store_cfg(8), hist).expect("create");
    let tenants = vec![
        TenantRuntime {
            key: key("dies"),
            trainer: Trainer::Durable(&mut dying),
            train: &train,
            serve: &serve,
            counter: &index,
        },
        TenantRuntime {
            key: key("lives"),
            trainer: Trainer::Volatile(&mut volatile),
            train: &train,
            serve: &serve,
            counter: &index,
        },
    ];
    let mut reg = Registry::new();
    // One worker trains both tenants, turn by turn.
    let cfg = ServeConfig { readers: 2, batch: 16, republish_every: 10, trainer_workers: 1 };
    assert!(matches!(serve_training(&mut reg, tenants, &cfg), Err(StoreError::Io(_))));
    assert_eq!(dying.seq(), 0);
    assert_eq!(reg.tenant_epoch(0), 2, "the failed tenant published once, then stopped");
    assert_eq!(reg.tenant_epoch(1), 1 + 6, "the other tenant trained every turn");
    assert_view_is_freeze(&reg.load(1), &volatile, &serve);
}
