//! The serving tier: a poll/reactor engine over epoch-published snapshots.
//!
//! One engine serves every read path in the workspace — the
//! train-while-serve driver (`sth_eval::serve_training`), the load
//! generator, and the benchmark:
//!
//! * **Engine threads, not reader threads.** A small number of engine
//!   threads ([`EngineConfig::threads`]) multiplex many logical estimate
//!   *streams*. Each closed-loop stream is owned by one thread for batch
//!   generation (round-robin by index), but its requests land in
//!   per-tenant queues that *any* thread services — so a slow tenant
//!   never idles the rest of the pool.
//! * **Pin caching.** Threads cache one snapshot pin per tenant and
//!   refresh it only when the epoch moved
//!   ([`sth_platform::snap::SnapshotCell::load_if_newer`]), amortizing
//!   guard traffic across every batch served from the same snapshot.
//! * **Batch coalescing.** Compatible queued requests for one tenant are
//!   concatenated into a single `estimate_batch` call of up to
//!   [`EngineConfig::coalesce`] queries, so small requests ride the lane
//!   kernel (engaged at [`sth_histogram::KERNEL_MIN_BATCH`]) instead of
//!   the scalar walk. Coalescing cannot move an estimate's bits: the
//!   kernel is per-query bit-identical to the scalar path.
//! * **Deadline shedding.** With [`EngineConfig::deadline`] set, requests
//!   that waited longer than the deadline in their queue are dropped
//!   whole — counted per tenant ([`EngineRun::shed`] /
//!   [`OpenReport::shed`]), surfaced through the
//!   `engine_shed_queries` counter, and never silently.
//!
//! Two drive modes share all of that machinery: [`serve_closed`] replays
//! a fixed mixed-tenant stream until a trainer's done flag (the shape the
//! train-while-serve driver wants), and [`run_open`] lets a caller-side
//! producer inject requests at its own pace (the shape a load generator
//! wants).
//!
//! Two backends plug in: [`CellBackend`] over one
//! `SnapshotCell<FrozenHistogram>`, and the multi-tenant [`Registry`],
//! which publishes one [`TenantView`] per [`TenantKey`]. The per-epoch
//! attribution types ([`EpochRow`], [`EpochTimeline`]) live here so the
//! engine can attribute work as it serves.

#![warn(missing_docs)]

mod engine;
mod registry;
mod timeline;

pub use engine::{
    route_batch, run_open, serve_closed, Backend, CellBackend, EngineConfig, EngineRun,
    EngineStats, Injector, OpenReport, Pinned, ReaderStats, TenantId, DEFAULT_COALESCE,
};
pub use registry::{PublishOutcome, Registry, TenantKey, TenantView};
pub use timeline::{counter_marks, EpochRow, EpochTimeline};
