//! Outside hooks on the serving and storage seams: timing wrappers over
//! the engine's `Backend`/`Pinned` traits, a registry backend, and a
//! write-counting `Vfs`. They sit on the public traits, so the program
//! under test is unchanged.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use sth_eval::{Registry, TenantId, TenantView};
use sth_geometry::Rect;
use sth_platform::snap::SnapshotGuard;
use sth_serve::{Backend, Pinned};
use sth_store::vfs::Vfs;

/// One `estimate_batch` call the engine issued against a pinned snapshot.
#[derive(Clone, Copy, Debug)]
pub struct Service {
    pub start: Instant,
    pub end: Instant,
    pub queries: u32,
}

#[derive(Default)]
pub struct ServiceLog {
    services: Mutex<Vec<Service>>,
    /// Nanoseconds per `Backend::repin` call, cache hits included.
    repins: Mutex<Vec<u64>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark engine thread panicked while logging")
}

impl ServiceLog {
    /// Takes everything logged so far, leaving the log empty.
    pub fn drain(&self) -> (Vec<Service>, Vec<u64>) {
        (
            std::mem::take(&mut *lock(&self.services)),
            std::mem::take(&mut *lock(&self.repins)),
        )
    }
}

/// Times every service and repin of the wrapped backend into a
/// [`ServiceLog`].
pub struct TimedBackend<'a, B> {
    pub inner: B,
    pub log: &'a ServiceLog,
}

pub struct TimedPinned<'a, P> {
    inner: P,
    log: &'a ServiceLog,
}

impl<'a, B: Backend> Backend for TimedBackend<'a, B> {
    type Pinned = TimedPinned<'a, B::Pinned>;

    fn tenant_count(&self) -> usize {
        self.inner.tenant_count()
    }

    fn repin(&self, tenant: TenantId, seen: u64) -> Option<Self::Pinned> {
        let t0 = Instant::now();
        let pin = self.inner.repin(tenant, seen);
        let ns = t0.elapsed().as_nanos() as u64;
        lock(&self.log.repins).push(ns);
        pin.map(|inner| TimedPinned {
            inner,
            log: self.log,
        })
    }

    fn mark_route(&self) {
        self.inner.mark_route()
    }
}

impl<P: Pinned> Pinned for TimedPinned<'_, P> {
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn composite_epoch(&self) -> u64 {
        self.inner.composite_epoch()
    }

    fn estimate_batch(&self, queries: &[Rect], out: &mut Vec<f64>) {
        let start = Instant::now();
        self.inner.estimate_batch(queries, out);
        let end = Instant::now();
        lock(&self.log.services).push(Service {
            start,
            end,
            queries: queries.len() as u32,
        });
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }
}

/// The registry as an engine backend: one queue per tenant, pins through
/// [`Registry::load_if_newer`]. (`sth-eval` has its own, private one.)
pub struct RegistryBackend<'a> {
    pub registry: &'a Registry,
}

pub struct ViewPin(SnapshotGuard<TenantView>);

impl Backend for RegistryBackend<'_> {
    type Pinned = ViewPin;

    fn tenant_count(&self) -> usize {
        self.registry.tenant_count()
    }

    fn repin(&self, tenant: TenantId, seen: u64) -> Option<ViewPin> {
        self.registry.load_if_newer(tenant, seen).map(ViewPin)
    }
}

impl Pinned for ViewPin {
    fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    fn composite_epoch(&self) -> u64 {
        self.0.composite_epoch()
    }

    fn estimate_batch(&self, queries: &[Rect], out: &mut Vec<f64>) {
        self.0.estimate_batch(queries, out)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.0.check_invariants()
    }
}

/// Counts write calls and bytes written through the wrapped `Vfs`.
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    writes: AtomicU64,
    bytes: AtomicU64,
}

impl CountingVfs {
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        Self {
            inner,
            writes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// `(write calls, bytes written)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.writes.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    fn count(&self, bytes: &[u8]) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.count(bytes);
        self.inner.append(path, bytes)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.count(bytes);
        self.inner.write_atomic(path, bytes)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}
