//! The packaged write-ahead training protocol: one object that keeps a
//! live histogram and its durable store in lockstep.
//!
//! Per absorbed query: materialize the result rows, **append the delta**
//! (write-ahead), then refine the in-memory histogram, then flush a
//! snapshot generation if the policy says so. A crash at any point
//! leaves the on-disk state equal to some prefix of the absorb sequence,
//! and [`DurableTrainer::open`] resumes from exactly that prefix —
//! bit-identically, per the crash-matrix test.

use std::path::PathBuf;
use std::sync::Arc;

use sth_geometry::Rect;
use sth_histogram::{FrozenHistogram, StHoles};
use sth_index::{RangeCounter, ResultSetCounter};
use sth_platform::obs;
use sth_query::SelfTuning;

use crate::vfs::Vfs;
use crate::{RecoveryReport, Store, StoreConfig, StoreError};

/// What one [`DurableTrainer::absorb`] call did.
#[derive(Clone, Copy, Debug)]
pub struct AbsorbReport {
    /// Durable sequence number of the absorbed feedback.
    pub seq: u64,
    /// True cardinality handed to the refine path.
    pub truth: f64,
    /// New generation number when this absorb tripped a snapshot flush.
    pub flushed_gen: Option<u64>,
}

/// A live [`StHoles`] plus its [`Store`], kept in write-ahead lockstep.
pub struct DurableTrainer {
    store: Store,
    hist: StHoles,
    result: ResultSetCounter,
}

impl DurableTrainer {
    /// Initializes a fresh store seeded with `hist` (generation 1).
    pub fn create(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
        cfg: StoreConfig,
        hist: StHoles,
    ) -> Result<Self, StoreError> {
        let ndim = sth_query::Estimator::ndim(&hist);
        let store = Store::create(dir, vfs, cfg, &hist)?;
        Ok(Self { store, hist, result: ResultSetCounter::empty(ndim) })
    }

    /// Recovers trainer state from an existing store directory.
    pub fn open(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
        cfg: StoreConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let (store, hist, report) = Store::open(dir, vfs, cfg)?;
        let ndim = sth_query::Estimator::ndim(&hist);
        Ok((Self { store, hist, result: ResultSetCounter::empty(ndim) }, report))
    }

    /// Absorbs one executed query: logs the feedback durably, refines
    /// the live histogram, and flushes a snapshot when due.
    ///
    /// On error the live histogram is untouched — memory and disk agree
    /// on the last durable sequence, so a dead trainer can simply be
    /// reopened.
    ///
    /// The counter must materialize result rows: refinement counts every
    /// candidate hole from the logged rows, so count-only feedback would
    /// train every drilled hole to zero. Such a counter is rejected with
    /// [`StoreError::RowsUnavailable`] before anything is logged; the
    /// store is not poisoned and the next absorb with rows proceeds.
    pub fn absorb(
        &mut self,
        query: &Rect,
        counter: &dyn RangeCounter,
    ) -> Result<AbsorbReport, StoreError> {
        if !self.result.refill_from_counter(counter, query) {
            return Err(StoreError::RowsUnavailable);
        }
        let truth = self.result.total() as f64;
        // Emitted before the append so a write failure's flight-recorder
        // dump shows the absorb that died, not just the ones before it.
        if obs::event_enabled() {
            obs::event(
                "absorb",
                &[
                    ("seq", obs::FieldValue::Int(self.store.seq() + 1)),
                    ("truth", obs::FieldValue::Num(truth)),
                ],
            );
        }
        let seq = self.store.append_delta(query, &self.result, truth)?;
        self.hist.refine_with_truth(query, &self.result, truth);
        let flushed_gen =
            if self.store.should_flush() { Some(self.store.flush_snapshot(&self.hist)?) } else { None };
        Ok(AbsorbReport { seq, truth, flushed_gen })
    }

    /// Forces a snapshot generation at the current sequence.
    pub fn flush(&mut self) -> Result<u64, StoreError> {
        self.store.flush_snapshot(&self.hist)
    }

    /// The live histogram.
    pub fn hist(&self) -> &StHoles {
        &self.hist
    }

    /// A frozen read-path snapshot of the current state.
    pub fn freeze(&self) -> FrozenHistogram {
        self.hist.freeze()
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Last durable sequence number.
    pub fn seq(&self) -> u64 {
        self.store.seq()
    }

    /// Golden hash of the live histogram ([`StHoles::golden_hash`]).
    pub fn golden_hash(&self) -> u64 {
        self.hist.golden_hash()
    }

    /// Tears the trainer apart (e.g. to hand the histogram to a serve
    /// loop after training ends).
    pub fn into_parts(self) -> (Store, StHoles) {
        (self.store, self.hist)
    }
}
