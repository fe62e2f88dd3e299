//! Epoch-aligned serve timeline: what the serving tier did during each
//! published snapshot generation.
//!
//! The engine attributes every answered request to the epoch of the
//! snapshot that answered it; trainers attribute store flushes to the
//! epoch that was current when they happened. The merged [`EpochTimeline`]
//! rides on the serve reports and renders both ways:
//! [`EpochTimeline::to_json`] for machines,
//! [`EpochTimeline::render_table`] for eyes.
//!
//! Request latencies are measured directly in the engine (always on — the
//! timeline does not depend on `STH_METRICS`); kernel lane counters and
//! store bytes come from the [`obs`] counters and are zero when metrics
//! are disabled.

use std::collections::BTreeMap;

use sth_platform::obs::{self, ValueHist};

/// One epoch's serving activity.
#[derive(Clone, Debug, Default)]
pub struct EpochRow {
    /// The snapshot epoch the activity is attributed to.
    pub epoch: u64,
    /// Publishes that created this epoch: 0 for the initial snapshot
    /// (epoch 1), 1 for every republish.
    pub publishes: u64,
    /// Requests answered from this epoch across all engine threads.
    pub batches: u64,
    /// Individual estimates answered from this epoch.
    pub answered: u64,
    /// Wall-clock nanoseconds per answered request, queue wait included
    /// (mergeable histogram; p50/p99/p999 come from here).
    pub batch_ns: ValueHist,
    /// Lane-kernel invocations while serving this epoch (0 when
    /// `STH_METRICS` is off or services stayed below the kernel floor).
    pub kernel_calls: u64,
    /// Kernel lanes pruned by the hull gate while serving this epoch.
    pub lanes_pruned: u64,
    /// Store generations flushed while this epoch was current
    /// (durable runs only).
    pub flushes: u64,
    /// Bytes the store flushed (snapshot + manifest) while this epoch was
    /// current.
    pub store_bytes_flushed: u64,
}

impl EpochRow {
    /// Folds another partial row for the same epoch (e.g. from a second
    /// engine thread) into this one. Histogram merge keeps quantiles
    /// exact.
    pub fn absorb(&mut self, other: &EpochRow) {
        debug_assert_eq!(self.epoch, other.epoch);
        self.publishes += other.publishes;
        self.batches += other.batches;
        self.answered += other.answered;
        self.batch_ns.merge(&other.batch_ns);
        self.kernel_calls += other.kernel_calls;
        self.lanes_pruned += other.lanes_pruned;
        self.flushes += other.flushes;
        self.store_bytes_flushed += other.store_bytes_flushed;
    }
}

/// The per-epoch activity of one serve run, epochs ascending and
/// contiguous from 1 through the final published epoch.
#[derive(Clone, Debug, Default)]
pub struct EpochTimeline {
    /// One row per epoch, ascending.
    pub rows: Vec<EpochRow>,
}

impl EpochTimeline {
    /// Assembles the timeline from per-thread epoch maps plus the
    /// trainer's per-epoch store activity. Every epoch `1..=final_epoch`
    /// gets a row, even if nothing happened to be served from it.
    pub fn assemble(
        final_epoch: u64,
        reader_maps: Vec<BTreeMap<u64, EpochRow>>,
        trainer_rows: BTreeMap<u64, EpochRow>,
    ) -> Self {
        let mut by_epoch: BTreeMap<u64, EpochRow> = (1..=final_epoch)
            .map(|epoch| {
                (epoch, EpochRow { epoch, publishes: (epoch > 1) as u64, ..EpochRow::default() })
            })
            .collect();
        for map in reader_maps.iter().chain(std::iter::once(&trainer_rows)) {
            for (epoch, partial) in map {
                by_epoch
                    .entry(*epoch)
                    .or_insert_with(|| EpochRow { epoch: *epoch, ..EpochRow::default() })
                    .absorb(partial);
            }
        }
        Self { rows: by_epoch.into_values().collect() }
    }

    /// Row for one epoch, when present.
    pub fn row(&self, epoch: u64) -> Option<&EpochRow> {
        self.rows.iter().find(|r| r.epoch == epoch)
    }

    /// Total requests across all epochs.
    pub fn batches(&self) -> u64 {
        self.rows.iter().map(|r| r.batches).sum()
    }

    /// All request latencies collapsed into one distribution.
    pub fn batch_ns_overall(&self) -> ValueHist {
        let mut all = ValueHist::new();
        for r in &self.rows {
            all.merge(&r.batch_ns);
        }
        all
    }

    /// The timeline as one JSON array of epoch objects (latency in the
    /// same shape as [`ValueHist::to_json`]).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"epoch\": {}, \"publishes\": {}, \"batches\": {}, \"answered\": {}, \
                 \"batch_ns\": {}, \"kernel_calls\": {}, \"lanes_pruned\": {}, \
                 \"flushes\": {}, \"store_bytes_flushed\": {}}}",
                r.epoch,
                r.publishes,
                r.batches,
                r.answered,
                r.batch_ns.to_json(),
                r.kernel_calls,
                r.lanes_pruned,
                r.flushes,
                r.store_bytes_flushed,
            );
        }
        s.push(']');
        s
    }

    /// A fixed-width text table of the timeline, one row per epoch.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>5} {:>8} {:>9} {:>10} {:>10} {:>10} {:>8} {:>10} {:>7} {:>10}",
            "epoch",
            "batches",
            "answered",
            "p50_ns",
            "p99_ns",
            "p999_ns",
            "kernel",
            "pruned",
            "flush",
            "bytes"
        );
        for r in &self.rows {
            let (p50, p99, p999) = if r.batch_ns.is_empty() {
                (0, 0, 0)
            } else {
                (r.batch_ns.p50(), r.batch_ns.p99(), r.batch_ns.p999())
            };
            let _ = writeln!(
                s,
                "{:>5} {:>8} {:>9} {:>10} {:>10} {:>10} {:>8} {:>10} {:>7} {:>10}",
                r.epoch,
                r.batches,
                r.answered,
                p50,
                p99,
                p999,
                r.kernel_calls,
                r.lanes_pruned,
                r.flushes,
                r.store_bytes_flushed,
            );
        }
        s
    }
}

/// Reads the kernel/store counters that the engine differences to
/// attribute per-service work: (kernel calls, lanes pruned, store bytes).
pub fn counter_marks() -> (u64, u64, u64) {
    (
        obs::read(obs::Counter::BatchKernelCalls),
        obs::read(obs::Counter::BatchLanesPruned),
        obs::read(obs::Counter::StoreBytesFlushed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(epoch: u64, batches: u64, ns: &[u64]) -> EpochRow {
        let mut r = EpochRow { epoch, batches, answered: batches * 8, ..EpochRow::default() };
        for &v in ns {
            r.batch_ns.record(v);
        }
        r
    }

    #[test]
    fn assemble_merges_readers_and_fills_gaps() {
        let a = BTreeMap::from([(1, row(1, 2, &[100, 200])), (3, row(3, 1, &[300]))]);
        let b = BTreeMap::from([(1, row(1, 1, &[150]))]);
        let mut trainer = BTreeMap::new();
        trainer.insert(
            2,
            EpochRow { epoch: 2, flushes: 1, store_bytes_flushed: 4096, ..EpochRow::default() },
        );
        let tl = EpochTimeline::assemble(3, vec![a, b], trainer);
        assert_eq!(tl.rows.len(), 3, "every epoch 1..=3 present");
        assert_eq!(tl.rows[0].batches, 3);
        assert_eq!(tl.rows[0].batch_ns.count(), 3);
        assert_eq!(tl.rows[0].publishes, 0, "epoch 1 is the initial snapshot");
        assert_eq!(tl.rows[1].publishes, 1);
        assert_eq!(tl.rows[1].batches, 0, "gap epoch still gets a row");
        assert_eq!(tl.rows[1].flushes, 1);
        assert_eq!(tl.rows[1].store_bytes_flushed, 4096);
        assert_eq!(tl.batches(), 4);
        assert_eq!(tl.batch_ns_overall().count(), 4);
        let json = tl.to_json();
        assert!(json.starts_with("[{\"epoch\": 1"));
        assert!(json.contains("\"store_bytes_flushed\": 4096"));
        let table = tl.render_table();
        assert_eq!(table.lines().count(), 4, "header + 3 epochs");
        assert!(table.contains("p999_ns"));
    }

    #[test]
    fn row_absorb_adds_every_count_and_merges_latencies() {
        let mut a = row(4, 2, &[100, 200]);
        a.kernel_calls = 3;
        let b = EpochRow {
            epoch: 4,
            publishes: 1,
            batches: 1,
            answered: 5,
            kernel_calls: 2,
            lanes_pruned: 7,
            flushes: 1,
            store_bytes_flushed: 512,
            ..row(4, 0, &[50])
        };
        a.absorb(&b);
        assert_eq!((a.epoch, a.publishes, a.batches, a.answered), (4, 1, 3, 21));
        assert_eq!((a.kernel_calls, a.lanes_pruned), (5, 7));
        assert_eq!((a.flushes, a.store_bytes_flushed), (1, 512));
        assert_eq!(a.batch_ns.count(), 3);
        let mut whole = ValueHist::new();
        for v in [100, 200, 50] {
            whole.record(v);
        }
        assert_eq!((a.batch_ns.p50(), a.batch_ns.p99()), (whole.p50(), whole.p99()));
    }

    #[test]
    fn row_lookup_finds_assembled_epochs_only() {
        let tl = EpochTimeline::assemble(3, Vec::new(), BTreeMap::new());
        assert_eq!(tl.row(2).map(|r| (r.epoch, r.publishes)), Some((2, 1)));
        assert!(tl.row(0).is_none());
        assert!(tl.row(4).is_none());
        assert_eq!(tl.batches(), 0);
    }

    #[test]
    fn idle_epochs_render_zero_quantiles() {
        let served = BTreeMap::from([(2, row(2, 1, &[900]))]);
        let tl = EpochTimeline::assemble(2, vec![served], BTreeMap::new());
        let table = tl.render_table();
        let idle: Vec<&str> = table.lines().nth(1).unwrap().split_whitespace().collect();
        assert_eq!(idle, ["1", "0", "0", "0", "0", "0", "0", "0", "0", "0"]);
        assert!(tl.to_json().contains("\"epoch\": 2, \"publishes\": 1, \"batches\": 1"));
        let empty = EpochTimeline::default();
        assert_eq!(empty.to_json(), "[]");
        assert_eq!(empty.render_table().lines().count(), 1, "header only");
        assert!(empty.batch_ns_overall().is_empty());
    }
}
