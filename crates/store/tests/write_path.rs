//! The write path's contract: what each absorb reports, the flush policy
//! (delta and byte budgets, forced flushes, its cadence across a
//! reopen), poisoning after a failed write, configuration checks, error
//! rendering, and what `open` and time-travel reads refuse or clean up.

mod common;

use std::path::Path;
use std::sync::Arc;

use sth_index::{RangeCounter, ScanCounter};
use sth_query::CardinalityEstimator;
use sth_store::vfs::{FaultVfs, MemVfs, Vfs};
use sth_store::{DurableTrainer, Store, StoreConfig, StoreError};

use common::{cfg, dataset, fresh_hist, queries, record_run, DIR};

/// Retained generations as `(gen, seq)` pairs, oldest first.
fn gens(trainer: &DurableTrainer) -> Vec<(u64, u64)> {
    trainer.store().generations().iter().map(|e| (e.gen, e.seq)).collect()
}

#[test]
fn absorb_reports_sequence_truth_and_flushed_generation() {
    let ds = dataset();
    let counter = ScanCounter::new(&ds);
    let mut trainer =
        DurableTrainer::create(DIR, Arc::new(MemVfs::new()), cfg(), fresh_hist(&ds))
            .expect("create");
    // `create` wrote generation 1; flushing every 4 deltas cuts the next
    // generation on every fourth absorb.
    for (i, q) in queries(10).iter().enumerate() {
        let seq = i as u64 + 1;
        let report = trainer.absorb(q, &counter).expect("absorb");
        assert_eq!(report.seq, seq);
        assert_eq!(report.truth, counter.count(q) as f64, "truth is the query's row count");
        let expected_gen = (seq % 4 == 0).then_some(1 + seq / 4);
        assert_eq!(report.flushed_gen, expected_gen, "absorb {seq}");
        assert_eq!(trainer.store().pending_deltas() as u64, seq % 4);
    }
    assert_eq!(trainer.seq(), 10);
}

#[test]
fn byte_budget_trips_a_flush_on_its_own() {
    let ds = dataset();
    let counter = ScanCounter::new(&ds);
    // The delta budget never trips; a one-byte budget trips on every
    // appended delta.
    let cfg = StoreConfig { flush_every_deltas: usize::MAX, flush_every_bytes: 1, ..cfg() };
    let mut trainer =
        DurableTrainer::create(DIR, Arc::new(MemVfs::new()), cfg, fresh_hist(&ds))
            .expect("create");
    for (i, q) in queries(5).iter().enumerate() {
        let report = trainer.absorb(q, &counter).expect("absorb");
        assert_eq!(report.flushed_gen, Some(i as u64 + 2), "absorb {} did not flush", i + 1);
        assert_eq!(trainer.store().pending_deltas(), 0);
    }
}

#[test]
fn forced_flush_cuts_a_generation_at_the_current_sequence() {
    let ds = dataset();
    let counter = ScanCounter::new(&ds);
    let mem = Arc::new(MemVfs::new());
    let mut trainer =
        DurableTrainer::create(DIR, mem.clone(), cfg(), fresh_hist(&ds)).expect("create");
    for q in &queries(6) {
        trainer.absorb(q, &counter).expect("absorb");
    }
    // Generation 2 flushed at seq 4; two deltas are pending.
    assert_eq!(trainer.store().pending_deltas(), 2);
    let gen = trainer.flush().expect("flush");
    assert_eq!(gen, 3);
    assert_eq!(gens(&trainer), vec![(1, 0), (2, 4), (3, 6)]);
    assert_eq!(trainer.store().pending_deltas(), 0);
    let golden = trainer.golden_hash();
    drop(trainer);

    // A reopen loads the forced generation and has nothing to replay.
    let (back, report) = DurableTrainer::open(DIR, mem, cfg()).expect("open");
    assert_eq!((report.loaded_gen, report.replayed, report.seq), (3, 0, 6));
    assert_eq!(back.golden_hash(), golden);
}

#[test]
fn reopen_keeps_the_flush_cadence_of_an_uninterrupted_run() {
    // Flushing every 4 deltas, 14 absorbs leave 2 pending past the
    // generation cut at seq 12.
    let rec = record_run(14);
    let mem = Arc::new(MemVfs::from_files(rec.files));
    let (mut resumed, _) = DurableTrainer::open(DIR, mem, cfg()).expect("open");
    assert_eq!(resumed.store().pending_deltas(), 2);
    let ds = dataset();
    let counter = ScanCounter::new(&ds);
    let qs = queries(16);
    // The uninterrupted run flushes at seq 16; so does the resumed one.
    let at_15 = resumed.absorb(&qs[14], &counter).expect("absorb 15");
    let at_16 = resumed.absorb(&qs[15], &counter).expect("absorb 16");
    assert_eq!((at_15.flushed_gen, at_16.flushed_gen), (None, Some(5)));
    assert_eq!(resumed.store().generations().last().map(|e| e.seq), Some(16));
    assert_eq!(resumed.golden_hash(), record_run(16).goldens[16]);
}

#[test]
fn a_failed_append_poisons_every_later_write() {
    let ds = dataset();
    let counter = ScanCounter::new(&ds);
    let qs = queries(3);
    let cfg = StoreConfig { flush_every_deltas: 100, ..cfg() };

    // Reference: the write cost up to and through the second append.
    let probe = Arc::new(FaultVfs::unlimited(Arc::new(MemVfs::new())));
    let mut reference =
        DurableTrainer::create(DIR, probe.clone() as Arc<dyn Vfs>, cfg.clone(), fresh_hist(&ds))
            .expect("create");
    reference.absorb(&qs[0], &counter).expect("absorb 1");
    let (after_first, golden_first) = (probe.consumed(), reference.golden_hash());
    reference.absorb(&qs[1], &counter).expect("absorb 2");
    let second_append = probe.consumed() - after_first;

    // Same run with the second append torn halfway.
    let mem = Arc::new(MemVfs::new());
    let vfs = Arc::new(FaultVfs::new(mem.clone(), after_first + second_append / 2));
    let mut trainer =
        DurableTrainer::create(DIR, vfs as Arc<dyn Vfs>, cfg.clone(), fresh_hist(&ds))
            .expect("create");
    trainer.absorb(&qs[0], &counter).expect("absorb 1");
    assert!(matches!(trainer.absorb(&qs[1], &counter), Err(StoreError::Io(_))));
    assert!(trainer.store().poisoned());
    // Memory and disk still agree on the last durable sequence, and the
    // handle refuses everything after the failure.
    assert_eq!((trainer.seq(), trainer.golden_hash()), (1, golden_first));
    assert!(matches!(trainer.absorb(&qs[2], &counter), Err(StoreError::Poisoned)));
    assert!(matches!(trainer.flush(), Err(StoreError::Poisoned)));
    assert_eq!((trainer.seq(), trainer.golden_hash()), (1, golden_first));
    drop(trainer);

    // Reopening drops the torn tail and resumes at the durable prefix.
    let (back, report) = DurableTrainer::open(DIR, mem, cfg).expect("open");
    assert!(report.torn(), "the torn append must show in the report: {report:?}");
    assert_eq!((report.seq, back.golden_hash()), (1, golden_first));
    assert!(!back.store().poisoned());
}

#[test]
#[should_panic(expected = "flush_every_deltas must be at least 1")]
fn zero_delta_budget_is_rejected() {
    let ds = dataset();
    let cfg = StoreConfig { flush_every_deltas: 0, ..cfg() };
    let _ = DurableTrainer::create(DIR, Arc::new(MemVfs::new()), cfg, fresh_hist(&ds));
}

#[test]
#[should_panic(expected = "retain_generations must be at least 1")]
fn zero_retention_is_rejected_on_open() {
    let rec = record_run(4);
    let cfg = StoreConfig { retain_generations: 0, ..cfg() };
    let _ = DurableTrainer::open(DIR, Arc::new(MemVfs::from_files(rec.files)), cfg);
}

#[test]
fn open_collects_orphans_and_temp_files_but_nothing_else() {
    let rec = record_run(14);
    let mem = Arc::new(MemVfs::from_files(rec.files));
    let dir = Path::new(DIR);
    let before = mem.list(dir).unwrap();
    // What a crash between writing a file and publishing the manifest
    // leaves behind, plus a file the store does not own.
    for stray in ["snap-0000000009.sths", "seg-0000000009.dlog", "MANIFEST.tmp", "notes.txt"] {
        mem.set(dir.join(stray), b"stray".to_vec());
    }
    let (trainer, report) = DurableTrainer::open(DIR, mem.clone(), cfg()).expect("open");
    assert_eq!(report.seq, rec.final_seq);
    assert_eq!(trainer.golden_hash(), rec.goldens[rec.final_seq as usize]);
    let mut expected = before;
    expected.push("notes.txt".to_string());
    expected.sort();
    assert_eq!(mem.list(dir).unwrap(), expected);
}

#[test]
fn a_directory_without_a_manifest_is_corrupt() {
    let mem = MemVfs::new();
    match DurableTrainer::open(DIR, Arc::new(MemVfs::new()), cfg()) {
        Err(StoreError::Corrupt(what)) => assert!(what.contains("MANIFEST"), "got {what:?}"),
        other => panic!("expected Corrupt, got {:?}", other.err()),
    }
    match Store::open_at_epoch(DIR, &mem, 1) {
        Err(StoreError::Corrupt(what)) => assert!(what.contains("MANIFEST"), "got {what:?}"),
        other => panic!("expected Corrupt, got {:?}", other.err()),
    }
}

#[test]
fn a_snapshot_filed_under_the_wrong_generation_is_refused() {
    let rec = record_run(14);
    let mem = Arc::new(MemVfs::from_files(rec.files));
    let dir = Path::new(DIR);
    // Generation 3's snapshot decodes cleanly, but its header names
    // generation 3 and seq 8, not the manifest's 4 and 12.
    let snap3 = mem.read(&dir.join("snap-0000000003.sths")).unwrap();
    mem.set(dir.join("snap-0000000004.sths"), snap3);
    match Store::open_at_epoch(DIR, mem.as_ref(), 4) {
        Err(StoreError::Corrupt(what)) => assert!(what.contains("disagrees"), "got {what:?}"),
        other => panic!("expected Corrupt, got {:?}", other.err()),
    }
    // Recovery skips it like any damaged snapshot and replays forward.
    let (trainer, report) = DurableTrainer::open(DIR, mem, cfg()).expect("open");
    assert_eq!((report.loaded_gen, report.snapshots_skipped), (3, 1));
    assert_eq!(report.seq, rec.final_seq);
    assert_eq!(trainer.golden_hash(), rec.goldens[rec.final_seq as usize]);
}

#[test]
fn into_parts_hands_back_the_trained_state() {
    let ds = dataset();
    let counter = ScanCounter::new(&ds);
    let mut trainer =
        DurableTrainer::create(DIR, Arc::new(MemVfs::new()), cfg(), fresh_hist(&ds))
            .expect("create");
    for q in &queries(9) {
        trainer.absorb(q, &counter).expect("absorb");
    }
    let (golden, generations) = (trainer.golden_hash(), gens(&trainer));
    let frozen = trainer.freeze();
    let (store, hist) = trainer.into_parts();
    assert_eq!(hist.golden_hash(), golden);
    assert_eq!((store.seq(), store.pending_deltas()), (9, 1));
    let store_gens: Vec<(u64, u64)> = store.generations().iter().map(|e| (e.gen, e.seq)).collect();
    assert_eq!(store_gens, generations);
    assert_eq!(store.dir(), Path::new(DIR));
    // The freeze taken before the split answers like the live histogram.
    for p in &queries(20) {
        let live = CardinalityEstimator::estimate(&hist, p);
        assert_eq!(frozen.estimate(p).to_bits(), live.to_bits());
    }
}

#[test]
fn store_errors_name_their_cause() {
    let io: StoreError = std::io::Error::other("disk on fire").into();
    assert!(matches!(io, StoreError::Io(_)));
    let cases = [
        (io, "disk on fire"),
        (StoreError::Corrupt("MANIFEST: bad magic".into()), "MANIFEST: bad magic"),
        (StoreError::Poisoned, "poisoned"),
        (StoreError::UnknownGeneration(42), "generation 42"),
        (StoreError::AlreadyExists, "already initialized"),
        (StoreError::RowsUnavailable, "cannot materialize result rows"),
    ];
    for (err, needle) in cases {
        let text = err.to_string();
        assert!(text.contains(needle), "{err:?} renders as {text:?}");
    }
}
