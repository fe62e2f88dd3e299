//! Property tests over damaged stores: truncate or corrupt the on-disk
//! state at arbitrary offsets and demand that `Store::open` never
//! panics, always recovers a valid *prefix* of the recorded run (checked
//! by golden hash), and reports torn tails distinctly from clean
//! shutdowns.

mod common;

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use sth_platform::check::prelude::*;

use sth_index::ScanCounter;
use sth_store::delta::read_log;
use sth_store::vfs::{MemVfs, Vfs};
use sth_store::{DurableTrainer, StoreError};

use common::{cfg, dataset, queries, record_run, Recorded, DIR};

const N: usize = 14;

/// The recorded clean run (14 queries, flush every 4 → generations
/// {2,3,4} at sequences {4,8,12}, active segment seg-4 holding 13–14).
fn recorded() -> &'static Recorded {
    static REC: OnceLock<Recorded> = OnceLock::new();
    REC.get_or_init(|| record_run(N))
}

fn dir() -> &'static Path {
    Path::new(DIR)
}

fn seg_path(gen: u64) -> PathBuf {
    dir().join(format!("seg-{gen:010}.dlog"))
}

fn snap_path(gen: u64) -> PathBuf {
    dir().join(format!("snap-{gen:010}.sths"))
}

/// Byte offsets of record boundaries in a segment, starting with 0.
fn boundaries(seg: &[u8], first_seq: u64) -> Vec<usize> {
    let (records, tail, valid) = read_log(seg, first_seq);
    assert!(!tail.is_torn(), "fixture segment must be clean");
    assert_eq!(valid, seg.len());
    let mut at = 0usize;
    let mut out = vec![0];
    for r in &records {
        at += r.frame_len();
        out.push(at);
    }
    out
}

check! {
    cases = 64;

    fn truncating_the_active_segment_yields_the_exact_prefix(frac in 0.0f64..1.0) {
        let rec = recorded();
        let seg = rec.files.get(&seg_path(4)).expect("active segment").clone();
        let cut = ((seg.len() as f64) * frac) as usize;
        let mem = Arc::new(MemVfs::from_files(rec.files.clone()));
        mem.set(seg_path(4), seg[..cut].to_vec());

        let (trainer, report) = DurableTrainer::open(DIR, mem, cfg()).expect("open");
        // seg-4 starts after gen 4's flush point (seq 12); every full
        // frame before the cut survives, nothing after it does.
        let bounds = boundaries(&seg, 13);
        let survived = bounds.iter().filter(|&&b| b > 0 && b <= cut).count() as u64;
        prop_assert_eq!(report.seq, 12 + survived);
        prop_assert_eq!(trainer.seq(), report.seq);
        prop_assert_eq!(trainer.golden_hash(), rec.goldens[report.seq as usize]);
        // Clean cut ⇔ clean tail: the report distinguishes a shutdown
        // from a torn append.
        let on_boundary = bounds.contains(&cut);
        let (_, tail) = report.tails.last().copied().expect("active segment tail");
        prop_assert_eq!(tail.is_torn(), !on_boundary);
        prop_assert_eq!(report.torn(), !on_boundary);
        prop_assert!(!report.resealed);
    }

    fn flipping_any_byte_anywhere_never_panics_and_keeps_a_valid_prefix(
        file_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let rec = recorded();
        let names: Vec<&PathBuf> = rec.files.keys().collect();
        let victim = names[((names.len() as f64) * file_frac) as usize % names.len()].clone();
        let mut bytes = rec.files[&victim].clone();
        if bytes.is_empty() {
            return Ok(());
        }
        let at = ((bytes.len() as f64) * byte_frac) as usize % bytes.len();
        bytes[at] ^= mask;
        let mem = Arc::new(MemVfs::from_files(rec.files.clone()));
        mem.set(victim.clone(), bytes);

        match DurableTrainer::open(DIR, mem, cfg()) {
            Ok((trainer, report)) => {
                prop_assert!(report.seq <= rec.final_seq);
                prop_assert_eq!(trainer.golden_hash(), rec.goldens[report.seq as usize]);
            }
            Err(StoreError::Corrupt(_)) => {
                // A single flip can only be unrecoverable in the root of
                // trust: segments truncate, snapshots fall back.
                prop_assert_eq!(victim, dir().join("MANIFEST"));
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    fn mid_chain_damage_reseals_and_training_continues(
        frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let rec = recorded();
        let mem = Arc::new(MemVfs::from_files(rec.files.clone()));
        // Kill the newest snapshot so recovery must fall back to gen 3
        // (seq 8) and replay sealed seg-3 …
        let mut snap = rec.files[&snap_path(4)].clone();
        let mid = snap.len() / 2;
        snap[mid] ^= mask;
        mem.set(snap_path(4), snap);
        // … then cut sealed seg-3 somewhere, breaking the chain.
        let seg = rec.files[&seg_path(3)].clone();
        let cut = ((seg.len() as f64) * frac) as usize;
        mem.set(seg_path(3), seg[..cut].to_vec());

        let (trainer, report) = DurableTrainer::open(DIR, mem.clone(), cfg()).expect("open");
        let bounds = boundaries(&seg, 9);
        let survived = bounds.iter().filter(|&&b| b > 0 && b <= cut).count() as u64;
        let expect_seq = 8 + survived;
        prop_assert_eq!(report.loaded_gen, 3);
        prop_assert_eq!(report.snapshots_skipped, 1);
        prop_assert_eq!(report.seq, expect_seq);
        prop_assert_eq!(trainer.golden_hash(), rec.goldens[expect_seq as usize]);
        // Short of the manifest's newest sequence (12) the chain must be
        // resealed under a fresh generation …
        prop_assert_eq!(report.resealed, expect_seq < 12);

        // … after which training resumes on the recorded trajectory.
        let ds = dataset();
        let counter = ScanCounter::new(&ds);
        let (mut resumed, second) =
            DurableTrainer::open(DIR, mem as Arc<dyn Vfs>, cfg()).expect("reopen");
        prop_assert_eq!(second.seq, expect_seq);
        for q in queries(N).iter().skip(expect_seq as usize) {
            resumed.absorb(q, &counter).expect("absorb after reseal");
        }
        prop_assert_eq!(resumed.seq(), rec.final_seq);
        prop_assert_eq!(resumed.golden_hash(), rec.goldens[rec.final_seq as usize]);
    }
}
