//! sth-store: a durable snapshot + delta-log store for self-tuning
//! histograms, LSM-style.
//!
//! The write path of an STHoles histogram is a deterministic fold over
//! query feedback: state ← refine(state, feedback). That makes
//! durability cheap — persist an occasional **snapshot** of the state
//! plus an append-only **delta log** of the feedback absorbed since, and
//! recovery is "load newest valid snapshot, replay the tail through the
//! ordinary refine path". Because the snapshot is a verbatim process
//! image (see `sth_histogram`'s `STI1` codec) and every delta carries
//! the exact materialized result rows, the recovered histogram is
//! **bit-identical** to one that never crashed — the crash-matrix test
//! proves it at every byte offset of a recorded run.
//!
//! On disk a store directory holds:
//!
//! * `MANIFEST` — the root of trust, republished by atomic rename (see
//!   [`manifest`]);
//! * `snap-<gen>.sths` — one snapshot per retained generation (see
//!   [`snapshot`]);
//! * `seg-<gen>.dlog` — the delta segment continuing generation `gen`
//!   (see [`delta`]); the newest generation's segment is *active*
//!   (append-only), older ones are sealed.
//!
//! [`Store::flush_snapshot`] rotates the lifecycle: write the new
//! snapshot, publish a manifest retaining the last
//! [`StoreConfig::retain_generations`] generations, then garbage-collect
//! everything the new manifest no longer names. Old generations within
//! the retention window remain openable via [`Store::open_at_epoch`]
//! (time-travel reads), and their sealed segments double as fallback
//! replay sources when a newer snapshot file turns out damaged.
//!
//! Every byte written goes through the [`vfs::Vfs`] seam, so the entire
//! lifecycle — including torn appends, a crash between temp-write and
//! rename, and death mid-GC — is exercised deterministically by
//! [`vfs::FaultVfs`].

#![warn(missing_docs)]

pub mod delta;
pub mod manifest;
pub mod snapshot;
mod trainer;
pub mod vfs;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sth_geometry::Rect;
use sth_histogram::{FrozenHistogram, StHoles};
use sth_index::ResultSetCounter;
use sth_platform::obs;
use sth_query::SelfTuning;

use delta::{DeltaRecord, TailState};
use manifest::{GenerationEntry, Manifest};
use vfs::Vfs;

pub use trainer::{AbsorbReport, DurableTrainer};

/// Knobs for the snapshot/compaction policy.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Flush a snapshot after this many deltas (K of the "every K
    /// deltas" policy).
    pub flush_every_deltas: usize,
    /// …or after this many delta-log bytes, whichever trips first.
    pub flush_every_bytes: u64,
    /// Generations kept for time travel / fallback recovery; older
    /// snapshots and their sealed segments are garbage-collected.
    pub retain_generations: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { flush_every_deltas: 64, flush_every_bytes: 1 << 20, retain_generations: 3 }
    }
}

/// Everything that can go wrong talking to a store.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem failed (includes injected crashes).
    Io(std::io::Error),
    /// On-disk state failed validation with no usable fallback.
    Corrupt(String),
    /// The store refused an operation after an earlier write failure;
    /// the on-disk state is fine, but this handle no longer knows what
    /// made it down — reopen to recover.
    Poisoned,
    /// [`Store::open_at_epoch`] asked for a generation the manifest does
    /// not retain.
    UnknownGeneration(u64),
    /// [`Store::create`] over an existing store directory.
    AlreadyExists,
    /// [`DurableTrainer::absorb`] got a counter that cannot materialize
    /// result rows. The delta log replays a refine from its rows, so it
    /// cannot record count-only feedback; nothing was appended.
    RowsUnavailable,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(what) => write!(f, "store corrupt: {what}"),
            StoreError::Poisoned => write!(f, "store poisoned by an earlier write failure"),
            StoreError::UnknownGeneration(g) => write!(f, "generation {g} is not retained"),
            StoreError::AlreadyExists => write!(f, "store directory already initialized"),
            StoreError::RowsUnavailable => {
                write!(f, "counter cannot materialize result rows for the delta log")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What [`Store::open`] had to do to get back to a valid state.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Generation whose snapshot was loaded.
    pub loaded_gen: u64,
    /// Newer snapshots that failed validation and were skipped (fallback
    /// recovery depth; 0 on the happy path).
    pub snapshots_skipped: usize,
    /// Delta records replayed through the refine path.
    pub replayed: u64,
    /// Recovered delta sequence number (the valid prefix length of the
    /// run, in absorbed queries).
    pub seq: u64,
    /// Tail state of each replayed segment, in replay order.
    pub tails: Vec<(u64, TailState)>,
    /// `true` when recovery could not reach the manifest's newest
    /// sequence and had to cut a fresh generation at the recovered
    /// prefix to reseal the log chain.
    pub resealed: bool,
}

impl RecoveryReport {
    /// `true` when any replayed segment had a torn tail — i.e. the
    /// process died mid-append rather than shutting down cleanly.
    pub fn torn(&self) -> bool {
        self.tails.iter().any(|(_, t)| t.is_torn())
    }
}

fn snap_name(gen: u64) -> String {
    format!("snap-{gen:010}.sths")
}

fn seg_name(gen: u64) -> String {
    format!("seg-{gen:010}.dlog")
}

/// A durable histogram store rooted at one directory.
///
/// The store owns the files; the caller owns the live [`StHoles`] and
/// feeds every absorbed feedback through [`Store::append_delta`]
/// *before* applying it to the histogram (write-ahead discipline — see
/// [`DurableTrainer`] for the packaged protocol).
pub struct Store {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    cfg: StoreConfig,
    manifest: Manifest,
    seq: u64,
    pending_deltas: usize,
    pending_bytes: u64,
    poisoned: bool,
    frame: Vec<u8>,
}

impl Store {
    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn check_cfg(cfg: &StoreConfig) {
        assert!(cfg.flush_every_deltas >= 1, "flush_every_deltas must be at least 1");
        assert!(cfg.retain_generations >= 1, "retain_generations must be at least 1");
    }

    /// Initializes a fresh store at `dir` with `hist` as generation 1.
    ///
    /// Fails with [`StoreError::AlreadyExists`] if a manifest is already
    /// present.
    pub fn create(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
        cfg: StoreConfig,
        hist: &StHoles,
    ) -> Result<Store, StoreError> {
        Self::check_cfg(&cfg);
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        if vfs.exists(&dir.join("MANIFEST")) {
            return Err(StoreError::AlreadyExists);
        }
        let mut store = Store {
            dir,
            vfs,
            cfg,
            manifest: Manifest {
                next_gen: 1,
                generations: Vec::new(),
            },
            seq: 0,
            pending_deltas: 0,
            pending_bytes: 0,
            poisoned: false,
            frame: Vec::new(),
        };
        store.rotate(hist)?;
        Ok(store)
    }

    /// Recovers the store at `dir`: loads the newest snapshot that
    /// decodes and matches its golden hash (falling back through retained
    /// generations), replays the delta tail through the refine path, and
    /// garbage-collects files the manifest no longer names.
    ///
    /// Never panics on corrupt input: damage in the log tail yields the
    /// longest valid prefix (reported via [`RecoveryReport`]); damage
    /// that leaves no usable snapshot yields [`StoreError::Corrupt`].
    pub fn open(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
        cfg: StoreConfig,
    ) -> Result<(Store, StHoles, RecoveryReport), StoreError> {
        Self::check_cfg(&cfg);
        let dir = dir.into();
        let _span = obs::span("store.open");
        let _t = obs::time_hist(obs::HistKind::StoreRecoverNs);
        let manifest_bytes = vfs
            .read(&dir.join("MANIFEST"))
            .map_err(|e| StoreError::Corrupt(format!("unreadable MANIFEST: {e}")))?;
        let manifest = Manifest::from_bytes(&manifest_bytes)
            .map_err(|e| StoreError::Corrupt(format!("MANIFEST: {}", e.what())))?;

        // Newest snapshot that actually decodes *and* hashes right wins.
        let mut loaded: Option<(usize, StHoles)> = None;
        for (idx, entry) in manifest.generations.iter().enumerate().rev() {
            let path = dir.join(snap_name(entry.gen));
            let decoded = vfs
                .read(&path)
                .ok()
                .and_then(|bytes| snapshot::decode_live(&bytes).ok())
                .filter(|(head, _)| head.gen == entry.gen && head.seq == entry.seq);
            if let Some((_, hist)) = decoded {
                loaded = Some((idx, hist));
                break;
            }
        }
        let Some((idx, mut hist)) = loaded else {
            return Err(StoreError::Corrupt("no retained snapshot decodes".into()));
        };
        let loaded_entry = manifest.generations[idx];
        let snapshots_skipped = manifest.generations.len() - 1 - idx;

        // Replay the segment chain from the loaded generation forward.
        // Sealed segments bridge to the next generation's sequence; the
        // final (active) segment carries the tail of the run.
        let mut seq = loaded_entry.seq;
        let mut replayed = 0u64;
        let mut tails = Vec::new();
        let mut chain_broken = false;
        let mut active_valid_len: Option<usize> = None;
        for (k, entry) in manifest.generations.iter().enumerate().skip(idx) {
            let is_active = k == manifest.generations.len() - 1;
            let bytes = vfs.read(&dir.join(seg_name(entry.gen))).unwrap_or_default();
            let (records, tail, valid_len) = delta::read_log(&bytes, seq + 1);
            for rec in &records {
                if rec.query.ndim() != sth_query::Estimator::ndim(&hist) {
                    break;
                }
                let counter = rec.counter();
                hist.refine_with_truth(&rec.query, &counter, rec.truth);
                seq = rec.seq;
                replayed += 1;
            }
            tails.push((entry.gen, tail));
            if is_active {
                if tail.is_torn() {
                    active_valid_len = Some(valid_len);
                }
            } else if seq != manifest.generations[k + 1].seq {
                // A sealed segment failed to bridge to the next
                // generation: the chain past this point belongs to a
                // state we can no longer reach. Stop at the valid
                // prefix.
                chain_broken = true;
                break;
            }
        }

        let mut store = Store {
            dir,
            vfs,
            cfg,
            manifest,
            seq,
            pending_deltas: 0,
            pending_bytes: 0,
            poisoned: false,
            frame: Vec::new(),
        };

        // Reseal: when replay fell short of the manifest's newest
        // sequence, the active segment's expected numbering no longer
        // matches what we would append. Cut a fresh generation at the
        // recovered prefix so the chain is consistent again.
        let newest_seq = store.manifest.newest().seq;
        let resealed = chain_broken || seq < newest_seq;
        if resealed {
            store.rotate(&hist)?;
        } else if let Some(valid_len) = active_valid_len {
            // Torn active tail: physically drop the garbage so future
            // appends parse.
            let seg = store.path(&seg_name(store.manifest.newest().gen));
            let prefix = store.vfs.read(&seg).unwrap_or_default()[..valid_len].to_vec();
            store.vfs.write_atomic(&seg, &prefix)?;
        }
        store.gc_unreferenced();

        // Fresh handles restart the byte half of the flush policy; the
        // delta half is the replayed distance to the newest snapshot.
        store.pending_deltas = seq.saturating_sub(store.manifest.newest().seq) as usize;
        store.pending_bytes = 0;

        let report = RecoveryReport {
            loaded_gen: loaded_entry.gen,
            snapshots_skipped,
            replayed,
            seq,
            tails,
            resealed,
        };
        if obs::event_enabled() {
            obs::event(
                "store_open",
                &[
                    ("loaded_gen", obs::FieldValue::Int(report.loaded_gen)),
                    ("skipped", obs::FieldValue::Int(report.snapshots_skipped as u64)),
                    ("replayed", obs::FieldValue::Int(report.replayed)),
                    ("seq", obs::FieldValue::Int(report.seq)),
                    ("torn", obs::FieldValue::Int(report.torn() as u64)),
                    ("resealed", obs::FieldValue::Int(report.resealed as u64)),
                ],
            );
        }
        Ok((store, hist, report))
    }

    /// Serves a time-travel read: the frozen histogram of retained
    /// generation `gen`, straight from its snapshot file's read-path
    /// section (no live decode, no replay).
    pub fn open_at_epoch(
        dir: impl AsRef<Path>,
        vfs: &dyn Vfs,
        gen: u64,
    ) -> Result<FrozenHistogram, StoreError> {
        let dir = dir.as_ref();
        let manifest_bytes = vfs
            .read(&dir.join("MANIFEST"))
            .map_err(|e| StoreError::Corrupt(format!("unreadable MANIFEST: {e}")))?;
        let manifest = Manifest::from_bytes(&manifest_bytes)
            .map_err(|e| StoreError::Corrupt(format!("MANIFEST: {}", e.what())))?;
        let entry = manifest
            .generations
            .iter()
            .find(|e| e.gen == gen)
            .copied()
            .ok_or(StoreError::UnknownGeneration(gen))?;
        let bytes = vfs
            .read(&dir.join(snap_name(gen)))
            .map_err(|e| StoreError::Corrupt(format!("unreadable snapshot {gen}: {e}")))?;
        let (head, frozen) = snapshot::decode_frozen(&bytes)
            .map_err(|e| StoreError::Corrupt(format!("snapshot {gen}: {}", e.what())))?;
        if head.gen != entry.gen || head.seq != entry.seq {
            return Err(StoreError::Corrupt(format!("snapshot {gen} header disagrees with manifest")));
        }
        Ok(frozen)
    }

    /// Durably appends one absorbed query-feedback. Call *before*
    /// applying the same feedback to the live histogram: a failed append
    /// leaves the histogram untouched and both sides agree on the last
    /// durable sequence.
    pub fn append_delta(
        &mut self,
        query: &Rect,
        result: &ResultSetCounter,
        truth: f64,
    ) -> Result<u64, StoreError> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        let _t = obs::time_hist(obs::HistKind::StoreAppendNs);
        let rec = DeltaRecord::from_feedback(self.seq + 1, query, result, truth);
        self.frame.clear();
        rec.encode_into(&mut self.frame);
        let seg = self.path(&seg_name(self.manifest.newest().gen));
        if let Err(e) = self.vfs.append(&seg, &self.frame) {
            self.poison("delta append");
            return Err(e.into());
        }
        self.seq += 1;
        self.pending_deltas += 1;
        self.pending_bytes += self.frame.len() as u64;
        obs::incr(obs::Counter::StoreDeltaAppends);
        Ok(self.seq)
    }

    /// `true` when the flush policy says it is time to snapshot.
    pub fn should_flush(&self) -> bool {
        self.pending_deltas >= self.cfg.flush_every_deltas
            || self.pending_bytes >= self.cfg.flush_every_bytes
    }

    /// Flushes `hist` — which must be the state after the last appended
    /// delta — as a new generation: snapshot file, manifest publish,
    /// then garbage collection of rotated-out generations. Returns the
    /// new generation number.
    pub fn flush_snapshot(&mut self, hist: &StHoles) -> Result<u64, StoreError> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        let _span = obs::span("store.flush");
        self.rotate(hist)
    }

    /// Snapshot + manifest + GC, the generation rotation shared by
    /// create/flush/reseal.
    fn rotate(&mut self, hist: &StHoles) -> Result<u64, StoreError> {
        let _t = obs::time_hist(obs::HistKind::StoreFlushNs);
        let gen = self.manifest.next_gen;
        let bytes = snapshot::encode(hist, gen, self.seq);
        let snap = self.path(&snap_name(gen));
        if let Err(e) = self.vfs.write_atomic(&snap, &bytes) {
            self.poison("snapshot write");
            return Err(e.into());
        }
        let mut generations = self.manifest.generations.clone();
        // Entries ahead of the current sequence are unreachable futures —
        // they only exist when a reseal cut the run back to a recovered
        // prefix, which invalidates every newer generation.
        let mut dropped: Vec<GenerationEntry> =
            generations.iter().copied().filter(|e| e.seq > self.seq).collect();
        generations.retain(|e| e.seq <= self.seq);
        generations.push(GenerationEntry { gen, seq: self.seq, golden: hist.golden_hash() });
        if generations.len() > self.cfg.retain_generations {
            dropped.extend(generations.drain(..generations.len() - self.cfg.retain_generations));
        }
        let next = Manifest { next_gen: gen + 1, generations };
        let manifest_bytes = next.to_bytes();
        if let Err(e) = self.vfs.write_atomic(&self.path("MANIFEST"), &manifest_bytes) {
            self.poison("manifest publish");
            return Err(e.into());
        }
        // The manifest is published: the new generation is durable.
        // Everything below is cleanup of now-unreferenced files.
        self.manifest = next;
        self.pending_deltas = 0;
        self.pending_bytes = 0;
        obs::incr(obs::Counter::StoreSnapshotFlushes);
        obs::add(obs::Counter::StoreBytesFlushed, (bytes.len() + manifest_bytes.len()) as u64);
        for old in dropped {
            if self.vfs.remove(&self.path(&snap_name(old.gen))).is_err()
                || self.vfs.remove(&self.path(&seg_name(old.gen))).is_err()
            {
                self.poison("generation gc");
                return Err(StoreError::Io(std::io::Error::other("gc failed")));
            }
        }
        Ok(gen)
    }

    /// Best-effort removal of files the manifest does not name: stray
    /// temp files and snapshots/segments orphaned by a crash between
    /// writing them and publishing the manifest.
    fn gc_unreferenced(&self) {
        let Ok(names) = self.vfs.list(&self.dir) else { return };
        for name in names {
            let keep = name == "MANIFEST"
                || self
                    .manifest
                    .generations
                    .iter()
                    .any(|e| name == snap_name(e.gen) || name == seg_name(e.gen));
            let ours = name.ends_with(".tmp")
                || (name.starts_with("snap-") && name.ends_with(".sths"))
                || (name.starts_with("seg-") && name.ends_with(".dlog"));
            if !keep && ours {
                let _ = self.vfs.remove(&self.dir.join(name));
            }
        }
    }

    /// Last durably appended delta sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Deltas appended since the newest snapshot.
    pub fn pending_deltas(&self) -> usize {
        self.pending_deltas
    }

    /// The retained generations, oldest first.
    pub fn generations(&self) -> &[GenerationEntry] {
        &self.manifest.generations
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `true` once a write failure has disabled this handle.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Disables the handle after a failed write and leaves a post-mortem
    /// trail: a `store_poisoned` event (trace sink and/or flight ring)
    /// followed by a flight-recorder dump, so the black box captures the
    /// poisoning itself as its final event.
    fn poison(&mut self, what: &str) {
        self.poisoned = true;
        if obs::event_enabled() {
            obs::event(
                "store_poisoned",
                &[
                    ("what", obs::FieldValue::Str(what)),
                    ("seq", obs::FieldValue::Int(self.seq)),
                    ("gen", obs::FieldValue::Int(self.manifest.newest().gen)),
                ],
            );
        }
        obs::flight::dump(&format!("store poisoned: {what}"));
    }
}
