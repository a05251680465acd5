//! The content-addressed on-disk result store.
//!
//! One file per completed cell, named `<hash>.json`, holding the full
//! [`CellKey`] (for auditability and `gc` debugging) plus the `SimReport`,
//! followed by a one-line integrity footer:
//!
//! ```text
//! { …pretty JSON CellRecord… }
//! #chronus-cell v2 len=<payload bytes> fnv=<128-bit FNV digest>
//! ```
//!
//! Every read re-verifies the footer (length catches truncation, the
//! digest catches bit rot and torn writes, the version token catches
//! format drift), so a damaged entry can never silently feed a figure —
//! it behaves as a cache miss and is re-simulated. The footer is a pure
//! function of the payload, which preserves the byte-identity invariant:
//! two stores that simulated the same cells hold identical files.
//!
//! Writes go through a temp file + rename so concurrent sharded processes
//! sharing one directory never observe torn entries; temp files orphaned
//! by killed processes are reaped on open (when stale) and by
//! [`ResultStore::fsck`] (unconditionally). `fsck` moves entries that fail
//! verification into `quarantine/`, which re-enqueues them: the next run
//! misses on the quarantined hash and re-simulates the cell.
//!
//! Two kinds of non-authoritative sidecar live next to the entries:
//! `walls.log` records the wall-clock seconds each simulated cell cost
//! (feeding the executor's adaptive watchdog deadline), one `<hash>
//! <seconds>` line per simulation, and `failures/<grid>.json` holds the
//! [`FailureManifest`](crate::exec::FailureManifest) of the last degraded
//! run. Neither participates in byte-identity or cache hits.
//!
//! The wall log is one file appended to with one `write` per line, not a
//! file per cell: on an ext4 store on a 2-vCPU VM, creating a small file
//! soon after others were deleted cost about 0.5 ms of kernel time, half
//! of what a median `fig7` cell takes to simulate, and the cost rose with
//! the number of files deleted shortly before. A line torn by a crash, or
//! interleaved by writers on a filesystem without atomic appends, fails to
//! parse and is skipped. Wall records are not pruned: a record outlives a `gc`'d entry
//! and still states what that cell cost. Stores written before the log
//! kept a `<hash>.wall` file per cell; `fsck` and `gc` remove those.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use chronus_sim::SimReport;
use serde::{Deserialize, Serialize};

use crate::cell::{CellKey, CellSpec, SIM_VERSION};
use crate::exec::FailureManifest;
use crate::faults::FaultInjector;
use crate::hash::digest128;
use crate::journal::{EventKind, Journal};
use crate::lease;

/// Environment variable overriding the default store directory.
pub const GRID_DIR_ENV: &str = "CHRONUS_GRID_DIR";

/// Default store directory under the working directory.
pub const DEFAULT_GRID_DIR: &str = "grid-cache";

/// On-disk entry format version, stamped into (and checked against) every
/// footer. Bump when the entry layout changes; `fsck` then quarantines
/// entries written by other versions.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// The wall-clock log under the store directory.
const WALL_LOG: &str = "walls.log";

/// First token of the integrity footer line.
const FOOTER_TAG: &str = "#chronus-cell";

/// Temp files untouched for this long are considered orphaned by a dead
/// process and reaped when the store opens. Live writers rename within
/// milliseconds, so minutes of margin is conservative.
const STALE_TMP_AGE: Duration = Duration::from_secs(15 * 60);

/// One stored entry: identity plus result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Full cell identity (what was hashed).
    pub key: CellKey,
    /// The simulation result.
    pub report: SimReport,
}

/// Why an on-disk entry failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryIssue {
    /// The file could not be read (permissions, I/O error, bad UTF-8).
    Unreadable(String),
    /// No integrity footer — a legacy (pre-checksum) or torn entry.
    MissingFooter,
    /// Footer written by a different store format version.
    FormatVersion {
        /// The version token found in the footer.
        found: String,
    },
    /// Payload length disagrees with the footer (truncated or padded).
    Truncated {
        /// Bytes the footer promises.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// Payload bytes do not hash to the footer digest.
    ChecksumMismatch,
    /// The payload is not a parseable [`CellRecord`].
    BadJson(String),
    /// The record was produced by a different simulator version.
    SimVersion {
        /// The `sim_version` recorded in the entry.
        found: u32,
    },
}

impl std::fmt::Display for EntryIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntryIssue::Unreadable(e) => write!(f, "unreadable ({e})"),
            EntryIssue::MissingFooter => write!(f, "missing integrity footer (legacy or torn)"),
            EntryIssue::FormatVersion { found } => {
                write!(f, "store format {found}, expected v{STORE_FORMAT_VERSION}")
            }
            EntryIssue::Truncated { expected, actual } => {
                write!(f, "truncated ({actual} of {expected} payload bytes)")
            }
            EntryIssue::ChecksumMismatch => write!(f, "checksum mismatch"),
            EntryIssue::BadJson(e) => write!(f, "unparseable record ({e})"),
            EntryIssue::SimVersion { found } => {
                write!(f, "simulator version {found}, expected {SIM_VERSION}")
            }
        }
    }
}

/// The verified state of one store entry.
#[derive(Debug)]
pub enum EntryState {
    /// No file for this hash.
    Missing,
    /// The entry verified end to end.
    Ok(Box<CellRecord>),
    /// The file exists but failed verification.
    Bad(EntryIssue),
}

impl EntryState {
    /// Whether the entry verified.
    pub fn is_ok(&self) -> bool {
        matches!(self, EntryState::Ok(_))
    }

    /// Whether a file exists but failed verification.
    pub fn is_bad(&self) -> bool {
        matches!(self, EntryState::Bad(_))
    }
}

/// What one [`ResultStore::fsck`] pass found and did.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Entries examined.
    pub scanned: usize,
    /// Entries that verified.
    pub ok: usize,
    /// `(file name, reason)` of every entry moved to `quarantine/`.
    pub quarantined: Vec<(String, String)>,
    /// `(manifest file name, reason)` of every corrupt failure manifest
    /// moved to `quarantine/failures/`.
    pub quarantined_manifests: Vec<(String, String)>,
    /// Orphaned temp files removed.
    pub reaped_tmp: usize,
    /// Per-cell `<hash>.wall` files of the layout before `walls.log`,
    /// removed.
    pub reaped_sidecars: usize,
    /// Entries (and temp files) left untouched because a live lease
    /// protects them.
    pub leased_skipped: usize,
}

impl FsckReport {
    /// Whether every entry and manifest verified (reaping orphans still
    /// counts as clean).
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.quarantined_manifests.is_empty()
    }

    /// One machine-greppable line.
    pub fn summary(&self) -> String {
        format!(
            "scanned={} ok={} quarantined={} reaped_tmp={} reaped_sidecars={} manifests={} leased={}",
            self.scanned,
            self.ok,
            self.quarantined.len(),
            self.reaped_tmp,
            self.reaped_sidecars,
            self.quarantined_manifests.len(),
            self.leased_skipped
        )
    }
}

/// The verified state of a grid's failure manifest.
#[derive(Debug)]
pub enum ManifestState {
    /// No manifest for this grid.
    Missing,
    /// The manifest parsed cleanly.
    Ok(FailureManifest),
    /// A manifest file exists but cannot be read or parsed — failure
    /// history is at risk of silent loss.
    Bad(String),
}

/// Holds the advisory whole-store lock while in scope (dropped = released;
/// the kernel also releases it if the holder dies). Serializes the
/// multi-step read-modify-write paths that atomic rename alone cannot
/// protect: failure-manifest merges, `gc`, `fsck`, and `doctor`.
#[derive(Debug)]
pub struct StoreLock {
    _file: std::fs::File,
}

/// A directory of completed cells keyed by content hash.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
    faults: Option<FaultInjector>,
    journal: Option<Arc<Journal>>,
    /// `walls.log`, opened for appending on the first record and shared by
    /// clones.
    wall_log: Arc<Mutex<Option<File>>>,
}

impl ResultStore {
    /// Opens (creating if needed) a store at `dir`, reaping temp files
    /// orphaned by dead processes (older than 15 minutes; count logged).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = Self {
            dir,
            faults: None,
            journal: None,
            wall_log: Arc::default(),
        };
        match store.reap_tmp_older_than(STALE_TMP_AGE) {
            Ok(0) | Err(_) => {}
            Ok(n) => eprintln!(
                "chronus-grid: reaped {n} stale temp file(s) from {} (crash leftovers)",
                store.dir.display()
            ),
        }
        Ok(store)
    }

    /// Opens the default store: `$CHRONUS_GRID_DIR` or `./grid-cache`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_default() -> io::Result<Self> {
        Self::open(Self::default_dir())
    }

    /// The directory [`Self::open_default`] would use.
    pub fn default_dir() -> PathBuf {
        std::env::var_os(GRID_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(DEFAULT_GRID_DIR))
    }

    /// Attaches a fault injector to the store's read/write boundary
    /// (deterministic I/O-error injection; see [`crate::faults`]).
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches an operations journal: store-level mutations (demotes,
    /// quarantines, gc) are recorded through it. Cell-level events (claim,
    /// complete, fail) are the executor's responsibility — it has the grid
    /// context.
    #[must_use]
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// The attached fault injector, if any.
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Acquires the advisory whole-store lock (blocking). See
    /// [`StoreLock`]. Lock holders must not call other locking methods
    /// (`fsck`, `gc`) while holding it — `flock` does not nest across
    /// descriptors within one process.
    ///
    /// # Errors
    ///
    /// Propagates lock-file creation and `flock` failures.
    pub fn lock(&self) -> io::Result<StoreLock> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.dir.join(".store.lock"))?;
        file.lock()?;
        Ok(StoreLock { _file: file })
    }

    /// Records a store-level journal event, if a journal is attached.
    fn journal_event(&self, kind: EventKind, target: &str, detail: &str) {
        if let Some(journal) = &self.journal {
            journal.record(kind, "-", target, 0, 0.0, "", detail);
        }
    }

    /// The file path of a hash.
    pub fn path_of(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.json"))
    }

    /// The per-cell wall-clock file of the layout before `walls.log`.
    fn wall_path(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.wall"))
    }

    /// The quarantine directory (created lazily by [`Self::fsck`]).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// The failure-manifest path of a grid.
    pub fn manifest_path(&self, grid: &str) -> PathBuf {
        self.dir.join("failures").join(format!("{grid}.json"))
    }

    /// Whether a completed entry exists for `hash` (presence only; reads
    /// verify integrity separately).
    pub fn contains(&self, hash: &str) -> bool {
        self.path_of(hash).is_file()
    }

    /// Reads and fully verifies the entry for `hash`: footer present,
    /// format version current, length exact, checksum matching, record
    /// parseable, simulator version current.
    pub fn verify(&self, hash: &str) -> EntryState {
        let text = match std::fs::read_to_string(self.path_of(hash)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return EntryState::Missing,
            Err(e) => return EntryState::Bad(EntryIssue::Unreadable(e.to_string())),
        };
        match verify_entry_text(&text) {
            Ok(record) => EntryState::Ok(Box::new(record)),
            Err(issue) => EntryState::Bad(issue),
        }
    }

    /// Loads the report stored for `hash`; `None` if absent or failing
    /// verification (a damaged entry behaves as a miss and is
    /// re-simulated).
    pub fn get(&self, hash: &str) -> Option<SimReport> {
        if let Some(faults) = &self.faults {
            if let Some(e) = faults.io_fault("get", hash) {
                eprintln!("chronus-grid: read of cell {hash} failed ({e}); treating as miss");
                return None;
            }
        }
        match self.verify(hash) {
            EntryState::Ok(record) => Some(record.report),
            EntryState::Missing => None,
            EntryState::Bad(issue) => {
                eprintln!(
                    "chronus-grid: ignoring cache entry {} ({issue}); run `chronus fsck` \
                     to quarantine it",
                    self.path_of(hash).display()
                );
                self.journal_event(EventKind::Demote, hash, &issue.to_string());
                None
            }
        }
    }

    /// Persists a completed cell atomically (write temp file, rename),
    /// appending the integrity footer. Returns the footer digest, which
    /// the executor journals with the `Complete` event so `doctor` can
    /// later match journal against store contents.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (including injected ones).
    pub fn put(&self, hash: &str, cell: &CellSpec, report: &SimReport) -> io::Result<String> {
        if let Some(faults) = &self.faults {
            if let Some(e) = faults.io_fault("put", hash) {
                return Err(e);
            }
        }
        let record = CellRecord {
            key: CellKey::of(cell),
            report: report.clone(),
        };
        let payload = serde_json::to_string_pretty(&record).expect("records always serialize");
        let digest = digest128(payload.as_bytes());
        let full = format!(
            "{payload}\n{FOOTER_TAG} v{STORE_FORMAT_VERSION} len={} fnv={digest}\n",
            payload.len()
        );
        let tmp = self.dir.join(format!(".{hash}.{}.tmp", std::process::id()));
        std::fs::write(&tmp, full)?;
        std::fs::rename(&tmp, self.path_of(hash))?;
        Ok(digest)
    }

    /// The footer digest of a fully verified entry; `None` when the entry
    /// is missing or fails verification.
    pub fn verified_digest(&self, hash: &str) -> Option<String> {
        let text = std::fs::read_to_string(self.path_of(hash)).ok()?;
        verify_entry_text(&text).ok()?;
        let trimmed = text.strip_suffix('\n').unwrap_or(&text);
        let (_, footer) = trimmed.rsplit_once('\n')?;
        footer
            .split_whitespace()
            .find_map(|t| t.strip_prefix("fnv=").map(str::to_string))
    }

    /// Records the wall-clock cost of a completed cell by appending a
    /// line to `walls.log` (best-effort; never fails the run and never
    /// affects byte-identity of the entries themselves).
    pub fn record_wall(&self, hash: &str, seconds: f64) {
        let mut log = self.wall_log.lock().unwrap_or_else(|e| e.into_inner());
        if log.is_none() {
            *log = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(WALL_LOG))
                .ok();
        }
        if let Some(file) = log.as_mut() {
            let _ = file.write_all(format!("{hash} {seconds:.6}\n").as_bytes());
        }
    }

    /// The recorded wall-clock cost of a cell, if any; the latest record
    /// when the cell was simulated more than once. Reads the whole log, so
    /// callers that look up many cells use [`Self::recorded_walls`].
    pub fn recorded_wall(&self, hash: &str) -> Option<f64> {
        let text = self.read_wall_log();
        wall_records(&text)
            .filter(|&(h, _)| h == hash)
            .map(|(_, seconds)| seconds)
            .last()
    }

    /// Every recorded wall-clock cost, by hash (the latest record of each).
    pub fn recorded_walls(&self) -> HashMap<String, f64> {
        let text = self.read_wall_log();
        wall_records(&text)
            .map(|(hash, seconds)| (hash.to_string(), seconds))
            .collect()
    }

    /// The text of `walls.log`; empty when nothing was recorded.
    fn read_wall_log(&self) -> String {
        std::fs::read_to_string(self.dir.join(WALL_LOG)).unwrap_or_default()
    }

    /// Hashes of all completed entries in the store.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn list(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(hash) = name.strip_suffix(".json") {
                if is_hash(hash) {
                    out.push(hash.to_string());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Deletes every entry (and its old-layout wall file) whose hash is not in
    /// `keep`; returns how many entries were removed. Takes the store
    /// lock; entries protected by a live lease are skipped (a concurrent
    /// executor is computing them right now).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn gc(&self, keep: &HashSet<String>) -> io::Result<usize> {
        let _lock = self.lock()?;
        let leased = lease::live_hashes(&self.dir);
        let mut removed = 0;
        for hash in self.list()? {
            if keep.contains(&hash) || leased.contains(&hash) {
                continue;
            }
            std::fs::remove_file(self.path_of(&hash))?;
            let _ = std::fs::remove_file(self.wall_path(&hash));
            self.journal_event(EventKind::Gc, &hash, "outside keep-set");
            removed += 1;
        }
        Ok(removed)
    }

    /// Removes temp files older than `age`; returns how many were reaped.
    /// `Duration::ZERO` reaps unconditionally (what `fsck` uses). Temp
    /// files of cells protected by a live lease are always left alone —
    /// their writer is mid-flight.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures (individual file races are
    /// ignored).
    pub fn reap_tmp_older_than(&self, age: Duration) -> io::Result<usize> {
        let leased = lease::live_hashes(&self.dir);
        let now = std::time::SystemTime::now();
        let mut reaped = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.ends_with(".tmp") {
                continue;
            }
            if tmp_hash(&name).is_some_and(|h| leased.contains(h)) {
                continue;
            }
            let stale = age.is_zero()
                || entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| now.duration_since(t).ok())
                    .is_some_and(|elapsed| elapsed >= age);
            if stale && std::fs::remove_file(entry.path()).is_ok() {
                reaped += 1;
            }
        }
        Ok(reaped)
    }

    /// Scans the whole store: verifies every entry, moves the ones that
    /// fail into `quarantine/` (re-enqueueing them — the next run misses
    /// and re-simulates), quarantines corrupt failure manifests, reaps
    /// temp files and old-layout `<hash>.wall` files. Takes the store lock; cells
    /// protected by a live lease are skipped, not judged.
    ///
    /// # Errors
    ///
    /// Propagates directory-read and quarantine-move failures.
    pub fn fsck(&self) -> io::Result<FsckReport> {
        let _lock = self.lock()?;
        self.fsck_inner()
    }

    /// [`Self::fsck`] without taking the store lock — for callers (the
    /// `doctor` pass) that already hold it. `flock` does not nest across
    /// descriptors within one process, so re-locking would self-deadlock.
    pub(crate) fn fsck_inner(&self) -> io::Result<FsckReport> {
        let leased = lease::live_hashes(&self.dir);
        let mut report = FsckReport {
            reaped_tmp: self.reap_tmp_older_than(Duration::ZERO)?,
            ..FsckReport::default()
        };
        let mut sidecars: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(hash) = name.strip_suffix(".wall") {
                if is_hash(hash) {
                    sidecars.push(hash.to_string());
                }
                continue;
            }
            let Some(hash) = name.strip_suffix(".json") else {
                continue;
            };
            if !is_hash(hash) {
                continue;
            }
            if leased.contains(hash) {
                report.leased_skipped += 1;
                continue;
            }
            report.scanned += 1;
            match self.verify(hash) {
                EntryState::Ok(_) => report.ok += 1,
                EntryState::Missing => {}
                EntryState::Bad(issue) => {
                    self.quarantine(&name)?;
                    self.journal_event(EventKind::Quarantine, hash, &issue.to_string());
                    report.quarantined.push((name, issue.to_string()));
                }
            }
        }
        for hash in sidecars {
            if leased.contains(&hash) {
                continue;
            }
            if std::fs::remove_file(self.wall_path(&hash)).is_ok() {
                report.reaped_sidecars += 1;
            }
        }
        self.fsck_manifests(&mut report)?;
        Ok(report)
    }

    /// Quarantines corrupt failure manifests (and reaps their orphaned
    /// temp files) under `quarantine/failures/`.
    fn fsck_manifests(&self, report: &mut FsckReport) -> io::Result<()> {
        let fdir = self.dir.join("failures");
        let entries = match std::fs::read_dir(&fdir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                if std::fs::remove_file(entry.path()).is_ok() {
                    report.reaped_tmp += 1;
                }
                continue;
            }
            let Some(grid) = name.strip_suffix(".json") else {
                continue;
            };
            if let ManifestState::Bad(reason) = self.manifest_state_raw(grid) {
                let qdir = self.quarantine_dir().join("failures");
                std::fs::create_dir_all(&qdir)?;
                let dest = qdir.join(&name);
                let _ = std::fs::remove_file(&dest);
                std::fs::rename(entry.path(), dest)?;
                self.journal_event(EventKind::Quarantine, &format!("failures/{name}"), &reason);
                report.quarantined_manifests.push((name, reason));
            }
        }
        Ok(())
    }

    /// Moves one store file into `quarantine/` (replacing any previous
    /// quarantined copy of the same name).
    fn quarantine(&self, name: &str) -> io::Result<()> {
        let qdir = self.quarantine_dir();
        std::fs::create_dir_all(&qdir)?;
        let dest = qdir.join(name);
        let _ = std::fs::remove_file(&dest);
        std::fs::rename(self.dir.join(name), dest)
    }

    /// Persists a grid's failure manifest atomically under `failures/`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_manifest(&self, manifest: &FailureManifest) -> io::Result<()> {
        let path = self.manifest_path(&manifest.grid);
        std::fs::create_dir_all(path.parent().expect("manifest path has a parent"))?;
        let json = serde_json::to_string_pretty(manifest).expect("manifests always serialize");
        let tmp = path.with_extension(format!("{}.tmp", std::process::id()));
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }

    /// The verified state of a grid's failure manifest, without reporting.
    fn manifest_state_raw(&self, grid: &str) -> ManifestState {
        let text = match std::fs::read_to_string(self.manifest_path(grid)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return ManifestState::Missing,
            Err(e) => return ManifestState::Bad(format!("unreadable ({e})")),
        };
        match serde_json::from_str(&text) {
            Ok(manifest) => ManifestState::Ok(manifest),
            Err(e) => ManifestState::Bad(format!("unparseable manifest ({e})")),
        }
    }

    /// The verified state of a grid's failure manifest. A `Bad` state is
    /// reported and journaled (demote path) — corrupt failure history must
    /// never vanish silently.
    pub fn manifest_state(&self, grid: &str) -> ManifestState {
        let state = self.manifest_state_raw(grid);
        if let ManifestState::Bad(reason) = &state {
            eprintln!(
                "chronus-grid: failure manifest {} is corrupt ({reason}); treating as absent — \
                 run `chronus fsck` to quarantine it",
                self.manifest_path(grid).display()
            );
            let name = format!("failures/{grid}.json");
            self.journal_event(EventKind::Demote, &name, reason);
        }
        state
    }

    /// Loads a grid's failure manifest; `None` when absent. A corrupt
    /// manifest is reported and journaled (see [`Self::manifest_state`])
    /// before behaving as absent.
    pub fn load_manifest(&self, grid: &str) -> Option<FailureManifest> {
        match self.manifest_state(grid) {
            ManifestState::Ok(manifest) => Some(manifest),
            ManifestState::Missing | ManifestState::Bad(_) => None,
        }
    }

    /// Removes a grid's failure manifest (a fully clean run heals it).
    pub fn clear_manifest(&self, grid: &str) {
        let _ = std::fs::remove_file(self.manifest_path(grid));
    }
}

/// Whether `s` looks like a store hash (32 lowercase hex chars).
fn is_hash(s: &str) -> bool {
    s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// The well-formed `<hash> <seconds>` lines of a wall log, in order.
fn wall_records(text: &str) -> impl Iterator<Item = (&str, f64)> {
    text.lines().filter_map(|line| {
        let (hash, seconds) = line.split_once(' ')?;
        let seconds: f64 = seconds.parse().ok()?;
        (is_hash(hash) && seconds.is_finite() && seconds >= 0.0).then_some((hash, seconds))
    })
}

/// The cell hash embedded in a temp-file name (`.{hash}.{pid}.tmp`).
fn tmp_hash(name: &str) -> Option<&str> {
    let stem = name.strip_prefix('.')?.strip_suffix(".tmp")?;
    let (hash, _pid) = stem.split_once('.')?;
    is_hash(hash).then_some(hash)
}

/// Splits and checks the footer, then parses the payload.
fn verify_entry_text(text: &str) -> Result<CellRecord, EntryIssue> {
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let Some((payload, footer)) = trimmed.rsplit_once('\n') else {
        return Err(EntryIssue::MissingFooter);
    };
    if !footer.starts_with(FOOTER_TAG) {
        return Err(EntryIssue::MissingFooter);
    }
    let mut tokens = footer.split_whitespace().skip(1);
    let version = tokens.next().unwrap_or("");
    if version != format!("v{STORE_FORMAT_VERSION}") {
        return Err(EntryIssue::FormatVersion {
            found: version.to_string(),
        });
    }
    let field = |tok: Option<&str>, key: &str| -> Option<String> {
        tok.and_then(|t| t.strip_prefix(key).map(str::to_string))
    };
    let len: usize = field(tokens.next(), "len=")
        .and_then(|v| v.parse().ok())
        .ok_or(EntryIssue::MissingFooter)?;
    let fnv = field(tokens.next(), "fnv=").ok_or(EntryIssue::MissingFooter)?;
    if payload.len() != len {
        return Err(EntryIssue::Truncated {
            expected: len,
            actual: payload.len(),
        });
    }
    if digest128(payload.as_bytes()) != fnv {
        return Err(EntryIssue::ChecksumMismatch);
    }
    let record: CellRecord =
        serde_json::from_str(payload).map_err(|e| EntryIssue::BadJson(e.to_string()))?;
    if record.key.sim_version != SIM_VERSION {
        return Err(EntryIssue::SimVersion {
            found: record.key.sim_version,
        });
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{AppTrace, WorkloadSpec};
    use crate::faults::FaultPlan;
    use crate::hash::cell_hash;
    use chronus_sim::{SimConfig, System};

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chronus-grid-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_cell() -> CellSpec {
        let w = WorkloadSpec::Apps {
            apps: vec![AppTrace::new("511.povray", 0, 5)],
            trace_instructions: 1_200,
        };
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = 1_000;
        CellSpec::new("tiny", w, cfg)
    }

    fn populated(tag: &str) -> (PathBuf, ResultStore, String, SimReport) {
        let dir = scratch(tag);
        let store = ResultStore::open(&dir).unwrap();
        let cell = tiny_cell();
        let hash = cell_hash(&cell);
        let report = System::build(&cell.config).run(cell.workload.traces(&cell.config.geometry));
        store.put(&hash, &cell, &report).unwrap();
        (dir, store, hash, report)
    }

    #[test]
    fn put_get_roundtrip() {
        let (dir, store, hash, report) = populated("roundtrip");
        assert!(store.contains(&hash));
        assert!(store.verify(&hash).is_ok());
        assert_eq!(store.get(&hash).unwrap(), report);
        assert_eq!(store.list().unwrap(), vec![hash.clone()]);
        assert!(matches!(
            store.verify("0".repeat(32).as_str()),
            EntryState::Missing
        ));

        // Corrupt entries behave as misses.
        std::fs::write(store.path_of(&hash), "{oops").unwrap();
        assert!(store.get(&hash).is_none());
        assert!(store.verify(&hash).is_bad());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_tampering_are_detected() {
        let (dir, store, hash, _) = populated("truncate");
        let path = store.path_of(&hash);
        let original = std::fs::read_to_string(&path).unwrap();

        // Tail truncation loses the footer entirely.
        std::fs::write(&path, &original[..original.len() / 2]).unwrap();
        assert!(matches!(
            store.verify(&hash),
            EntryState::Bad(EntryIssue::MissingFooter | EntryIssue::Truncated { .. })
        ));
        assert!(store.get(&hash).is_none());

        // A flipped payload byte fails the checksum even with the footer
        // intact.
        let flipped = original.replacen("\"report\"", "\"REPORT\"", 1);
        assert_ne!(flipped, original, "fixture must actually flip something");
        std::fs::write(&path, flipped).unwrap();
        assert!(matches!(
            store.verify(&hash),
            EntryState::Bad(EntryIssue::ChecksumMismatch)
        ));

        // A wrong format version is called out as such.
        let refooted = format!("{{}}\n{FOOTER_TAG} v99 len=2 fnv=00\n");
        std::fs::write(&path, refooted).unwrap();
        assert!(matches!(
            store.verify(&hash),
            EntryState::Bad(EntryIssue::FormatVersion { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_footerless_entries_fail_verification() {
        let (dir, store, hash, _) = populated("legacy");
        let path = store.path_of(&hash);
        let text = std::fs::read_to_string(&path).unwrap();
        // Strip the footer: exactly what a pre-v2 store entry looks like.
        let payload = text
            .rsplit_once('\n')
            .unwrap()
            .0
            .rsplit_once('\n')
            .unwrap()
            .0;
        std::fs::write(&path, payload).unwrap();
        assert!(matches!(
            store.verify(&hash),
            EntryState::Bad(EntryIssue::MissingFooter)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_are_byte_deterministic() {
        let (dir_a, store_a, hash, _) = populated("det-a");
        let (dir_b, store_b, hash_b, _) = populated("det-b");
        assert_eq!(hash, hash_b);
        assert_eq!(
            std::fs::read(store_a.path_of(&hash)).unwrap(),
            std::fs::read(store_b.path_of(&hash)).unwrap(),
            "same cell must serialize byte-identically, footer included"
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn gc_keeps_only_requested_hashes() {
        let (dir, store, hash, _) = populated("gc");
        store.record_wall(&hash, 1.5);
        let bogus = "0".repeat(32);
        std::fs::write(store.path_of(&bogus), "{}").unwrap();
        store.record_wall(&bogus, 9.0);

        let old_layout_wall = dir.join(format!("{bogus}.wall"));
        std::fs::write(&old_layout_wall, "9.000000\n").unwrap();

        let keep: HashSet<String> = [hash.clone()].into_iter().collect();
        assert_eq!(store.gc(&keep).unwrap(), 1);
        assert!(store.contains(&hash));
        assert!(!store.contains(&bogus));
        assert_eq!(store.recorded_wall(&hash), Some(1.5));
        assert!(
            !old_layout_wall.exists(),
            "gc removes old-layout wall files"
        );
        // The log is not pruned: the record still states what the cell cost.
        assert_eq!(store.recorded_wall(&bogus), Some(9.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_reaping_is_age_gated() {
        let dir = scratch("tmp");
        let store = ResultStore::open(&dir).unwrap();
        std::fs::write(dir.join(".deadbeef.1234.tmp"), "partial").unwrap();
        // A fresh temp file survives the stale-only reap…
        assert_eq!(store.reap_tmp_older_than(STALE_TMP_AGE).unwrap(), 0);
        assert!(dir.join(".deadbeef.1234.tmp").exists());
        // …and the unconditional reap removes it.
        assert_eq!(store.reap_tmp_older_than(Duration::ZERO).unwrap(), 1);
        assert!(!dir.join(".deadbeef.1234.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_quarantines_and_reaps() {
        let (dir, store, hash, _) = populated("fsck");
        store.record_wall(&hash, 0.5);
        // A truncated second entry, a temp orphan, and two per-cell wall
        // files of the old layout.
        let bad = "b".repeat(32);
        let good_bytes = std::fs::read_to_string(store.path_of(&hash)).unwrap();
        std::fs::write(store.path_of(&bad), &good_bytes[..40]).unwrap();
        std::fs::write(dir.join(".orphan.99.tmp"), "x").unwrap();
        std::fs::write(dir.join(format!("{hash}.wall")), "0.5\n").unwrap();
        std::fs::write(dir.join(format!("{}.wall", "c".repeat(32))), "2.0\n").unwrap();

        let report = store.fsck().unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.ok, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, format!("{bad}.json"));
        assert_eq!(report.reaped_tmp, 1);
        assert_eq!(report.reaped_sidecars, 2);
        assert!(!report.is_clean());

        // The bad entry is gone from the store but preserved under
        // quarantine/; the good one is untouched.
        assert!(!store.contains(&bad));
        assert!(store.quarantine_dir().join(format!("{bad}.json")).is_file());
        assert!(store.verify(&hash).is_ok());
        assert_eq!(store.recorded_wall(&hash), Some(0.5));

        // A second pass is clean.
        let again = store.fsck().unwrap();
        assert!(again.is_clean());
        assert_eq!(again.ok, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_faults_surface_on_put_and_get() {
        let dir = scratch("faults");
        let plan = FaultPlan {
            io_p: 1.0,
            max_attempt: Some(1),
            ..FaultPlan::default()
        };
        let store = ResultStore::open(&dir)
            .unwrap()
            .with_faults(Some(plan.injector()));
        let cell = tiny_cell();
        let hash = cell_hash(&cell);
        let report = System::build(&cell.config).run(cell.workload.traces(&cell.config.geometry));

        // First put fails with the injected error; the retry is gated
        // clean and succeeds.
        assert!(store.put(&hash, &cell, &report).is_err());
        store.put(&hash, &cell, &report).unwrap();
        // First get is injected into a miss; the retry reads through.
        assert!(store.get(&hash).is_none());
        assert_eq!(store.get(&hash).unwrap(), report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_returns_the_footer_digest() {
        let (dir, store, hash, _) = populated("digest");
        let digest = store.verified_digest(&hash).expect("entry verifies");
        let text = std::fs::read_to_string(store.path_of(&hash)).unwrap();
        assert!(text.contains(&format!("fnv={digest}")));
        // A corrupt entry yields no digest.
        std::fs::write(store.path_of(&hash), "{oops").unwrap();
        assert_eq!(store.verified_digest(&hash), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifests_are_reported_not_swallowed() {
        let (dir, store, _, _) = populated("manifest-bad");
        let path = store.manifest_path("g");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(store.manifest_state("g"), ManifestState::Bad(_)));
        assert!(store.load_manifest("g").is_none());
        assert!(matches!(
            store.manifest_state("nope"),
            ManifestState::Missing
        ));

        // fsck quarantines the corrupt manifest under quarantine/failures/.
        let report = store.fsck().unwrap();
        assert_eq!(report.quarantined_manifests.len(), 1);
        assert_eq!(report.quarantined_manifests[0].0, "g.json");
        assert!(!report.is_clean());
        assert!(!path.exists());
        assert!(store
            .quarantine_dir()
            .join("failures")
            .join("g.json")
            .is_file());
        assert!(matches!(store.manifest_state("g"), ManifestState::Missing));
        assert!(store.fsck().unwrap().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_and_fsck_skip_live_leased_cells() {
        let (dir, store, hash, _) = populated("leased");
        // A live lease on a second, *corrupt* cell: neither gc nor fsck
        // may touch it (its writer could be mid-flight), and its pending
        // temp file survives reaping.
        let leased = "d".repeat(32);
        std::fs::write(store.path_of(&leased), "{torn").unwrap();
        std::fs::write(dir.join(format!(".{leased}.77.tmp")), "pending").unwrap();
        let mgr = crate::lease::LeaseManager::open(&dir, "host-1-0").unwrap();
        mgr.try_claim(&leased, Duration::from_secs(60)).unwrap();

        let keep: HashSet<String> = HashSet::new();
        assert_eq!(store.gc(&keep).unwrap(), 1, "only the unleased entry goes");
        assert!(!store.contains(&hash));
        assert!(store.contains(&leased), "leased cell survives gc");

        let report = store.fsck().unwrap();
        assert_eq!(report.leased_skipped, 1);
        assert!(report.quarantined.is_empty(), "leased cell is not judged");
        assert_eq!(report.reaped_tmp, 0, "leased tmp survives");
        assert!(dir.join(format!(".{leased}.77.tmp")).exists());

        // Once the lease is released, fsck reaps and quarantines normally.
        mgr.release(&leased);
        let report = store.fsck().unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.reaped_tmp, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_lock_is_exclusive_across_descriptors() {
        let dir = scratch("lock");
        let store = ResultStore::open(&dir).unwrap();
        let guard = store.lock().unwrap();
        // A second descriptor cannot acquire while the first is held.
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(".store.lock"))
            .unwrap();
        assert!(file.try_lock().is_err(), "lock must be held");
        drop(guard);
        assert!(file.try_lock().is_ok(), "drop must release the lock");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_mutations_are_journaled() {
        let (dir, store, hash, _) = populated("journaled");
        let journal = Arc::new(crate::journal::Journal::open(&dir, "host-1-9"));
        let store = store.with_journal(journal);
        // Demote: a corrupt entry read through `get`.
        std::fs::write(store.path_of(&hash), "{oops").unwrap();
        assert!(store.get(&hash).is_none());
        // Quarantine: fsck moves it out.
        store.fsck().unwrap();
        let scan = crate::journal::read_events(&dir).unwrap();
        let kinds: Vec<EventKind> = scan.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Demote));
        assert!(kinds.contains(&EventKind::Quarantine));
        assert!(scan.events.iter().all(|e| e.hash == hash));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wall_log_roundtrip() {
        let dir = scratch("wall");
        let store = ResultStore::open(&dir).unwrap();
        let (a, b) = ("a".repeat(32), "b".repeat(32));
        assert_eq!(store.recorded_wall(&a), None);
        assert!(store.recorded_walls().is_empty());
        store.record_wall(&a, 12.25);
        store.record_wall(&b, 0.5);
        // A torn line and a re-simulation: the latest well-formed record wins.
        let mut log = OpenOptions::new()
            .append(true)
            .open(dir.join(WALL_LOG))
            .unwrap();
        log.write_all(format!("{b} 0.7").as_bytes()).unwrap();
        log.write_all(b"\n").unwrap();
        log.write_all(format!("{a} 1").as_bytes()).unwrap();
        log.write_all(b"2.5x\n").unwrap();
        ResultStore::open(&dir).unwrap().record_wall(&a, 3.0);
        assert_eq!(store.recorded_wall(&a), Some(3.0));
        assert_eq!(store.recorded_wall(&b), Some(0.7));
        let all = store.recorded_walls();
        assert_eq!(all.len(), 2);
        assert_eq!(all[&a], 3.0);
        assert_eq!(all[&b], 0.7);
        // One file for the store, not one per cell.
        assert!(!dir.join(format!("{a}.wall")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
