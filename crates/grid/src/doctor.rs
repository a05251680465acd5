//! The `doctor` recovery pass: reconcile journal against store contents.
//!
//! After a crash (`kill -9` mid-grid, power loss, a wedged NFS client)
//! the store can hold abandoned leases, orphan temp files, corrupt
//! entries/manifests, and journal claims with no outcome. `doctor` heals
//! everything that is healable, under the advisory store lock:
//!
//! 1. **stale leases** are reclaimed (deadline passed, holder dead on this
//!    host, or unparsable) and journaled as failures;
//! 2. **orphan temp files**, **corrupt entries** and **corrupt failure
//!    manifests** go through the `fsck` machinery (reap + quarantine) —
//!    cells protected by a live lease are left alone;
//! 3. the **journal is replayed** against the store: a `Claim` whose
//!    holder produced no outcome and holds no live lease is reported as
//!    *interrupted* (the next run re-simulates it); a `Complete` whose
//!    entry has vanished without a `Gc`/`Quarantine` record is reported as
//!    *missing* (likewise re-simulated); a verified entry whose checksum
//!    disagrees with its last journaled `Complete` is ***diverged*** — the
//!    one condition `doctor` cannot heal (the entry verifies, so no rerun
//!    will replace it) and the reason [`DoctorReport::is_healthy`] goes
//!    false and `chronus doctor` exits 3.
//!
//! Interrupted and missing cells are healthy-by-rerun: store entries are
//! byte-deterministic, so re-simulation reproduces exactly what was lost.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use crate::journal::{self, EventKind, Journal, JournalEvent};
use crate::lease::{self, LeaseManager};
use crate::store::{FsckReport, ResultStore};

/// What one [`run_doctor`] pass found and did.
#[derive(Debug, Default)]
pub struct DoctorReport {
    /// `(hash, holder)` of every stale lease reclaimed.
    pub reclaimed_leases: Vec<(String, String)>,
    /// The embedded fsck pass (quarantines, reaped temp files/sidecars).
    pub fsck: FsckReport,
    /// Hashes claimed in the journal with no outcome, no live lease, and
    /// no verified entry — a crashed holder's in-flight work. Healed by
    /// the next run (it re-simulates them).
    pub interrupted: Vec<String>,
    /// Hashes journaled as `Complete` whose entry has since vanished
    /// without a `Gc`/`Quarantine` record. Healed by the next run.
    pub missing_completed: Vec<String>,
    /// Hashes whose *verified* entry checksum disagrees with the last
    /// journaled `Complete` — unhealable (no rerun will replace a
    /// verifying entry); investigate by hand.
    pub diverged: Vec<String>,
    /// Unparsable journal lines skipped (torn by a crash mid-append).
    pub torn_journal_lines: usize,
    /// Journal events replayed.
    pub journal_events: usize,
}

impl DoctorReport {
    /// Whether the store is fully reconciled: everything remaining either
    /// matches the journal or heals on the next run. Only divergence —
    /// a verified entry contradicting its journaled checksum — is
    /// unhealable.
    pub fn is_healthy(&self) -> bool {
        self.diverged.is_empty()
    }

    /// One machine-greppable line.
    pub fn summary(&self) -> String {
        format!(
            "reclaimed_leases={} quarantined={} quarantined_manifests={} reaped_tmp={} \
             interrupted={} missing_completed={} diverged={} torn_journal={} events={}",
            self.reclaimed_leases.len(),
            self.fsck.quarantined.len(),
            self.fsck.quarantined_manifests.len(),
            self.fsck.reaped_tmp,
            self.interrupted.len(),
            self.missing_completed.len(),
            self.diverged.len(),
            self.torn_journal_lines,
            self.journal_events
        )
    }
}

/// Runs the full recovery pass on `store` (see the module docs), holding
/// the advisory store lock throughout.
///
/// # Errors
///
/// Propagates lock acquisition, lease-sweep, fsck, and journal-read I/O
/// failures.
pub fn run_doctor(store: &ResultStore) -> io::Result<DoctorReport> {
    let holder = format!("{}-doctor", lease::unique_holder());
    let journal = match store.journal() {
        Some(journal) => Arc::clone(journal),
        None => Arc::new(Journal::open(store.dir(), holder.clone())),
    };
    let store = store.clone().with_journal(Arc::clone(&journal));
    let _lock = store.lock()?;
    let mut report = DoctorReport::default();

    // 1. Reclaim leases abandoned by crashed holders.
    let leases = LeaseManager::open(store.dir(), holder)?;
    report.reclaimed_leases = leases.reclaim_stale()?;
    for (hash, lost_holder) in &report.reclaimed_leases {
        journal.record(
            EventKind::Fail,
            "-",
            hash,
            0,
            0.0,
            "",
            &format!("doctor: reclaimed stale lease from {lost_holder}"),
        );
    }

    // 2. Reap orphan temp files, quarantine corrupt entries and manifests
    // (the quarantines are journaled, so step 3 sees them).
    report.fsck = store.fsck_inner()?;

    // 3. Replay the journal against the store.
    let scan = journal::read_events(store.dir())?;
    report.torn_journal_lines = scan.torn_lines;
    report.journal_events = scan.events.len();
    let live = lease::live_hashes(store.dir());

    let mut per_hash: HashMap<&str, Vec<&JournalEvent>> = HashMap::new();
    for event in &scan.events {
        if is_hash(&event.hash) {
            per_hash.entry(event.hash.as_str()).or_default().push(event);
        }
    }
    for (hash, events) in &per_hash {
        // Expectation: the last journaled Complete stands unless a later
        // Gc/Quarantine/Demote voided it.
        let mut expected: Option<&str> = None;
        for event in events {
            match event.kind {
                EventKind::Complete => expected = Some(event.checksum.as_str()),
                EventKind::Gc | EventKind::Quarantine | EventKind::Demote => expected = None,
                EventKind::Claim | EventKind::Fail => {}
            }
        }
        let digest = store.verified_digest(hash);
        if let Some(checksum) = expected {
            match &digest {
                Some(found) if found == checksum => {}
                Some(_) => report.diverged.push((*hash).to_string()),
                None => report.missing_completed.push((*hash).to_string()),
            }
        }
        // Open claims: a holder whose last word on this cell was Claim.
        let mut last_by_holder: HashMap<&str, EventKind> = HashMap::new();
        for event in events {
            if matches!(
                event.kind,
                EventKind::Claim | EventKind::Complete | EventKind::Fail
            ) {
                last_by_holder.insert(event.holder.as_str(), event.kind);
            }
        }
        let open = last_by_holder.values().any(|k| *k == EventKind::Claim);
        if open && !live.contains(*hash) && digest.is_none() {
            report.interrupted.push((*hash).to_string());
        }
    }
    report.interrupted.sort();
    report.missing_completed.sort();
    report.diverged.sort();
    Ok(report)
}

/// Whether `s` looks like a store hash (32 hex chars) — journal events
/// about manifests and other non-cell targets are skipped in replay.
fn is_hash(s: &str) -> bool {
    s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit())
}
