//! Lease-based work claims: inter-process dedup of in-flight cells.
//!
//! Before simulating a cell, an executor atomically creates
//! `<store>/leases/<hash>.lease`. Creation is exclusive *and* carries the
//! full lease content atomically (the content is written to a temp file
//! first and then `hard_link`ed into place, so no observer can ever read a
//! half-written lease). A cell whose lease is held by a live holder is
//! *waited on, not recomputed*: N processes pointed at one store partition
//! the grid dynamically with zero duplicate simulation.
//!
//! Liveness is deadline-based and heartbeat-refreshed: the holder stamps
//! `deadline_ms` (wall-clock epoch milliseconds) into the lease and
//! refreshes it periodically while the cell runs. A lease is **stale** —
//! and may be reclaimed by anyone, deterministically — when any of:
//!
//! 1. the deadline has passed (no heartbeat for a full TTL);
//! 2. the lease file is unparsable (torn by tampering; creation itself is
//!    atomic);
//! 3. the holder ran on *this* host and its PID no longer exists (Linux
//!    `/proc` check — lets a `kill -9`'d holder be reclaimed immediately
//!    instead of after a TTL).
//!
//! Release renames the lease to a holder-private *spare* instead of
//! deleting it, and the holder's next claim or refresh writes into a spare
//! before it creates a new temp file. A run therefore creates about one
//! lease file per worker, not one per cell. On an ext4 store on a 2-vCPU
//! VM, creating a file soon after others were deleted cost about 0.5 ms of
//! kernel time, so a create and a delete per cell would be a large and
//! host-dependent share of a short cell. Spares are deleted when the
//! manager is dropped.
//!
//! Reclamation races are settled by `rename`: every contender renames the
//! stale lease to a private path, and the filesystem guarantees exactly one
//! rename succeeds; the winner deletes the carcass and retries the claim.
//! Because store entries are byte-deterministic and written via atomic
//! rename, even a lost lease (clock skew, extreme heartbeat delay) can only
//! cost duplicate compute — never a corrupt or diverging store.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::faults::FaultInjector;

/// Subdirectory of the store that holds lease files.
pub const LEASES_SUBDIR: &str = "leases";

/// The persisted content of one lease.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseInfo {
    /// Holder identity (`host-pid-instance`).
    pub holder: String,
    /// Wall-clock epoch milliseconds after which the lease is stale.
    pub deadline_ms: u64,
    /// Heartbeat refreshes performed so far.
    pub refreshes: u64,
}

impl LeaseInfo {
    /// Whether this lease may be reclaimed at `now_ms`: deadline passed, or
    /// the holder demonstrably died on this host.
    pub fn is_stale(&self, now_ms: u64) -> bool {
        now_ms > self.deadline_ms || holder_dead_locally(&self.holder)
    }
}

/// Current wall-clock time as epoch milliseconds.
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The host part of holder identities minted by [`unique_holder`].
fn host_name() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.trim().is_empty())
        .unwrap_or_else(|| "local".to_string())
        .replace(['/', '\\', ':'], "_")
}

static HOLDER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Numbers spare lease files, so that no two managers in a process (even
/// with one holder identity) name the same spare.
static SPARE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-unique holder identity: `host-pid-instance`. Each call mints a
/// fresh instance number, so two executors in one process never collide.
pub fn unique_holder() -> String {
    format!(
        "{}-{}-{}",
        host_name(),
        std::process::id(),
        HOLDER_SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// Whether `holder` provably refers to a dead process on *this* host.
/// Conservative: unknown hosts, unparsable holders and platforms without
/// `/proc` all report `false` (fall back to the deadline rule).
fn holder_dead_locally(holder: &str) -> bool {
    if !Path::new("/proc/self").exists() {
        return false;
    }
    let mut parts = holder.rsplit('-');
    let _instance = parts.next();
    let Some(pid) = parts.next().and_then(|p| p.parse::<u32>().ok()) else {
        return false;
    };
    let host: String = {
        let rest: Vec<&str> = parts.collect();
        rest.into_iter().rev().collect::<Vec<_>>().join("-")
    };
    if host != host_name() {
        return false;
    }
    !Path::new(&format!("/proc/{pid}")).exists()
}

/// Outcome of one claim attempt.
#[derive(Debug)]
pub enum ClaimOutcome {
    /// This manager now holds the lease; release (or keep heartbeating)
    /// when done.
    Claimed,
    /// A live holder owns the cell; wait for it instead of recomputing.
    Held(LeaseInfo),
}

/// Creates, refreshes, releases and reclaims leases under one store.
#[derive(Debug)]
pub struct LeaseManager {
    dir: PathBuf,
    holder: String,
    faults: Option<FaultInjector>,
    /// Released lease files kept for reuse (see the module docs).
    spares: Mutex<Vec<PathBuf>>,
}

impl LeaseManager {
    /// A manager for `<store_dir>/leases`, claiming as `holder`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(store_dir: &Path, holder: impl Into<String>) -> io::Result<Self> {
        let dir = store_dir.join(LEASES_SUBDIR);
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            holder: holder.into(),
            faults: None,
            spares: Mutex::new(Vec::new()),
        })
    }

    /// Attaches deterministic fault injection to the lease I/O boundary.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// This manager's holder identity.
    pub fn holder(&self) -> &str {
        &self.holder
    }

    /// The lease-file path of a hash.
    pub fn lease_path(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.lease"))
    }

    /// Reads and parses the current lease of `hash`; `None` when absent or
    /// unparsable.
    pub fn read(&self, hash: &str) -> Option<LeaseInfo> {
        let text = std::fs::read_to_string(self.lease_path(hash)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Writes `info` into a private file, a spare if one is kept, and
    /// returns its path (same directory, so `rename`/`hard_link` stay
    /// atomic).
    fn write_tmp(&self, hash: &str, info: &LeaseInfo) -> io::Result<PathBuf> {
        let spare = self.spares.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let tmp = spare.unwrap_or_else(|| {
            self.dir.join(format!(
                ".{hash}.{}.ltmp",
                crate::hash::mix64(self.holder.as_bytes())
            ))
        });
        let json = serde_json::to_string(info).expect("leases always serialize");
        if let Err(e) = std::fs::write(&tmp, json) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(tmp)
    }

    /// Tries to claim `hash` for `ttl`. Stale leases (past deadline,
    /// unparsable, or held by a locally dead process) are reclaimed and the
    /// claim retried; a live holder's lease comes back as
    /// [`ClaimOutcome::Held`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the expected exclusivity
    /// conflicts (including injected lease faults).
    pub fn try_claim(&self, hash: &str, ttl: Duration) -> io::Result<ClaimOutcome> {
        if let Some(faults) = &self.faults {
            if let Some(e) = faults.lease_fault("claim", hash) {
                return Err(e);
            }
        }
        let path = self.lease_path(hash);
        loop {
            let info = LeaseInfo {
                holder: self.holder.clone(),
                deadline_ms: now_ms() + ttl.as_millis() as u64,
                refreshes: 0,
            };
            let tmp = self.write_tmp(hash, &info)?;
            // `hard_link` is the exclusive-create that also lands the full
            // content atomically: it fails if the lease exists, and no
            // reader can ever observe an empty or half-written lease.
            let linked = std::fs::hard_link(&tmp, &path);
            let _ = std::fs::remove_file(&tmp);
            match linked {
                Ok(()) => return Ok(ClaimOutcome::Claimed),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    match self.read(hash) {
                        Some(current) if !current.is_stale(now_ms()) => {
                            return Ok(ClaimOutcome::Held(current));
                        }
                        // Stale or unparsable: reclaim via the rename race
                        // (exactly one contender wins) and retry.
                        _ => {
                            if !self.reclaim(hash) {
                                // Lost the reclaim race; loop to observe the
                                // winner's fresh lease (or its release).
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Removes a stale lease via the deterministic rename race; `true` when
    /// this manager won (the lease file is gone).
    fn reclaim(&self, hash: &str) -> bool {
        let carcass = self.dir.join(format!(
            ".{hash}.{}.reclaim",
            crate::hash::mix64(self.holder.as_bytes())
        ));
        match std::fs::rename(self.lease_path(hash), &carcass) {
            Ok(()) => {
                let _ = std::fs::remove_file(&carcass);
                true
            }
            Err(_) => false,
        }
    }

    /// Heartbeat: extends the deadline of a lease this manager holds.
    /// Returns `Ok(false)` when the lease was lost (reclaimed by another
    /// holder after going stale) — the caller keeps computing; the store's
    /// atomic, byte-deterministic writes make the duplicate harmless.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (including injected lease faults).
    pub fn refresh(&self, hash: &str, ttl: Duration) -> io::Result<bool> {
        if let Some(faults) = &self.faults {
            if let Some(e) = faults.lease_fault("refresh", hash) {
                return Err(e);
            }
        }
        let Some(current) = self.read(hash) else {
            return Ok(false);
        };
        if current.holder != self.holder {
            return Ok(false);
        }
        let info = LeaseInfo {
            holder: self.holder.clone(),
            deadline_ms: now_ms() + ttl.as_millis() as u64,
            refreshes: current.refreshes + 1,
        };
        let tmp = self.write_tmp(hash, &info)?;
        std::fs::rename(&tmp, self.lease_path(hash))?;
        Ok(true)
    }

    /// Releases a lease this manager holds (a lease stolen after going
    /// stale is left untouched). The lease file is renamed to a spare for
    /// the next claim, which observers cannot tell from a deletion.
    pub fn release(&self, hash: &str) {
        if self.read(hash).is_some_and(|l| l.holder == self.holder) {
            let spare = self.dir.join(format!(
                ".{}.{}.{}.lspare",
                crate::hash::mix64(self.holder.as_bytes()),
                std::process::id(),
                SPARE_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            if std::fs::rename(self.lease_path(hash), &spare).is_ok() {
                self.spares
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(spare);
            }
        }
    }

    /// Removes every stale lease under the store; returns the reclaimed
    /// `(hash, holder)` pairs. The executor-open hook and `doctor` both run
    /// this so crashed holders never block a cell longer than one TTL.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures (individual races are ignored).
    pub fn reclaim_stale(&self) -> io::Result<Vec<(String, String)>> {
        let mut reclaimed = Vec::new();
        let now = now_ms();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            let Some(hash) = name.strip_suffix(".lease") else {
                continue;
            };
            let holder = match self.read(hash) {
                Some(info) if info.is_stale(now) => info.holder,
                Some(_) => continue,
                None => "<unparsable>".to_string(),
            };
            if self.reclaim(hash) {
                reclaimed.push((hash.to_string(), holder));
            }
        }
        reclaimed.sort();
        Ok(reclaimed)
    }
}

impl Drop for LeaseManager {
    fn drop(&mut self) {
        let spares = self.spares.get_mut().unwrap_or_else(|e| e.into_inner());
        for spare in spares.drain(..) {
            let _ = std::fs::remove_file(spare);
        }
    }
}

/// Hashes currently protected by a live (non-stale) lease under
/// `<store_dir>/leases`. `gc`, `fsck` and tmp reaping consult this so they
/// never disturb a cell that is being computed right now.
pub fn live_hashes(store_dir: &Path) -> HashSet<String> {
    let mut out = HashSet::new();
    let dir = store_dir.join(LEASES_SUBDIR);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return out;
    };
    let now = now_ms();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(hash) = name.strip_suffix(".lease") else {
            continue;
        };
        let live = std::fs::read_to_string(entry.path())
            .ok()
            .and_then(|text| serde_json::from_str::<LeaseInfo>(&text).ok())
            .is_some_and(|info| !info.is_stale(now));
        if live {
            out.insert(hash.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chronus-grid-lease-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const TTL: Duration = Duration::from_secs(60);

    #[test]
    fn claim_is_exclusive_and_released() {
        let dir = scratch("excl");
        let a = LeaseManager::open(&dir, "host-1-0").unwrap();
        let b = LeaseManager::open(&dir, "host-1-1").unwrap();
        let hash = "a".repeat(32);

        assert!(matches!(
            a.try_claim(&hash, TTL).unwrap(),
            ClaimOutcome::Claimed
        ));
        match b.try_claim(&hash, TTL).unwrap() {
            ClaimOutcome::Held(info) => assert_eq!(info.holder, "host-1-0"),
            ClaimOutcome::Claimed => panic!("second claim must observe the first"),
        }
        a.release(&hash);
        assert!(matches!(
            b.try_claim(&hash, TTL).unwrap(),
            ClaimOutcome::Claimed
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn released_leases_are_recycled_and_spares_removed_on_drop() {
        use std::os::unix::fs::MetadataExt;
        let dir = scratch("spare");
        let mgr = LeaseManager::open(&dir, "host-1-0").unwrap();
        let files = || std::fs::read_dir(dir.join(LEASES_SUBDIR)).unwrap().count();
        let inode = |hash: &str| std::fs::metadata(mgr.lease_path(hash)).unwrap().ino();
        let (a, b) = ("a".repeat(32), "b".repeat(32));

        assert!(matches!(
            mgr.try_claim(&a, TTL).unwrap(),
            ClaimOutcome::Claimed
        ));
        let first = inode(&a);
        mgr.release(&a);
        assert!(!mgr.lease_path(&a).exists());
        assert_eq!(files(), 1, "the released lease is kept as a spare");

        assert!(matches!(
            mgr.try_claim(&b, TTL).unwrap(),
            ClaimOutcome::Claimed
        ));
        assert_eq!(inode(&b), first, "the next claim reuses the spare");
        assert_eq!(files(), 1);
        assert_eq!(mgr.read(&b).unwrap().holder, "host-1-0");
        mgr.release(&b);
        drop(mgr);
        assert_eq!(files(), 0, "dropping the manager removes its spares");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_leases_are_reclaimed_on_claim() {
        let dir = scratch("stale");
        let mgr = LeaseManager::open(&dir, "host-1-0").unwrap();
        let hash = "b".repeat(32);
        // A foreign-host lease whose deadline has long passed.
        let stale = LeaseInfo {
            holder: "elsewhere-99-0".into(),
            deadline_ms: 1,
            refreshes: 0,
        };
        std::fs::write(
            mgr.lease_path(&hash),
            serde_json::to_string(&stale).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            mgr.try_claim(&hash, TTL).unwrap(),
            ClaimOutcome::Claimed
        ));
        assert_eq!(mgr.read(&hash).unwrap().holder, "host-1-0");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparsable_leases_count_as_stale() {
        let dir = scratch("torn");
        let mgr = LeaseManager::open(&dir, "host-1-0").unwrap();
        let hash = "c".repeat(32);
        std::fs::write(mgr.lease_path(&hash), "{torn").unwrap();
        assert!(matches!(
            mgr.try_claim(&hash, TTL).unwrap(),
            ClaimOutcome::Claimed
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_local_pid_is_stale_despite_future_deadline() {
        if !Path::new("/proc/self").exists() {
            return; // liveness acceleration is Linux-only
        }
        let dir = scratch("deadpid");
        let mgr = LeaseManager::open(&dir, "tester-1-0").unwrap();
        let hash = "d".repeat(32);
        // PID 4294000000 is far above any real pid_max.
        let dead = LeaseInfo {
            holder: format!("{}-4294000000-0", host_name()),
            deadline_ms: now_ms() + 3_600_000,
            refreshes: 0,
        };
        std::fs::write(mgr.lease_path(&hash), serde_json::to_string(&dead).unwrap()).unwrap();
        assert!(dead.is_stale(now_ms()), "dead local pid must be stale");
        assert!(matches!(
            mgr.try_claim(&hash, TTL).unwrap(),
            ClaimOutcome::Claimed
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_extends_only_own_leases() {
        let dir = scratch("refresh");
        let a = LeaseManager::open(&dir, "host-1-0").unwrap();
        let b = LeaseManager::open(&dir, "host-1-1").unwrap();
        let hash = "e".repeat(32);
        a.try_claim(&hash, Duration::from_millis(50)).unwrap();
        let before = a.read(&hash).unwrap();
        assert!(a.refresh(&hash, TTL).unwrap());
        let after = a.read(&hash).unwrap();
        assert!(after.deadline_ms >= before.deadline_ms);
        assert_eq!(after.refreshes, 1);
        // A non-holder cannot refresh, and refreshing a missing lease
        // reports the loss instead of erroring.
        assert!(!b.refresh(&hash, TTL).unwrap());
        a.release(&hash);
        assert!(!a.refresh(&hash, TTL).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_hashes_excludes_stale() {
        let dir = scratch("live");
        let mgr = LeaseManager::open(&dir, "host-1-0").unwrap();
        let live = "f".repeat(32);
        let stale = "0".repeat(32);
        mgr.try_claim(&live, TTL).unwrap();
        std::fs::write(
            mgr.lease_path(&stale),
            serde_json::to_string(&LeaseInfo {
                holder: "elsewhere-7-0".into(),
                deadline_ms: 1,
                refreshes: 0,
            })
            .unwrap(),
        )
        .unwrap();
        let set = live_hashes(&dir);
        assert!(set.contains(&live));
        assert!(!set.contains(&stale));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reclaim_stale_sweeps_only_stale() {
        let dir = scratch("sweep");
        let mgr = LeaseManager::open(&dir, "host-1-0").unwrap();
        let live = "1".repeat(32);
        let stale = "2".repeat(32);
        mgr.try_claim(&live, TTL).unwrap();
        std::fs::write(
            mgr.lease_path(&stale),
            serde_json::to_string(&LeaseInfo {
                holder: "elsewhere-7-0".into(),
                deadline_ms: 1,
                refreshes: 0,
            })
            .unwrap(),
        )
        .unwrap();
        let reclaimed = mgr.reclaim_stale().unwrap();
        assert_eq!(reclaimed.len(), 1);
        assert_eq!(reclaimed[0].0, stale);
        assert_eq!(reclaimed[0].1, "elsewhere-7-0");
        assert!(mgr.read(&live).is_some(), "live lease must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unique_holders_differ() {
        let a = unique_holder();
        let b = unique_holder();
        assert_ne!(a, b);
        assert!(a.contains(&std::process::id().to_string()));
    }
}
