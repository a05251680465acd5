//! The grid executor: cache lookup, shard filtering, fault-isolated
//! parallel simulation, store write-back, and the order-preserving merge.
//!
//! The unit of work is a *cohort group*: the owned misses that share a
//! workload and a [`SimConfig::cohort_key`]. Their simulations are
//! timing-identical, so a group of several runs as one
//! [`System::run_batch`] call over once-generated traces; a group of one
//! runs as a plain [`simulate_cell`]. Grouping follows from the cells
//! alone — no option selects it — and every member keeps its own content
//! hash, store entry, lease, journal events and failure record.
//!
//! Group execution is *fault-isolated*: every attempt runs on a
//! watchdog-guarded runner thread behind `catch_unwind`, failures (panics,
//! deadline overruns, store write errors) are retried under a capped
//! exponential backoff, and cells that exhaust their retries are recorded
//! in a [`FailureManifest`] instead of aborting the run. A degraded grid
//! still completes every healthy cell, persists everything it computed,
//! and reports the casualties — the contract multi-hour, multi-machine
//! sweeps depend on.
//!
//! Store-backed runs are additionally *coordinated*: each member is claimed
//! through a heartbeat-refreshed lease before simulating, so N concurrent
//! processes sharing one store partition the grid dynamically with zero
//! duplicate simulation — a cell leased by a live holder is split off its
//! group and waited on, not recomputed. Every claim, completion and
//! failure is appended to the store's operations journal, and the failure
//! manifest is merged under the advisory store lock instead of
//! last-writer-wins. Coordination failures (lease I/O errors) degrade to
//! uncoordinated execution: store entries are byte-deterministic and
//! written atomically, so the worst case is duplicate compute, never
//! corruption.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use chronus_sim::{try_run_parallel, SimConfig, SimReport, System};
use serde::{Deserialize, Serialize};

use crate::cell::CellSpec;
use crate::faults::{ExecFault, FaultInjector};
use crate::hash::mix64;
use crate::journal::{EventKind, Journal};
use crate::lease::{self, ClaimOutcome, LeaseManager};
use crate::progress::Progress;
use crate::retry::RetryPolicy;
use crate::shard::Shard;
use crate::spec::GridSpec;
use crate::store::{ManifestState, ResultStore};

/// Process exit code of a run that completed in degraded mode (some cells
/// failed permanently and are listed in the failure manifest). Distinct
/// from `2` (usage errors) so scripts can tell "rerun me" from "fix the
/// invocation".
pub const DEGRADED_EXIT: i32 = 3;

/// Smallest lease TTL the executor will stamp. Short grids heartbeat well
/// under this; the watchdog deadline raises it once armed.
const LEASE_TTL_FLOOR: Duration = Duration::from_secs(15);

/// How long a waiter sleeps between polls of a cell leased elsewhere.
const LEASE_WAIT_POLL: Duration = Duration::from_millis(150);

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Worker threads for cell simulation.
    pub threads: usize,
    /// The shard this process owns (default: the full grid).
    pub shard: Shard,
    /// Progress/ETA lines on stderr.
    pub progress: bool,
    /// Retry policy for failed cell attempts and store writes.
    pub retry: RetryPolicy,
    /// Hard per-cell watchdog deadline; a group of N cells gets N times
    /// it. `None` derives one adaptively from the wall-clock of cells
    /// recorded so far (20× the observed mean, floored at 30 s, armed only
    /// once three samples exist).
    pub cell_timeout: Option<Duration>,
    /// Deterministic fault injection at the executor boundary (see
    /// [`crate::faults`]); `None` (the default) costs nothing.
    pub faults: Option<FaultInjector>,
    /// Lease time-to-live of store-backed runs. `None` derives it from the
    /// watchdog deadline estimator, floored at 15 s — a lease always
    /// outlives its heartbeat interval by 4×. Tests shrink it to exercise
    /// stale-lease reclamation quickly.
    pub lease_ttl: Option<Duration>,
    /// Holder identity recorded in leases and the journal. `None` mints a
    /// process-unique `host-pid-instance` id.
    pub holder: Option<String>,
}

impl Default for ExecOpts {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8),
            shard: Shard::full(),
            progress: true,
            retry: RetryPolicy::default(),
            cell_timeout: None,
            faults: None,
            lease_ttl: None,
            holder: None,
        }
    }
}

/// What one [`run_grid`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Cells in the spec.
    pub total: usize,
    /// Cells satisfied from the result store.
    pub cached: usize,
    /// Cells simulated by this process.
    pub simulated: usize,
    /// Cells owned by other shards and not yet in the store.
    pub skipped: usize,
    /// Cells that failed permanently (retries exhausted) and have no
    /// report.
    pub failed: usize,
    /// Cells resolved by waiting on another process's lease (its result
    /// was read back instead of recomputed).
    pub waited: usize,
}

impl ExecStats {
    /// `cells=N cached=C simulated=S skipped=K failed=F waited=W` — the
    /// machine-readable form the CI smoke jobs grep.
    pub fn summary(&self) -> String {
        format!(
            "cells={} cached={} simulated={} skipped={} failed={} waited={}",
            self.total, self.cached, self.simulated, self.skipped, self.failed, self.waited
        )
    }
}

/// How a cell (or its persistence) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The simulation panicked on every attempt.
    Panic,
    /// The simulation overran its watchdog deadline on every attempt.
    Timeout,
    /// The simulation succeeded but the result could not be persisted;
    /// the in-memory report was still returned.
    StoreWrite,
}

/// One permanently failed cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Position of the (representative) cell in the spec.
    pub index: usize,
    /// The cell's display label.
    pub label: String,
    /// The cell's content hash.
    pub hash: String,
    /// Failure class.
    pub kind: FailureKind,
    /// Attempts consumed (first try + retries).
    pub attempts: u32,
    /// The last error observed (panic payload, timeout note, or I/O
    /// error).
    pub error: String,
}

/// The persisted record of a degraded run: which cells failed, how, and
/// under which shard. Written to `<store>/failures/<grid>.json` whenever a
/// run ends with failures. Updates merge under the store lock: a later run
/// (any shard) drops every recorded failure whose cell now verifies in the
/// store and the manifest disappears once nothing is left — so sharded
/// reruns and [`merge`] heal it exactly like unsharded ones. `shard`
/// records the last writer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureManifest {
    /// Grid name.
    pub grid: String,
    /// The shard that produced this manifest (`"1/1"` when unsharded).
    pub shard: String,
    /// The failures, in spec order.
    pub failures: Vec<CellFailure>,
}

impl FailureManifest {
    /// Whether the manifest records no failures.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The result of one grid execution.
#[derive(Debug)]
pub struct GridOutcome {
    /// One slot per spec cell, in spec order; `None` means the cell belongs
    /// to another shard and was not in the store, or failed permanently
    /// (see [`Self::failures`]).
    pub reports: Vec<Option<SimReport>>,
    /// Cache/shard accounting.
    pub stats: ExecStats,
    /// Cells that failed permanently in this run (simulation failures
    /// leave their report slots empty; store-write failures do not).
    pub failures: Vec<CellFailure>,
    /// Wall-clock of the whole call in seconds.
    pub wall_seconds: f64,
}

impl GridOutcome {
    /// Whether every cell has a report.
    pub fn is_complete(&self) -> bool {
        self.reports.iter().all(Option::is_some)
    }

    /// Whether this run should exit with [`DEGRADED_EXIT`].
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// Simulates one cell (trace regeneration + full system run).
pub fn simulate_cell(cell: &CellSpec) -> SimReport {
    let traces = cell.workload.traces(&cell.config.geometry);
    System::build(&cell.config).run(traces)
}

/// Derives watchdog deadlines from observed per-cell wall-clocks: once
/// three samples exist, a cell gets `max(30 s, 20× mean)`. Seeded from the
/// store's wall log (`walls.log`) so a resumed run is armed immediately.
struct DeadlineEstimator {
    explicit: Option<Duration>,
    /// `(samples, total seconds)`.
    state: Mutex<(u32, f64)>,
}

const DEADLINE_FLOOR: Duration = Duration::from_secs(30);
const DEADLINE_FACTOR: f64 = 20.0;
const DEADLINE_MIN_SAMPLES: u32 = 3;

impl DeadlineEstimator {
    fn new(explicit: Option<Duration>) -> Self {
        Self {
            explicit,
            state: Mutex::new((0, 0.0)),
        }
    }

    fn record(&self, seconds: f64) {
        let mut state = self.state.lock().expect("estimator lock");
        state.0 += 1;
        state.1 += seconds;
    }

    fn deadline(&self) -> Option<Duration> {
        if let Some(t) = self.explicit {
            return Some(t);
        }
        let state = self.state.lock().expect("estimator lock");
        if state.0 < DEADLINE_MIN_SAMPLES {
            return None;
        }
        let mean = state.1 / f64::from(state.0);
        Some(DEADLINE_FLOOR.max(Duration::from_secs_f64(mean * DEADLINE_FACTOR)))
    }
}

/// Renders a panic payload for the failure record.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One attempt of one cohort group, as handed to a [`Runner`].
struct Attempt {
    /// The group's members: one cell, or cells sharing a workload and a
    /// cohort key.
    cells: Vec<CellSpec>,
    /// The first member's hash; keys fault injection, so a group of one
    /// sees exactly the faults its cell would.
    hash: String,
    attempt: u32,
    faults: Option<FaultInjector>,
}

impl Attempt {
    /// Injects the planned fault, if any, then simulates the group: one
    /// cell solo, several as one lockstep [`System::run_batch`] over
    /// traces generated once. Reports come back in member order.
    fn simulate(&self) -> Vec<SimReport> {
        let (hash, attempt) = (&self.hash, self.attempt);
        if let Some(injector) = &self.faults {
            match injector.exec_fault(hash, attempt) {
                Some(ExecFault::Panic) => {
                    panic!("injected fault: panic (cell {hash}, attempt {attempt})")
                }
                Some(ExecFault::Stall(pause)) => std::thread::sleep(pause),
                None => {}
            }
        }
        match self.cells.as_slice() {
            [cell] => vec![simulate_cell(cell)],
            cells => {
                let first = &cells[0];
                let traces = first.workload.traces(&first.config.geometry);
                let cfgs: Vec<SimConfig> = cells.iter().map(|c| c.config.clone()).collect();
                System::run_batch(&cfgs, &traces)
            }
        }
    }
}

/// A long-lived simulation thread. Attempts arrive over one channel and
/// run behind `catch_unwind`; outcomes go back over another, on which the
/// worker waits with the watchdog deadline.
struct Runner {
    attempts: mpsc::Sender<Attempt>,
    outcomes: mpsc::Receiver<Result<Vec<SimReport>, String>>,
    thread: std::thread::JoinHandle<()>,
}

impl Runner {
    fn spawn() -> std::io::Result<Self> {
        let (attempts, inbox) = mpsc::channel::<Attempt>();
        let (outbox, outcomes) = mpsc::sync_channel(1);
        let thread = std::thread::Builder::new()
            .name("cell-runner".into())
            .spawn(move || {
                for attempt in inbox {
                    let outcome = catch_unwind(AssertUnwindSafe(|| attempt.simulate()));
                    if outbox.send(outcome.map_err(panic_message)).is_err() {
                        return;
                    }
                }
            })?;
        Ok(Self {
            attempts,
            outcomes,
            thread,
        })
    }
}

/// The runners of one grid run: a worker takes an idle runner (or spawns
/// one) for each attempt and hands it back afterwards, so a run keeps at
/// most one runner per worker.
///
/// A panic comes back as [`FailureKind::Panic`] and the runner is reused.
/// A deadline overrun comes back as [`FailureKind::Timeout`] and its runner
/// is abandoned: the stuck thread holds only cloned data, is never joined,
/// and its late result is dropped with the channel. The next attempt gets
/// a fresh runner.
struct RunnerPool {
    idle: Mutex<Vec<Runner>>,
}

impl RunnerPool {
    fn new() -> Self {
        Self {
            idle: Mutex::new(Vec::new()),
        }
    }

    fn run(
        &self,
        attempt: Attempt,
        deadline: Option<Duration>,
    ) -> Result<Vec<SimReport>, (FailureKind, String)> {
        let idle = self.idle.lock().expect("runner pool lock").pop();
        let runner = match idle {
            Some(runner) => runner,
            None => Runner::spawn()
                .map_err(|e| (FailureKind::Panic, format!("spawning cell thread: {e}")))?,
        };
        let died = || (FailureKind::Panic, "cell thread died silently".to_string());
        runner.attempts.send(attempt).map_err(|_| died())?;
        let received = match deadline {
            Some(limit) => runner.outcomes.recv_timeout(limit).map_err(|_| {
                (
                    FailureKind::Timeout,
                    format!("watchdog deadline {limit:.1?} exceeded"),
                )
            })?,
            None => runner.outcomes.recv().map_err(|_| died())?,
        };
        self.idle.lock().expect("runner pool lock").push(runner);
        received.map_err(|msg| (FailureKind::Panic, msg))
    }

    /// Stops and joins every idle runner.
    fn shutdown(self) {
        for runner in self.idle.into_inner().expect("runner pool lock") {
            drop(runner.attempts);
            let _ = runner.thread.join();
        }
    }
}

/// The per-run coordination plane: lease manager + journal + the set of
/// hashes this run currently holds leases on (kept fresh by the heartbeat
/// thread).
struct CoordPlane {
    leases: LeaseManager,
    journal: Arc<Journal>,
    grid: String,
    ttl_override: Option<Duration>,
    active: Mutex<HashSet<String>>,
}

impl CoordPlane {
    fn open(store: &ResultStore, grid: &str, opts: &ExecOpts) -> std::io::Result<Self> {
        let holder = opts.holder.clone().unwrap_or_else(lease::unique_holder);
        let leases =
            LeaseManager::open(store.dir(), holder.clone())?.with_faults(opts.faults.clone());
        let journal = Arc::new(Journal::open(store.dir(), holder).with_faults(opts.faults.clone()));
        Ok(Self {
            leases,
            journal,
            grid: grid.to_string(),
            ttl_override: opts.lease_ttl,
            active: Mutex::new(HashSet::new()),
        })
    }

    /// The TTL to stamp into (and refresh onto) leases right now.
    fn ttl(&self, estimator: &DeadlineEstimator) -> Duration {
        self.ttl_override.unwrap_or_else(|| {
            estimator
                .deadline()
                .map_or(LEASE_TTL_FLOOR, |d| d.max(LEASE_TTL_FLOOR))
        })
    }

    /// Heartbeat period: a quarter of the TTL, clamped to [50 ms, 2 s].
    fn heartbeat_interval(&self, estimator: &DeadlineEstimator) -> Duration {
        (self.ttl(estimator) / 4).clamp(Duration::from_millis(50), Duration::from_secs(2))
    }

    fn register(&self, hash: &str) {
        self.active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(hash.to_string());
    }

    /// Stops heartbeating `hash` and releases its lease, as one step under
    /// the `active` lock (see [`Self::refresh`]).
    fn release(&self, hash: &str) {
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        active.remove(hash);
        self.leases.release(hash);
    }

    /// Refreshes every lease this run holds (heartbeat-thread body);
    /// returns how many were lost.
    fn refresh_active(&self, estimator: &DeadlineEstimator) -> usize {
        let ttl = self.ttl(estimator);
        let held: Vec<String> = self
            .active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect();
        held.iter().filter(|hash| self.refresh(hash, ttl)).count()
    }

    /// Refreshes `hash` if this run still holds it; returns whether the
    /// lease was lost. "Still held?" and the refresh are one step under the
    /// `active` lock, as are the removal and release in [`Self::release`].
    /// Otherwise a release landing between the heartbeat's snapshot and its
    /// refresh would be reported as a lost lease, or the refresh's `rename`
    /// would bring the released lease back for the next executor to reclaim
    /// as a crashed holder's.
    fn refresh(&self, hash: &str, ttl: Duration) -> bool {
        let active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        if !active.contains(hash) {
            return false;
        }
        match self.leases.refresh(hash, ttl) {
            Ok(true) => false,
            Ok(false) => {
                eprintln!(
                    "chronus-grid: lease on cell {hash} was lost (reclaimed as stale); \
                     continuing — a duplicate computation is possible but harmless"
                );
                true
            }
            Err(e) => {
                eprintln!("chronus-grid: lease heartbeat for {hash} failed: {e}");
                false
            }
        }
    }

    /// Executor-open hook: sweep leases abandoned by crashed holders so no
    /// cell stays blocked longer than one TTL (and, on this host, no
    /// longer than the next open).
    fn reclaim_stale_on_open(&self) {
        match self.leases.reclaim_stale() {
            Ok(reclaimed) if !reclaimed.is_empty() => {
                eprintln!(
                    "chronus-grid: reclaimed {} stale lease(s) left by crashed holder(s)",
                    reclaimed.len()
                );
                for (hash, holder) in reclaimed {
                    self.journal.record(
                        EventKind::Fail,
                        &self.grid,
                        &hash,
                        0,
                        0.0,
                        "",
                        &format!("reclaimed stale lease from {holder}"),
                    );
                }
            }
            Ok(_) => {}
            Err(e) => eprintln!("chronus-grid: stale-lease sweep failed: {e}"),
        }
    }
}

/// What one worker produced for one owned cell.
struct CellDone {
    report: SimReport,
    /// Persistence failed (the report itself is still good).
    store_failure: Option<CellFailure>,
    /// The report came from another process's computation.
    waited: bool,
}

/// One member's result, keyed by its (representative) spec index.
type MemberOutcome = (usize, Result<CellDone, CellFailure>);

/// Partitions the owned misses into cohort groups: cells sharing a
/// workload and a [`SimConfig::cohort_key`] (which includes the geometry),
/// so their traces are identical and their timing is too. Groups and their
/// members keep spec order.
fn cohort_groups(cells: &[CellSpec], owned: &[usize]) -> Vec<Vec<usize>> {
    let mut group_of: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in owned {
        let cell = &cells[i];
        let key = serde_json::to_string(&(&cell.workload, cell.config.cohort_key()))
            .expect("workload and config serialize");
        let g = *group_of.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    groups
}

/// What every worker of one run shares.
struct GroupExec<'a> {
    cells: &'a [CellSpec],
    hashes: &'a [String],
    store: Option<&'a ResultStore>,
    plane: Option<&'a CoordPlane>,
    opts: &'a ExecOpts,
    estimator: &'a DeadlineEstimator,
    runners: &'a RunnerPool,
    progress: &'a Progress,
}

impl GroupExec<'_> {
    /// Records a journal event for cell `i` when the run is coordinated.
    fn journal(&self, kind: EventKind, i: usize, attempt: u32, wall: f64, sum: &str, note: &str) {
        if let Some(plane) = self.plane {
            plane
                .journal
                .record(kind, &plane.grid, &self.hashes[i], attempt, wall, sum, note);
        }
    }

    /// Produces a report for every member of one cohort group.
    ///
    /// A store-backed run claims each member's lease first. Members leased
    /// by a live holder are split off; the rest simulate as one group and
    /// release their leases. Only then are the split-off members waited on
    /// (and claimed again if their holder gave up), so this executor never
    /// waits while it holds a lease and two executors cannot deadlock on
    /// each other's members.
    fn run_group(&self, members: &[usize]) -> Vec<MemberOutcome> {
        let (Some(store), Some(plane)) = (self.store, self.plane) else {
            return self.simulate(members);
        };
        let mut out = Vec::with_capacity(members.len());
        let mut todo = members.to_vec();
        loop {
            let ttl = plane.ttl(self.estimator);
            let (mut run, mut held) = (Vec::new(), Vec::new());
            for i in todo {
                let hash = self.hashes[i].as_str();
                match plane.leases.try_claim(hash, ttl) {
                    Ok(ClaimOutcome::Claimed) => {
                        // Double-check under the lease: the entry may have
                        // landed between the cache pass and this claim.
                        if let Some(report) = store.get(hash) {
                            plane.leases.release(hash);
                            out.push(self.waited(i, report));
                            continue;
                        }
                        plane.register(hash);
                        self.journal(EventKind::Claim, i, 0, 0.0, "", "");
                        run.push(i);
                    }
                    Ok(ClaimOutcome::Held(_)) => held.push(i),
                    Err(e) => {
                        eprintln!(
                            "chronus-grid: lease claim for cell {hash} failed ({e}); continuing \
                             uncoordinated (worst case: duplicate compute)"
                        );
                        self.journal(EventKind::Claim, i, 0, 0.0, "", "uncoordinated");
                        run.push(i);
                    }
                }
            }
            if !run.is_empty() {
                out.extend(self.simulate(&run));
                for &i in &run {
                    plane.release(&self.hashes[i]);
                }
            }
            if held.is_empty() {
                return out;
            }
            // The holder is still computing (poll again) or failed/died
            // (the next claim reclaims or surfaces its release).
            std::thread::sleep(LEASE_WAIT_POLL);
            todo = Vec::new();
            for i in held {
                match store.get(&self.hashes[i]) {
                    Some(report) => out.push(self.waited(i, report)),
                    None => todo.push(i),
                }
            }
        }
    }

    /// A member resolved by another process's computation.
    fn waited(&self, i: usize, report: SimReport) -> MemberOutcome {
        self.progress.cell_done(&self.cells[i].label);
        let done = CellDone {
            report,
            store_failure: None,
            waited: true,
        };
        (i, Ok(done))
    }

    /// Simulates `members` as one group, isolated and retried, and
    /// persists each member's report with its share of the group wall.
    fn simulate(&self, members: &[usize]) -> Vec<MemberOutcome> {
        let hash = &self.hashes[members[0]];
        let token = mix64(hash.as_bytes());
        let size = members.len() as u32;
        let mut attempt: u32 = 0;
        loop {
            let attempt_started = Instant::now();
            let outcome = self.runners.run(
                Attempt {
                    cells: members.iter().map(|&i| self.cells[i].clone()).collect(),
                    hash: hash.clone(),
                    attempt,
                    faults: self.opts.faults.clone(),
                },
                self.estimator.deadline().map(|d| d * size),
            );
            match outcome {
                Ok(reports) => {
                    let wall = attempt_started.elapsed().as_secs_f64() / f64::from(size);
                    return members
                        .iter()
                        .zip(reports)
                        .map(|(&i, report)| {
                            self.estimator.record(wall);
                            self.progress.cell_done(&self.cells[i].label);
                            (i, Ok(self.persist(i, report, attempt, wall)))
                        })
                        .collect();
                }
                Err((kind, error)) => {
                    for &i in members {
                        self.progress
                            .cell_failed(&self.cells[i].label, attempt, &error);
                    }
                    if attempt < self.opts.retry.max_retries {
                        self.opts.retry.sleep_before_retry(attempt, token);
                        attempt += 1;
                        continue;
                    }
                    return members
                        .iter()
                        .map(|&i| {
                            let note = format!("{kind:?}: {error}");
                            self.journal(EventKind::Fail, i, attempt + 1, 0.0, "", &note);
                            let failure = CellFailure {
                                index: i,
                                label: self.cells[i].label.clone(),
                                hash: self.hashes[i].clone(),
                                kind,
                                attempts: attempt + 1,
                                error: error.clone(),
                            };
                            (i, Err(failure))
                        })
                        .collect();
                }
            }
        }
    }

    /// Writes one fresh report to the store (when there is one), with its
    /// wall record and journal event.
    fn persist(&self, i: usize, report: SimReport, attempt: u32, wall: f64) -> CellDone {
        let mut store_failure = None;
        if let Some(store) = self.store {
            let (hash, cell) = (self.hashes[i].as_str(), &self.cells[i]);
            match put_with_retry(store, hash, cell, &report, &self.opts.retry) {
                Ok(checksum) => {
                    store.record_wall(hash, wall);
                    self.journal(EventKind::Complete, i, attempt, wall, &checksum, "");
                }
                Err(e) => {
                    eprintln!(
                        "chronus-grid: failed to persist cell {hash} to {}: {e}",
                        store.dir().display()
                    );
                    let note = format!("store-write: {e}");
                    self.journal(EventKind::Fail, i, attempt, wall, "", &note);
                    store_failure = Some(CellFailure {
                        index: i,
                        label: cell.label.clone(),
                        hash: hash.to_string(),
                        kind: FailureKind::StoreWrite,
                        attempts: self.opts.retry.attempts(),
                        error: e.to_string(),
                    });
                }
            }
        }
        CellDone {
            report,
            store_failure,
            waited: false,
        }
    }
}

/// Executes a grid: serves cached cells from `store`, simulates the misses
/// this shard owns (in parallel, one cohort group per work unit, each
/// attempt fault-isolated), and persists every fresh result. `store: None`
/// disables caching entirely — every owned cell re-simulates and nothing
/// touches the filesystem.
///
/// Identical cells (same content hash) appearing at several spec positions
/// are simulated once and fanned out to all positions. Cells sharing a
/// workload and cohort key simulate as one group; each still counts as
/// simulated and gets its own store entry, byte-identical to a solo fill.
///
/// A failing cell never aborts the run: attempts are retried under
/// `opts.retry`, and cells that exhaust their budget are recorded in
/// [`GridOutcome::failures`] (and, when a store is present, persisted as a
/// [`FailureManifest`]) while every other cell completes normally.
///
/// Store-backed runs coordinate through leases and the operations journal
/// (`opts.holder`, `opts.lease_ttl`); see the module docs.
pub fn run_grid(spec: &GridSpec, store: Option<&ResultStore>, opts: &ExecOpts) -> GridOutcome {
    let started = Instant::now();
    let hashes = spec.hashes();
    let mut reports: Vec<Option<SimReport>> = vec![None; spec.cells.len()];
    let mut stats = ExecStats {
        total: spec.cells.len(),
        ..ExecStats::default()
    };
    let estimator = Arc::new(DeadlineEstimator::new(opts.cell_timeout));

    // Coordination plane (leases + journal) for store-backed runs; lease
    // I/O failure at open degrades to uncoordinated execution.
    let plane: Option<Arc<CoordPlane>> =
        store.and_then(|s| match CoordPlane::open(s, &spec.name, opts) {
            Ok(plane) => Some(Arc::new(plane)),
            Err(e) => {
                eprintln!(
                    "chronus-grid: could not open lease/journal plane ({e}); running \
                     uncoordinated"
                );
                None
            }
        });
    // Route store-level events (demotes) through this run's journal unless
    // the store already carries one.
    let journaled_store: Option<ResultStore> = match (store, &plane) {
        (Some(s), Some(p)) if s.journal().is_none() => {
            Some(s.clone().with_journal(p.journal.clone()))
        }
        (Some(s), _) => Some(s.clone()),
        (None, _) => None,
    };
    let store = journaled_store.as_ref();
    if let Some(p) = &plane {
        p.reclaim_stale_on_open();
    }

    // Cache pass. Deduplicate lookups so a hash shared by many cells is
    // read once.
    let mut by_hash: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, h) in hashes.iter().enumerate() {
        by_hash.entry(h.as_str()).or_default().push(i);
    }
    let mut pending: Vec<usize> = Vec::new(); // representative indices
    let mut hits: Vec<&str> = Vec::new();
    for (hash, indices) in &by_hash {
        match store.and_then(|s| s.get(hash)) {
            Some(report) => {
                stats.cached += indices.len();
                hits.push(hash);
                for &i in indices {
                    reports[i] = Some(report.clone());
                }
            }
            None => pending.push(indices[0]),
        }
    }

    // Shard filter: a duplicated hash is owned by the shard owning its
    // first (representative) position.
    pending.sort_unstable();
    let (owned, foreign): (Vec<usize>, Vec<usize>) =
        pending.into_iter().partition(|&i| opts.shard.owns(i));
    for &i in &foreign {
        stats.skipped += by_hash[hashes[i].as_str()].len();
    }
    // Seed the watchdog with what the cached cells cost, but only when
    // something is left to simulate: a full replay reads no wall records.
    if let Some(s) = store.filter(|_| !owned.is_empty()) {
        let walls = s.recorded_walls();
        for wall in hits.iter().filter_map(|hash| walls.get(*hash)) {
            estimator.record(*wall);
        }
    }

    // Heartbeat thread: keeps every held lease's deadline ahead of the
    // clock while cells compute. Stopped (and joined) before returning.
    let hb_stop = Arc::new(AtomicBool::new(false));
    let heartbeat = plane.as_ref().map(|p| {
        let plane = Arc::clone(p);
        let estimator = Arc::clone(&estimator);
        let stop = Arc::clone(&hb_stop);
        std::thread::Builder::new()
            .name("lease-heartbeat".into())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let interval = plane.heartbeat_interval(&estimator);
                    let mut slept = Duration::ZERO;
                    while slept < interval && !stop.load(Ordering::Relaxed) {
                        let step = Duration::from_millis(25).min(interval - slept);
                        std::thread::sleep(step);
                        slept += step;
                    }
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    plane.refresh_active(&estimator);
                }
            })
            .expect("spawn heartbeat thread")
    });

    // Simulate the owned misses group by group. Claims, store writes and
    // journal events all happen inside the worker, so a group's leases are
    // released the moment its entries land — not at the end-of-grid
    // barrier.
    let progress = Progress::new(&spec.name, owned.len(), opts.progress);
    let runners = RunnerPool::new();
    let groups = cohort_groups(&spec.cells, &owned);
    let exec = GroupExec {
        cells: &spec.cells,
        hashes: &hashes,
        store,
        plane: plane.as_deref(),
        opts,
        estimator: &estimator,
        runners: &runners,
        progress: &progress,
    };
    let exec_ref = &exec;
    let groups_ref = &groups;
    let worker_results = try_run_parallel((0..groups.len()).collect(), opts.threads, move |g| {
        exec_ref.run_group(&groups_ref[g])
    });

    runners.shutdown();
    if let Some(handle) = heartbeat {
        hb_stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
    }

    // Fan-out and accounting. Worker-level panics (outside the per-attempt
    // guard) fail every member of the group: one bad worker must never
    // take the grid down.
    let mut failures: Vec<CellFailure> = Vec::new();
    for (members, result) in groups.iter().zip(worker_results) {
        let outcomes = result.unwrap_or_else(|panic_msg| {
            members
                .iter()
                .map(|&i| {
                    let failure = CellFailure {
                        index: i,
                        label: spec.cells[i].label.clone(),
                        hash: hashes[i].clone(),
                        kind: FailureKind::Panic,
                        attempts: 1,
                        error: format!("worker thread panicked: {panic_msg}"),
                    };
                    (i, Err(failure))
                })
                .collect()
        });
        for (i, outcome) in outcomes {
            let indices = &by_hash[hashes[i].as_str()];
            match outcome {
                Ok(done) => {
                    if done.waited {
                        stats.waited += indices.len();
                    } else {
                        stats.simulated += indices.len();
                    }
                    if let Some(failure) = done.store_failure {
                        failures.push(failure);
                    }
                    for &j in indices {
                        reports[j] = Some(done.report.clone());
                    }
                }
                Err(failure) => {
                    stats.failed += indices.len();
                    failures.push(failure);
                }
            }
        }
    }
    failures.sort_by_key(|f| f.index);

    // Persist (or heal) the failure manifest so `chronus status` and
    // later runs see what degraded.
    if let Some(store) = store {
        update_manifest(
            store,
            spec,
            &opts.shard,
            &failures,
            reports.iter().all(Option::is_some),
        );
    }

    GridOutcome {
        reports,
        stats,
        failures,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

/// Merges this run's failures into the grid's persisted manifest under the
/// store lock. Prior failures whose cells now verify in the store are
/// dropped (any shard's rerun heals them); failures re-observed this run
/// replace their prior record; an empty result removes the manifest.
fn update_manifest(
    store: &ResultStore,
    spec: &GridSpec,
    shard: &Shard,
    failures: &[CellFailure],
    complete: bool,
) {
    let lock = store.lock();
    if let Err(e) = &lock {
        eprintln!("chronus-grid: store lock for manifest update failed ({e}); proceeding");
    }
    // A fully clean, complete, unsharded run owns the whole grid: clear
    // unconditionally (even records from stale specs).
    if failures.is_empty() && shard.is_full() && complete {
        store.clear_manifest(&spec.name);
        return;
    }
    let mut merged: Vec<CellFailure> = Vec::new();
    if let ManifestState::Ok(prior) = store.manifest_state(&spec.name) {
        for f in prior.failures {
            if failures.iter().any(|g| g.hash == f.hash) {
                continue; // superseded by this run's record
            }
            if store.verify(&f.hash).is_ok() {
                continue; // healed since (by any shard or process)
            }
            merged.push(f);
        }
    }
    merged.extend_from_slice(failures);
    merged.sort_by(|a, b| (a.index, &a.hash).cmp(&(b.index, &b.hash)));
    merged.dedup_by(|a, b| a.hash == b.hash);
    if merged.is_empty() {
        store.clear_manifest(&spec.name);
    } else {
        let manifest = FailureManifest {
            grid: spec.name.clone(),
            shard: shard.to_string(),
            failures: merged,
        };
        if let Err(e) = store.save_manifest(&manifest) {
            eprintln!("chronus-grid: failed to write failure manifest: {e}");
        }
    }
}

/// Persists one cell, retrying transient write failures under `retry`.
/// Returns the entry's footer digest.
fn put_with_retry(
    store: &ResultStore,
    hash: &str,
    cell: &CellSpec,
    report: &SimReport,
    retry: &RetryPolicy,
) -> std::io::Result<String> {
    let token = mix64(format!("put|{hash}").as_bytes());
    let mut attempt: u32 = 0;
    loop {
        match store.put(hash, cell, report) {
            Ok(checksum) => return Ok(checksum),
            Err(e) if attempt >= retry.max_retries => return Err(e),
            Err(_) => {
                retry.sleep_before_retry(attempt, token);
                attempt += 1;
            }
        }
    }
}

/// Collects a complete grid from the store alone, in spec order — the merge
/// step after sharded runs. The output depends only on the spec and the
/// store contents, so merging after `--shard 1/2` + `--shard 2/2` is
/// byte-identical to merging after one unsharded run. Entries failing
/// integrity verification count as missing (they re-simulate on the next
/// run) rather than erroring the merge.
///
/// As a side effect, the grid's failure manifest is healed (removed, under
/// the store lock) when every cell it records now verifies in the store —
/// so a manifest left by a degraded shard does not outlive its recovery.
///
/// # Errors
///
/// Returns the indices of cells missing from the store.
pub fn merge(spec: &GridSpec, store: &ResultStore) -> Result<Vec<SimReport>, Vec<usize>> {
    let mut out = Vec::with_capacity(spec.cells.len());
    let mut missing = Vec::new();
    for (i, hash) in spec.hashes().iter().enumerate() {
        match store.get(hash) {
            Some(r) => out.push(r),
            None => missing.push(i),
        }
    }
    heal_manifest(spec, store);
    if missing.is_empty() {
        Ok(out)
    } else {
        Err(missing)
    }
}

/// Removes the grid's failure manifest when every failure it records now
/// verifies in the store (under the store lock, so a concurrent writer is
/// not clobbered).
fn heal_manifest(spec: &GridSpec, store: &ResultStore) {
    let Ok(_lock) = store.lock() else {
        return;
    };
    let ManifestState::Ok(manifest) = store.manifest_state(&spec.name) else {
        return;
    };
    if manifest.failures.is_empty()
        || manifest
            .failures
            .iter()
            .all(|f| store.verify(&f.hash).is_ok())
    {
        store.clear_manifest(&spec.name);
        eprintln!(
            "chronus-grid: failure manifest for '{}' healed (every recorded cell now verifies)",
            spec.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{AppTrace, WorkloadSpec};
    use crate::faults::FaultPlan;
    use chronus_sim::SimConfig;

    fn tiny_spec() -> GridSpec {
        let mut spec = GridSpec::new("exec-test");
        for (i, nrh) in [64u32, 64, 32].iter().enumerate() {
            // Cells 0 and 1 are identical on purpose (dedup path).
            let mut cfg = SimConfig::single_core();
            cfg.instructions_per_core = 1_000;
            cfg.nrh = *nrh;
            cfg.mechanism = chronus_core::MechanismKind::Chronus;
            let w = WorkloadSpec::Apps {
                apps: vec![AppTrace::new("511.povray", 0, 2)],
                trace_instructions: 1_500,
            };
            spec.push(CellSpec::new(format!("c{i}"), w, cfg));
        }
        spec
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chronus-grid-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn runners_are_reused_after_panics_and_abandoned_after_timeouts() {
        let cell = tiny_spec().cells[2].clone();
        let attempt = |plan: Option<&str>| Attempt {
            cells: vec![cell.clone()],
            hash: "runner-test".to_string(),
            attempt: 0,
            faults: plan.map(|p| FaultPlan::parse(p).unwrap().injector()),
        };
        let idle = |pool: &RunnerPool| pool.idle.lock().unwrap().len();
        let pool = RunnerPool::new();

        assert!(pool.run(attempt(None), None).is_ok());
        assert_eq!(idle(&pool), 1);
        let panicked = pool.run(attempt(Some("panic:1.0,seed:1")), None);
        assert_eq!(panicked.unwrap_err().0, FailureKind::Panic);
        assert_eq!(idle(&pool), 1, "a caught panic keeps its runner");

        let stalled = attempt(Some("stall:1.0,stall_ms:2000,seed:1"));
        let timed_out = pool.run(stalled, Some(Duration::from_millis(50)));
        assert_eq!(timed_out.unwrap_err().0, FailureKind::Timeout);
        assert_eq!(idle(&pool), 0, "the stuck runner is abandoned");
        assert!(
            pool.run(attempt(None), None).is_ok(),
            "a fresh runner serves the retry"
        );
        assert_eq!(idle(&pool), 1);
        pool.shutdown();
    }

    /// Four oracle-only VRD variants of one workload (one cohort), two
    /// Chronus cells whose N_RH is consumed (a cohort each), and one cell
    /// of another workload.
    fn cohort_spec() -> GridSpec {
        let mcf = WorkloadSpec::Apps {
            apps: vec![AppTrace::new("429.mcf", 0, 42)],
            trace_instructions: 3_000,
        };
        let mut spec = GridSpec::new("cohorts");
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = 2_000;
        cfg.oracle = true;
        for (nrh, seed) in [(1024u32, 1u64), (1024, 2), (512, 1), (256, 3)] {
            let mut vrd = cfg.clone();
            vrd.nrh = nrh;
            vrd.vrd = Some(chronus_sim::VrdSpec { min_pct: 50, seed });
            spec.push(CellSpec::new(format!("vrd#{seed}@{nrh}"), mcf.clone(), vrd));
        }
        for nrh in [64u32, 32] {
            let mut chronus = cfg.clone();
            chronus.mechanism = chronus_core::MechanismKind::Chronus;
            chronus.nrh = nrh;
            spec.push(CellSpec::new(
                format!("chronus@{nrh}"),
                mcf.clone(),
                chronus,
            ));
        }
        let povray = WorkloadSpec::Apps {
            apps: vec![AppTrace::new("511.povray", 0, 7)],
            trace_instructions: 3_000,
        };
        spec.push(CellSpec::new("povray", povray, cfg));
        spec
    }

    #[test]
    fn mixed_workloads_split_into_groups() {
        let spec = cohort_spec();
        let all: Vec<usize> = (0..spec.len()).collect();
        assert_eq!(
            cohort_groups(&spec.cells, &all),
            vec![vec![0, 1, 2, 3], vec![4], vec![5], vec![6]]
        );

        let opts = ExecOpts {
            threads: 2,
            progress: false,
            ..ExecOpts::default()
        };
        let out = run_grid(&spec, None, &opts);
        assert!(out.is_complete() && !out.is_degraded());
        assert_eq!(out.stats.simulated, 7);
        for (cell, report) in spec.cells.iter().zip(&out.reports) {
            assert_eq!(
                report.as_ref(),
                Some(&simulate_cell(cell)),
                "{}",
                cell.label
            );
        }
    }

    #[test]
    fn released_lease_is_neither_refreshed_back_nor_reported_lost() {
        let dir = scratch("heartbeat");
        let store = ResultStore::open(&dir).unwrap();
        let plane = CoordPlane::open(&store, "g", &ExecOpts::default()).unwrap();
        let ttl = Duration::from_secs(30);
        let hash = "ab".repeat(16);
        let claimed = plane.leases.try_claim(&hash, ttl).unwrap();
        assert!(matches!(claimed, ClaimOutcome::Claimed));
        plane.register(&hash);
        assert!(!plane.refresh(&hash, ttl), "a held lease refreshes");

        // The heartbeat's snapshot still lists the hash when the worker
        // releases it; the refresh that follows must see the release.
        plane.release(&hash);
        assert!(!plane.refresh(&hash, ttl), "a release is not a lost lease");
        assert!(
            !plane.leases.lease_path(&hash).exists(),
            "a refresh must not bring a released lease back"
        );
        assert_eq!(plane.refresh_active(&DeadlineEstimator::new(None)), 0);
        drop(plane);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_cells_simulate_once() {
        let dir = scratch("dedup");
        let store = ResultStore::open(&dir).unwrap();
        let spec = tiny_spec();
        let opts = ExecOpts {
            threads: 2,
            progress: false,
            ..ExecOpts::default()
        };
        let out = run_grid(&spec, Some(&store), &opts);
        assert!(out.is_complete());
        assert!(!out.is_degraded());
        // 3 slots filled but only 2 distinct simulations persisted.
        assert_eq!(out.stats.simulated, 3);
        assert_eq!(store.list().unwrap().len(), 2);
        assert_eq!(out.reports[0], out.reports[1]);
        assert_ne!(out.reports[0], out.reports[2]);

        // Second run: everything cached, nothing simulated.
        let again = run_grid(&spec, Some(&store), &opts);
        assert_eq!(again.stats.cached, 3);
        assert_eq!(again.stats.simulated, 0);
        assert_eq!(again.reports, out.reports);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_store_never_touches_the_filesystem() {
        let dir = scratch("nocache");
        let spec = tiny_spec();
        let opts = ExecOpts {
            threads: 1,
            progress: false,
            ..ExecOpts::default()
        };
        let out = run_grid(&spec, None, &opts);
        assert!(out.is_complete());
        assert_eq!(out.stats.simulated, 3);
        assert!(!dir.exists(), "cache-less run must not create directories");
    }

    #[test]
    fn summary_includes_failure_accounting() {
        let stats = ExecStats {
            total: 4,
            cached: 1,
            simulated: 2,
            skipped: 0,
            failed: 1,
            waited: 0,
        };
        assert_eq!(
            stats.summary(),
            "cells=4 cached=1 simulated=2 skipped=0 failed=1 waited=0"
        );
    }

    #[test]
    fn manifest_roundtrips_through_the_store() {
        let dir = scratch("manifest");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.load_manifest("g").is_none());
        let manifest = FailureManifest {
            grid: "g".into(),
            shard: "1/1".into(),
            failures: vec![CellFailure {
                index: 3,
                label: "cell-3".into(),
                hash: "f".repeat(32),
                kind: FailureKind::Timeout,
                attempts: 4,
                error: "watchdog deadline 1.0s exceeded".into(),
            }],
        };
        store.save_manifest(&manifest).unwrap();
        assert_eq!(store.load_manifest("g").unwrap(), manifest);
        store.clear_manifest("g");
        assert!(store.load_manifest("g").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_estimator_arms_after_three_samples() {
        let est = DeadlineEstimator::new(None);
        assert_eq!(est.deadline(), None);
        est.record(0.5);
        est.record(0.5);
        assert_eq!(est.deadline(), None, "two samples must not arm");
        est.record(0.5);
        // 20 × 0.5 s = 10 s is below the 30 s floor.
        assert_eq!(est.deadline(), Some(Duration::from_secs(30)));
        est.record(17.5); // mean now 4.75 s → 95 s
        assert_eq!(est.deadline(), Some(Duration::from_secs_f64(95.0)));

        let explicit = DeadlineEstimator::new(Some(Duration::from_millis(250)));
        assert_eq!(explicit.deadline(), Some(Duration::from_millis(250)));
    }
}
