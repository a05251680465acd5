//! Acceptance test for cross-process coordination: two executors racing
//! on one store complete the grid with **zero duplicated simulations**
//! (journal-verified) and leave the store byte-identical to a solo run —
//! for single cells and for a cohort group whose members the two executors
//! split between them.
//!
//! The two executors run as threads, but each opens its own `ResultStore`
//! and `ExecOpts::holder` — exactly the state two separate processes
//! would hold; leases and the journal are the only coordination channel.

use std::path::PathBuf;
use std::sync::{mpsc, Barrier};
use std::time::Duration;

use chronus_core::MechanismKind;
use chronus_grid::{
    run_grid, AppTrace, CellSpec, EventKind, ExecOpts, GridSpec, ResultStore, WorkloadSpec,
};
use chronus_sim::{SimConfig, VrdSpec};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronus-grid-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same 4-cell grid the shard-merge acceptance tests use.
fn sample_grid() -> GridSpec {
    let mut spec = GridSpec::new("conc-sample");
    for (slot, app) in ["511.povray", "429.mcf"].iter().enumerate() {
        for nrh in [1024u32, 32] {
            let mut cfg = SimConfig::single_core();
            cfg.instructions_per_core = 2_000;
            cfg.mechanism = MechanismKind::Chronus;
            cfg.nrh = nrh;
            cfg.seed = 42;
            cfg.max_mem_cycles = 1 << 22;
            let workload = WorkloadSpec::Apps {
                apps: vec![AppTrace::new(*app, slot as u64, 42 ^ ((slot as u64) << 8))],
                trace_instructions: 2_400,
            };
            spec.push(CellSpec::new(format!("{app}@{nrh}"), workload, cfg));
        }
    }
    spec
}

fn opts(holder: &str) -> ExecOpts {
    ExecOpts {
        threads: 2,
        progress: false,
        holder: Some(holder.to_string()),
        lease_ttl: Some(Duration::from_secs(30)),
        ..ExecOpts::default()
    }
}

/// An 8-member VRD cohort: oracle-only variants of one workload, which
/// the executor runs as one group.
fn vrd_cohort() -> GridSpec {
    let mut spec = GridSpec::new("conc-cohort");
    let workload = WorkloadSpec::Apps {
        apps: vec![AppTrace::new("429.mcf", 0, 42)],
        trace_instructions: 2_400,
    };
    for seed in 1..=8u64 {
        let mut cfg = SimConfig::single_core();
        cfg.instructions_per_core = 2_000;
        cfg.oracle = true;
        cfg.vrd = Some(VrdSpec { min_pct: 50, seed });
        cfg.max_mem_cycles = 1 << 22;
        spec.push(CellSpec::new(format!("vrd#{seed}"), workload.clone(), cfg));
    }
    spec
}

#[test]
fn racing_executors_never_duplicate_work() {
    assert_race_is_exact(sample_grid(), "race");
}

#[test]
fn racing_executors_split_a_cohort_group_without_deadlock() {
    // A deadlock would hang the race; bound it instead.
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        assert_race_is_exact(vrd_cohort(), "cohort");
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(300)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("racing executors deadlocked"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the race failed (see above)"),
    }
}

/// Fills `spec` solo, then with two executors racing on one shared store,
/// and checks that the race simulated every cell exactly once and left a
/// store byte-identical to the solo fill.
fn assert_race_is_exact(spec: GridSpec, tag: &str) {
    let cells = spec.len();

    // Solo reference run for byte-identity.
    let dir_solo = scratch(&format!("{tag}-solo"));
    let store_solo = ResultStore::open(&dir_solo).unwrap();
    let solo = run_grid(&spec, Some(&store_solo), &opts("solo-1-1"));
    assert!(solo.is_complete() && !solo.is_degraded());
    assert_eq!(solo.stats.simulated, cells);

    // Two executors racing on one shared store.
    let dir = scratch(tag);
    let start = Barrier::new(2);
    let (a, b) = std::thread::scope(|scope| {
        let run = |holder: &'static str| {
            let spec = &spec;
            let dir = &dir;
            let start = &start;
            scope.spawn(move || {
                let store = ResultStore::open(dir).unwrap();
                start.wait();
                run_grid(spec, Some(&store), &opts(holder))
            })
        };
        let a = run("host-1-a");
        let b = run("host-2-b");
        (a.join().unwrap(), b.join().unwrap())
    });

    // Both executors end with every cell resolved...
    assert!(a.is_complete() && !a.is_degraded(), "{:?}", a.stats);
    assert!(b.is_complete() && !b.is_degraded(), "{:?}", b.stats);
    assert_eq!(a.reports, solo.reports);
    assert_eq!(b.reports, solo.reports);

    // ...and every simulation ran exactly once across the pair: the rest
    // resolved from the cache or by waiting on the other holder's lease.
    assert_eq!(
        a.stats.simulated + b.stats.simulated,
        cells,
        "duplicated or lost work: a={:?} b={:?}",
        a.stats,
        b.stats
    );
    for stats in [&a.stats, &b.stats] {
        assert_eq!(
            stats.cached + stats.waited + stats.simulated,
            cells,
            "{stats:?}"
        );
        assert_eq!(stats.failed, 0);
    }

    // The journal agrees: exactly one Complete per cell, no more.
    let scan = chronus_grid::journal::read_events(&dir).unwrap();
    assert_eq!(scan.torn_lines, 0);
    let completes: Vec<&str> = scan
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Complete)
        .map(|e| e.hash.as_str())
        .collect();
    assert_eq!(
        completes.len(),
        cells,
        "one Complete per distinct simulation"
    );
    let mut unique = completes.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), cells, "no hash completed twice");

    // The racing store's entries are byte-identical to the solo run's.
    let store = ResultStore::open(&dir).unwrap();
    let hashes = store_solo.list().unwrap();
    assert_eq!(hashes, store.list().unwrap());
    for h in &hashes {
        let solo_bytes = std::fs::read(store_solo.path_of(h)).unwrap();
        let race_bytes = std::fs::read(store.path_of(h)).unwrap();
        assert_eq!(solo_bytes, race_bytes, "entry {h} differs from solo run");
    }

    // No lease survives a clean finish.
    let leases = std::fs::read_dir(dir.join("leases"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(leases, 0, "all leases must be released");

    let _ = std::fs::remove_dir_all(&dir_solo);
    let _ = std::fs::remove_dir_all(&dir);
}
