//! Tier-1 guard for the grid executor's cohort groups.
//!
//! A tiny grid holds one 4-member VRD cohort (oracle-only variants of one
//! workload, which `run_grid` simulates as one lockstep group) and one
//! singleton cell. The store `run_grid` fills must be byte-identical to a
//! reference fill made cell by cell with `simulate_cell` and
//! `ResultStore::put`; a second run must replay everything; and every
//! member must keep its own journal events and wall record.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use chronus::grid::journal::read_events;
use chronus::grid::{
    run_grid, simulate_cell, AppTrace, CellSpec, EventKind, ExecOpts, GridSpec, ResultStore,
    WorkloadSpec,
};
use chronus::sim::{SimConfig, VrdSpec};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronus-tier1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn grid() -> GridSpec {
    let mcf = WorkloadSpec::Apps {
        apps: vec![AppTrace::new("429.mcf", 0, 42)],
        trace_instructions: 3_000,
    };
    let mut cfg = SimConfig::single_core();
    cfg.instructions_per_core = 2_000;
    cfg.oracle = true;
    let mut spec = GridSpec::new("tier1-cohort");
    for (nrh, seed) in [(1024u32, 1u64), (1024, 2), (512, 1), (256, 3)] {
        let mut member = cfg.clone();
        member.nrh = nrh;
        member.vrd = Some(VrdSpec { min_pct: 50, seed });
        spec.push(CellSpec::new(
            format!("vrd#{seed}@{nrh}"),
            mcf.clone(),
            member,
        ));
    }
    let povray = WorkloadSpec::Apps {
        apps: vec![AppTrace::new("511.povray", 0, 7)],
        trace_instructions: 3_000,
    };
    spec.push(CellSpec::new("povray", povray, cfg));
    spec
}

/// `(file name, bytes)` of the store's `<hash>.json` entries, the cache
/// surface (journals and the wall log are executor-local).
fn entry_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(Result::unwrap)
        .filter(|e| e.file_type().unwrap().is_file())
        .map(|e| (e.file_name().into_string().unwrap(), e.path()))
        .filter(|(name, _)| name.ends_with(".json"))
        .map(|(name, path)| (name, std::fs::read(path).unwrap()))
        .collect();
    out.sort();
    out
}

#[test]
fn cohort_groups_fill_the_store_like_solo_cells() {
    let spec = grid();
    let hashes = spec.hashes();
    let opts = ExecOpts {
        threads: 2,
        progress: false,
        ..ExecOpts::default()
    };

    let reference_dir = scratch("reference");
    let reference = ResultStore::open(&reference_dir).unwrap();
    let solo: Vec<_> = spec.cells.iter().map(simulate_cell).collect();
    for ((cell, hash), report) in spec.cells.iter().zip(&hashes).zip(&solo) {
        reference.put(hash, cell, report).unwrap();
    }

    let dir = scratch("run-grid");
    let store = ResultStore::open(&dir).unwrap();
    let first = run_grid(&spec, Some(&store), &opts);
    assert!(first.is_complete() && !first.is_degraded());
    assert_eq!(first.stats.simulated, 5, "{:?}", first.stats);
    for (report, expected) in first.reports.iter().zip(&solo) {
        assert_eq!(report.as_ref(), Some(expected));
    }
    assert_eq!(entry_bytes(&dir).len(), 5);
    assert_eq!(
        entry_bytes(&dir),
        entry_bytes(&reference_dir),
        "store entries must be byte-identical to a solo fill"
    );

    let second = run_grid(&spec, Some(&store), &opts);
    assert_eq!(
        second.stats.summary(),
        "cells=5 cached=5 simulated=0 skipped=0 failed=0 waited=0"
    );
    assert_eq!(second.reports, first.reports);

    // One Claim and one Complete per member, and one wall record per cell.
    let scan = read_events(&dir).unwrap();
    let mut claims: HashMap<&str, usize> = HashMap::new();
    let mut completes: HashMap<&str, usize> = HashMap::new();
    for event in &scan.events {
        match event.kind {
            EventKind::Claim => *claims.entry(&event.hash).or_default() += 1,
            EventKind::Complete => *completes.entry(&event.hash).or_default() += 1,
            _ => {}
        }
    }
    for hash in &hashes {
        assert_eq!(claims.get(hash.as_str()), Some(&1), "claims of {hash}");
        assert_eq!(
            completes.get(hash.as_str()),
            Some(&1),
            "completes of {hash}"
        );
    }
    assert_eq!(claims.len() + completes.len(), 10);
    let walls = std::fs::read_to_string(dir.join("walls.log")).unwrap();
    let mut recorded: Vec<&str> = walls.lines().filter_map(|l| l.split(' ').next()).collect();
    recorded.sort_unstable();
    let mut expected: Vec<&str> = hashes.iter().map(String::as_str).collect();
    expected.sort_unstable();
    assert_eq!(recorded, expected, "one wall record per cell");
    assert_eq!(store.recorded_walls().len(), 5);

    let _ = std::fs::remove_dir_all(&reference_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
