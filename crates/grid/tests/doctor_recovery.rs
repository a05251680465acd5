//! Acceptance tests for the `doctor` recovery pass: a store wrecked by a
//! crashed executor (stale lease, orphan temp file, corrupt entry, corrupt
//! manifest, journal claim with no outcome) is fully reconciled, and the
//! next run completes clean. Divergence — a verified entry contradicting
//! its journaled checksum — is the one unhealable state and must be
//! flagged.

use std::path::PathBuf;
use std::time::Duration;

use chronus_core::MechanismKind;
use chronus_grid::{
    run_doctor, run_grid, AppTrace, CellSpec, EventKind, ExecOpts, GridSpec, Journal, LeaseInfo,
    ResultStore, WorkloadSpec,
};
use chronus_sim::SimConfig;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronus-grid-doc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_grid() -> GridSpec {
    let mut spec = GridSpec::new("doc-sample");
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

fn opts() -> ExecOpts {
    ExecOpts {
        threads: 2,
        progress: false,
        ..ExecOpts::default()
    }
}

/// Plants an expired lease from a foreign (unverifiable) holder.
fn plant_stale_lease(dir: &std::path::Path, hash: &str) {
    let leases = dir.join("leases");
    std::fs::create_dir_all(&leases).unwrap();
    let info = LeaseInfo {
        holder: "elsewhere-424242-7".into(),
        deadline_ms: 1, // 1970 — expired by any clock
        refreshes: 0,
    };
    std::fs::write(
        leases.join(format!("{hash}.lease")),
        serde_json::to_string(&info).unwrap(),
    )
    .unwrap();
}

#[test]
fn doctor_heals_a_crashed_store_and_the_rerun_completes() {
    let spec = sample_grid();
    let dir = scratch("heal");
    let store = ResultStore::open(&dir).unwrap();

    // A healthy first run populates the store and journal.
    let first = run_grid(&spec, Some(&store), &opts());
    assert!(first.is_complete() && !first.is_degraded());

    // Fabricate the debris a kill -9 leaves behind.
    let hashes = spec.hashes();
    // 1. A stale lease from a crashed foreign holder.
    plant_stale_lease(&dir, &hashes[0]);
    // 2. An orphan temp file from an interrupted atomic write.
    let orphan_hash = "fadedfacefadedfacefadedfacefaded";
    std::fs::write(dir.join(format!(".{orphan_hash}.12345.tmp")), b"partial").unwrap();
    // 3. A corrupt entry (truncated mid-write; not one of the grid's).
    let corrupt_hash = "deadbeefdeadbeefdeadbeefdeadbeef";
    std::fs::write(dir.join(format!("{corrupt_hash}.json")), b"{\"trunca").unwrap();
    // 4. A corrupt failure manifest.
    std::fs::create_dir_all(dir.join("failures")).unwrap();
    std::fs::write(dir.join("failures/doc-sample.json"), b"not json {").unwrap();
    // 5. A journal Claim with no outcome: a holder that died mid-cell.
    let claimed_hash = "0123456789abcdef0123456789abcdef";
    let crashed = Journal::open(&dir, "elsewhere-424242-7");
    crashed
        .append(EventKind::Claim, "doc-sample", claimed_hash, 1, 0.0, "", "")
        .unwrap();

    let report = run_doctor(&store).expect("doctor pass");
    assert!(report.is_healthy(), "all debris is healable: {report:?}");
    assert_eq!(
        report.reclaimed_leases,
        vec![(hashes[0].clone(), "elsewhere-424242-7".to_string())]
    );
    assert!(report.fsck.reaped_tmp >= 1, "orphan tmp reaped: {report:?}");
    assert_eq!(
        report.fsck.quarantined.len(),
        1,
        "corrupt entry quarantined"
    );
    assert_eq!(
        report.fsck.quarantined_manifests.len(),
        1,
        "corrupt manifest quarantined: {report:?}"
    );
    assert_eq!(report.interrupted, vec![claimed_hash.to_string()]);
    assert!(report.diverged.is_empty());

    // The debris is gone from the store proper.
    assert!(!dir.join(format!("leases/{}.lease", hashes[0])).exists());
    assert!(!dir.join(format!("{corrupt_hash}.json")).exists());
    assert!(!dir.join("failures/doc-sample.json").exists());
    assert!(dir.join(format!("quarantine/{corrupt_hash}.json")).exists());
    assert!(dir.join("quarantine/failures/doc-sample.json").exists());

    // The rerun completes 100% clean from the cache.
    let rerun = run_grid(&spec, Some(&store), &opts());
    assert!(rerun.is_complete() && !rerun.is_degraded());
    assert_eq!(rerun.stats.cached, 4);
    assert_eq!(rerun.stats.simulated, 0);

    // A second doctor pass finds nothing new to do.
    let again = run_doctor(&store).expect("second doctor pass");
    assert!(again.is_healthy());
    assert!(again.reclaimed_leases.is_empty());
    assert_eq!(again.fsck.quarantined.len(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctor_flags_a_diverged_entry_as_unhealable() {
    let spec = sample_grid();
    let dir = scratch("diverge");
    let store = ResultStore::open(&dir).unwrap();
    let out = run_grid(&spec, Some(&store), &opts());
    assert!(out.is_complete());

    // Journal a Complete whose checksum contradicts the verified entry —
    // as if the store file were swapped after the fact.
    let hash = &spec.hashes()[0];
    let liar = Journal::open(&dir, "liar-1-1");
    liar.append(
        EventKind::Complete,
        "doc-sample",
        hash,
        1,
        0.01,
        "0000000000000000",
        "",
    )
    .unwrap();

    let report = run_doctor(&store).expect("doctor pass");
    assert!(!report.is_healthy());
    assert_eq!(report.diverged, vec![hash.clone()]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn executor_reclaims_stale_leases_on_open() {
    let spec = sample_grid();
    let dir = scratch("reclaim");
    std::fs::create_dir_all(&dir).unwrap();

    // A crashed foreign holder left an expired lease on a grid cell.
    let hash = spec.hashes()[0].clone();
    plant_stale_lease(&dir, &hash);

    let store = ResultStore::open(&dir).unwrap();
    let opts = ExecOpts {
        lease_ttl: Some(Duration::from_secs(30)),
        ..opts()
    };
    let out = run_grid(&spec, Some(&store), &opts);
    assert!(out.is_complete() && !out.is_degraded());
    assert_eq!(out.stats.simulated, 4, "the stale lease must not block");
    assert!(
        !dir.join(format!("leases/{hash}.lease")).exists(),
        "stale lease reclaimed and released"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
