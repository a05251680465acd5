//! Tier-1 guard for the lazily paged per-row state (oracle counters,
//! PRAC/Chronus counters, LLC lines) and the indexed Misra–Gries tables.
//!
//! At `Geometry::tiny()` scale with the disturbance oracle attached, the
//! event-driven loop must reproduce the cycle-by-cycle reference loop bit
//! for bit for every headline mechanism. The hammer targets rows at both
//! edges of a bank, which are also page edges of the paged arrays.

use chronus::core::MechanismKind;
use chronus::cpu::Trace;
use chronus::ctrl::AddressMapping;
use chronus::dram::{BankId, Geometry};
use chronus::sim::{SimConfig, SimReport, System};
use chronus::workloads::{synthetic_app, wave_attack_trace};

fn tiny_cfg(mech: MechanismKind, nrh: u32, insts: u64) -> SimConfig {
    let mut cfg = SimConfig::single_core();
    cfg.geometry = Geometry::tiny();
    cfg.instructions_per_core = insts;
    cfg.mechanism = mech;
    cfg.nrh = nrh;
    cfg.oracle = true;
    cfg.max_mem_cycles = insts * 5_000;
    cfg
}

fn app_trace(insts: u64) -> Trace {
    synthetic_app("429.mcf", 0)
        .expect("known app")
        .generate(insts + insts / 5, 11)
}

fn edge_hammer(insts: u64) -> Trace {
    let geo = Geometry::tiny();
    let last = geo.rows as u32 - 1;
    wave_attack_trace(
        AddressMapping::Mop,
        &geo,
        BankId::new(0, 1, 1),
        &[0, 2, 511, 513, last - 2, last],
        insts as usize + 64,
    )
}

fn both_loops(cfg: &SimConfig, trace: impl Fn() -> Trace, what: &str) -> SimReport {
    let fast = System::build(cfg).run(vec![trace()]);
    let naive = System::build(cfg).run_reference(vec![trace()]);
    assert!(!fast.truncated, "{what}: truncated");
    assert_eq!(fast, naive, "{what}: fast and reference loops diverged");
    fast
}

#[test]
fn headline_mechanisms_match_the_reference_loop_on_tiny_geometry() {
    let insts = 2_000;
    for &mech in MechanismKind::headline() {
        let cfg = tiny_cfg(mech, 64, insts);
        both_loops(&cfg, || app_trace(insts), &format!("{mech}/429.mcf"));
        let r = both_loops(&cfg, || edge_hammer(insts), &format!("{mech}/edge hammer"));
        assert!(r.dram.acts > 0, "{mech}: the hammer must activate rows");
        assert!(
            r.oracle_max_acts.is_some(),
            "{mech}: the oracle must be attached"
        );
    }
}

#[test]
fn graphene_at_low_nrh_matches_the_reference_loop() {
    let insts = 3_000;
    for nrh in [16, 32] {
        let cfg = tiny_cfg(MechanismKind::Graphene, nrh, insts);
        let r = both_loops(&cfg, || edge_hammer(insts), &format!("graphene@{nrh}"));
        assert!(
            r.ctrl_mitigation.triggers > 0,
            "graphene@{nrh}: the hammer must trip the tables"
        );
        let max = r.oracle_max_acts.expect("oracle attached");
        assert!(max < nrh, "graphene@{nrh}: a row reached {max}");
    }
}
