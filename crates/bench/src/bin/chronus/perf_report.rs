//! `chronus perf_report` — simulator-throughput report: event-driven fast
//! loop vs. the retained cycle-by-cycle reference loop.
//!
//! Measures simulated-memory-cycles per wall-second on an idle-heavy
//! single-core workload (`511.povray`, where the fast-forward engine
//! should shine) and a memory-bound one (`429.mcf`, where it must not
//! regress), plus the wall-clock of one Fig. 3 security-sweep point, and
//! writes the machine-readable `BENCH_loop.json`.
//!
//! ```text
//! cargo run --release -p chronus-bench --bin chronus -- perf_report \
//!     --instructions 2000000 --out BENCH_loop.json
//! ```

use std::path::PathBuf;
use std::time::Instant;

use chronus_bench::opts::{parse_flag, ParseOutcome};
use chronus_bench::{format_table, write_json};
use chronus_core::MechanismKind;
use chronus_cpu::Trace;
use chronus_security::sweep::{fig3a, fig3b};
use chronus_security::wave::WaveTiming;
use chronus_sim::{SimConfig, SimReport, System, VrdSpec};
use chronus_workloads::{perf_attack_trace, synthetic_app};
use serde::Serialize;

/// Repetitions per measurement; the fastest is reported.
const REPS: usize = 3;

#[derive(Debug, Clone, Serialize)]
struct LoopRow {
    app: String,
    kind: String,
    instructions: u64,
    mem_cycles: u64,
    fast_seconds: f64,
    reference_seconds: f64,
    fast_cycles_per_sec: f64,
    reference_cycles_per_sec: f64,
    speedup: f64,
    reports_identical: bool,
    avg_read_latency: f64,
}

/// The batched Monte-Carlo measurement: N oracle variants of one workload
/// through `System::run_batch` vs N solo runs.
#[derive(Debug, Clone, Serialize)]
struct BatchRow {
    app: String,
    variants: usize,
    instructions: u64,
    solo_seconds: f64,
    batched_seconds: f64,
    speedup: f64,
    reports_identical: bool,
}

#[derive(Debug, Clone, Serialize)]
struct PerfReport {
    rows: Vec<LoopRow>,
    batch: BatchRow,
    fig3_point_seconds: f64,
    idle_heavy_speedup: f64,
    memory_bound_speedup: f64,
    batch_speedup: f64,
    meets_idle_target_3x: bool,
    memory_bound_regression_within_5pct: bool,
    meets_batch_target_5x: bool,
}

fn cfg_for(insts: u64) -> SimConfig {
    let mut cfg = SimConfig::single_core();
    cfg.instructions_per_core = insts;
    cfg.mechanism = MechanismKind::None;
    cfg.nrh = 1024;
    cfg.max_mem_cycles = insts.saturating_mul(4_000).max(1 << 22);
    cfg
}

fn best_of<F: FnMut() -> SimReport>(mut run: F) -> (f64, SimReport) {
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r = run();
        best = best.min(start.elapsed().as_secs_f64());
        report = Some(r);
    }
    (best, report.expect("at least one repetition"))
}

fn measure(app: &str, kind: &str, insts: u64, seed: u64) -> LoopRow {
    let cfg = cfg_for(insts);
    let trace = synthetic_app(app, 0)
        .expect("known app")
        .generate(insts + insts / 5, seed);
    measure_trace(cfg, app, kind, insts, trace)
}

/// The §11 performance-degradation attack (8 rows × 4 banks of guaranteed
/// row conflicts): the adversarial memory-bound row. The controller never
/// goes idle and almost every access costs a PRE+ACT, so this is the
/// worst case for the event-driven wake computation.
fn measure_attack(insts: u64) -> LoopRow {
    let mut cfg = cfg_for(insts);
    // Attack traces aim at exact (bank, row) coordinates through the
    // inverse mapping; pin it so the coordinates stay honest.
    cfg.mapping = Some(chronus_ctrl::AddressMapping::Mop);
    let trace = perf_attack_trace(
        chronus_ctrl::AddressMapping::Mop,
        &cfg.geometry,
        4,
        8,
        (insts + insts / 5) as usize,
    );
    measure_trace(cfg, "perf-attack", "memory-bound", insts, trace)
}

fn measure_trace(cfg: SimConfig, app: &str, kind: &str, insts: u64, trace: Trace) -> LoopRow {
    let (fast_s, fast) = best_of(|| System::build(&cfg).run(vec![trace.clone()]));
    let (ref_s, naive) = best_of(|| System::build(&cfg).run_reference(vec![trace.clone()]));
    let identical = fast == naive;
    assert!(
        identical,
        "{app}: fast and reference loops diverged — the equivalence \
         guarantee is broken, throughput numbers are meaningless"
    );
    let fast_cps = fast.mem_cycles as f64 / fast_s;
    let ref_cps = naive.mem_cycles as f64 / ref_s;
    LoopRow {
        app: app.to_string(),
        kind: kind.to_string(),
        instructions: insts,
        mem_cycles: fast.mem_cycles,
        fast_seconds: fast_s,
        reference_seconds: ref_s,
        fast_cycles_per_sec: fast_cps,
        reference_cycles_per_sec: ref_cps,
        speedup: fast_cps / ref_cps,
        reports_identical: identical,
        avg_read_latency: fast.ctrl.avg_read_latency(),
    }
}

/// Measures the 64-variant Monte-Carlo sweep both ways: 64 solo runs
/// (each regenerating its trace and stepping its own `System`, exactly
/// what 64 independent grid cells cost) vs one `System::run_batch` over a
/// once-generated trace. The variants differ only in their VRD sampling
/// seed, so the whole batch is one timing cohort judged by a 64-lane
/// oracle. Asserts every batched report is bit-identical to its solo
/// counterpart before reporting throughput.
fn measure_batch(insts: u64) -> BatchRow {
    const VARIANTS: usize = 64;
    let cfgs: Vec<SimConfig> = (0..VARIANTS)
        .map(|v| {
            let mut cfg = cfg_for(insts);
            cfg.oracle = true;
            cfg.vrd = Some(VrdSpec {
                min_pct: 50,
                seed: v as u64,
            });
            cfg
        })
        .collect();
    let gen = || {
        synthetic_app("429.mcf", 0)
            .expect("known app")
            .generate(insts + insts / 5, 11)
    };

    // Solo side: one pass (the 64 back-to-back runs average measurement
    // noise out on their own).
    let t0 = Instant::now();
    let solo: Vec<SimReport> = cfgs
        .iter()
        .map(|cfg| System::build(cfg).run(vec![gen()]))
        .collect();
    let solo_s = t0.elapsed().as_secs_f64();

    // Batched side: trace generated once, best of REPS.
    let mut batched_s = f64::INFINITY;
    let mut batched = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let traces = vec![gen()];
        let b = System::run_batch(&cfgs, &traces);
        batched_s = batched_s.min(t0.elapsed().as_secs_f64());
        batched = Some(b);
    }
    let batched = batched.expect("at least one repetition");

    let identical = solo == batched;
    assert!(
        identical,
        "429.mcf batch: batched and solo reports diverged — the lockstep \
         equivalence guarantee is broken, throughput numbers are meaningless"
    );
    BatchRow {
        app: "429.mcf".to_string(),
        variants: VARIANTS,
        instructions: insts,
        solo_seconds: solo_s,
        batched_seconds: batched_s,
        speedup: solo_s / batched_s,
        reports_identical: identical,
    }
}

/// The flags of `perf_report`.
#[derive(Debug, PartialEq)]
struct Flags {
    /// Instructions of the idle-heavy row (`--instructions N`).
    instructions: u64,
    /// Where the JSON report goes (`--out FILE`; `--no-out` for none).
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, ParseOutcome> {
    let mut flags = Flags {
        instructions: 2_000_000,
        out: Some(PathBuf::from("BENCH_loop.json")),
    };
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| ParseOutcome::Invalid(format!("{name} requires a value")))
        };
        match a.as_str() {
            "--instructions" => {
                flags.instructions = parse_flag("--instructions", value("--instructions")?)?
            }
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            "--no-out" => flags.out = None,
            "--help" | "-h" => return Err(ParseOutcome::Help),
            other => return Err(ParseOutcome::Invalid(format!("unknown flag '{other}'"))),
        }
    }
    Ok(flags)
}

/// Runs the report; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let Flags { instructions, out } = match parse_flags(args) {
        Ok(flags) => flags,
        Err(ParseOutcome::Help) => {
            eprintln!(
                "chronus perf_report: fast-loop vs reference-loop throughput.\n\
                 flags: --instructions N --out FILE --no-out"
            );
            return 0;
        }
        Err(ParseOutcome::Invalid(msg)) => crate::fail(&format!("perf_report: {msg}")),
    };

    // The memory-bound app needs ~20× fewer instructions for similar
    // wall-clock (its IPC is far lower and every access reaches DRAM).
    let rows = vec![
        measure("511.povray", "idle-heavy", instructions, 11),
        measure("429.mcf", "memory-bound", instructions / 10, 11),
        measure_attack(instructions / 10),
    ];
    // The batch row sweeps 64 variants, so it gets ~20× fewer
    // instructions per variant for comparable wall-clock.
    let batch = measure_batch(instructions / 20);

    let t0 = Instant::now();
    let (a, b) = (
        fig3a(&WaveTiming::baseline_default()),
        fig3b(&WaveTiming::prac_default()),
    );
    let fig3_s = t0.elapsed().as_secs_f64();
    assert!(!a.is_empty() && !b.is_empty());

    let idle = rows[0].speedup;
    // The reported memory-bound speedup is the *minimum* across the
    // memory-bound rows: the gate must hold even on the worst of them.
    let membound = rows
        .iter()
        .filter(|r| r.kind == "memory-bound")
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    let batch_speedup = batch.speedup;
    let report = PerfReport {
        fig3_point_seconds: fig3_s,
        idle_heavy_speedup: idle,
        memory_bound_speedup: membound,
        batch_speedup,
        meets_idle_target_3x: idle >= 3.0,
        memory_bound_regression_within_5pct: membound >= 0.95,
        meets_batch_target_5x: batch_speedup >= 5.0,
        rows,
        batch,
    };

    let table: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.kind.clone(),
                format!("{}", r.mem_cycles),
                format!("{:.2e}", r.fast_cycles_per_sec),
                format!("{:.2e}", r.reference_cycles_per_sec),
                format!("{:.2}x", r.speedup),
                format!("{:.1}", r.avg_read_latency),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "app",
                "kind",
                "mem_cycles",
                "fast c/s",
                "ref c/s",
                "speedup",
                "avg read lat"
            ],
            &table
        )
    );
    println!(
        "batch: {} x{} variants: solo {:.2}s, batched {:.2}s, speedup {:.2}x",
        report.batch.app,
        report.batch.variants,
        report.batch.solo_seconds,
        report.batch.batched_seconds,
        report.batch.speedup,
    );
    println!("fig3 single point: {fig3_s:.3}s");
    println!(
        "idle-heavy target (>=3x): {} | memory-bound regression (<=5%): {} | batch target (>=5x): {}",
        if report.meets_idle_target_3x {
            "PASS"
        } else {
            "FAIL"
        },
        if report.memory_bound_regression_within_5pct {
            "PASS"
        } else {
            "FAIL"
        },
        if report.meets_batch_target_5x {
            "PASS"
        } else {
            "FAIL"
        },
    );
    if let Some(path) = out {
        write_json(&path, &report);
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, ParseOutcome> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_its_three_flags() {
        assert_eq!(
            parse(&["--instructions", "500000", "--out", "r.json"]).unwrap(),
            Flags {
                instructions: 500_000,
                out: Some(PathBuf::from("r.json")),
            }
        );
        assert_eq!(parse(&["--no-out"]).unwrap().out, None);
        assert_eq!(parse(&["-h"]).unwrap_err(), ParseOutcome::Help);
    }

    #[test]
    fn bad_flags_are_reported_not_panicked() {
        assert!(matches!(
            parse(&["--bogus"]),
            Err(ParseOutcome::Invalid(msg)) if msg.contains("'--bogus'")
        ));
        assert!(matches!(
            parse(&["--instructions", "x"]),
            Err(ParseOutcome::Invalid(msg)) if msg.contains("--instructions") && msg.contains("'x'")
        ));
        assert!(matches!(
            parse(&["--out"]),
            Err(ParseOutcome::Invalid(msg)) if msg.contains("--out requires a value")
        ));
    }
}
