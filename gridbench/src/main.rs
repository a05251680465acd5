//! `gridbench` — the grid-fill ledger.
//!
//! Fills (or replays) registered experiment grids through the same library
//! path as `chronus-sweep run` — `chronus_bench::grids::build_spec`, then
//! `chronus_grid::run_grid` on a result store — and reports end-to-end
//! metrics (`--trace 0`) or per-layer metrics from a separate traced run
//! (`--trace 1`). Every run checks the simulated output: a digest over the
//! merged reports must repeat exactly (and match the pinned digest for the
//! default seed), and every store entry must verify. A mismatch prints no
//! metrics and exits 1.
//!
//! ```text
//! cargo run --release --manifest-path gridbench/Cargo.toml -- \
//!     --workload fig7-cold --seed 42 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See `gridbench/README.md` for the metrics, workloads and baseline.

mod ledger;
mod procfs;
mod records;
mod stats;
mod unit;

use std::path::{Path, PathBuf};
use std::time::Instant;

use chronus_bench::grids::{build_spec, GRID_NAMES};
use chronus_bench::HarnessOpts;
use chronus_grid::hash::digest128;
use chronus_grid::{run_grid, ExecOpts, GridSpec, ResultStore};
use chronus_sim::SimReport;

use crate::ledger::Layer;
use crate::procfs::ProcStat;
use crate::records::ExecRecords;
use crate::unit::{Record, UnitKind};

/// Instructions per core of the `perf_attack-cold` grid.
const PERF_ATTACK_INSTRUCTIONS: u64 = 5_000;

/// Instructions per core of every grid in `all-warm`.
const WARM_INSTRUCTIONS: u64 = 3_000;

/// Executor worker threads, at most (fewer when the host has fewer cores).
const MAX_THREADS: usize = 2;

/// Timed units (fills or replay passes) per run, at least.
const MIN_UNITS: usize = 4;

/// Set-up-only processes per untraced run. Set-up takes a millisecond or
/// less, so its median needs more samples than the few timed units give,
/// and a brief stall of the host would shift samples taken back to back:
/// they are spread out, [`SETUP_PROBES_PER_UNIT`] before each unit.
const SETUP_PROBES: usize = 24;

/// Set-up-only processes run before each timed unit, until
/// [`SETUP_PROBES`] have run.
const SETUP_PROBES_PER_UNIT: usize = 6;

/// Seed whose output digests are pinned below.
const DEFAULT_SEED: u64 = 42;

/// Digest of the merged reports of each workload at [`DEFAULT_SEED`].
const PINNED_DIGESTS: [(&str, &str); 3] = [
    ("fig7-cold", "1df8a46629ac72aebaf7ddfcc662a2df"),
    ("perf_attack-cold", "dd3de85e00d0bde87f9ba6ff11e5a495"),
    ("all-warm", "ae6548cf53f30cf1b70e2ff2572dd1ce"),
];

/// Cells per grid, evenly spaced, that every run simulates at
/// [`DEFAULT_SEED`] whatever its own seed (see [`canary_digest`]).
const CANARY_CELLS_PER_GRID: usize = 4;

/// Digest of each workload's canary cells.
const PINNED_CANARIES: [(&str, &str); 3] = [
    ("fig7-cold", "42b4a4bf228d06eadcfd4945efb32701"),
    ("perf_attack-cold", "83d639cc77e2b859ff6ded442ea92aee"),
    ("all-warm", "c950e3be9c0e80bcd7a648d97a9dfec3"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// The `fig7` grid filled from an empty store.
    Fig7Cold,
    /// The `perf_attack` grid filled from an empty store.
    PerfAttackCold,
    /// Every registered grid replayed from a store filled during set-up.
    AllWarm,
}

impl Workload {
    const ALL: [Workload; 3] = [Self::Fig7Cold, Self::PerfAttackCold, Self::AllWarm];

    fn name(self) -> &'static str {
        match self {
            Self::Fig7Cold => "fig7-cold",
            Self::PerfAttackCold => "perf_attack-cold",
            Self::AllWarm => "all-warm",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn cold(self) -> bool {
        self != Self::AllWarm
    }

    /// The grids' specs, built exactly as `chronus-sweep run` builds them.
    fn specs(self, seed: u64) -> Vec<GridSpec> {
        let opts = HarnessOpts {
            seed,
            quiet: true,
            instructions: match self {
                Self::Fig7Cold => HarnessOpts::default().instructions,
                Self::PerfAttackCold => PERF_ATTACK_INSTRUCTIONS,
                Self::AllWarm => WARM_INSTRUCTIONS,
            },
            ..HarnessOpts::default()
        };
        let grids: &[&str] = match self {
            Self::Fig7Cold => &["fig7"],
            Self::PerfAttackCold => &["perf_attack"],
            Self::AllWarm => GRID_NAMES,
        };
        grids
            .iter()
            .map(|g| build_spec(g, &opts).expect("registered grid"))
            .collect()
    }

    /// Executor worker threads. `fig7-cold` measures the per-cell fixed
    /// cost on one worker: with two, its page-fault-bound builds contend
    /// in the kernel and the fill time more than doubles its spread.
    /// `perf_attack-cold` needs two to show the executor's load balance.
    fn threads(self) -> usize {
        match self {
            Self::Fig7Cold => 1,
            Self::PerfAttackCold | Self::AllWarm => host_threads(),
        }
    }

    fn pinned(self, table: &[(&str, &'static str)]) -> &'static str {
        table
            .iter()
            .find(|(w, _)| *w == self.name())
            .map(|(_, d)| *d)
            .expect("every workload has a pinned digest")
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: run one `unit_kind` pass against this store (see
    /// [`unit`]).
    unit_store: Option<PathBuf>,
    unit_kind: UnitKind,
}

const USAGE: &str = "usage: gridbench --workload fig7-cold|perf_attack-cold|all-warm \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut unit_store = None;
    let mut unit_kind = UnitKind::Fill;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag}: missing value"))?;
        let bad = || format!("{flag}: invalid value '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--unit-store" => unit_store = Some(PathBuf::from(value)),
            "--unit-kind" => unit_kind = UnitKind::parse(&value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        unit_store,
        unit_kind,
    })
}

/// This run's private scratch directory under `gridbench/work/`, removed
/// on drop.
struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    fn create() -> Result<Self, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(Self { root, next: 0 })
    }

    /// A path for a new store (not yet created).
    fn fresh_dir(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("store-{}", self.next))
    }

    fn discard(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Worker threads for the executor: the host's cores, at most
/// [`MAX_THREADS`].
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
}

/// One untraced executor pass over every grid of a workload.
struct Fill {
    wall_s: f64,
    cpu_s: f64,
    minflt: u64,
    cells: usize,
    failed: usize,
    reports: Vec<Vec<SimReport>>,
}

/// Runs `run_grid` on each spec against `store`.
fn fill(specs: &[GridSpec], store: &ResultStore, threads: usize) -> Result<Fill, String> {
    let opts = ExecOpts {
        threads,
        progress: false,
        ..ExecOpts::default()
    };
    let proc0 = ProcStat::now();
    let t0 = Instant::now();
    let outcomes: Vec<_> = specs
        .iter()
        .map(|spec| run_grid(spec, Some(store), &opts))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let proc = ProcStat::now().since(&proc0);
    let mut out = Fill {
        wall_s,
        cpu_s: proc.cpu_s(),
        minflt: proc.minflt,
        cells: 0,
        failed: 0,
        reports: Vec::new(),
    };
    for (spec, outcome) in specs.iter().zip(outcomes) {
        out.cells += outcome.stats.total;
        out.failed += outcome.stats.failed;
        if let Some(f) = outcome.failures.first() {
            return Err(format!(
                "grid {}: cell '{}' failed ({:?}): {}",
                spec.name, f.label, f.kind, f.error
            ));
        }
        let reports: Option<Vec<SimReport>> = outcome.reports.into_iter().collect();
        out.reports
            .push(reports.ok_or_else(|| format!("grid {}: a cell has no report", spec.name))?);
    }
    Ok(out)
}

/// Digest over the reports of every grid, in spec order.
fn digest(reports: &[Vec<SimReport>]) -> String {
    let mut text = String::new();
    for grid in reports {
        for report in grid {
            text.push_str(&serde_json::to_string(report).expect("reports serialize"));
            text.push('\n');
        }
        text.push('\n');
    }
    digest128(text.as_bytes())
}

/// The output check: every digest of a run must equal the first one, and
/// at the default seed the pinned one.
struct OutputCheck {
    expected: Option<String>,
}

impl OutputCheck {
    fn new(args: &Args) -> Self {
        Self {
            expected: (args.seed == DEFAULT_SEED)
                .then(|| args.workload.pinned(&PINNED_DIGESTS).to_string()),
        }
    }

    /// Checks one pass's digest. (A pass with a failed cell has already
    /// failed: `fill` reports it as an error.)
    fn check(&mut self, what: &str, got: &str) -> Result<(), String> {
        match &self.expected {
            Some(want) if *want != got => Err(format!(
                "output digest mismatch in {what}: got {got}, expected {want}"
            )),
            Some(_) => Ok(()),
            None => {
                self.expected = Some(got.to_string());
                Ok(())
            }
        }
    }
}

/// Simulates a few cells of each grid of `workload` at [`DEFAULT_SEED`]
/// and checks their digest against the pinned one. Runs at other seeds
/// have no pinned full digest, so without this a change to a simulated
/// statistic could pass them.
fn canary_check(workload: Workload) -> Result<(), String> {
    let reports: Vec<Vec<SimReport>> = workload
        .specs(DEFAULT_SEED)
        .iter()
        .map(|spec| {
            // An odd stride alternates even and odd positions, so a grid
            // that interleaves two kinds of cell contributes both.
            let stride = (spec.len() / CANARY_CELLS_PER_GRID) | 1;
            spec.cells
                .iter()
                .step_by(stride)
                .map(chronus_grid::simulate_cell)
                .collect()
        })
        .collect();
    let (got, want) = (digest(&reports), workload.pinned(&PINNED_CANARIES));
    match got == want {
        true => Ok(()),
        false => Err(format!(
            "canary digest mismatch: got {got}, expected {want}"
        )),
    }
}

/// `ResultStore::verify` on every cell of every spec.
fn verify_store(specs: &[GridSpec], store: &ResultStore) -> Result<(), String> {
    for spec in specs {
        for (hash, cell) in spec.hashes().iter().zip(&spec.cells) {
            let state = store.verify(hash);
            if !state.is_ok() {
                return Err(format!(
                    "grid {}: entry of '{}' does not verify: {state:?}",
                    spec.name, cell.label
                ));
            }
        }
    }
    Ok(())
}

/// Total instructions retired over every report.
fn retired(reports: &[Vec<SimReport>]) -> u64 {
    reports
        .iter()
        .flatten()
        .map(SimReport::total_instructions)
        .sum()
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // `+ 0.0` turns the -0.0 of an empty sum into 0.0.
    Metric {
        name,
        value: value + 0.0,
        unit,
    }
}

/// What a run reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Human-readable notes printed above the result line.
    notes: Vec<String>,
}

/// Sets up `all-warm`: fills a new store in a child process. Returns the
/// specs, the filled store and the set-up time (spawn to exit).
fn warm_setup(
    args: &Args,
    work: &mut WorkDir,
    check: &mut OutputCheck,
) -> Result<(Vec<GridSpec>, ResultStore, f64), String> {
    let t0 = Instant::now();
    let dir = work.fresh_dir();
    let filled = unit::run_unit(UnitKind::Fill, args.workload, args.seed, &dir)?;
    let setup_s = t0.elapsed().as_secs_f64();
    check.check("the set-up fill", filled.text("digest")?)?;
    let specs = args.workload.specs(args.seed);
    let store = open_store(&dir)?;
    verify_store(&specs, &store)?;
    Ok((specs, store, setup_s))
}

fn open_store(dir: &Path) -> Result<ResultStore, String> {
    ResultStore::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))
}

/// The store a pass runs against: the warm store, or a new one.
fn store_dir(work: &mut WorkDir, warm: Option<&(Vec<GridSpec>, ResultStore, f64)>) -> PathBuf {
    match warm {
        Some((_, store, _)) => store.dir().to_path_buf(),
        None => work.fresh_dir(),
    }
}

/// Runs passes of `kind`, each in its own process against a new store
/// (cold) or the warm store, until another would end past `--seconds`
/// (at least `min` of them). Checks each pass's digest and, on a cold
/// store, every entry. With `setups`, set-up-only processes run between
/// the passes and their set-up times are pushed there. Returns each pass's
/// kind and record.
fn passes(
    args: &Args,
    work: &mut WorkDir,
    check: &mut OutputCheck,
    warm: Option<&(Vec<GridSpec>, ResultStore, f64)>,
    kinds: &[UnitKind],
    min: usize,
    mut setups: Option<&mut Vec<f64>>,
) -> Result<Vec<(UnitKind, Record)>, String> {
    let cold_specs = args.workload.specs(args.seed);
    let phase = Instant::now();
    let mut out = Vec::new();
    let mut round_s = 0.0;
    while out.len() < min * kinds.len() || phase.elapsed().as_secs_f64() + round_s <= args.seconds {
        let round = Instant::now();
        for &kind in kinds {
            if let Some(setups) = setups.as_deref_mut() {
                while setups.len() < SETUP_PROBES.min((out.len() + 1) * SETUP_PROBES_PER_UNIT) {
                    let dir = store_dir(work, warm);
                    let rec = unit::run_unit(UnitKind::Setup, args.workload, args.seed, &dir)?;
                    setups.push(rec.num("setup_s")?);
                    if warm.is_none() {
                        work.discard(&dir);
                    }
                }
            }
            let dir = store_dir(work, warm);
            let rec = unit::run_unit(kind, args.workload, args.seed, &dir)?;
            let what = format!("{kind:?} pass {}", out.len() + 1);
            check.check(&what, rec.text("digest")?)?;
            if warm.is_none() {
                verify_store(&cold_specs, &open_store(&dir)?)?;
                work.discard(&dir);
            }
            out.push((kind, rec));
        }
        round_s = round.elapsed().as_secs_f64();
    }
    Ok(out)
}

/// The untraced run: timed fills (cold) or replay passes (warm), each in
/// its own process, until `--seconds` have passed and at least
/// [`MIN_UNITS`] ran.
fn end_to_end(args: &Args, work: &mut WorkDir) -> Result<Outcome, String> {
    let mut check = OutputCheck::new(args);
    let warm = match args.workload.cold() {
        true => None,
        false => Some(warm_setup(args, work, &mut check)?),
    };
    let mut setups = Vec::new();
    let units = passes(
        args,
        work,
        &mut check,
        warm.as_ref(),
        &[UnitKind::Fill],
        MIN_UNITS,
        Some(&mut setups),
    )?;
    if let Some((specs, store, _)) = &warm {
        verify_store(specs, store)?;
    }
    let field = |key: &str| -> Result<Vec<f64>, String> {
        units.iter().map(|(_, rec)| rec.num(key)).collect()
    };
    let median = |v: &[f64]| stats::median(v).expect("at least one unit");
    let walls = field("wall_s")?;
    let retired = field("retired")?;
    let rss = field("peak_rss_mib")?;
    setups.extend(field("setup_s")?);
    let attempted = field("cells")?.iter().sum::<f64>() as usize;
    let failed = field("failed")?.iter().sum::<f64>() as usize;
    let minst: Vec<f64> = retired
        .iter()
        .zip(&walls)
        .map(|(r, w)| r / w / 1e6)
        .collect();
    // A warm run's set-up is the fill plus a replay process's start-up.
    let setup_s = warm.as_ref().map_or(0.0, |w| w.2) + median(&setups);
    let notes = vec![
        format!(
            "workload={} seed={} threads={} units={} cells/unit={} digest={}",
            args.workload.name(),
            args.seed,
            args.workload.threads(),
            units.len(),
            attempted / units.len(),
            check.expected.as_deref().unwrap_or("-"),
        ),
        distribution("wall_s", "s", &walls),
        distribution("process set-up", "s", &setups),
        distribution("peak_rss_mb", "MiB", &rss),
        distribution("minor faults", "", &field("minflt")?),
        format!(
            "failed_frac = {} ({failed} of {attempted} cells)",
            failed as f64 / attempted as f64
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("wall_s", median(&walls), "s"),
            // /proc CPU times tick at 10 ms: a median of short passes could
            // repeat exactly, so cpu_s is an interquartile mean.
            metric(
                "cpu_s",
                stats::interquartile_mean(&field("cpu_s")?).expect("at least one unit"),
                "s",
            ),
            metric("sim_minst_per_s", median(&minst), "Minst/s"),
            metric("setup_s", setup_s, "s"),
            metric(
                "ok_frac",
                (attempted - failed) as f64 / attempted as f64,
                "frac",
            ),
        ],
        notes,
    })
}

/// `name: median … (n=…)` plus the tail percentile when one has ten
/// samples beyond it, and the samples themselves when there are few.
fn distribution(name: &str, unit: &str, samples: &[f64]) -> String {
    let med = stats::median(samples).unwrap_or(0.0);
    let tail = match stats::tail(samples) {
        Some((p, v)) => format!(", p{p} {v:.6} {unit}"),
        None => ", no percentile has 10 samples beyond it".to_string(),
    };
    let listed = match samples.len() {
        0..=12 => {
            let values: Vec<String> = samples.iter().map(|v| format!("{v:.6}")).collect();
            format!(": {}", values.join(" "))
        }
        _ => String::new(),
    };
    format!(
        "{name}: median {med:.6} {unit} (n={}{tail}){listed}",
        samples.len()
    )
}

/// The per-layer metrics that split a traced pass's wall time between
/// them: every layer's self time, and the time outside all spans.
const SELF_TIMES: [&str; 9] = [
    "sim.build_s",
    "sim.run_s",
    "grid.store.put_s",
    "grid.store.get_s",
    "grid.lease.claim_release_s",
    "grid.journal.append_s",
    "grid.hash_s",
    "workloads.gen_s",
    "trace.unattributed_s",
];

/// The traced run: one untraced executor pass whose journal and wall
/// sidecars give the executor metrics, then alternating untraced and
/// traced sequential passes until `--seconds` have passed. Every pass is
/// a fresh process, so untraced and traced passes start alike.
fn per_layer(args: &Args, work: &mut WorkDir) -> Result<Outcome, String> {
    let mut check = OutputCheck::new(args);
    let warm = match args.workload.cold() {
        true => None,
        false => Some(warm_setup(args, work, &mut check)?),
    };
    let specs = args.workload.specs(args.seed);

    // The executor pass; its store is read back before it is discarded.
    let dir = store_dir(work, warm.as_ref());
    let exec = unit::run_unit(UnitKind::Fill, args.workload, args.seed, &dir)?;
    check.check("the executor pass", exec.text("digest")?)?;
    let store = open_store(&dir)?;
    verify_store(&specs, &store)?;
    let (start_ms, end_ms) = exec.window_ms()?;
    let rec: ExecRecords = records::exec_records(&store, start_ms, end_ms, exec.num("wall_s")?)?;
    if warm.is_none() {
        work.discard(&dir);
    }

    let kinds = [UnitKind::Sequential, UnitKind::Traced];
    let runs = passes(args, work, &mut check, warm.as_ref(), &kinds, 1, None)?;
    let of_kind = |kind: UnitKind| runs.iter().filter(move |r| r.0 == kind).map(|r| &r.1);
    let traced: Vec<&Record> = of_kind(UnitKind::Traced).collect();
    let n = traced.len() as f64;
    // Per-pass mean of a traced field.
    let mean = |key: &str| -> Result<f64, String> {
        Ok(traced.iter().map(|r| r.num(key)).sum::<Result<f64, _>>()? / n)
    };
    let span_s = |layers: &[Layer]| -> Result<f64, String> {
        layers.iter().map(|l| mean(&format!("{}_s", l.key()))).sum()
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sum_wall = |kind| -> Result<f64, String> { of_kind(kind).map(|r| r.num("wall_s")).sum() };
    let traced_s = sum_wall(UnitKind::Traced)?;
    let untraced_s = sum_wall(UnitKind::Sequential)?;
    let pass_s = traced_s / n;
    let build_calls = mean("sim_build_n")?;
    let run_s = span_s(&[Layer::SimRun])?;
    let attempted = exec.num("cells")? as usize
        + runs
            .iter()
            .map(|r| r.1.num("cells"))
            .sum::<Result<f64, _>>()? as usize;

    let metrics = vec![
        metric("sim.build_s", span_s(&[Layer::SimBuild])?, "s"),
        metric("sim.build_calls", build_calls, "count"),
        metric(
            "sim.build_minflt_per_call",
            ratio(mean("build_minflt")?, build_calls),
            "count",
        ),
        metric("sim.run_s", run_s, "s"),
        metric(
            "sim.run_minflt_per_call",
            ratio(mean("run_minflt")?, mean("sim_run_n")?),
            "count",
        ),
        metric(
            "sim.run_ns_per_mem_cycle",
            ratio(run_s * 1e9, mean("mem_cycles")?),
            "ns",
        ),
        metric(
            "sim.run_ns_per_inst",
            ratio(run_s * 1e9, mean("instructions")?),
            "ns",
        ),
        metric("grid.exec.concurrency", rec.concurrency, "cells"),
        metric("grid.exec.overhead_s", rec.overhead_s, "s"),
        metric("grid.exec.cell_p50_ms", rec.cell_p50_ms, "ms"),
        metric("grid.exec.cell_tail_ms", rec.cell_tail.1, "ms"),
        metric("grid.exec.retries", rec.retries as f64, "count"),
        metric(
            "grid.store.put_s",
            span_s(&[Layer::StorePut, Layer::StoreWall])?,
            "s",
        ),
        metric("grid.store.get_s", span_s(&[Layer::StoreGet])?, "s"),
        metric("grid.store.bytes", mean("store_bytes")?, "B"),
        metric(
            "grid.store.hit_frac",
            ratio(mean("hits")?, mean("lookups")?),
            "frac",
        ),
        metric(
            "grid.lease.claim_release_s",
            span_s(&[Layer::LeaseClaim, Layer::LeaseRelease])?,
            "s",
        ),
        metric(
            "grid.journal.append_s",
            span_s(&[Layer::JournalAppend])?,
            "s",
        ),
        metric("grid.hash_s", span_s(&[Layer::Hash])?, "s"),
        metric("workloads.gen_s", span_s(&[Layer::WorkloadsGen])?, "s"),
        metric("workloads.gen_calls", mean("workloads_gen_n")?, "count"),
        metric("cpu.instructions", mean("instructions")?, "count"),
        metric("dram.mem_cycles", mean("mem_cycles")?, "count"),
        metric("dram.acts", mean("acts")?, "count"),
        metric("dram.rfms", mean("rfms")?, "count"),
        metric(
            "ctrl.row_hit_frac",
            ratio(mean("row_hits")?, mean("row_accesses")?),
            "frac",
        ),
        metric("ctrl.back_offs", mean("back_offs")?, "count"),
        metric("proc.peak_rss_mb", exec.num("peak_rss_mib")?, "MiB"),
        metric("proc.minflt", mean("minflt")?, "count"),
        metric("proc.utime_s", mean("utime_s")?, "s"),
        metric("proc.stime_s", mean("stime_s")?, "s"),
        metric(
            "trace.overhead_frac",
            (traced_s - untraced_s) / untraced_s,
            "frac",
        ),
        metric("trace.unattributed_s", pass_s - mean("spans_s")?, "s"),
        metric("trace.pass_s", pass_s, "s"),
    ];
    let mut notes = vec![
        format!(
            "workload={} seed={} traced passes={} executor threads={} executor wall={:.6} s \
             digest={}",
            args.workload.name(),
            args.seed,
            traced.len(),
            args.workload.threads(),
            exec.num("wall_s")?,
            check.expected.as_deref().unwrap_or("-"),
        ),
        match rec.cells {
            0 => "executor records: no cell executed (every cell replayed)".to_string(),
            cells => format!(
                "executor records: {cells} cells completed, concurrency {:.3} on {} worker(s), \
                 cell p50 {:.3} ms, p{} {:.3} ms",
                rec.concurrency,
                args.workload.threads(),
                rec.cell_p50_ms,
                rec.cell_tail.0,
                rec.cell_tail.1
            ),
        },
        format!(
            "traced cells: p50 {:.6} ms, p{} {:.6} ms (spans summed per cell, first pass)",
            traced[0].num("cell_p50_ms")?,
            traced[0].num("cell_tail_pct")?,
            traced[0].num("cell_tail_ms")?
        ),
    ];
    for m in metrics.iter().filter(|m| SELF_TIMES.contains(&m.name)) {
        notes.push(format!(
            "self time {:<28} {:>10.6} s {:>6.1} % of the traced pass",
            m.name,
            m.value,
            100.0 * m.value / pass_s
        ));
    }
    Ok(Outcome {
        attempted,
        failed: exec.num("failed")? as usize,
        metrics,
        notes,
    })
}

/// Formats a metric value as JSON (all digits; non-finite values, which
/// no metric should produce, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut work = WorkDir::create()?;
    let outcome = match args.trace {
        true => per_layer(args, &mut work)?,
        false => end_to_end(args, &mut work)?,
    };
    canary_check(args.workload)?;
    Ok(outcome)
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("gridbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.unit_store {
        if let Err(msg) =
            unit::child_main(args.unit_kind, args.workload, args.seed, dir, process_start)
        {
            eprintln!("gridbench unit: {msg}");
            std::process::exit(1);
        }
        return;
    }
    match run(&args) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            for m in &outcome.metrics {
                println!("# {:<28} {:>18.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_line(&outcome));
        }
        Err(msg) => {
            eprintln!("gridbench: {msg}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_the_command_line() {
        let a = parse(&[
            "--workload",
            "perf_attack-cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::PerfAttackCold);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "all-warm", "--trace", "2"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("wall_s", 1.25, "s"), metric("x", f64::NAN, "count")],
            notes: Vec::new(),
        };
        assert_eq!(
            result_line(&outcome),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
