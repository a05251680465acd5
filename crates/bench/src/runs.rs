//! Experiment orchestration: alone/baseline/mechanism runs over mixes,
//! expressed as declarative `chronus-grid` specs.
//!
//! Every simulation a figure needs — including the per-mix alone-IPC and
//! no-mitigation baseline context runs — is one grid cell, so repeated
//! invocations complete from the content-addressed result store and
//! `--shard i/N` splits any figure across processes or machines.

use chronus_core::MechanismKind;
use chronus_grid::{
    run_grid, AppTrace, CellSpec, ExecOpts, FaultInjector, FaultPlan, GridOutcome, GridSpec,
    ResultStore, RetryPolicy, WorkloadSpec,
};
use chronus_sim::{SimConfig, SimReport};
use chronus_workloads::{four_core_mixes, AppProfile, Mix};
use serde::Serialize;

use crate::opts::HarnessOpts;

/// One evaluated (workload, mechanism, N_RH) point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Workload (mix or application) name.
    pub workload: String,
    /// Intensity label (mix class or app class letter).
    pub class: String,
    /// Mechanism label.
    pub mechanism: String,
    /// RowHammer threshold.
    pub nrh: u32,
    /// Weighted speedup normalised to the unmitigated baseline (single
    /// core: plain speedup).
    pub ws_norm: f64,
    /// DRAM energy normalised to the baseline.
    pub energy_norm: f64,
    /// Whether the configuration is wave-attack secure.
    pub secure: bool,
    /// Back-offs honoured by the controller.
    pub back_offs: u64,
    /// Preventive victim-row refreshes (VRRs + RFM victims + borrowed).
    pub preventive_rows: u64,
}

/// The multi-programmed configuration every mix cell uses.
pub fn mix_config(
    num_cores: usize,
    mech: MechanismKind,
    nrh: u32,
    opts: &HarnessOpts,
) -> SimConfig {
    let mut cfg = SimConfig::four_core();
    cfg.num_cores = num_cores;
    cfg.instructions_per_core = opts.instructions;
    cfg.mechanism = mech;
    cfg.nrh = nrh;
    cfg.seed = opts.seed;
    cfg.max_mem_cycles = opts.instructions.saturating_mul(4000).max(1 << 22);
    cfg.obs = opts.obs;
    cfg
}

/// The single-core alone-run configuration (mirrors
/// `chronus_sim::system::alone_ipc`: mechanism off, default seed).
fn alone_config(opts: &HarnessOpts) -> SimConfig {
    let mut cfg = SimConfig::single_core();
    cfg.instructions_per_core = opts.instructions;
    cfg.max_mem_cycles = opts.instructions.saturating_mul(4000).max(1 << 22);
    cfg.obs = opts.obs;
    cfg
}

/// The per-core trace specs of a mix (slot i, seed `opts.seed ^ (i << 8)`).
/// Shared with `grids.rs` so every mix-shaped grid produces hash-identical
/// cells (the basis of cross-figure cache sharing).
pub(crate) fn mix_workload(apps: &[AppProfile], opts: &HarnessOpts) -> WorkloadSpec {
    WorkloadSpec::Apps {
        apps: apps
            .iter()
            .enumerate()
            .map(|(i, p)| AppTrace::new(p.name, i as u64, opts.seed ^ (i as u64) << 8))
            .collect(),
        trace_instructions: opts.instructions + opts.instructions / 10,
    }
}

/// Parses `CHRONUS_FAULTS` into an injector.
///
/// # Errors
///
/// A malformed spec is a usage error: silently running *without* the
/// faults the user asked for would invalidate whatever they were testing.
pub fn env_faults() -> Result<Option<FaultInjector>, String> {
    match FaultPlan::from_env() {
        Ok(plan) => Ok(plan.filter(FaultPlan::is_active).map(FaultPlan::injector)),
        Err(msg) => Err(format!("${}: {msg}", chronus_grid::FAULTS_ENV)),
    }
}

/// Opens the result store the harness options point at, wiring any
/// `CHRONUS_FAULTS` injection into its I/O path.
///
/// # Errors
///
/// `--grid-dir <dir>: <os error>` when the directory cannot be created or
/// written (a regular file, a read-only directory), so the command fails
/// at the command line rather than as failed cells later.
pub fn open_store(opts: &HarnessOpts) -> Result<ResultStore, String> {
    let dir = opts
        .grid_dir
        .clone()
        .unwrap_or_else(ResultStore::default_dir);
    let store = ResultStore::open(&dir)
        .and_then(|store| {
            // Named like the store's temp files, so a probe left by a
            // killed process is reaped at a later open.
            let probe = dir.join(format!(".probe.{}.tmp", std::process::id()));
            std::fs::File::create(&probe)?;
            std::fs::remove_file(probe)?;
            Ok(store)
        })
        .map_err(|e| format!("--grid-dir {}: {e}", dir.display()))?;
    Ok(store.with_faults(env_faults()?))
}

/// Grid execution options derived from the harness options (including the
/// `CHRONUS_FAULTS` environment).
///
/// # Errors
///
/// A malformed `CHRONUS_FAULTS` (see [`env_faults`]).
pub fn exec_opts(opts: &HarnessOpts) -> Result<ExecOpts, String> {
    Ok(ExecOpts {
        threads: opts.threads,
        shard: opts.shard,
        progress: !opts.quiet,
        retry: match opts.retries {
            Some(n) => RetryPolicy::with_retries(n),
            None => RetryPolicy::default(),
        },
        cell_timeout: opts.cell_timeout,
        faults: env_faults()?,
        lease_ttl: opts.lease_ttl,
        holder: None,
    })
}

/// Executes the grids an artefact renders from. [`Runner`] runs them on
/// the result store; a test substitutes a fake that records the specs.
pub trait Executor {
    /// Executes `spec`, returning one report slot per cell.
    fn execute(&mut self, spec: &GridSpec) -> GridOutcome;
}

/// The executor of the `chronus` binary: [`run_grid`] on the store the
/// harness options name (none under `--no-cache`), printing the
/// cache/shard accounting line on stderr.
///
/// Cells that failed permanently never abort an artefact: they are
/// reported on stderr, recorded in the store's failure manifest and
/// counted in [`Self::degraded`], and the figure still renders from every
/// healthy cell.
pub struct Runner {
    store: Option<ResultStore>,
    exec: ExecOpts,
    degraded: usize,
}

impl Runner {
    /// Opens the store and derives the execution options.
    ///
    /// # Errors
    ///
    /// See [`open_store`] and [`exec_opts`].
    pub fn new(opts: &HarnessOpts) -> Result<Self, String> {
        Ok(Self {
            store: if opts.no_cache {
                None
            } else {
                Some(open_store(opts)?)
            },
            exec: exec_opts(opts)?,
            degraded: 0,
        })
    }

    /// Grids executed so far that ended degraded (the process then exits
    /// with [`chronus_grid::DEGRADED_EXIT`]).
    pub fn degraded(&self) -> usize {
        self.degraded
    }
}

impl Executor for Runner {
    fn execute(&mut self, spec: &GridSpec) -> GridOutcome {
        let outcome = run_grid(spec, self.store.as_ref(), &self.exec);
        if self.exec.progress {
            let where_ = match &self.store {
                Some(s) => format!(" (store: {})", s.dir().display()),
                None => String::new(),
            };
            eprintln!(
                "[{}] {} in {:.1}s{where_}",
                spec.name,
                outcome.stats.summary(),
                outcome.wall_seconds,
            );
        }
        if outcome.is_degraded() {
            self.degraded += 1;
            eprintln!(
                "[{}] DEGRADED: {} cell(s) failed permanently:",
                spec.name,
                outcome.failures.len()
            );
            for f in &outcome.failures {
                eprintln!(
                    "[{}]   #{} '{}' ({:?} after {} attempt(s)): {}",
                    spec.name, f.index, f.label, f.kind, f.attempts, f.error
                );
            }
            eprintln!(
                "[{}] rerun the same command to retry the failed cells \
                 (completed cells replay from the store)",
                spec.name
            );
        } else if !outcome.is_complete() && self.exec.shard.is_full() {
            // With a full shard and zero recorded failures every cell should
            // resolve; a hole here means the executor itself lost track.
            panic!("grid '{}' incomplete after a full (1/1) run", spec.name);
        }
        outcome
    }
}

fn preventive_rows(report: &SimReport) -> u64 {
    report.dram.rfm_victim_rows + report.dram.vrrs + report.dram.borrowed_refreshes * 4
}

/// A multi-programmed mix sweep (Fig. 4, 8, 9, 10, 12) as a grid: per mix,
/// one alone cell per core, one unmitigated baseline cell, and one cell
/// per (mechanism, N_RH) point.
pub struct MixSweep {
    /// The declarative grid.
    pub spec: GridSpec,
    mixes: Vec<Mix>,
    /// Per mix: alone-run cell index per core.
    alone: Vec<Vec<usize>>,
    /// Per mix: baseline cell index.
    baseline: Vec<usize>,
    /// (mix index, cell index) in row order.
    jobs: Vec<(usize, usize)>,
}

impl MixSweep {
    /// Builds the grid. `tweak` is applied to every cell's resolved config
    /// (alone, baseline and sweep cells alike) — Fig. 12 forces the ABACuS
    /// address mapping through it.
    pub fn build(
        name: &str,
        mechanisms: &[MechanismKind],
        nrh_list: &[u32],
        opts: &HarnessOpts,
        tweak: &dyn Fn(&mut SimConfig),
    ) -> Self {
        let mixes = four_core_mixes(opts.mixes_per_class, opts.seed);
        let mut spec = GridSpec::new(name);
        let mut alone = Vec::new();
        let mut baseline = Vec::new();
        let mut jobs = Vec::new();
        for mix in &mixes {
            let mut per_core = Vec::new();
            for (i, app) in mix.apps.iter().enumerate() {
                let mut cfg = alone_config(opts);
                tweak(&mut cfg);
                let workload = WorkloadSpec::Apps {
                    apps: vec![AppTrace::new(
                        app.name,
                        i as u64,
                        opts.seed ^ (i as u64) << 8,
                    )],
                    trace_instructions: opts.instructions + opts.instructions / 10,
                };
                per_core.push(spec.push(CellSpec::new(
                    format!("{}:alone:{}", mix.name, app.name),
                    workload,
                    cfg,
                )));
            }
            alone.push(per_core);

            let mut cfg = mix_config(mix.apps.len(), MechanismKind::None, 1024, opts);
            tweak(&mut cfg);
            baseline.push(spec.push(CellSpec::new(
                format!("{}:baseline", mix.name),
                mix_workload(&mix.apps, opts),
                cfg,
            )));
        }
        for (m, mix) in mixes.iter().enumerate() {
            for &mech in mechanisms {
                for &nrh in nrh_list {
                    let mut cfg = mix_config(mix.apps.len(), mech, nrh, opts);
                    tweak(&mut cfg);
                    let cell = spec.push(CellSpec::new(
                        format!("{}:{}@{}", mix.name, mech.label(), nrh),
                        mix_workload(&mix.apps, opts),
                        cfg,
                    ));
                    jobs.push((m, cell));
                }
            }
        }
        Self {
            spec,
            mixes,
            alone,
            baseline,
            jobs,
        }
    }

    /// Assembles normalised rows from an outcome. Cells missing under a
    /// partial shard are skipped; an unsharded run yields every row.
    pub fn rows(&self, outcome: &GridOutcome) -> Vec<SweepRow> {
        let mut rows = Vec::new();
        for &(m, cell) in &self.jobs {
            let Some(report) = outcome.reports[cell].as_ref() else {
                continue;
            };
            let Some(baseline) = outcome.reports[self.baseline[m]].as_ref() else {
                continue;
            };
            let ipc_alone: Option<Vec<f64>> = self.alone[m]
                .iter()
                .map(|&i| outcome.reports[i].as_ref().map(|r| r.ipc[0]))
                .collect();
            let Some(ipc_alone) = ipc_alone else {
                continue;
            };
            let mix = &self.mixes[m];
            let ws_norm =
                report.weighted_speedup(&ipc_alone) / baseline.weighted_speedup(&ipc_alone);
            rows.push(SweepRow {
                workload: mix.name.clone(),
                class: mix.class.label(),
                mechanism: report.mechanism.clone(),
                nrh: report.nrh,
                ws_norm,
                energy_norm: report.energy_normalized_to(baseline),
                secure: report.secure,
                back_offs: report.ctrl.back_offs,
                preventive_rows: preventive_rows(report),
            });
        }
        rows
    }
}

/// A homogeneous-copies sweep (Fig. 7 with one core, Fig. 14/15 with
/// eight) as a grid: per app, one baseline cell and one cell per
/// (mechanism, N_RH).
pub struct AppSweep {
    /// The declarative grid.
    pub spec: GridSpec,
    /// The applications, in build order.
    pub apps: Vec<AppProfile>,
    baseline: Vec<usize>,
    /// (app index, cell index) in row order.
    jobs: Vec<(usize, usize)>,
}

impl AppSweep {
    /// Builds the grid over `apps`.
    pub fn build(
        name: &str,
        apps: &[AppProfile],
        mechanisms: &[MechanismKind],
        nrh_list: &[u32],
        opts: &HarnessOpts,
        num_cores: usize,
        large_llc: bool,
    ) -> Self {
        let mut spec = GridSpec::new(name);
        let workload = |app: &AppProfile| WorkloadSpec::Apps {
            apps: (0..num_cores)
                .map(|i| AppTrace::new(app.name, i as u64, opts.seed ^ i as u64))
                .collect(),
            trace_instructions: opts.instructions + opts.instructions / 10,
        };
        let config = |mech: MechanismKind, nrh: u32| {
            let mut cfg = if large_llc {
                SimConfig::eight_core_large_llc()
            } else {
                SimConfig::four_core()
            };
            cfg.instructions_per_core = opts.instructions;
            cfg.mechanism = mech;
            cfg.nrh = nrh;
            cfg.seed = opts.seed;
            cfg.max_mem_cycles = opts.instructions.saturating_mul(4000).max(1 << 22);
            cfg.obs = opts.obs;
            cfg
        };
        let baseline = apps
            .iter()
            .map(|app| {
                spec.push(CellSpec::new(
                    format!("{}:baseline", app.name),
                    workload(app),
                    config(MechanismKind::None, 1024),
                ))
            })
            .collect();
        let mut jobs = Vec::new();
        for (i, app) in apps.iter().enumerate() {
            for &mech in mechanisms {
                for &nrh in nrh_list {
                    let cell = spec.push(CellSpec::new(
                        format!("{}:{}@{}", app.name, mech.label(), nrh),
                        workload(app),
                        config(mech, nrh),
                    ));
                    jobs.push((i, cell));
                }
            }
        }
        Self {
            spec,
            apps: apps.to_vec(),
            baseline,
            jobs,
        }
    }

    /// Assembles normalised rows (homogeneous WS reduces to the IPC-sum
    /// ratio); cells missing under a partial shard are skipped.
    pub fn rows(&self, outcome: &GridOutcome) -> Vec<SweepRow> {
        let mut rows = Vec::new();
        for &(i, cell) in &self.jobs {
            let (Some(report), Some(base)) = (
                outcome.reports[cell].as_ref(),
                outcome.reports[self.baseline[i]].as_ref(),
            ) else {
                continue;
            };
            let app = &self.apps[i];
            rows.push(SweepRow {
                workload: app.name.to_string(),
                class: app.class().letter().to_string(),
                mechanism: report.mechanism.clone(),
                nrh: report.nrh,
                ws_norm: report.ipc.iter().sum::<f64>() / base.ipc.iter().sum::<f64>(),
                energy_norm: report.energy_normalized_to(base),
                secure: report.secure,
                back_offs: report.ctrl.back_offs,
                preventive_rows: preventive_rows(report),
            });
        }
        rows
    }
}

/// Renders sweep rows as a mechanism × N_RH table of geometric means;
/// `!` marks a point that is not wave-attack secure.
pub fn pivot_geomean(
    rows: &[SweepRow],
    nrh_list: &[u32],
    value: impl Fn(&SweepRow) -> f64,
) -> String {
    let mut headers = vec!["mechanism".to_string()];
    headers.extend(nrh_list.iter().map(|n| format!("N_RH={n}")));
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut out = Vec::new();
    for mech in &mechanism_order(rows) {
        let mut line = vec![mech.clone()];
        for &nrh in nrh_list {
            let vals: Vec<f64> = rows
                .iter()
                .filter(|r| &r.mechanism == mech && r.nrh == nrh)
                .map(&value)
                .collect();
            let unsafe_marker = rows
                .iter()
                .any(|r| &r.mechanism == mech && r.nrh == nrh && !r.secure);
            let g = crate::tables::geomean(&vals);
            line.push(if vals.is_empty() {
                "-".into()
            } else if unsafe_marker {
                format!("{g:.3}!")
            } else {
                format!("{g:.3}")
            });
        }
        out.push(line);
    }
    crate::tables::format_table(&headers, &out)
}

/// The mechanisms of `rows` in first-appearance order.
pub fn mechanism_order(rows: &[SweepRow]) -> Vec<String> {
    let mut order: Vec<String> = Vec::new();
    for r in rows {
        if !order.contains(&r.mechanism) {
            order.push(r.mechanism.clone());
        }
    }
    order
}
