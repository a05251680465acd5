//! The traced run: a sequential driver that fills (or replays) a grid by
//! calling each layer's public function itself, one cell at a time, and
//! records a span around every call. It walks the same per-cell path as
//! the executor's worker — hash, cache lookup, lease claim, journal,
//! trace generation, build, run, store write-back, wall sidecar, journal,
//! lease release — so per-layer time can be attributed from outside the
//! program, without probes inside it.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use chronus_grid::{
    cell_hash, ClaimOutcome, EventKind, GridSpec, Journal, LeaseManager, ResultStore,
};
use chronus_sim::{SimReport, System};

use crate::procfs::ProcStat;

/// Lease time-to-live for the sequential driver's claims (it holds each lease for one
/// cell only, so this only has to outlive one simulation).
const LEASE_TTL: Duration = Duration::from_secs(600);

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `chronus_grid::cell_hash`.
    Hash,
    /// `ResultStore::get`.
    StoreGet,
    /// `LeaseManager::try_claim`.
    LeaseClaim,
    /// `Journal::append`.
    JournalAppend,
    /// `WorkloadSpec::traces`.
    WorkloadsGen,
    /// `System::build`.
    SimBuild,
    /// `System::run`.
    SimRun,
    /// `ResultStore::put`.
    StorePut,
    /// `ResultStore::record_wall`.
    StoreWall,
    /// `LeaseManager::release`.
    LeaseRelease,
}

impl Layer {
    /// Every layer boundary, in the order a cold cell crosses them.
    pub const ALL: [Layer; 10] = [
        Layer::Hash,
        Layer::StoreGet,
        Layer::LeaseClaim,
        Layer::JournalAppend,
        Layer::WorkloadsGen,
        Layer::SimBuild,
        Layer::SimRun,
        Layer::StorePut,
        Layer::StoreWall,
        Layer::LeaseRelease,
    ];

    /// Short name, used as a record key.
    pub fn key(self) -> &'static str {
        match self {
            Layer::Hash => "hash",
            Layer::StoreGet => "store_get",
            Layer::LeaseClaim => "lease_claim",
            Layer::JournalAppend => "journal_append",
            Layer::WorkloadsGen => "workloads_gen",
            Layer::SimBuild => "sim_build",
            Layer::SimRun => "sim_run",
            Layer::StorePut => "store_put",
            Layer::StoreWall => "store_wall",
            Layer::LeaseRelease => "lease_release",
        }
    }
}

/// One recorded call: its layer, the cell (spec position of the request)
/// that caused it, and when it started and ended relative to the pass.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary.
    pub layer: Layer,
    /// Spec position of the cell; every span of one cell shares it.
    pub cell: usize,
    /// Start offset from the beginning of the pass.
    pub start: Duration,
    /// End offset from the beginning of the pass.
    pub end: Duration,
}

impl Span {
    /// Duration of the call.
    pub fn len(&self) -> Duration {
        self.end - self.start
    }
}

/// Per-cell time in milliseconds: the spans of each cell summed, in cell
/// order.
pub fn cell_ms(spans: &[Span]) -> Vec<f64> {
    let mut by_cell: std::collections::BTreeMap<usize, f64> = Default::default();
    for span in spans {
        *by_cell.entry(span.cell).or_default() += span.len().as_secs_f64() * 1e3;
    }
    by_cell.into_values().collect()
}

/// Total time (seconds) and call count of each layer's spans.
pub fn layer_totals(spans: &[Span]) -> Vec<(Layer, f64, u64)> {
    Layer::ALL
        .iter()
        .map(|&layer| {
            let of_layer = spans.iter().filter(|s| s.layer == layer);
            let seconds = of_layer.clone().map(|s| s.len().as_secs_f64()).sum::<f64>();
            (layer, seconds + 0.0, of_layer.count() as u64)
        })
        .collect()
}

/// What one sequential pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Reports of every grid in order, each in spec order.
    pub reports: Vec<Vec<SimReport>>,
    /// Spans, in recording order (empty when the pass ran untraced).
    pub spans: Vec<Span>,
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Distinct cells looked up.
    pub lookups: u64,
    /// Lookups served from the store.
    pub hits: u64,
    /// Bytes of the store entries the pass wrote or read.
    pub store_bytes: u64,
    /// Minor faults taken inside `System::build` calls.
    pub build_minflt: u64,
    /// Minor faults taken inside `System::run` calls.
    pub run_minflt: u64,
    /// Process counters over the whole pass.
    pub proc: ProcStat,
    /// Modelled statistics summed over the distinct cells resolved.
    pub modelled: Modelled,
}

/// Statistics of the simulated machine, summed over reports. They depend
/// only on the inputs, so they repeat exactly from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Modelled {
    /// Instructions retired by all cores.
    pub instructions: u64,
    /// Memory-controller cycles simulated.
    pub mem_cycles: u64,
    /// DRAM activations.
    pub acts: u64,
    /// RFM commands.
    pub rfms: u64,
    /// Accesses served from an open row.
    pub row_hits: u64,
    /// Accesses classified as row hit, miss or conflict.
    pub row_accesses: u64,
    /// Back-offs the controller honoured.
    pub back_offs: u64,
}

impl Modelled {
    /// Adds one report.
    pub fn add(&mut self, r: &SimReport) {
        self.instructions += r.total_instructions();
        self.mem_cycles += r.mem_cycles;
        self.acts += r.dram.acts;
        self.rfms += r.dram.rfms;
        self.row_hits += r.ctrl.row_hits;
        self.row_accesses += r.ctrl.row_hits + r.ctrl.row_misses + r.ctrl.row_conflicts;
        self.back_offs += r.ctrl.back_offs;
    }
}

/// Records spans when enabled; otherwise just makes the calls.
struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn call<R>(&mut self, layer: Layer, cell: usize, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            layer,
            cell,
            start,
            end,
        });
        out
    }

    /// Minor faults so far, when tracing (the `/proc` read sits between
    /// spans, so its cost is counted as unattributed time).
    fn minflt(&self) -> u64 {
        if self.enabled {
            ProcStat::now().minflt
        } else {
            0
        }
    }
}

/// Fills or replays `specs` against `store` one cell at a time, in spec
/// order. Cells sharing a content hash are looked up once and fanned out,
/// as the executor does. `traced` switches span recording (and the fault
/// counters around build and run) on.
///
/// # Errors
///
/// Returns a description of the first lease, journal or store failure:
/// the benchmark's workloads are chosen so that none occurs.
pub fn sequential_pass(
    specs: &[GridSpec],
    store: &ResultStore,
    traced: bool,
) -> Result<Pass, String> {
    let holder = chronus_grid::lease::unique_holder();
    let leases = LeaseManager::open(store.dir(), holder.clone())
        .map_err(|e| format!("opening leases: {e}"))?;
    let journal = Journal::open(store.dir(), holder);
    let proc_before = ProcStat::now();
    let mut rec = Recorder {
        enabled: traced,
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut pass = Pass::default();
    let mut cell_index = 0usize;
    for spec in specs {
        let mut first: HashMap<String, usize> = HashMap::new();
        let mut reports: Vec<Option<SimReport>> = vec![None; spec.len()];
        let mut duplicates: Vec<(usize, usize)> = Vec::new();
        for (i, cell) in spec.cells.iter().enumerate() {
            let id = cell_index + i;
            let hash = rec.call(Layer::Hash, id, || cell_hash(cell));
            if let Some(&j) = first.get(&hash) {
                duplicates.push((i, j));
                continue;
            }
            first.insert(hash.clone(), i);
            pass.lookups += 1;
            let report = match rec.call(Layer::StoreGet, id, || store.get(&hash)) {
                Some(report) => {
                    pass.hits += 1;
                    report
                }
                None => {
                    match rec.call(Layer::LeaseClaim, id, || leases.try_claim(&hash, LEASE_TTL)) {
                        Ok(ClaimOutcome::Claimed) => {}
                        Ok(ClaimOutcome::Held(info)) => {
                            return Err(format!("cell {hash} is leased by {}", info.holder))
                        }
                        Err(e) => return Err(format!("claiming cell {hash}: {e}")),
                    }
                    rec.call(Layer::JournalAppend, id, || {
                        journal.append(EventKind::Claim, &spec.name, &hash, 0, 0.0, "", "")
                    })
                    .map_err(|e| format!("journal append: {e}"))?;
                    let started = Instant::now();
                    let traces = rec.call(Layer::WorkloadsGen, id, || {
                        cell.workload.traces(&cell.config.geometry)
                    });
                    let f0 = rec.minflt();
                    let system = rec.call(Layer::SimBuild, id, || System::build(&cell.config));
                    let f1 = rec.minflt();
                    let report = rec.call(Layer::SimRun, id, || system.run(traces));
                    let f2 = rec.minflt();
                    pass.build_minflt += f1 - f0;
                    pass.run_minflt += f2 - f1;
                    let wall = started.elapsed().as_secs_f64();
                    let checksum = rec
                        .call(Layer::StorePut, id, || store.put(&hash, cell, &report))
                        .map_err(|e| format!("store put of {hash}: {e}"))?;
                    rec.call(Layer::StoreWall, id, || store.record_wall(&hash, wall));
                    rec.call(Layer::JournalAppend, id, || {
                        journal.append(
                            EventKind::Complete,
                            &spec.name,
                            &hash,
                            0,
                            wall,
                            &checksum,
                            "",
                        )
                    })
                    .map_err(|e| format!("journal append: {e}"))?;
                    rec.call(Layer::LeaseRelease, id, || leases.release(&hash));
                    report
                }
            };
            pass.modelled.add(&report);
            pass.store_bytes += std::fs::metadata(store.path_of(&hash)).map_or(0, |m| m.len());
            reports[i] = Some(report);
        }
        // Fan duplicates out from the position that produced them.
        for (i, j) in duplicates {
            reports[i] = reports[j].clone();
        }
        cell_index += spec.len();
        pass.reports.push(
            reports
                .into_iter()
                .map(|r| r.expect("every cell resolved"))
                .collect(),
        );
    }
    pass.wall = rec.origin.elapsed();
    pass.proc = ProcStat::now().since(&proc_before);
    pass.spans = rec.spans;
    Ok(pass)
}
