//! Measured passes in child processes. Every fill, replay or sequential
//! pass the benchmark reports runs in a fresh process of this same binary
//! (`--unit-store DIR --unit-kind KIND`), as a user's `chronus-sweep run`
//! would: its allocator starts empty, so page faults and peak resident set
//! belong to that one pass, and no pass inherits a heap warmed by the one
//! before. The child prints one line of `key=value` fields; the parent
//! waits for it and parses the line.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use chronus_grid::ResultStore;

use crate::ledger::{self, Pass};
use crate::{digest, fill, procfs, retired, stats, Workload};

/// Prefix of the child's result line.
const TAG: &str = "gridbench-unit";

/// Nanoseconds since the Unix epoch (comparable across processes).
pub fn epoch_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// What a child process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// Set-up only: build the specs, open the store, report, exit.
    Setup,
    /// `run_grid` over every grid of the workload.
    Fill,
    /// The sequential driver, untraced.
    Sequential,
    /// The sequential driver with spans recorded.
    Traced,
}

impl UnitKind {
    fn name(self) -> &'static str {
        match self {
            Self::Setup => "setup",
            Self::Fill => "fill",
            Self::Sequential => "sequential",
            Self::Traced => "traced",
        }
    }

    /// Parses a `--unit-kind` value.
    pub fn parse(name: &str) -> Option<Self> {
        [Self::Setup, Self::Fill, Self::Sequential, Self::Traced]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// The `key=value` fields a child reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record(BTreeMap<String, String>);

impl Record {
    fn set(&mut self, key: &str, value: impl Display) {
        self.0.insert(key.to_string(), value.to_string());
    }

    fn to_line(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{TAG} {}", fields.join(" "))
    }

    fn parse(line: &str) -> Option<Self> {
        let mut record = Record::default();
        for field in line.strip_prefix(TAG)?.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            record.set(key, value);
        }
        Some(record)
    }

    /// The field `key` as text.
    pub fn text(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("unit record has no field '{key}'"))
    }

    /// The field `key` as a number.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        let text = self.text(key)?;
        text.parse()
            .map_err(|_| format!("unit record field {key}={text} is not a number"))
    }

    /// The journal window `[start, end]` of the pass, in epoch ms.
    pub fn window_ms(&self) -> Result<(u64, u64), String> {
        let started_ns: u128 = self
            .text("started_ns")?
            .parse()
            .map_err(|_| "unit record field started_ns is not a number".to_string())?;
        let start = (started_ns / 1_000_000) as u64;
        Ok((start, start + (self.num("wall_s")? * 1e3).ceil() as u64 + 1))
    }
}

/// Child side: runs one `kind` pass of `workload` against the store at
/// `store_dir` and prints the result line. `process_start` is taken first
/// thing in `main`; the time from it to the start of the pass is the
/// process's set-up time (fork and exec are left out: on a shared VM their
/// scheduling delays swamp the milliseconds of set-up work).
///
/// # Errors
///
/// Propagates store, executor and driver failures.
pub fn child_main(
    kind: UnitKind,
    workload: Workload,
    seed: u64,
    store_dir: &Path,
    process_start: Instant,
) -> Result<(), String> {
    let specs = workload.specs(seed);
    let store = ResultStore::open(store_dir)
        .map_err(|e| format!("opening {}: {e}", store_dir.display()))?;
    let mut rec = Record::default();
    rec.set("setup_s", process_start.elapsed().as_secs_f64());
    rec.set("started_ns", epoch_ns());
    match kind {
        UnitKind::Setup => {}
        UnitKind::Fill => {
            let filled = fill(&specs, &store, workload.threads())?;
            rec.set("wall_s", filled.wall_s);
            rec.set("cpu_s", filled.cpu_s);
            rec.set("minflt", filled.minflt);
            rec.set("retired", retired(&filled.reports));
            rec.set("cells", filled.cells);
            rec.set("failed", filled.failed);
            rec.set("digest", digest(&filled.reports));
        }
        UnitKind::Sequential | UnitKind::Traced => {
            let pass = ledger::sequential_pass(&specs, &store, kind == UnitKind::Traced)?;
            record_pass(&mut rec, &pass);
        }
    }
    rec.set("peak_rss_mib", procfs::peak_rss_mib());
    println!("{}", rec.to_line());
    Ok(())
}

/// The fields of a sequential pass.
fn record_pass(rec: &mut Record, pass: &Pass) {
    rec.set("wall_s", pass.wall.as_secs_f64());
    rec.set("digest", digest(&pass.reports));
    rec.set("cells", pass.reports.iter().map(Vec::len).sum::<usize>());
    rec.set("lookups", pass.lookups);
    rec.set("hits", pass.hits);
    rec.set("store_bytes", pass.store_bytes);
    rec.set("build_minflt", pass.build_minflt);
    rec.set("run_minflt", pass.run_minflt);
    rec.set("minflt", pass.proc.minflt);
    rec.set("utime_s", pass.proc.utime_s());
    rec.set("stime_s", pass.proc.stime_s());
    let m = &pass.modelled;
    rec.set("instructions", m.instructions);
    rec.set("mem_cycles", m.mem_cycles);
    rec.set("acts", m.acts);
    rec.set("rfms", m.rfms);
    rec.set("row_hits", m.row_hits);
    rec.set("row_accesses", m.row_accesses);
    rec.set("back_offs", m.back_offs);
    let mut spans_s = 0.0;
    for (layer, seconds, calls) in ledger::layer_totals(&pass.spans) {
        rec.set(&format!("{}_s", layer.key()), seconds);
        rec.set(&format!("{}_n", layer.key()), calls);
        spans_s += seconds;
    }
    rec.set("spans_s", spans_s);
    let cell_ms = ledger::cell_ms(&pass.spans);
    rec.set("cell_p50_ms", stats::median(&cell_ms).unwrap_or(0.0));
    let (pct, ms) = stats::tail(&cell_ms).unwrap_or((0.0, 0.0));
    rec.set("cell_tail_pct", pct);
    rec.set("cell_tail_ms", ms);
}

/// Parent side: runs one `kind` pass in a child process, waits for it and
/// returns its record.
///
/// # Errors
///
/// Reports a child that could not start, failed, or printed no result.
pub fn run_unit(
    kind: UnitKind,
    workload: Workload,
    seed: u64,
    store_dir: &Path,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--unit-kind", kind.name()])
        .arg("--unit-store")
        .arg(store_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a unit process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} unit process failed ({})",
            kind.name(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .and_then(Record::parse)
        .ok_or_else(|| format!("unit process printed no result: {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_line_round_trips() {
        let mut rec = Record::default();
        rec.set("wall_s", 5.123456789);
        rec.set("minflt", 1_857_819u64);
        rec.set("started_ns", 1_790_000_000_123_456_789u128);
        rec.set("digest", "542b4d13819fae65cc4653657010fd38");
        let back = Record::parse(&rec.to_line()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.num("wall_s"), Ok(5.123456789));
        assert_eq!(back.num("minflt"), Ok(1_857_819.0));
        assert_eq!(back.text("digest"), Ok("542b4d13819fae65cc4653657010fd38"));
        assert!(back.num("digest").is_err());
        assert!(back.num("absent").is_err());
        let (start, end) = back.window_ms().unwrap();
        assert_eq!(start, 1_790_000_000_123);
        assert_eq!(end, start + 5_125);
        assert_eq!(Record::parse("something else"), None);
        assert_eq!(Record::parse("gridbench-unit novalue"), None);
    }

    #[test]
    fn unit_kinds_parse_by_name() {
        for kind in [
            UnitKind::Setup,
            UnitKind::Fill,
            UnitKind::Sequential,
            UnitKind::Traced,
        ] {
            assert_eq!(UnitKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(UnitKind::parse("other"), None);
    }
}
