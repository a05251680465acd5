//! Executor behaviour read back from the store's own records after an
//! untraced `run_grid`: the operations journal's Claim/Complete stamps and
//! the per-cell wall-clock sidecars. Nothing here observes the executor
//! while it runs.

use std::collections::HashMap;

use chronus_grid::journal::read_events;
use chronus_grid::{EventKind, ResultStore};

use crate::stats;

/// What the executor did in one window, by its own records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecRecords {
    /// Cells completed in the window.
    pub cells: usize,
    /// Σ recorded cell wall time ÷ executor wall time: the mean number of
    /// cells in flight.
    pub concurrency: f64,
    /// Executor time around the simulations, in seconds: per cell, the
    /// Claim→Complete interval minus the recorded attempt wall (journal
    /// append, store write, wall sidecar), plus the stretches of the run
    /// before the first Claim and after the last Complete (cache pass,
    /// thread start-up, failure-manifest update).
    pub overhead_s: f64,
    /// Median recorded cell wall, in milliseconds.
    pub cell_p50_ms: f64,
    /// The highest percentile with ten cells beyond it, and its value in
    /// milliseconds (`(0, 0)` when too few cells ran).
    pub cell_tail: (f64, f64),
    /// Retried attempts: Σ attempt index over Complete events plus Fail
    /// events.
    pub retries: u64,
}

/// Reads the journal and wall sidecars of `store` for the executor run
/// that spanned epoch milliseconds `[start_ms, end_ms]` and took
/// `exec_wall_s` seconds.
///
/// # Errors
///
/// Propagates journal read failures and reports a completed cell without a
/// wall sidecar.
pub fn exec_records(
    store: &ResultStore,
    start_ms: u64,
    end_ms: u64,
    exec_wall_s: f64,
) -> Result<ExecRecords, String> {
    let scan = read_events(store.dir()).map_err(|e| format!("reading the journal: {e}"))?;
    let mut claims: HashMap<&str, u64> = HashMap::new();
    let mut walls: Vec<f64> = Vec::new();
    let mut in_cell_overhead_ms = 0.0;
    let mut first_claim = u64::MAX;
    let mut last_complete = 0;
    let mut retries = 0;
    let window = scan
        .events
        .iter()
        .filter(|e| e.at_ms >= start_ms && e.at_ms <= end_ms);
    for event in window {
        match event.kind {
            EventKind::Claim => {
                claims.insert(&event.hash, event.at_ms);
                first_claim = first_claim.min(event.at_ms);
            }
            EventKind::Complete => {
                let wall = store
                    .recorded_wall(&event.hash)
                    .ok_or_else(|| format!("completed cell {} has no wall sidecar", event.hash))?;
                if let Some(&claimed) = claims.get(event.hash.as_str()) {
                    in_cell_overhead_ms += (event.at_ms - claimed) as f64 - wall * 1e3;
                }
                walls.push(wall);
                last_complete = last_complete.max(event.at_ms);
                retries += u64::from(event.attempt);
            }
            EventKind::Fail => retries += 1,
            _ => {}
        }
    }
    if walls.is_empty() {
        return Ok(ExecRecords::default());
    }
    let outside_ms = first_claim.saturating_sub(start_ms) + end_ms.saturating_sub(last_complete);
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    Ok(ExecRecords {
        cells: walls.len(),
        concurrency: walls.iter().sum::<f64>() / exec_wall_s,
        overhead_s: (in_cell_overhead_ms + outside_ms as f64) / 1e3,
        cell_p50_ms: stats::median(&ms).unwrap_or(0.0),
        cell_tail: stats::tail(&ms).unwrap_or((0.0, 0.0)),
        retries,
    })
}
