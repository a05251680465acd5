//! Benchmark-harness library: every paper artefact, the experiment-grid
//! registry they render from, and the executor that runs those grids on
//! the `chronus-grid` engine. The `chronus` binary is a thin command line
//! over it:
//!
//! ```text
//! chronus <artefact> [flags]   regenerate one figure or table
//!                              (fig3 fig4 fig7 … table4 ablation
//!                              perf_attack leakage_report)
//! chronus all [--quick] [flags]  every figure and table in sequence
//! chronus list|run|status|merge|fsck|gc|doctor   the grid console
//! chronus perf_report          simulator-throughput report
//! ```
//!
//! Artefacts and the grid console accept the same flags:
//!
//! ```text
//! --instructions N   instructions per core         (default 60 000)
//! --mixes N          four-core mixes per class     (default 2 → 12 mixes)
//! --threads N        worker threads                (default: all cores)
//! --seed N           RNG seed                      (default 42)
//! --nrh a,b,c        RowHammer threshold sweep     (default 1024…20)
//! --out FILE         also write results as JSON
//! --shard i/N        own 1/N of the grid cells     (default 1/1)
//! --grid-dir DIR     result-store directory        (default: grid-cache)
//! --no-cache         bypass the result store
//! --quiet            no progress/ETA lines
//! ```
//!
//! Paper scale is `--instructions 100000000 --mixes 10`. Completed cells
//! are cached in the content-addressed result store, so re-running any
//! artefact (or `chronus all`) re-simulates nothing that already
//! finished; see BENCH_README.md ("Sweeps, sharding and the result
//! cache").

pub mod artefacts;
pub mod grids;
pub mod opts;
pub mod runs;
pub mod tables;

pub use opts::HarnessOpts;
pub use runs::{AppSweep, Executor, MixSweep, Runner, SweepRow};
pub use tables::{format_table, geomean, write_json};
