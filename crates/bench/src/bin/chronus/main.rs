//! `chronus` — every artefact of the Chronus paper, the experiment-grid
//! console and the simulator-throughput report, as subcommands of one
//! binary.
//!
//! ```text
//! chronus <artefact> [flags]     regenerate one figure or table
//! chronus all [--quick] [flags]  every figure and table, in sequence
//! chronus list|run|status|merge|fsck|gc|doctor [grid] [flags]
//!                                the experiment-grid console
//! chronus perf_report [--instructions N] [--out FILE | --no-out]
//! ```
//!
//! Artefacts, `all` and the console share the harness flags
//! (`chronus --help`). Exit codes: `0` clean, `2` usage error (including
//! an unopenable `--grid-dir`), `3` degraded: some grid cells failed
//! permanently, and rerunning the same command retries only them.

mod console;
mod perf_report;

use chronus_bench::artefacts::{artefact, Artefact, Source, ARTEFACTS};
use chronus_bench::grids::GRID_NAMES;
use chronus_bench::opts::{HarnessOpts, ParseOutcome};
use chronus_bench::Runner;
use chronus_grid::DEGRADED_EXIT;

/// What `chronus all` renders, in order. Analytical artefacts run at
/// their defaults; the others share the flags given to `all`.
const ALL: [&str; 15] = [
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig11",
    "fig13",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig12",
    "table4",
    "perf_attack",
    "fig14_15",
];

/// The scaled-down flags `all --quick` puts before the given ones.
const QUICK: [&str; 6] = ["--instructions", "8000", "--mixes", "1", "--nrh", "1024,32"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("perf_report") => perf_report::main(&args[1..]),
        Some(name) => match artefact(name) {
            Some(a) => {
                let opts = parse(
                    || HarnessOpts::usage(&format!("chronus {name}")),
                    args[1..].to_vec(),
                );
                exit_code(render(a, &opts))
            }
            None => console::main(args),
        },
        None => console::main(args),
    };
    std::process::exit(code);
}

/// The `chronus --help` text.
fn usage() -> String {
    let names: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
    let flags = HarnessOpts::usage("chronus");
    let flags = flags.split_once('\n').map_or("", |(_, rest)| rest);
    format!(
        "chronus: the artefacts of the Chronus paper and their experiment grids\n\
         artefacts: {}\n\
         all [--quick]: every figure and table in sequence\n\
         console: list | run | status | merge | fsck | gc | doctor  [grid]\n\
         grids: {}  (or 'all')\n\
         perf_report [--instructions N] [--out FILE | --no-out]\n{flags}",
        names.join(" "),
        GRID_NAMES.join(" "),
    )
}

/// Prints a usage error and exits 2.
fn fail(msg: &str) -> ! {
    eprintln!("chronus: {msg}");
    eprintln!("try --help");
    std::process::exit(2);
}

/// Parses the harness flags: `usage` on `--help` (exit 0), a diagnostic
/// naming the flag and value on malformed input (exit 2).
fn parse(usage: impl FnOnce() -> String, args: Vec<String>) -> HarnessOpts {
    match HarnessOpts::parse_from(args) {
        Ok(opts) => opts,
        Err(ParseOutcome::Help) => {
            eprintln!("{}", usage());
            std::process::exit(0);
        }
        Err(ParseOutcome::Invalid(msg)) => fail(&msg),
    }
}

fn exit_code(degraded: bool) -> i32 {
    if degraded {
        DEGRADED_EXIT
    } else {
        0
    }
}

/// Renders one artefact; returns whether any grid it executed
/// ended degraded.
fn render(a: &Artefact, opts: &HarnessOpts) -> bool {
    match a.source {
        Source::Analytical(render) => {
            render(opts);
            false
        }
        Source::Grid(_, render) => {
            let mut runner = Runner::new(opts).unwrap_or_else(|e| fail(&e));
            render(opts, &mut runner);
            runner.degraded() > 0
        }
    }
}

/// `chronus all`: every artefact in [`ALL`], in-process. The result store
/// makes it incremental and restartable: interrupt it anywhere and the
/// next invocation re-simulates only the cells that never finished; a
/// second complete run performs zero simulations. A degraded artefact
/// does not stop the sequence.
fn all(args: &[String]) -> i32 {
    let mut flags: Vec<String> = Vec::new();
    let mut quick = false;
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if a == "--quick" {
            quick = true;
        } else if a == "--out" {
            // One shared --out would make every artefact overwrite it.
            let _ = args.next();
            eprintln!(
                "chronus all: ignoring --out (each artefact would overwrite it); \
                 run the artefacts one by one with --out instead"
            );
        } else {
            flags.push(a.clone());
        }
    }
    // Given flags come last so they override the quick-mode defaults.
    let mut sim_args: Vec<String> = Vec::new();
    if quick {
        sim_args.extend(QUICK.map(String::from));
    }
    sim_args.extend(flags);
    let opts = parse(usage, sim_args);
    let defaults = HarnessOpts::default();

    let mut degraded: Vec<&str> = Vec::new();
    for name in ALL {
        println!("\n================ {name} ================");
        let a = artefact(name).expect("every name in ALL is an artefact");
        let opts = match a.source {
            Source::Analytical(_) => &defaults,
            Source::Grid(..) => &opts,
        };
        if render(a, opts) {
            eprintln!("chronus all: {name} completed DEGRADED; continuing");
            degraded.push(name);
        }
    }
    if !degraded.is_empty() {
        eprintln!(
            "chronus all: degraded artefacts: {} — rerun to retry their failed cells \
             (completed cells replay from the store)",
            degraded.join(", ")
        );
    }
    exit_code(!degraded.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_renders_registered_artefacts_once_each() {
        for (i, name) in ALL.iter().enumerate() {
            assert!(artefact(name).is_some(), "{name} is not an artefact");
            assert!(!ALL[..i].contains(name), "{name} listed twice");
        }
    }
}
