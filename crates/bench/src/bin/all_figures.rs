//! Runs every artefact of the paper in sequence.
//!
//! All simulation-driven binaries share the content-addressed grid result
//! store, so `all_figures` is incremental and restartable: interrupt it
//! anywhere and the next invocation re-simulates only the cells that never
//! finished; a second complete run performs zero simulations. Flags after
//! the binary name (e.g. `--instructions`, `--grid-dir`, `--shard`,
//! `--quiet`) are forwarded verbatim to every simulation binary;
//! `--quick` prepends a scaled-down flag set (your own flags win).

use std::process::Command;

use chronus_grid::DEGRADED_EXIT;

fn main() {
    let mut forwarded: Vec<String> = Vec::new();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--quick" {
            quick = true;
        } else if a == "--out" {
            // One shared --out would make every child overwrite the same
            // file; per-figure JSON needs per-figure invocations.
            let _ = args.next();
            eprintln!(
                "all_figures: ignoring --out (each figure would overwrite it); \
                 run the individual binaries with --out instead"
            );
        } else {
            forwarded.push(a);
        }
    }
    // User flags come last so they override the quick-mode defaults.
    let mut sim_args: Vec<String> = Vec::new();
    if quick {
        sim_args.extend(
            ["--instructions", "8000", "--mixes", "1", "--nrh", "1024,32"]
                .iter()
                .map(|s| s.to_string()),
        );
    }
    sim_args.extend(forwarded);

    let bins_analytical = ["table1", "table2", "table3", "fig3", "fig11", "fig13"];
    let bins_sim = [
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
    let mut degraded: Vec<&str> = Vec::new();
    for bin in bins_analytical {
        println!("\n================ {bin} ================");
        if run(bin, &[]) {
            degraded.push(bin);
        }
    }
    let sim_args_ref: Vec<&str> = sim_args.iter().map(String::as_str).collect();
    for bin in bins_sim {
        println!("\n================ {bin} ================");
        if run(bin, &sim_args_ref) {
            degraded.push(bin);
        }
    }
    if !degraded.is_empty() {
        eprintln!(
            "all_figures: degraded figures: {} — rerun to retry their failed cells \
             (completed cells replay from the store)",
            degraded.join(", ")
        );
        std::process::exit(DEGRADED_EXIT);
    }
}

/// Runs one figure binary; returns whether it ended degraded. A degraded
/// child (some cells failed permanently) does not stop the sequence — the
/// remaining figures still render from their own healthy cells. A sibling
/// binary that cannot be started is a usage error (exit 2); any other
/// failure aborts.
fn run(bin: &str, args: &[&str]) -> bool {
    let exe = std::env::current_exe().expect("self path");
    let dir = exe.parent().expect("bin dir");
    let path = dir.join(bin);
    let status = match Command::new(&path).args(args).status() {
        Ok(status) => status,
        Err(e) => {
            let release = if dir.ends_with("debug") {
                ""
            } else {
                " --release"
            };
            eprintln!("all_figures: cannot run {bin} ({}): {e}", path.display());
            eprintln!(
                "all_figures: build every figure binary first: \
                 cargo build{release} -p chronus-bench --bins"
            );
            std::process::exit(2);
        }
    };
    if status.code() == Some(DEGRADED_EXIT) {
        eprintln!("all_figures: {bin} completed DEGRADED (exit {DEGRADED_EXIT}); continuing");
        return true;
    }
    assert!(status.success(), "{bin} failed");
    false
}
