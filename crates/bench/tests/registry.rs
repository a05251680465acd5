//! The artefact registry: every artefact name resolves, and each
//! grid-backed artefact requests exactly the cells that
//! `grids::build_spec` decides for its grid.

use chronus_bench::artefacts::{artefact, Source, ARTEFACTS};
use chronus_bench::grids::build_spec;
use chronus_bench::{Executor, HarnessOpts, Runner};
use chronus_grid::{ExecStats, GridOutcome, GridSpec};

/// Every artefact of the paper, by subcommand name.
const NAMES: [&str; 17] = [
    "fig3",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14_15",
    "table1",
    "table2",
    "table3",
    "table4",
    "ablation",
    "perf_attack",
    "leakage_report",
];

/// Records the specs it is asked to execute; every cell comes back empty.
#[derive(Default)]
struct Recorder {
    specs: Vec<GridSpec>,
}

impl Executor for Recorder {
    fn execute(&mut self, spec: &GridSpec) -> GridOutcome {
        self.specs.push(spec.clone());
        GridOutcome {
            reports: vec![None; spec.len()],
            stats: ExecStats::default(),
            failures: Vec::new(),
            wall_seconds: 0.0,
        }
    }
}

fn tiny() -> HarnessOpts {
    HarnessOpts {
        instructions: 3_000,
        mixes_per_class: 1,
        threads: 2,
        nrh_list: vec![1024, 32],
        no_cache: true,
        quiet: true,
        ..HarnessOpts::default()
    }
}

#[test]
fn every_artefact_name_resolves() {
    for name in NAMES {
        let a = artefact(name).unwrap_or_else(|| panic!("{name} is not registered"));
        assert_eq!(a.name, name);
    }
    assert_eq!(ARTEFACTS.len(), NAMES.len(), "an unlisted artefact");
    assert!(artefact("fig5").is_none());
}

#[test]
fn grid_artefacts_request_exactly_their_registered_cells() {
    // The paper-default N_RH list also exercises the per-figure forcing
    // (Fig. 7 and perf_attack cut long sweeps to two points).
    let paper = HarnessOpts {
        quiet: true,
        ..HarnessOpts::default()
    };
    for opts in [tiny(), paper] {
        for a in ARTEFACTS {
            let Source::Grid(grid, render) = a.source else {
                continue;
            };
            let mut recorder = Recorder::default();
            render(&opts, &mut recorder);
            let expected = build_spec(grid, &opts).expect("registered grid");
            assert_eq!(recorder.specs.len(), 1, "{}: one grid", a.name);
            let got = &recorder.specs[0];
            assert_eq!(got.name, expected.name, "{}", a.name);
            assert_eq!(got.hashes(), expected.hashes(), "{}: cells differ", a.name);
        }
    }
}

#[test]
fn analytical_artefacts_render() {
    let out = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("registry-fig3.json");
    let opts = HarnessOpts {
        out: Some(out.clone()),
        ..tiny()
    };
    for name in ["table1", "fig3"] {
        let Source::Analytical(render) = artefact(name).unwrap().source else {
            panic!("{name} needs no simulation");
        };
        render(&opts);
    }
    // table1 writes no JSON; fig3 writes both panels.
    let json = std::fs::read_to_string(&out).unwrap();
    assert!(json.contains("\"fig3a\": [") && json.contains("\"fig3b\": ["));
}

#[test]
fn fig9_renders_from_a_real_run() {
    let out = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("registry-fig9.json");
    let opts = HarnessOpts {
        out: Some(out.clone()),
        ..tiny()
    };
    let Source::Grid(_, render) = artefact("fig9").unwrap().source else {
        panic!("fig9 renders a grid");
    };
    let mut runner = Runner::new(&opts).unwrap();
    render(&opts, &mut runner);
    assert_eq!(runner.degraded(), 0);
    let json = std::fs::read_to_string(&out).unwrap();
    // One mix per intensity class, seven headline mechanisms.
    assert_eq!(json.matches("\"mechanism\": ").count(), 6 * 7, "{json}");
    assert_eq!(json.matches("\"nrh\": 32,").count(), 6 * 7, "{json}");
    for class in ["HHHH", "HHMM", "LLHH", "MMMM", "MMLL", "LLLL"] {
        assert!(json.contains(&format!("\"class\": \"{class}\"")), "{class}");
    }
}
