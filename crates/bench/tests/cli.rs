//! The `chronus` command line at its process boundary: usage errors exit
//! 2 with a diagnostic, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn chronus(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chronus"))
        .args(args)
        .output()
        .expect("run chronus")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts exit 2 with a `chronus:` diagnostic containing `needle`.
fn assert_usage_error(out: &Output, needle: &str) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with("chronus: "), "{err}");
    assert!(err.contains(needle), "{needle:?} missing from: {err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// A regular file where a store directory is expected.
fn regular_file(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, "not a store").unwrap();
    path
}

#[test]
fn unopenable_store_is_a_usage_error() {
    let file = regular_file("cli-store-is-a-file");
    let dir = file.to_str().unwrap();
    let expected = format!("chronus: --grid-dir {dir}: ");
    for args in [
        vec!["run", "smoke", "--grid-dir", dir],
        vec!["status", "smoke", "--grid-dir", dir],
        vec!["fig9", "--instructions", "3000", "--grid-dir", dir],
    ] {
        let out = chronus(&args);
        assert_usage_error(&out, &expected);
    }
    // A store below a regular file cannot be created either.
    let below = format!("{dir}/store");
    assert_usage_error(
        &chronus(&["run", "smoke", "--grid-dir", &below]),
        "--grid-dir",
    );
}

#[test]
fn perf_report_flag_errors_are_usage_errors() {
    assert_usage_error(&chronus(&["perf_report", "--bogus"]), "'--bogus'");
    assert_usage_error(
        &chronus(&["perf_report", "--instructions", "x"]),
        "--instructions: invalid value 'x'",
    );
}

#[test]
fn bad_commands_and_flags_are_usage_errors() {
    assert_usage_error(&chronus(&["fig5"]), "unknown command 'fig5'");
    assert_usage_error(&chronus(&["fig8", "--threads", "x"]), "'x'");
    assert_usage_error(&chronus(&["all", "--mixes", "many"]), "--mixes");
}

#[test]
fn analytical_artefact_runs_without_a_store() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-table2-store");
    let _ = std::fs::remove_dir_all(&dir);
    let out = chronus(&["table2", "--grid-dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("Table 2: simulated system configuration"));
    assert!(!dir.exists(), "an analytical artefact opened the store");
}
