//! `glocks-experiments` rejects bad input before any experiment runs:
//! unknown experiment names and missing or malformed flag values exit 2
//! with the usage line, like `glocks-run`. An experiment that prints
//! several figures simulates each configuration once.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_glocks-experiments"))
        .args(args)
        .output()
        .expect("spawn glocks-experiments")
}

fn assert_usage_error(args: &[&str], complaint: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must be a usage error; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(complaint),
        "{args:?}: stderr lacks {complaint:?}:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: glocks-experiments"),
        "{args:?}: no usage line:\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?}: nothing may run before the usage error"
    );
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    assert_usage_error(&["no-such-exp"], "unknown experiment: no-such-exp");
    // Checked up front: a valid name before it does not start a sweep.
    assert_usage_error(
        &["table1", "no-such-exp"],
        "unknown experiment: no-such-exp",
    );
    // Figures 9 and 10 are printed by `fig8`, from its runs.
    assert_usage_error(&["fig9"], "unknown experiment: fig9");
}

/// Run `experiment --quick --threads 4` with stats dumps and CSVs into a
/// fresh directory; returns its stdout, the CSV names and the number of
/// `<experiment>_*.json` dumps.
fn run_with_outputs(experiment: &str) -> (String, Vec<String>, usize) {
    let dir = std::env::temp_dir()
        .join(format!("glocks_cli_{experiment}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (dumps, csvs) = (dir.join("dumps"), dir.join("csv"));
    let out = Command::new(env!("CARGO_BIN_EXE_glocks-experiments"))
        .args([experiment, "--quick", "--threads", "4", "--stats-json"])
        .arg(&dumps)
        .arg("--csv")
        .arg(&csvs)
        .output()
        .expect("spawn glocks-experiments");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let names = |d: &std::path::Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        v.sort();
        v
    };
    let prefix = format!("{experiment}_");
    let n_dumps = names(&dumps)
        .iter()
        .filter(|f| f.starts_with(&prefix) && f.ends_with(".json"))
        .count();
    let csv_names = names(&csvs);
    let _ = std::fs::remove_dir_all(&dir);
    (String::from_utf8_lossy(&out.stdout).into_owned(), csv_names, n_dumps)
}

/// The titles' positions in `stdout`, which must all be present and in
/// this order.
fn assert_in_order(stdout: &str, titles: &[&str]) {
    let at: Vec<usize> = titles
        .iter()
        .map(|t| stdout.find(t).unwrap_or_else(|| panic!("{t:?} missing:\n{stdout}")))
        .collect();
    assert!(at.windows(2).all(|w| w[0] < w[1]), "{titles:?} out of order:\n{stdout}");
}

#[test]
fn fig8_prints_figures_8_9_and_10_from_one_run_set() {
    let (stdout, csvs, dumps) = run_with_outputs("fig8");
    assert_in_order(&stdout, &["Figure 8 —", "Figure 9 —", "Figure 10 —"]);
    assert_eq!(csvs, ["fig10.csv", "fig8.csv", "fig9.csv"]);
    assert_eq!(dumps, 16, "8 benchmarks x {{MCS, GLock}}, each simulated once");
}

#[test]
fn table3_prints_table_iii_and_figure_7_from_one_run_set() {
    let (stdout, csvs, dumps) = run_with_outputs("table3");
    assert_in_order(&stdout, &["Table III —", "Figure 7 —"]);
    assert_eq!(csvs, ["fig7.csv", "fig7_full.csv", "table3.csv"]);
    assert_eq!(dumps, 8, "8 benchmarks under TATAS, each simulated once");
}

#[test]
fn malformed_or_missing_flag_values_are_usage_errors() {
    assert_usage_error(&["fig8", "--threads", "x"], "--threads needs a number");
    assert_usage_error(&["fig8", "--quick", "--threads", "0"], "--threads needs a number >= 1");
    assert_usage_error(&["fig8", "--threads"], "--threads needs a value");
    assert_usage_error(&["fuzz", "--seed", "0xZZ"], "--seed needs a number");
    assert_usage_error(&["fig8", "--jobs", "0"], "--jobs needs a number >= 1");
    assert_usage_error(
        &["table3", "--quick", "--threads", "8", "--timeout-secs", "0", "--retries", "0"],
        "--timeout-secs needs a number of seconds >= 1",
    );
}
