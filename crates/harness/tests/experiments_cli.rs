//! `glocks-experiments` rejects bad input before any experiment runs:
//! unknown experiment names and missing or malformed flag values exit 2
//! with the usage line, like `glocks-run`.

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
