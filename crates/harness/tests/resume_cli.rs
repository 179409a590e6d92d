//! End-to-end crash/resume through the `glocks-run` CLI: a run killed at a
//! checkpoint boundary and resumed from disk must finish with a stats dump
//! byte-identical to an uninterrupted run's.

use glocks_harness::journal::{Journal, RunStatus};
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_glocks-run"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glocks_resume_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const RUN_ARGS: [&str; 7] = ["--bench", "SCTR", "--lock", "GLock", "--threads", "4", "--quick"];

#[test]
fn interrupted_run_resumes_to_a_byte_identical_dump() {
    let clean = tmp("clean");
    let crashy = tmp("crashy");

    // Reference: one uninterrupted run, no checkpointing at all.
    let st = bin().args(RUN_ARGS).arg("--out").arg(&clean).status().unwrap();
    assert!(st.success(), "clean run must pass");
    let golden = std::fs::read(clean.join("SCTR_GLock_4t.json")).unwrap();

    // Crash: die right after the first checkpoint hits disk.
    let st = bin()
        .args(RUN_ARGS)
        .arg("--out")
        .arg(&crashy)
        .args(["--checkpoint-every", "3000", "--die-after-checkpoints", "1"])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(42), "injected crash must exit 42");
    let ckpt = crashy.join("SCTR_GLock_4t.ckpt");
    assert!(ckpt.exists(), "checkpoint survives the crash");
    assert!(!crashy.join("SCTR_GLock_4t.json").exists(), "no dump from a dead run");

    // Resume from the checkpoint and run to completion.
    let st = bin()
        .args(RUN_ARGS)
        .arg("--out")
        .arg(&crashy)
        .args(["--checkpoint-every", "3000", "--resume"])
        .status()
        .unwrap();
    assert!(st.success(), "resumed run must pass");
    let resumed = std::fs::read(crashy.join("SCTR_GLock_4t.json")).unwrap();
    assert_eq!(golden, resumed, "resumed dump must be byte-identical to the clean run's");
    assert!(!ckpt.exists(), "finished run removes its stale checkpoint");

    let rows = Journal::replay(&crashy.join("journal.jsonl")).unwrap();
    assert_eq!(rows["SCTR_GLock_4t"].status, RunStatus::Done);
    assert_eq!(
        rows["SCTR_GLock_4t"].artifacts,
        vec![crashy.join("SCTR_GLock_4t.json").display().to_string()]
    );

    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&crashy);
}

#[test]
fn snapshot_refuses_a_differently_shaped_machine() {
    let dir = tmp("mismatch");

    let st = bin()
        .args(RUN_ARGS)
        .arg("--out")
        .arg(&dir)
        .args(["--checkpoint-every", "3000", "--die-after-checkpoints", "1"])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(42));
    let ckpt = dir.join("SCTR_GLock_4t.ckpt");

    // Same snapshot file, 8-core machine: the fingerprint must refuse it.
    let out = bin()
        .args(["--bench", "SCTR", "--lock", "GLock", "--threads", "8", "--quick"])
        .arg("--out")
        .arg(&dir)
        .arg("--snapshot")
        .arg(&ckpt)
        .args(["--checkpoint-every", "3000", "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "mismatched restore is a deterministic failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("snapshot refused"), "stderr: {stderr}");

    let rows = Journal::replay(&dir.join("journal.jsonl")).unwrap();
    assert_eq!(rows["SCTR_GLock_8t"].status, RunStatus::Failed);
    assert_eq!(rows["SCTR_GLock_8t"].errors[0].kind, "snapshot-refused");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Flag values that could never take effect are rejected at parse time
/// with the usage line, before anything is built: a zero-core machine, a
/// crash after checkpoint #0 (the first is #1) or without checkpoints, and
/// a zero wall-clock budget.
#[test]
fn zero_threads_is_a_usage_error() {
    let cases: [(&[&str], &str); 6] = [
        (&["--threads", "0"], "--threads must be at least 1"),
        (&["--die-after-checkpoints", "1"], "--die-after-checkpoints needs --checkpoint-every"),
        (
            &["--checkpoint-every", "0", "--die-after-checkpoints", "1"],
            "--die-after-checkpoints needs --checkpoint-every",
        ),
        (
            &["--checkpoint-every", "3000", "--die-after-checkpoints", "0"],
            "--die-after-checkpoints must be at least 1",
        ),
        (&["--timeout-secs", "0"], "--timeout-secs must be at least 1"),
        (&["--lock", "no-such-lock"], "unknown lock algorithm"),
    ];
    for (extra, message) in cases {
        let out = bin()
            .args(["--bench", "SCTR", "--lock", "GLock", "--threads", "4", "--quick"])
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{extra:?}: stderr: {stderr}");
        assert!(stderr.contains("usage: glocks-run"), "{extra:?}: stderr: {stderr}");
    }
}
