//! The sweep engine end to end through the `glocks-experiments` CLI: a
//! `--jobs` sweep containing one panicking and one wedging configuration
//! completes every healthy row, records both failures as structured
//! journal entries, and a `--resume` rerun finishes the remainder without
//! recomputing completed rows. Run-wide flags reach every experiment's
//! runs, and per-experiment state (BENCH records) stays with its
//! experiment.

use glocks_harness::journal::{Journal, JournalRow, RunStatus};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_glocks-experiments"))
}

#[test]
fn injected_failures_journal_and_resume_finishes_the_rest() {
    let dir =
        std::env::temp_dir().join(format!("glocks_sweep_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep.jsonl");

    // table1 is healthy; table2 panics; fig1's simulations all exhaust a
    // zero wall-clock budget (a genuine transient SimError, retried once).
    let out = bin()
        .args(["table1", "table2", "fig1"])
        .args(["--quick", "--threads", "4", "--jobs", "2"])
        .arg("--journal")
        .arg(&journal)
        .args(["--inject-panic", "table2", "--inject-wedge", "fig1"])
        .args(["--retries", "1", "--backoff-ms", "10"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "deterministic failure dominates the exit code; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table I —"), "healthy row's output still printed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected panic in table2"), "stderr:\n{stderr}");

    let rows = Journal::replay(&journal).unwrap();
    assert_eq!(rows["table1"].status, RunStatus::Done);
    assert_eq!(rows["table2"].status, RunStatus::Failed);
    assert_eq!(rows["table2"].errors[0].kind, "panic");
    assert!(!rows["table2"].errors[0].transient);
    assert_eq!(rows["fig1"].status, RunStatus::Wedged);
    assert_eq!(rows["fig1"].attempt, 2, "one retry before giving up");
    assert!(rows["fig1"].errors.iter().any(|e| e.kind == "wall-clock-exceeded" && e.transient));

    // Resume without the injections: the done row must not recompute.
    let out = bin()
        .args(["table1", "table2", "fig1"])
        .args(["--quick", "--threads", "4", "--jobs", "2", "--resume"])
        .arg("--journal")
        .arg(&journal)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("table1: already done in journal, skipped"),
        "stderr:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("Table I —"), "skipped rows print nothing");
    assert!(stdout.contains("Figure 1"), "previously wedged row now completes");

    let rows = Journal::replay(&journal).unwrap();
    assert_eq!(rows["table1"].status, RunStatus::Skipped);
    assert_eq!(rows["table2"].status, RunStatus::Done);
    assert_eq!(rows["fig1"].status, RunStatus::Done);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wedges_alone_exit_2() {
    let dir = std::env::temp_dir().join(format!("glocks_sweep_wedge_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A zero wall-clock budget reaches every driver's runs, and the first
    // run to overstay it ends the experiment's attempt as a transient wedge.
    let quick: &[&str] = &["--quick", "--threads", "4"];
    let cases: [(&str, &[&str], &[&str]); 7] = [
        ("fig1", &["table1", "fig1"], quick),
        ("chaos", &["chaos"], quick),
        ("faults", &["faults"], quick),
        ("multiprog", &["multiprog"], quick),
        ("service", &["service"], quick),
        ("ablations", &["ablations"], quick),
        ("fuzz", &["fuzz"], &["--plans", "2"]),
    ];
    for (wedged, names, flags) in cases {
        let journal = dir.join(format!("{wedged}.jsonl"));
        let out = bin()
            .args(names)
            .args(flags)
            .arg("--journal")
            .arg(&journal)
            .args(["--inject-wedge", wedged, "--retries", "0"])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{wedged}: transient-only sweeps exit 2; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let rows = Journal::replay(&journal).unwrap();
        let row = &rows[wedged];
        assert_eq!(row.status, RunStatus::Wedged, "{wedged}");
        assert!(
            row.errors.iter().any(|e| e.kind == "wall-clock-exceeded" && e.transient),
            "{wedged}: {:?}",
            row.errors
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_files_hold_only_their_experiments_phases() {
    let dir = std::env::temp_dir().join(format!("glocks_sweep_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A 50-cycle watchdog makes chaos panic on its fault-free row; table3
    // then runs on the same worker thread and tolerates its own wedges.
    let out = bin()
        .args(["chaos", "table3", "--quick", "--threads", "4", "--watchdog-cycles", "50"])
        .arg("--stats-json")
        .arg(&dir)
        .args(["--retries", "0"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "chaos fails; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("BENCH_table3.json")).unwrap();
    let doc = glocks_stats::json::parse(&text).unwrap();
    let phases = doc.get("phases").and_then(|p| p.as_arr()).unwrap();
    assert!(!phases.is_empty());
    for phase in phases {
        let label = phase.get("label").and_then(|l| l.as_str()).unwrap();
        assert!(label.starts_with("table3_"), "foreign phase in BENCH_table3.json: {label}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_expands_in_place_and_keeps_the_other_names() {
    let dir = std::env::temp_dir().join(format!("glocks_sweep_all_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep.jsonl");

    // The paper set is already done, so only `stats` runs.
    let mut j = Journal::open(&journal).unwrap();
    for id in [
        "table1", "table2", "table3", "fig1", "fig7", "fig8", "table4", "fig9", "fig10",
        "ablations", "multiprog", "faults", "chaos", "service",
    ] {
        j.append(&JournalRow::new(id, RunStatus::Done)).unwrap();
    }
    drop(j);

    let out = bin()
        .args(["all", "stats", "--quick", "--threads", "4", "--resume"])
        .arg("--journal")
        .arg(&journal)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--- SCTR under GLocks ---"), "stats ran:\n{stdout}");
    let rows = Journal::replay(&journal).unwrap();
    assert_eq!(rows["stats"].status, RunStatus::Done);
    assert_eq!(rows["fig8"].status, RunStatus::Skipped);

    let _ = std::fs::remove_dir_all(&dir);
}
