//! Crash-safe sweep engine: journaled runs with per-run panic isolation
//! and bounded retry/backoff for transient failures.
//!
//! Each run executes under `catch_unwind`, so one bad configuration no
//! longer kills the sweep — the panic becomes a structured `failed` row
//! and every other run proceeds. Failures the run *reports* (rather than
//! panics with), and a [`RunError`] it unwinds with (a wall-clock
//! timeout), are classified by [`RunError::transient`]: transient
//! failures (wall-clock timeouts — host load, not simulated behavior) are
//! retried with exponential backoff and flagged `flaky` if a retry
//! succeeds; deterministic failures are recorded once, because rerunning a
//! deterministic simulator reproduces them exactly.
//!
//! With a journal attached, every transition is durable (see
//! [`crate::journal`]) and `resume: true` skips runs whose latest row is
//! complete — the acceptance path for finishing an interrupted `--jobs N`
//! sweep without recomputing done rows.

use crate::journal::{Journal, JournalRow, RunError, RunStatus};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Bounded retry for transient failures: up to `retries` re-executions
/// (so `retries + 1` attempts), sleeping `backoff_ms << (attempt - 1)`
/// between them.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    pub retries: u32,
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { retries: 2, backoff_ms: 250 }
    }
}

/// What one run reports back to the engine.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Captured stdout of the run (printed by the caller in input order,
    /// never interleaved).
    pub output: String,
    /// Files the run produced (recorded in the journal row).
    pub artifacts: Vec<String>,
    /// Structured errors observed during the run. Any transient one makes
    /// the attempt retryable; deterministic ones are recorded as rows but
    /// only fail the run when `failed` says so (a fault-injection sweep
    /// *expects* some dead configurations).
    pub errors: Vec<RunError>,
    /// The run's primary result is a deterministic failure.
    pub failed: bool,
}

/// Sweep-level configuration.
pub struct SweepConfig<'a> {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Skip runs whose journal row is already complete.
    pub resume: bool,
    /// JSONL journal path (`None` = no journal, no resume).
    pub journal: Option<&'a Path>,
    pub retry: RetryPolicy,
}

/// Final state of one run after the sweep.
#[derive(Debug)]
pub struct RowResult {
    pub id: String,
    pub status: RunStatus,
    pub attempts: u32,
    pub flaky: bool,
    pub skipped: bool,
    pub wall_secs: f64,
    pub output: String,
    pub errors: Vec<RunError>,
}

/// Exit code for a finished sweep: deterministic failure dominates.
pub const EXIT_OK: i32 = 0;
pub const EXIT_FAILED: i32 = 1;
pub const EXIT_WEDGED: i32 = 2;

pub fn exit_code(rows: &[RowResult]) -> i32 {
    if rows.iter().any(|r| r.status == RunStatus::Failed) {
        EXIT_FAILED
    } else if rows.iter().any(|r| r.status == RunStatus::Wedged) {
        EXIT_WEDGED
    } else {
        EXIT_OK
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run `ids` through `work` on `jobs` worker threads. `work(id, attempt)`
/// is called with 1-based attempt numbers; it may panic (isolated) or
/// report failures via [`RunOutput`]. After the sweep, `on_row` is invoked
/// once per run in **input order** — captured output and failures are
/// presented deterministically, never interleaved across workers. Returns
/// all results in input order.
pub fn run_sweep<F, G>(ids: &[String], cfg: &SweepConfig, work: F, mut on_row: G) -> Vec<RowResult>
where
    F: Fn(&str, u32) -> RunOutput + Sync,
    G: FnMut(&RowResult),
{
    let prior = match cfg.journal {
        Some(path) if cfg.resume => Journal::replay(path).unwrap_or_else(|e| {
            eprintln!("[sweep] cannot replay journal {}: {e}", path.display());
            Default::default()
        }),
        _ => Default::default(),
    };
    let journal: Option<Mutex<Journal>> = cfg.journal.map(|path| {
        Mutex::new(Journal::open(path).unwrap_or_else(|e| {
            panic!("cannot open journal {}: {e}", path.display());
        }))
    });
    let log = |row: &JournalRow| {
        if let Some(j) = &journal {
            if let Err(e) = j.lock().unwrap().append(row) {
                eprintln!("[sweep] journal write failed: {e}");
            }
        }
    };

    let n = ids.len();
    let jobs = cfg.jobs.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<RowResult>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let id = ids[i].as_str();
                let result = if prior.get(id).is_some_and(|row| row.status.is_complete()) {
                    let mut row = JournalRow::new(id, RunStatus::Skipped);
                    row.attempt = 0;
                    log(&row);
                    RowResult {
                        id: id.to_string(),
                        status: RunStatus::Skipped,
                        attempts: 0,
                        flaky: false,
                        skipped: true,
                        wall_secs: 0.0,
                        output: String::new(),
                        errors: Vec::new(),
                    }
                } else {
                    execute_one(id, cfg.retry, &work, &log)
                };
                slots.lock().unwrap()[i] = Some(result);
            });
        }
    });

    let mut rows: Vec<RowResult> =
        slots.into_inner().unwrap().into_iter().map(|r| r.expect("worker filled slot")).collect();
    for row in &mut rows {
        on_row(row);
    }
    rows
}

fn execute_one<F>(id: &str, retry: RetryPolicy, work: &F, log: &dyn Fn(&JournalRow)) -> RowResult
where
    F: Fn(&str, u32) -> RunOutput + Sync,
{
    let mut attempt = 1u32;
    let mut saw_transient = false;
    let mut all_errors: Vec<RunError> = Vec::new();
    let mut total_wall = Duration::ZERO;
    loop {
        let mut running = JournalRow::new(id, RunStatus::Running);
        running.attempt = attempt;
        log(&running);

        let t0 = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(id, attempt)));
        let wall = t0.elapsed();
        total_wall += wall;

        let (candidate, output, errors, artifacts) = match outcome {
            Err(payload) => {
                // `exp::run` unwinds with the `RunError` of a run that
                // overstayed its wall-clock budget: that ends the attempt.
                let error = match payload.downcast::<RunError>() {
                    Ok(e) => *e,
                    Err(payload) => RunError::panic(&panic_message(payload.as_ref())),
                };
                let status = if error.transient { RunStatus::Wedged } else { RunStatus::Failed };
                (status, String::new(), vec![error], Vec::new())
            }
            Ok(out) => {
                let transient = out.errors.iter().any(|e| e.transient);
                let status = if out.failed {
                    RunStatus::Failed
                } else if transient {
                    RunStatus::Wedged
                } else {
                    RunStatus::Done
                };
                (status, out.output, out.errors, out.artifacts)
            }
        };
        all_errors.extend(errors);

        if candidate == RunStatus::Wedged && attempt <= retry.retries {
            // Transient: back off and retry; the next `running` row's
            // attempt number records the history.
            saw_transient = true;
            std::thread::sleep(Duration::from_millis(
                retry.backoff_ms << u64::from((attempt - 1).min(6)),
            ));
            attempt += 1;
            continue;
        }

        let flaky = saw_transient && candidate == RunStatus::Done;
        let mut row = JournalRow::new(id, candidate);
        row.attempt = attempt;
        row.flaky = flaky;
        row.wall_ms = total_wall.as_millis() as u64;
        row.artifacts.clone_from(&artifacts);
        row.errors.clone_from(&all_errors);
        log(&row);
        return RowResult {
            id: id.to_string(),
            status: candidate,
            attempts: attempt,
            flaky,
            skipped: false,
            wall_secs: total_wall.as_secs_f64(),
            output,
            errors: all_errors,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn ids(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn cfg(journal: Option<&Path>, resume: bool) -> SweepConfig<'_> {
        SweepConfig {
            jobs: 2,
            resume,
            journal,
            retry: RetryPolicy { retries: 1, backoff_ms: 1 },
        }
    }

    #[test]
    fn panic_is_isolated_and_healthy_rows_complete() {
        let rows = run_sweep(
            &ids(&["good", "bad", "also-good"]),
            &cfg(None, false),
            |id, _| {
                if id == "bad" {
                    panic!("injected failure");
                }
                RunOutput { output: format!("{id} ok\n"), ..Default::default() }
            },
            |_| {},
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].status, RunStatus::Done);
        assert_eq!(rows[1].status, RunStatus::Failed);
        assert_eq!(rows[1].errors[0].kind, "panic");
        assert!(rows[1].errors[0].detail.contains("injected failure"));
        assert_eq!(rows[2].status, RunStatus::Done);
        assert_eq!(exit_code(&rows), EXIT_FAILED);
    }

    #[test]
    fn transient_failure_retries_then_flags_flaky() {
        let calls = AtomicU32::new(0);
        let rows = run_sweep(
            &ids(&["flaky"]),
            &cfg(None, false),
            |_, attempt| {
                calls.fetch_add(1, Ordering::SeqCst);
                if attempt == 1 {
                    RunOutput {
                        errors: vec![RunError {
                            kind: "wall-clock-exceeded".into(),
                            transient: true,
                            detail: "slow host".into(),
                        }],
                        ..Default::default()
                    }
                } else {
                    RunOutput { output: "ok\n".into(), ..Default::default() }
                }
            },
            |_| {},
        );
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(rows[0].status, RunStatus::Done);
        assert!(rows[0].flaky, "a retry that succeeded must be flagged");
        assert_eq!(rows[0].attempts, 2);
        assert_eq!(exit_code(&rows), EXIT_OK);
    }

    #[test]
    fn exhausted_retries_become_wedged_not_failed() {
        let rows = run_sweep(
            &ids(&["stuck"]),
            &cfg(None, false),
            |_, _| RunOutput {
                errors: vec![RunError {
                    kind: "wall-clock-exceeded".into(),
                    transient: true,
                    detail: "never finishes in budget".into(),
                }],
                ..Default::default()
            },
            |_| {},
        );
        assert_eq!(rows[0].status, RunStatus::Wedged);
        assert_eq!(rows[0].attempts, 2, "one retry was attempted");
        assert_eq!(rows[0].errors.len(), 2, "every attempt's error is recorded");
        assert_eq!(exit_code(&rows), EXIT_WEDGED);
    }

    #[test]
    fn unwound_timeout_is_a_transient_wedge() {
        let rows = run_sweep(
            &ids(&["slow"]),
            &cfg(None, false),
            |_, _| {
                std::panic::resume_unwind(Box::new(RunError {
                    kind: "wall-clock-exceeded".into(),
                    transient: true,
                    detail: "overstayed".into(),
                }))
            },
            |_| {},
        );
        assert_eq!(rows[0].status, RunStatus::Wedged);
        assert_eq!(rows[0].attempts, 2, "a timeout is retried like any transient wedge");
        assert!(rows[0].errors.iter().all(|e| e.kind == "wall-clock-exceeded" && e.transient));
        assert_eq!(exit_code(&rows), EXIT_WEDGED);
    }

    #[test]
    fn deterministic_sim_error_rows_fail_without_retry() {
        let calls = AtomicU32::new(0);
        let rows = run_sweep(
            &ids(&["dead-config"]),
            &cfg(None, false),
            |_, _| {
                calls.fetch_add(1, Ordering::SeqCst);
                RunOutput {
                    failed: true,
                    errors: vec![RunError {
                        kind: "no-forward-progress".into(),
                        transient: false,
                        detail: "wedged at cycle 100".into(),
                    }],
                    ..Default::default()
                }
            },
            |_| {},
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1, "deterministic failures never retry");
        assert_eq!(rows[0].status, RunStatus::Failed);
        assert_eq!(exit_code(&rows), EXIT_FAILED);
    }

    #[test]
    fn resume_skips_done_rows_and_journals_the_skip() {
        let dir = std::env::temp_dir()
            .join(format!("glocks_sweep_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");

        // First sweep: one run succeeds, one panics.
        let rows = run_sweep(
            &ids(&["a", "b"]),
            &cfg(Some(&journal), false),
            |id, _| {
                if id == "b" {
                    panic!("first pass failure");
                }
                RunOutput { output: "a done\n".into(), ..Default::default() }
            },
            |_| {},
        );
        assert_eq!(exit_code(&rows), EXIT_FAILED);

        // Resumed sweep: `a` must not be recomputed, `b` runs and succeeds.
        let reran = Mutex::new(Vec::new());
        let rows = run_sweep(
            &ids(&["a", "b"]),
            &cfg(Some(&journal), true),
            |id, _| {
                reran.lock().unwrap().push(id.to_string());
                RunOutput::default()
            },
            |_| {},
        );
        assert_eq!(reran.into_inner().unwrap(), vec!["b".to_string()]);
        assert!(rows[0].skipped);
        assert_eq!(rows[0].status, RunStatus::Skipped);
        assert_eq!(rows[1].status, RunStatus::Done);
        assert_eq!(exit_code(&rows), EXIT_OK);

        // The journal's final word: a skipped, b done.
        let latest = Journal::replay(&journal).unwrap();
        assert_eq!(latest["a"].status, RunStatus::Skipped);
        assert_eq!(latest["b"].status, RunStatus::Done);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_and_callback_are_in_input_order() {
        let names = ids(&["r0", "r1", "r2", "r3", "r4"]);
        let seen = Mutex::new(Vec::new());
        let rows = run_sweep(
            &names,
            &cfg(None, false),
            |id, _| RunOutput { output: id.to_string(), ..Default::default() },
            |row| seen.lock().unwrap().push(row.id.clone()),
        );
        let order: Vec<String> = rows.iter().map(|r| r.id.clone()).collect();
        assert_eq!(order, names);
        assert_eq!(seen.into_inner().unwrap(), names);
    }
}
