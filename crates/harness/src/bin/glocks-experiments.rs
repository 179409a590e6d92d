//! Regenerate the paper's tables and figures.
//!
//! ```text
//! glocks-experiments [EXPERIMENT ...] [--quick] [--threads N] [--csv DIR]
//!                    [--stats-json DIR] [--chrome-trace FILE] [--jobs N]
//!                    [--journal FILE] [--resume] [--timeout-secs N]
//!                    [--retries N] [--backoff-ms N]
//!
//! EXPERIMENT: all | fig1 | fig8 | table1 | table2 | table3 | table4
//!           | ablations | multiprog | faults | chaos | service | scale
//!           | stats | fuzz
//! --quick            reduced input sizes (seconds instead of minutes)
//! --threads N        CMP size for the main experiments (default 32)
//! --mesh WxH         explicit mesh floor plan for every run (W*H must
//!                    equal each run's core count; default: near-square)
//! --dense            disable the event-driven idle-skip scheduler and
//!                    tick every cycle (A/B self-profiling; results are
//!                    byte-identical either way)
//! --watchdog-cycles N  override the no-forward-progress window for every
//!                    run (cycles; 0 disables the watchdog)
//! --csv DIR          additionally write each table as DIR/<experiment>.csv
//! --stats-json DIR   record typed stats for every run and dump them as
//!                    schema-versioned JSON into DIR, plus one
//!                    BENCH_<experiment>.json self-profile per experiment
//! --chrome-trace F   drain the event-trace ring of every run into one
//!                    chrome://tracing / Perfetto JSON file
//! --jobs N           run selected experiments on N worker threads (each
//!                    experiment gets its own options, dumps and BENCH
//!                    records; only the simulator's stats registry and
//!                    trace ring are per worker thread, so runs never mix)
//! --journal FILE     append every run-state transition to a JSONL journal
//! --resume           skip experiments whose journal row is already done
//! --timeout-secs N   per-run wall-clock budget (N >= 1); a run that
//!                    overstays ends its experiment's attempt as a
//!                    transient wedge, which is retried
//! --retries N        retries for transient wedges (default 2)
//! --backoff-ms N     base backoff between retries, doubling per attempt
//!
//! `all` (the default) stands for the 11 paper experiments, in place: other
//! names may come before or after it, and each experiment runs once.
//!
//! An experiment prints every figure drawn from the runs it makes, so each
//! configuration is simulated once: `table3` prints Table III and then
//! Figure 7 (with `--csv`: `table3.csv`, `fig7.csv` and the full-resolution
//! `fig7_full.csv`), and `fig8` prints Figures 8, 9 and 10 (`fig8.csv`,
//! `fig9.csv`, `fig10.csv`).
//!
//! Each experiment runs under catch_unwind: a panicking configuration is
//! recorded as a `failed` journal row and the rest of the sweep proceeds.
//! Failed runs print their structured errors after the sweep, in selection
//! order. Exit code: 0 = all done, 1 = any deterministic failure,
//! 2 = transient wedges only, or a usage error (an unknown experiment, a
//! missing or malformed flag value) caught before anything runs.
//!
//! `--inject-panic NAME` / `--inject-wedge NAME` are self-test hooks (used
//! by the CI kill-and-resume smoke) that make experiment NAME panic or
//! exhaust a zero wall-clock budget.
//!
//! The `fuzz` experiment (never part of `all`) runs the seeded fault-plan
//! fuzzer and takes its own flags:
//!
//! --seed N           campaign seed (default 0xFA57)
//! --plans K          number of generated cases (default 16)
//! --fuzz-out DIR     write minimized repro JSON files into DIR
//! --replay FILE      re-run one repro file instead of a campaign
//! --synthetic-bug    self-test hook: classify repair-bearing plans as
//!                    failing so the shrink + repro pipeline is exercised
//! ```

use glocks_harness::{
    ablation, chaos,
    exp::{self, ExpOptions},
    faults, fig1, fig10, fig7, fig8, fig9, fuzz,
    journal::RunError,
    multiprog, scale, service,
    sweep::{self, RunOutput, SweepConfig},
    table1, table2, table3, table4,
};
use glocks_sim_base::trace::{self, TraceMask, TraceRecord};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Per-experiment trace-ring capacity when `--chrome-trace` is active.
const TRACE_CAP: usize = 1 << 16;

/// Every experiment name the CLI accepts (`all` expands to the paper set).
const EXPERIMENTS: [&str; 15] = [
    "all", "fig1", "fig8", "table1", "table2", "table3", "table4", "ablations", "multiprog",
    "faults", "chaos", "service", "scale", "stats", "fuzz",
];

/// What `all` stands for, in run order.
const PAPER_SET: [&str; 11] = [
    "table1", "table2", "table3", "fig1", "fig8", "table4", "ablations", "multiprog", "faults",
    "chaos", "service",
];

fn usage_line() -> String {
    format!(
        "usage: glocks-experiments [{}]... [--quick] [--threads N] [--mesh WxH] [--dense] \
         [--watchdog-cycles N] [--csv DIR] [--stats-json DIR] [--chrome-trace FILE] [--jobs N] \
         [--journal FILE] [--resume] [--timeout-secs N] [--retries N] [--backoff-ms N] \
         [--seed N] [--plans K] [--fuzz-out DIR] [--replay FILE] [--synthetic-bug]",
        EXPERIMENTS.join("|")
    )
}

fn usage() -> ! {
    eprintln!("{}", usage_line());
    std::process::exit(2)
}

fn bad_value(flag: &str, what: &str) -> ! {
    eprintln!("{flag} needs {what}");
    usage()
}

/// The value following the flag at `args[*i]`, advancing past it.
fn value(args: &[String], i: &mut usize) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| bad_value(&args[*i - 1], "a value"))
}

/// The flag's value parsed as a number (`what` names it in the error).
fn number<T: std::str::FromStr>(args: &[String], i: &mut usize, what: &str) -> T {
    let v = value(args, i);
    v.parse().unwrap_or_else(|_| bad_value(&args[*i - 1], what))
}

struct Cli {
    quick: bool,
    threads: usize,
    mesh: Option<glocks_sim_base::Mesh2D>,
    dense: bool,
    watchdog: Option<u64>,
    timeout_secs: Option<u64>,
    stats_dir: Option<String>,
    csv_dir: Option<String>,
    chrome_trace: Option<String>,
    jobs: usize,
    journal: Option<PathBuf>,
    resume: bool,
    retries: u32,
    backoff_ms: u64,
    inject_panic: Option<String>,
    inject_wedge: Option<String>,
    fuzz_seed: u64,
    fuzz_plans: usize,
    fuzz_out: Option<String>,
    fuzz_replay: Option<String>,
    synthetic_bug: bool,
}

fn write_csv(dir: &Option<String>, name: &str, table: &glocks_sim_base::table::TextTable) {
    if let Some(d) = dir {
        let _ = std::fs::create_dir_all(d);
        let path = format!("{d}/{name}.csv");
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("failed to write {path}: {e}");
        }
    }
}

/// Run one experiment, returning everything it would have printed to stdout.
/// Output is captured (rather than streamed) so `--jobs` workers never
/// interleave lines; the caller prints results in selection order.
fn run_one(name: &str, opts: &ExpOptions, cli: &Cli) -> String {
    let csv_dir = &cli.csv_dir;
    let fail = |kind: &str, detail: &str| opts.report(RunError::failed(kind, detail));
    let mut out = String::new();
    match name {
        "table1" => {
            let t = table1::run();
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "table1", &t);
        }
        "table2" => {
            let t = table2::run();
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "table2", &t);
        }
        "table3" => {
            let runs = table3::runs(opts);
            let t = table3::table(&runs);
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "table3", &t);
            let t = fig7::table(&runs).0;
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "fig7", &t);
            // full per-grAC matrix for replotting the 3D figure
            write_csv(csv_dir, "fig7_full", &fig7::full_matrix(&runs, opts.threads));
        }
        "fig1" => {
            let t = fig1::run(opts).0;
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "fig1", &t);
        }
        "fig8" => {
            let pairs = fig8::runs(opts);
            let (t, rows) = fig8::table(&pairs);
            writeln!(out, "{}", t.render()).unwrap();
            writeln!(out, "{}", fig8::chart(&rows)).unwrap();
            write_csv(csv_dir, "fig8", &t);
            let (m, a) = fig8::average_reductions(&rows);
            writeln!(
                out,
                "average execution-time reduction: micro {:.0}%, apps {:.0}% (paper: 42% / 14%)\n",
                m * 100.0,
                a * 100.0
            )
            .unwrap();
            let (t, rows) = fig9::table(&pairs);
            writeln!(out, "{}", t.render()).unwrap();
            writeln!(out, "{}", fig8::ratio_chart(rows.iter().map(|r| (r.bench, r.normalized))))
                .unwrap();
            write_csv(csv_dir, "fig9", &t);
            let (t, rows) = fig10::table(&pairs);
            writeln!(out, "{}", t.render()).unwrap();
            writeln!(out, "{}", fig8::ratio_chart(rows.iter().map(|r| (r.bench, r.normalized))))
                .unwrap();
            write_csv(csv_dir, "fig10", &t);
        }
        "table4" => {
            let t = table4::run(opts).0;
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "table4", &t);
        }
        "stats" => {
            use glocks_workloads::BenchKind;
            for kind in BenchKind::ALL {
                let bench = opts.bench(kind);
                let Some(r) = exp::try_run_bench(opts, &bench, &exp::glock_mapping(&bench)) else {
                    continue;
                };
                writeln!(out, "--- {} under GLocks ---", kind.name()).unwrap();
                writeln!(out, "{}", glocks_sim::summary::render(&r)).unwrap();
            }
        }
        "faults" => {
            let t = faults::run(opts);
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "faults", &t);
        }
        "chaos" => {
            let t = chaos::run(opts);
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "chaos", &t);
        }
        "service" => {
            let t = service::run(opts);
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "service", &t);
            let s = service::run_studies(opts);
            writeln!(out, "{}", s.render()).unwrap();
            write_csv(csv_dir, "service_studies", &s);
        }
        "multiprog" => {
            let t = multiprog::run_study(opts);
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "multiprog", &t);
        }
        "scale" => {
            let (t, _rows) = scale::run(opts);
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "scale", &t);
        }
        "ablations" => {
            writeln!(out, "{}", ablation::algorithm_sweep(opts).render()).unwrap();
            writeln!(out, "{}", ablation::gline_latency_sweep(opts).render()).unwrap();
            writeln!(out, "{}", ablation::hierarchy_study(opts).render()).unwrap();
            writeln!(out, "{}", ablation::fairness_study(opts).render()).unwrap();
            writeln!(out, "{}", ablation::dynamic_sharing_study(opts).render()).unwrap();
            writeln!(out, "{}", ablation::barrier_study(opts).render()).unwrap();
            writeln!(out, "{}", ablation::energy_sensitivity(opts).render()).unwrap();
        }
        "fuzz" => {
            if let Some(path) = &cli.fuzz_replay {
                match fuzz::replay_file(opts, path, cli.synthetic_bug) {
                    Ok(None) => writeln!(out, "replay {path}: ok (no longer reproduces)").unwrap(),
                    Ok(Some(f)) => {
                        writeln!(out, "replay {path}: reproduced {} — {}", f.kind, f.detail)
                            .unwrap();
                        fail(&f.kind, &f.detail);
                    }
                    Err(e) => {
                        writeln!(out, "replay {path}: {e}").unwrap();
                        fail("replay-error", &e);
                    }
                }
            } else {
                let rep = fuzz::run(opts, &fuzz::FuzzConfig {
                    seed: cli.fuzz_seed,
                    plans: cli.fuzz_plans,
                    out_dir: cli.fuzz_out.clone(),
                    synthetic_bug: cli.synthetic_bug,
                });
                writeln!(out, "{}", rep.table.render()).unwrap();
                write_csv(csv_dir, "fuzz", &rep.table);
                for f in &rep.failures {
                    writeln!(
                        out,
                        "case {} failed ({}): {}\n  minimized repro: {}",
                        f.case_index,
                        f.kind,
                        f.detail,
                        f.path.as_deref().unwrap_or("(pass --fuzz-out DIR to write it)")
                    )
                    .unwrap();
                    fail(&f.kind, &f.detail);
                }
            }
        }
        other => unreachable!("experiment names are checked before the sweep: {other}"),
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        quick: false,
        threads: ExpOptions::default().threads,
        mesh: None,
        dense: false,
        watchdog: None,
        timeout_secs: None,
        stats_dir: None,
        csv_dir: None,
        chrome_trace: None,
        jobs: 1,
        journal: None,
        resume: false,
        retries: 2,
        backoff_ms: 250,
        inject_panic: None,
        inject_wedge: None,
        fuzz_seed: 0xFA57,
        fuzz_plans: 16,
        fuzz_out: None,
        fuzz_replay: None,
        synthetic_bug: false,
    };
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cli.quick = true,
            "--threads" => {
                cli.threads = number(&args, &mut i, "a number >= 1");
                if cli.threads == 0 {
                    bad_value("--threads", "a number >= 1");
                }
            }
            "--csv" => cli.csv_dir = Some(value(&args, &mut i)),
            "--stats-json" => cli.stats_dir = Some(value(&args, &mut i)),
            "--chrome-trace" => cli.chrome_trace = Some(value(&args, &mut i)),
            "--jobs" => {
                cli.jobs = number(&args, &mut i, "a number >= 1");
                if cli.jobs == 0 {
                    bad_value("--jobs", "a number >= 1");
                }
            }
            "--watchdog-cycles" => {
                cli.watchdog = Some(number(&args, &mut i, "a number of cycles"));
            }
            "--mesh" => {
                let v = value(&args, &mut i);
                cli.mesh = Some(exp::parse_mesh(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                }));
            }
            "--dense" => cli.dense = true,
            "--journal" => cli.journal = Some(PathBuf::from(value(&args, &mut i))),
            "--resume" => cli.resume = true,
            "--timeout-secs" => {
                let secs = number(&args, &mut i, "a number of seconds >= 1");
                if secs == 0 {
                    bad_value("--timeout-secs", "a number of seconds >= 1");
                }
                cli.timeout_secs = Some(secs);
            }
            "--retries" => cli.retries = number(&args, &mut i, "a number"),
            "--backoff-ms" => cli.backoff_ms = number(&args, &mut i, "a number of milliseconds"),
            "--seed" => {
                let v = value(&args, &mut i);
                let v = v.trim();
                cli.fuzz_seed = v
                    .strip_prefix("0x")
                    .or_else(|| v.strip_prefix("0X"))
                    .map_or_else(|| v.parse().ok(), |h| u64::from_str_radix(h, 16).ok())
                    .unwrap_or_else(|| bad_value("--seed", "a number (decimal or 0x hex)"));
            }
            "--plans" => {
                cli.fuzz_plans = number(&args, &mut i, "a number >= 1");
                if cli.fuzz_plans == 0 {
                    bad_value("--plans", "a number >= 1");
                }
            }
            "--fuzz-out" => cli.fuzz_out = Some(value(&args, &mut i)),
            "--replay" => cli.fuzz_replay = Some(value(&args, &mut i)),
            "--synthetic-bug" => cli.synthetic_bug = true,
            "--inject-panic" => cli.inject_panic = Some(value(&args, &mut i)),
            "--inject-wedge" => cli.inject_wedge = Some(value(&args, &mut i)),
            "--help" | "-h" => {
                println!("{}", usage_line());
                return;
            }
            other => selected.push(other.to_string()),
        }
        i += 1;
    }
    if let Some(bad) = selected.iter().find(|s| !EXPERIMENTS.contains(&s.as_str())) {
        eprintln!("unknown experiment: {bad}");
        usage();
    }
    if selected.is_empty() {
        selected.push("all".to_string());
    }
    // Expand `all` where it stands; journal ids must stay unique, so each
    // experiment runs once, at its first mention.
    let mut expanded: Vec<String> = Vec::new();
    for name in &selected {
        let names = if name == "all" { PAPER_SET.to_vec() } else { vec![name.as_str()] };
        for n in names {
            if !expanded.iter().any(|e| e == n) {
                expanded.push(n.to_string());
            }
        }
    }
    let selected = expanded;
    if let Some(dir) = &cli.stats_dir {
        let _ = std::fs::create_dir_all(dir);
    }

    if cli.resume && cli.journal.is_none() {
        eprintln!("--resume needs --journal FILE to know what is already done");
        usage();
    }

    let sweep_start = Instant::now();
    let traces: Mutex<Vec<TraceRecord>> = Mutex::new(Vec::new());
    let n = selected.len();
    let jobs = cli.jobs.min(n).max(1);

    let sweep_cfg = SweepConfig {
        jobs,
        resume: cli.resume,
        journal: cli.journal.as_deref(),
        retry: sweep::RetryPolicy { retries: cli.retries, backoff_ms: cli.backoff_ms },
    };
    let work = |name: &str, attempt: u32| {
        // A run that panicked or timed out earlier on this worker thread
        // may have left the stats registry open; start clean.
        glocks_stats::disable();
        let opts = ExpOptions {
            quick: cli.quick,
            threads: cli.threads,
            mesh: cli.mesh,
            dense: cli.dense,
            watchdog_cycles: cli.watchdog,
            timeout_secs: if cli.inject_wedge.as_deref() == Some(name) {
                Some(0) // self-test hook: every simulation overstays at once
            } else {
                cli.timeout_secs
            },
            stats_dir: cli.stats_dir.clone(),
            context: name.to_string(),
            ..Default::default()
        };
        if cli.inject_panic.as_deref() == Some(name) {
            panic!("injected panic in {name} (harness self-test hook)");
        }
        if cli.chrome_trace.is_some() {
            trace::enable(TraceMask::ALL, TRACE_CAP);
        }
        let t0 = Instant::now();
        let out = run_one(name, &opts, &cli);
        eprintln!("[{name} done in {:.1}s (attempt {attempt})]", t0.elapsed().as_secs_f64());
        if cli.chrome_trace.is_some() {
            traces.lock().unwrap().extend(trace::drain());
            trace::disable();
        }
        let artifacts = opts.write_bench().into_iter().collect();
        let errors = opts.take_errors();
        // Fault sweeps tolerate individual dead configurations (their
        // errors are informational rows); the fuzzer's whole contract is
        // that the envelope is clean, so any deterministic error it
        // records fails the run.
        let failed = name == "fuzz" && errors.iter().any(|e| !e.transient);
        RunOutput { output: out, artifacts, errors, failed }
    };
    let mut walls: Vec<(String, f64)> = Vec::with_capacity(n);
    let rows = sweep::run_sweep(&selected, &sweep_cfg, work, |row| {
        if row.skipped {
            eprintln!("[sweep] {}: already done in journal, skipped", row.id);
        } else {
            print!("{}", row.output);
            walls.push((row.id.clone(), row.wall_secs));
        }
    });

    if n > 1 {
        eprintln!("[sweep] per-experiment wall time ({jobs} job{}):", if jobs == 1 { "" } else { "s" });
        for (name, secs) in &walls {
            eprintln!("[sweep]   {name:<10} {secs:>7.1}s");
        }
        eprintln!(
            "[sweep]   {:<10} {:>7.1}s wall",
            "total",
            sweep_start.elapsed().as_secs_f64()
        );
    }
    if let Some(path) = &cli.chrome_trace {
        let mut records = traces.into_inner().unwrap();
        records.sort_by_key(|r| r.cycle);
        match std::fs::write(path, glocks_stats::chrome::chrome_trace_json(&records)) {
            Ok(()) => eprintln!("[trace] wrote {} events to {path}", records.len()),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }

    // Failed and wedged runs report their structured errors last, in
    // selection order — never interleaved with other runs' summaries.
    for row in &rows {
        match row.status {
            glocks_harness::journal::RunStatus::Failed
            | glocks_harness::journal::RunStatus::Wedged => {
                eprintln!(
                    "[sweep] {} {} after {} attempt{}:",
                    row.id,
                    row.status.as_str(),
                    row.attempts,
                    if row.attempts == 1 { "" } else { "s" }
                );
                for e in &row.errors {
                    eprintln!(
                        "[sweep]   {}{}: {}",
                        e.kind,
                        if e.transient { " (transient)" } else { "" },
                        e.detail
                    );
                }
            }
            _ => {
                if row.flaky {
                    eprintln!(
                        "[sweep] {} was flaky: done on attempt {} after transient wedges",
                        row.id, row.attempts
                    );
                }
            }
        }
    }
    std::process::exit(sweep::exit_code(&rows));
}
