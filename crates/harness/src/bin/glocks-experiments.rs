//! Regenerate the paper's tables and figures.
//!
//! ```text
//! glocks-experiments [EXPERIMENT ...] [--quick] [--threads N] [--csv DIR]
//!                    [--stats-json DIR] [--chrome-trace FILE] [--jobs N]
//!                    [--journal FILE] [--resume] [--timeout-secs N]
//!                    [--retries N] [--backoff-ms N]
//!
//! EXPERIMENT: all | fig1 | fig7 | fig8 | fig9 | fig10
//!           | table1 | table2 | table3 | table4 | ablations | multiprog
//!           | faults | chaos | service | scale | stats | fuzz
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
//! --jobs N           run selected experiments on N worker threads
//!                    (stats and traces are thread-local, so runs never mix)
//! --journal FILE     append every run-state transition to a JSONL journal
//! --resume           skip experiments whose journal row is already done
//! --timeout-secs N   per-run wall-clock budget; an overstaying run comes
//!                    back as a transient wedge and is retried
//! --retries N        retries for transient wedges (default 2)
//! --backoff-ms N     base backoff between retries, doubling per attempt
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
    faults, fig1, fig10, fig7, fig8, fig9, fuzz, multiprog, scale, service,
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
const EXPERIMENTS: [&str; 18] = [
    "all", "fig1", "fig7", "fig8", "fig9", "fig10", "table1", "table2", "table3", "table4",
    "ablations", "multiprog", "faults", "chaos", "service", "scale", "stats", "fuzz",
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
    opts: ExpOptions,
    csv_dir: Option<String>,
    stats_dir: Option<String>,
    chrome_trace: Option<String>,
    jobs: usize,
    watchdog: Option<u64>,
    mesh: Option<glocks_sim_base::Mesh2D>,
    dense: bool,
    journal: Option<PathBuf>,
    resume: bool,
    timeout_secs: Option<u64>,
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
fn run_one(name: &str, cli: &Cli, traces: &Mutex<Vec<TraceRecord>>) -> String {
    let opts = &cli.opts;
    let csv_dir = &cli.csv_dir;
    if let Some(dir) = &cli.stats_dir {
        exp::set_stats_dir(Some(dir));
        exp::set_stats_context(name);
    }
    // Thread-local, so these must be applied here (inside the worker
    // thread under `--jobs`), not once in main.
    exp::set_watchdog_cycles(cli.watchdog);
    exp::set_mesh_override(cli.mesh);
    exp::set_idle_skip(if cli.dense { Some(false) } else { None });
    if cli.chrome_trace.is_some() {
        trace::enable(TraceMask::ALL, TRACE_CAP);
    }
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
            let t = table3::run(opts);
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "table3", &t);
        }
        "fig1" => {
            let t = fig1::run(opts).0;
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "fig1", &t);
        }
        "fig7" => {
            let t = fig7::run(opts).0;
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "fig7", &t);
            if csv_dir.is_some() {
                // full per-grAC matrix for replotting the 3D figure
                write_csv(csv_dir, "fig7_full", &fig7::full_matrix(opts));
            }
        }
        "fig8" => {
            let (t, rows) = fig8::run(opts);
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
        }
        "table4" => {
            let t = table4::run(opts).0;
            writeln!(out, "{}", t.render()).unwrap();
            write_csv(csv_dir, "table4", &t);
        }
        "fig9" => {
            let (t, rows) = fig9::run(opts);
            writeln!(out, "{}", t.render()).unwrap();
            writeln!(out, "{}", fig9::chart(&rows)).unwrap();
            write_csv(csv_dir, "fig9", &t);
        }
        "fig10" => {
            let (t, rows) = fig10::run(opts);
            writeln!(out, "{}", t.render()).unwrap();
            writeln!(out, "{}", fig10::chart(&rows)).unwrap();
            write_csv(csv_dir, "fig10", &t);
        }
        "stats" => {
            use glocks_harness::exp::{glock_mapping, try_run_bench};
            use glocks_workloads::BenchKind;
            for kind in BenchKind::ALL {
                let bench = opts.bench(kind);
                let Some(r) = try_run_bench(&bench, &glock_mapping(&bench)) else {
                    continue;
                };
                writeln!(out, "--- {} under GLocks ---", kind.name()).unwrap();
                writeln!(out, "{}", glocks_sim::summary::render(&r.report)).unwrap();
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
                match fuzz::replay_file(path, cli.synthetic_bug) {
                    Ok(None) => writeln!(out, "replay {path}: ok (no longer reproduces)").unwrap(),
                    Ok(Some(f)) => {
                        writeln!(out, "replay {path}: reproduced {} — {}", f.kind, f.detail)
                            .unwrap();
                        exp::record_run_error(&f.kind, &f.detail);
                    }
                    Err(e) => {
                        writeln!(out, "replay {path}: {e}").unwrap();
                        exp::record_run_error("replay-error", &e);
                    }
                }
            } else {
                let rep = fuzz::run(&fuzz::FuzzConfig {
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
                    exp::record_run_error(&f.kind, &f.detail);
                }
            }
        }
        other => unreachable!("experiment names are checked before the sweep: {other}"),
    }
    if let Some(dir) = &cli.stats_dir {
        let records = glocks_stats::selfprof::drain();
        if !records.is_empty() {
            let path = format!("{dir}/BENCH_{name}.json");
            if let Err(e) = std::fs::write(&path, glocks_stats::selfprof::bench_json(&records)) {
                eprintln!("failed to write {path}: {e}");
            }
        }
        exp::set_stats_dir(None);
    }
    if cli.chrome_trace.is_some() {
        traces.lock().unwrap().extend(trace::drain());
        trace::disable();
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        opts: ExpOptions::default(),
        csv_dir: None,
        stats_dir: None,
        chrome_trace: None,
        jobs: 1,
        watchdog: None,
        mesh: None,
        dense: false,
        journal: None,
        resume: false,
        timeout_secs: None,
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
            "--quick" => cli.opts.quick = true,
            "--threads" => {
                cli.opts.threads = number(&args, &mut i, "a number >= 1");
                if cli.opts.threads == 0 {
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
                cli.timeout_secs = Some(number(&args, &mut i, "a number of seconds"));
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
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = [
            "table1", "table2", "table3", "fig1", "fig7", "fig8", "table4", "fig9", "fig10",
            "ablations", "multiprog", "faults", "chaos", "service",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
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
        // A previous panicked run on this worker thread may have leaked an
        // open stats session; start clean.
        glocks_stats::disable();
        exp::drain_sim_errors();
        let wedge = cli.inject_wedge.as_deref() == Some(name);
        exp::set_wall_clock_limit_ms(if wedge {
            Some(0) // self-test hook: every simulation exceeds instantly
        } else {
            cli.timeout_secs.map(|s| s.saturating_mul(1000))
        });
        if cli.inject_panic.as_deref() == Some(name) {
            panic!("injected panic in {name} (harness self-test hook)");
        }
        let t0 = Instant::now();
        let out = run_one(name, &cli, &traces);
        eprintln!("[{name} done in {:.1}s (attempt {attempt})]", t0.elapsed().as_secs_f64());
        let mut artifacts = Vec::new();
        if let Some(dir) = &cli.stats_dir {
            let bench = format!("{dir}/BENCH_{name}.json");
            if std::path::Path::new(&bench).exists() {
                artifacts.push(bench);
            }
        }
        let errors = exp::drain_sim_errors();
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
