//! Run one benchmark configuration with periodic checkpoints and
//! crash-safe resume.
//!
//! ```text
//! glocks-run --bench SCTR --lock GLock [--threads N] [--mesh WxH]
//!            [--quick] [--out DIR] [--checkpoint-every N] [--snapshot FILE]
//!            [--resume] [--watchdog-cycles N] [--timeout-secs N]
//!            [--die-after-checkpoints N]
//!
//! --bench NAME           SCTR|MCTR|DBLL|PRCO|ACTR|RAYTR|OCEAN|QSORT
//! --lock NAME            Simple|TATAS|TATAS-BO|Ticket|Anderson|MCS|Ideal
//!                        |GLock|MP-Lock|SB|DynGLock|Reactive (any case,
//!                        `-`/`_` optional: `tatas_bo`, `mplock`)
//! --threads N            core count (default 32)
//! --mesh WxH             explicit mesh floor plan (e.g. 32x32); W*H must
//!                        equal the core count (default: near-square)
//! --quick                reduced input size (CI scale)
//! --out DIR              artifact directory (default runs/)
//! --checkpoint-every N   auto-checkpoint every N cycles (0 = off);
//!                        each image goes to the snapshot file via an
//!                        atomic tmp+rename, so a crash mid-write leaves
//!                        the previous checkpoint intact
//! --snapshot FILE        checkpoint path (default DIR/<id>.ckpt)
//! --resume               if the snapshot file exists, resume from it
//!                        instead of starting at cycle 0
//! --watchdog-cycles N    no-forward-progress window override
//! --timeout-secs N       wall-clock budget, N >= 1 (SimError::WallClockExceeded)
//! --dense                tick every cycle instead of the event-driven
//!                        idle-skip scheduler (byte-identical results)
//! --die-after-checkpoints N   self-test hook: exit(42) right after the
//!                        Nth checkpoint hits disk, simulating a crash
//!                        (N >= 1; needs --checkpoint-every)
//!
//! The stats dump lands at DIR/<id>.json and is byte-identical whether
//! the run went straight through or was interrupted and resumed — that is
//! the whole point. Run states append to DIR/journal.jsonl. Exit code:
//! 0 = done (snapshot file removed), 1 = deterministic failure,
//! 2 = transient wedge (checkpoint kept for resume), 42 = injected crash.
//! ```

use glocks_harness::exp::{parse_mesh, ExpOptions, RunSpec};
use glocks_harness::journal::{Journal, JournalRow, RunError, RunStatus};
use glocks_locks::LockAlgorithm;
use glocks_sim::{LockMapping, SimError, Simulation, Snapshot};
use glocks_workloads::BenchKind;
use std::path::PathBuf;
use std::time::Instant;

fn parse_bench(name: &str) -> Option<BenchKind> {
    BenchKind::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(name))
}

struct Cli {
    bench: BenchKind,
    lock: LockAlgorithm,
    /// `--threads`, `--mesh`, `--quick`, `--dense`, `--watchdog-cycles` and
    /// `--timeout-secs`, applied as `glocks-experiments` applies them.
    opts: ExpOptions,
    out: PathBuf,
    checkpoint_every: u64,
    snapshot: Option<PathBuf>,
    resume: bool,
    die_after: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: glocks-run --bench NAME --lock NAME [--threads N] [--mesh WxH] [--quick] \
         [--out DIR] [--checkpoint-every N] [--snapshot FILE] [--resume] [--watchdog-cycles N] \
         [--timeout-secs N] [--die-after-checkpoints N] [--dense]"
    );
    std::process::exit(2)
}

fn parse_cli() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = None;
    let mut lock = None;
    let mut cli = Cli {
        bench: BenchKind::Sctr,
        lock: LockAlgorithm::Glock,
        opts: ExpOptions::default(),
        out: PathBuf::from("runs"),
        checkpoint_every: 0,
        snapshot: None,
        resume: false,
        die_after: None,
    };
    let mut i = 0;
    let need = |args: &[String], i: usize, flag: &str| -> String {
        args.get(i).unwrap_or_else(|| { eprintln!("{flag} needs a value"); usage() }).clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => {
                i += 1;
                let v = need(&args, i, "--bench");
                bench = Some(parse_bench(&v).unwrap_or_else(|| {
                    eprintln!("unknown benchmark: {v}");
                    usage()
                }));
            }
            "--lock" => {
                i += 1;
                let v = need(&args, i, "--lock");
                lock = Some(LockAlgorithm::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown lock algorithm: {v}");
                    usage()
                }));
            }
            "--threads" => {
                i += 1;
                cli.opts.threads = need(&args, i, "--threads").parse().unwrap_or_else(|_| usage());
                if cli.opts.threads == 0 {
                    eprintln!("--threads must be at least 1");
                    usage()
                }
            }
            "--mesh" => {
                i += 1;
                let v = need(&args, i, "--mesh");
                cli.opts.mesh = Some(parse_mesh(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                }));
            }
            "--quick" => cli.opts.quick = true,
            "--out" => {
                i += 1;
                cli.out = PathBuf::from(need(&args, i, "--out"));
            }
            "--checkpoint-every" => {
                i += 1;
                cli.checkpoint_every =
                    need(&args, i, "--checkpoint-every").parse().unwrap_or_else(|_| usage());
            }
            "--snapshot" => {
                i += 1;
                cli.snapshot = Some(PathBuf::from(need(&args, i, "--snapshot")));
            }
            "--resume" => cli.resume = true,
            "--dense" => cli.opts.dense = true,
            "--watchdog-cycles" => {
                i += 1;
                cli.opts.watchdog_cycles =
                    Some(need(&args, i, "--watchdog-cycles").parse().unwrap_or_else(|_| usage()));
            }
            "--timeout-secs" => {
                i += 1;
                cli.opts.timeout_secs =
                    Some(need(&args, i, "--timeout-secs").parse().unwrap_or_else(|_| usage()));
                if cli.opts.timeout_secs == Some(0) {
                    eprintln!("--timeout-secs must be at least 1");
                    usage()
                }
            }
            "--die-after-checkpoints" => {
                i += 1;
                cli.die_after = Some(
                    need(&args, i, "--die-after-checkpoints").parse().unwrap_or_else(|_| usage()),
                );
                // Checkpoints are counted from #1.
                if cli.die_after == Some(0) {
                    eprintln!("--die-after-checkpoints must be at least 1");
                    usage()
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
        i += 1;
    }
    cli.bench = bench.unwrap_or_else(|| {
        eprintln!("--bench is required");
        usage()
    });
    cli.lock = lock.unwrap_or_else(|| {
        eprintln!("--lock is required");
        usage()
    });
    if cli.die_after.is_some() && cli.checkpoint_every == 0 {
        eprintln!("--die-after-checkpoints needs --checkpoint-every N with N >= 1");
        usage()
    }
    if let Some(m) = cli.opts.mesh.filter(|m| m.len() != cli.opts.threads) {
        eprintln!(
            "--mesh {}x{} holds {} tiles but --threads is {}",
            m.cols(),
            m.rows(),
            m.len(),
            cli.opts.threads
        );
        usage()
    }
    cli
}

/// Write `bytes` to `path` atomically: full write to a sibling tmp file,
/// fsync, then rename. A crash at any point leaves either the previous
/// checkpoint or the new one — never a torn file.
fn write_atomic(path: &PathBuf, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

fn journal_append(journal: &mut Option<Journal>, row: &JournalRow) {
    if let Some(j) = journal {
        if let Err(e) = j.append(row) {
            eprintln!("[glocks-run] journal append failed: {e}");
        }
    }
}

fn main() {
    let cli = parse_cli();
    let bench = cli.opts.bench(cli.bench);
    let mut spec =
        RunSpec::bench(&bench, LockMapping::hybrid(&bench.hc_locks(), cli.lock, bench.n_locks()));
    cli.opts.apply(&mut spec);
    let id = spec.tag.clone();
    if let Err(e) = std::fs::create_dir_all(&cli.out) {
        eprintln!("[glocks-run] cannot create {}: {e}", cli.out.display());
        std::process::exit(2);
    }
    let ckpt_path = cli.snapshot.clone().unwrap_or_else(|| cli.out.join(format!("{id}.ckpt")));
    let dump_path = cli.out.join(format!("{id}.json"));
    let mut journal = match Journal::open(&cli.out.join("journal.jsonl")) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("[glocks-run] cannot open journal: {e}");
            None
        }
    };

    // Stats must be live before construction: components register their
    // counters and histograms in their constructors.
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    glocks_stats::set_meta("experiment", "glocks-run");
    for (k, v) in &spec.meta {
        glocks_stats::set_meta(k, v);
    }
    let inst = bench.build();

    let resumed_from = if cli.resume && ckpt_path.exists() {
        match std::fs::read(&ckpt_path).map_err(|e| e.to_string()).and_then(|b| {
            Snapshot::from_bytes(b).map_err(|e| e.to_string())
        }) {
            Ok(snap) => Some(snap),
            Err(e) => {
                eprintln!("[glocks-run] cannot load {}: {e}", ckpt_path.display());
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    let sim = match &resumed_from {
        Some(snap) => {
            match Simulation::resume(
                &spec.cfg,
                &spec.mapping,
                inst.workloads,
                &inst.init,
                spec.options,
                snap,
            ) {
                Ok(sim) => {
                    eprintln!(
                        "[glocks-run] {id}: resumed from {} at cycle {}",
                        ckpt_path.display(),
                        snap.cycle()
                    );
                    sim
                }
                Err(e) => {
                    eprintln!("[glocks-run] {id}: snapshot refused: {e}");
                    let mut row = JournalRow::new(&id, RunStatus::Failed);
                    row.errors.push(RunError::failed("snapshot-refused", &e.to_string()));
                    journal_append(&mut journal, &row);
                    std::process::exit(1);
                }
            }
        }
        None => Simulation::new(&spec.cfg, &spec.mapping, inst.workloads, &inst.init, spec.options),
    };

    journal_append(&mut journal, &JournalRow::new(&id, RunStatus::Running));
    let t0 = Instant::now();
    let mut checkpoints_written = 0u64;
    let mut sink = |snap: Snapshot| {
        if let Err(e) = write_atomic(&ckpt_path, snap.as_bytes()) {
            eprintln!("[glocks-run] checkpoint write failed: {e}");
            return;
        }
        checkpoints_written += 1;
        eprintln!(
            "[glocks-run] {id}: checkpoint #{checkpoints_written} at cycle {} ({} bytes)",
            snap.cycle(),
            snap.len()
        );
        if cli.die_after == Some(checkpoints_written) {
            eprintln!("[glocks-run] {id}: injected crash after checkpoint #{checkpoints_written}");
            std::process::exit(42);
        }
    };
    let result = if cli.checkpoint_every > 0 {
        sim.run_with_checkpoints(cli.checkpoint_every, &mut sink)
    } else {
        sim.run()
    };

    match result {
        Ok((report, mem)) => {
            if let Err(e) = (inst.verify)(mem.store()) {
                eprintln!("[glocks-run] {id}: verification FAILED: {e}");
                let mut row = JournalRow::new(&id, RunStatus::Failed);
                row.wall_ms = t0.elapsed().as_millis() as u64;
                row.errors.push(RunError::failed("verification-failed", &e));
                journal_append(&mut journal, &row);
                std::process::exit(1);
            }
            let dump = report.stats.as_ref().expect("stats session was enabled");
            if let Err(e) = std::fs::write(&dump_path, dump.to_json()) {
                eprintln!("[glocks-run] cannot write {}: {e}", dump_path.display());
                std::process::exit(1);
            }
            glocks_stats::disable();
            // A finished run's checkpoint is stale by definition.
            let _ = std::fs::remove_file(&ckpt_path);
            let mut row = JournalRow::new(&id, RunStatus::Done);
            row.wall_ms = t0.elapsed().as_millis() as u64;
            row.artifacts.push(dump_path.display().to_string());
            journal_append(&mut journal, &row);
            eprintln!(
                "[glocks-run] {id}: done in {} cycles, {:.1}s wall{}",
                report.cycles,
                t0.elapsed().as_secs_f64(),
                if resumed_from.is_some() { " (resumed)" } else { "" }
            );
        }
        Err(e) => {
            glocks_stats::disable();
            let status = if e.is_transient() { RunStatus::Wedged } else { RunStatus::Failed };
            eprintln!("[glocks-run] {id}: {} ({})\n{e}", status.as_str(), e.kind());
            let mut row = JournalRow::new(&id, status);
            row.wall_ms = t0.elapsed().as_millis() as u64;
            row.errors.push(RunError::from_sim_error(&e));
            if ckpt_path.exists() {
                row.artifacts.push(ckpt_path.display().to_string());
            }
            journal_append(&mut journal, &row);
            std::process::exit(match e {
                SimError::WallClockExceeded { .. } => 2,
                _ => 1,
            });
        }
    }
}
