//! `glocks-stats` — inspect and regression-diff simulator stats dumps.
//!
//! ```text
//! glocks-stats show  DUMP.json                 # human-readable summary
//! glocks-stats csv   DUMP.json                 # flat CSV on stdout
//! glocks-stats quantiles DUMP.json [HIST]      # p50/p90/p99/p999 per histogram
//! glocks-stats diff  OLD.json NEW.json         # regression gate
//!     [--tolerance FRAC]      relative drift allowed (default 0.01)
//!     [--abs-floor N]         ignore changes when both values <= N (default 4)
//!     [--watch PREFIX]        only stats under PREFIX can fail (repeatable)
//!     [--allow-shape-change]  added/removed stats do not fail
//!     [--all]                 print unchanged lines too
//! ```
//!
//! Exit codes: 0 = clean, 1 = out-of-tolerance drift (or shape change),
//! 2 = usage error, 3 = dump missing or unreadable, 4 = dump malformed or
//! from an unsupported schema version. CI pipes a freshly-generated dump
//! against the committed golden dump and fails the build on exit 1; the
//! distinct 3/4 codes let a pipeline tell "the run never produced a dump"
//! from "the dump format drifted" without parsing stderr.

use glocks_stats::diff::DiffKind;
use glocks_stats::{diff, DiffOptions, StatsDump};
use std::io::Write as _;
use std::process::ExitCode;

/// `println!` that shrugs off a closed pipe (`glocks-stats show ... | head`)
/// instead of panicking.
macro_rules! outln {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: glocks-stats show DUMP.json\n\
         \x20      glocks-stats csv  DUMP.json\n\
         \x20      glocks-stats quantiles DUMP.json [HIST-NAME]\n\
         \x20      glocks-stats diff OLD.json NEW.json [--tolerance FRAC] [--abs-floor N]\n\
         \x20                        [--watch PREFIX]... [--allow-shape-change] [--all]"
    );
    ExitCode::from(2)
}

/// Why a dump failed to load — each variant maps to a distinct exit code
/// so CI can branch on the failure class without scraping stderr.
enum LoadError {
    /// File missing or unreadable (exit 3).
    Unreadable(String),
    /// Parse failure or unsupported `schema_version` (exit 4).
    BadSchema(String),
}

impl LoadError {
    fn exit_code(&self) -> ExitCode {
        match self {
            LoadError::Unreadable(_) => ExitCode::from(3),
            LoadError::BadSchema(_) => ExitCode::from(4),
        }
    }

    fn message(&self) -> &str {
        match self {
            LoadError::Unreadable(m) | LoadError::BadSchema(m) => m,
        }
    }
}

fn load(path: &str) -> Result<StatsDump, LoadError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| LoadError::Unreadable(format!("{path}: {e}")))?;
    let dump = StatsDump::from_json(&src)
        .map_err(|e| LoadError::BadSchema(format!("{path}: {e}")))?;
    if dump.schema_version != glocks_stats::SCHEMA_VERSION {
        return Err(LoadError::BadSchema(format!(
            "{path}: schema version {} unsupported (this tool reads version {})",
            dump.schema_version,
            glocks_stats::SCHEMA_VERSION
        )));
    }
    Ok(dump)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("show") if args.len() == 2 => show(&args[1]),
        Some("csv") if args.len() == 2 => csv(&args[1]),
        Some("quantiles") if args.len() == 2 || args.len() == 3 => {
            quantiles(&args[1], args.get(2).map(String::as_str))
        }
        Some("diff") if args.len() >= 3 => cmd_diff(&args[1], &args[2], &args[3..]),
        _ => usage(),
    }
}

fn show(path: &str) -> ExitCode {
    let d = match load(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {}", e.message());
            return e.exit_code();
        }
    };
    outln!("schema_version: {}", d.schema_version);
    if !d.meta.is_empty() {
        outln!("meta:");
        for (k, v) in &d.meta {
            outln!("  {k} = {v}");
        }
    }
    outln!("counters ({}):", d.counters.len());
    for (k, v) in &d.counters {
        outln!("  {k:<48} {v}");
    }
    outln!("histograms ({}):", d.hists.len());
    for (k, h) in &d.hists {
        outln!(
            "  {k:<48} n={} mean={:.1} p50={} p99={} max={}",
            h.count,
            h.mean(),
            h.percentile(0.50),
            h.percentile(0.99),
            h.max
        );
    }
    outln!("series ({}):", d.series.len());
    for (k, s) in &d.series {
        outln!(
            "  {k:<48} n={} period={} mean={:.2}",
            s.len(),
            s.period,
            s.mean()
        );
    }
    ExitCode::SUCCESS
}

/// Interpolated p50/p90/p99/p999 for every histogram in the dump (or just
/// the named one). Uses the same within-bucket interpolation as the SLO
/// report, so the CLI and the `slo.*` counters agree. A named histogram
/// that is absent exits 2 (usage error: the dump loaded fine, the name is
/// wrong).
fn quantiles(path: &str, name: Option<&str>) -> ExitCode {
    let d = match load(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {}", e.message());
            return e.exit_code();
        }
    };
    let selected: Vec<(&String, &glocks_stats::HistDump)> = match name {
        Some(n) => match d.hists.get_key_value(n) {
            Some((k, h)) => vec![(k, h)],
            None => {
                eprintln!("error: {path}: no histogram named {n:?}");
                return ExitCode::from(2);
            }
        },
        None => d.hists.iter().collect(),
    };
    outln!(
        "{:<48} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "histogram",
        "count",
        "mean",
        "p50",
        "p90",
        "p99",
        "p999"
    );
    for (k, h) in selected {
        outln!(
            "{k:<48} {:>10} {:>10.1} {:>10} {:>10} {:>10} {:>10}",
            h.count,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99),
            h.quantile(0.999)
        );
    }
    ExitCode::SUCCESS
}

fn csv(path: &str) -> ExitCode {
    match load(path) {
        Ok(d) => {
            let _ = write!(std::io::stdout(), "{}", d.to_csv());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}", e.message());
            e.exit_code()
        }
    }
}

fn cmd_diff(old_path: &str, new_path: &str, rest: &[String]) -> ExitCode {
    let mut opts = DiffOptions::default();
    let mut show_all = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => opts.tolerance = t,
                _ => return usage(),
            },
            "--abs-floor" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f >= 0.0 => opts.abs_floor = f,
                _ => return usage(),
            },
            "--watch" => match it.next() {
                Some(p) => opts.watch.push(p.clone()),
                None => return usage(),
            },
            "--allow-shape-change" => opts.fail_on_shape_change = false,
            "--all" => show_all = true,
            _ => return usage(),
        }
    }

    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {}", e.message());
            return e.exit_code();
        }
    };

    let report = diff(&old, &new, &opts);
    if let Some(reason) = &report.incomparable {
        eprintln!("FAIL: {reason}");
        return ExitCode::from(1);
    }

    let mut shown = 0usize;
    for line in &report.lines {
        if line.kind == DiffKind::Unchanged && !show_all {
            continue;
        }
        shown += 1;
        let tag = match line.kind {
            DiffKind::Unchanged => "  same",
            DiffKind::WithinTolerance => "    ok",
            DiffKind::OutOfTolerance => {
                if line.failing {
                    "  FAIL"
                } else {
                    " drift"
                }
            }
            DiffKind::Added => " added",
            DiffKind::Removed => "removed",
        };
        match line.kind {
            DiffKind::Added => {
                outln!("{tag}  {:<52} -> {}", line.name, line.new);
            }
            DiffKind::Removed => {
                outln!("{tag}  {:<52} {} ->", line.name, line.old);
            }
            _ => {
                outln!(
                    "{tag}  {:<52} {} -> {}  ({:+.2}%)",
                    line.name,
                    line.old,
                    line.new,
                    100.0 * line.rel
                );
            }
        }
    }

    let changed = report.changed().count();
    let failing = report.failing_lines().count();
    outln!(
        "{} stats compared, {changed} changed, {failing} failing (tolerance {:.2}%{})",
        report.lines.len(),
        100.0 * opts.tolerance,
        if opts.watch.is_empty() {
            String::new()
        } else {
            format!(", watching {}", opts.watch.join(" "))
        }
    );
    if shown == 0 && changed == 0 {
        outln!("dumps are identical");
    }
    if report.failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
