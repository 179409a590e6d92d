//! The repository benchmark. One workload per invocation, run through the
//! simulator's public API on one thread for a fixed host-time budget;
//! every output is checked. Prints each metric by name with its unit, and
//! as its last stdout line one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sctr-mcs-32 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
//! ones (see README.md for both lists).

mod layers;
mod probe;
mod refk;
mod run;
mod span;
mod util;

use glocks_stats::json::Json;
use refk::Meter;
use run::{Bench, Rep, SimOut, Spec, INPUT_SETS};
use span::Tracer;
use std::time::Instant;
use util::median;

const USAGE: &str =
    "usage: perfbench --workload <sctr-mcs-32|sctr-glock-32|service-glock-32|chaos-glock-32> \
--seed <n> --seconds <s> --trace <0|1>";

/// Every run makes at least this many reps, whatever `--seconds` says:
/// each input set once, and the first again to check determinism.
const MIN_REPS: usize = INPUT_SETS + 1;
/// Set-up-only samples taken after each rep for the `setup_s` median;
/// spread over the whole run so one slow moment cannot skew them all.
const SETUP_SAMPLES_PER_REP: usize = 16;
/// No rep starts that would likely end past this much host time.
const RUN_LIMIT_S: f64 = 150.0;
/// Figure 8 of the paper: SCTR execution-time reduction of GLocks over MCS.
const PAPER_SCTR_REDUCTION: f64 = 0.33;

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                let s = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0);
                seconds = Some(s.ok_or_else(|| format!("bad seconds {val}"))?);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let sets: Vec<Spec> = (0..INPUT_SETS)
        .map(|j| Spec::new(args.bench, args.seed, j))
        .collect();
    let seeds = |f: fn(&Spec) -> u64| -> String {
        sets.iter()
            .map(|s| format!("{:#x}", f(s)))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "== perfbench {} · seed {} (arrival seeds {}; fault-plan seeds {}) · {} s · trace {} ==",
        args.bench.name(),
        args.seed,
        seeds(|s| s.arrival_seed),
        seeds(|s| s.fault_seed),
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        traced(&sets[0], &args)
    } else {
        untraced(&sets, &args)
    };
    println!("{}", result.to_json());
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let num = |v: f64| Json::Num(if v.is_finite() { v } else { 0.0 });
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = [("value", num(m.value)), ("unit", Json::Str(m.unit.into()))];
                (m.name.to_string(), object(value))
            })
            .collect();
        object([
            ("correct", Json::Bool(self.problems.is_empty())),
            ("attempted", Json::UInt(self.attempted.max(1))),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .encode()
    }
}

fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Reps until `seconds` of host time are spent, at least [`MIN_REPS`];
/// `rep(i)` makes the `i`-th.
fn reps_for(seconds: f64, mut rep: impl FnMut(usize) -> Rep) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(rep(reps.len()));
        let spent = start.elapsed().as_secs_f64();
        let per_rep = spent / reps.len() as f64;
        if (reps.len() >= MIN_REPS && spent >= seconds) || spent + per_rep > RUN_LIMIT_S {
            return reps;
        }
    }
}

/// Checks over all reps: each verified, and every simulated figure equal
/// across the reps of one input set (rep `i` ran set `i % sets`). Also
/// counts operations attempted and failed.
fn judge(reps: &[Rep], sets: usize) -> (Vec<String>, u64, u64) {
    let mut problems = Vec::new();
    let mut signature: Vec<Option<String>> = vec![None; sets];
    for (i, r) in reps.iter().enumerate() {
        match (&r.out, &signature[i % sets]) {
            (Err(e), _) => problems.push(format!("rep {i}: {e}")),
            (Ok(o), None) => signature[i % sets] = Some(o.signature()),
            (Ok(o), Some(s)) if *s != o.signature() => problems.push(format!(
                "rep {i}: simulated metrics differ from rep {} of the same inputs",
                i % sets
            )),
            (Ok(_), Some(_)) => {}
        }
    }
    let attempted = reps.iter().map(|r| r.ops).sum();
    let failed = reps.iter().map(|r| r.failed).sum();
    (problems, attempted, failed)
}

/// The first verified rep of each input set.
fn per_set(reps: &[Rep], sets: usize) -> Vec<&SimOut> {
    (0..sets)
        .filter_map(|j| {
            reps.iter()
                .skip(j)
                .step_by(sets)
                .find_map(|r| r.out.as_ref().ok())
        })
        .collect()
}

fn untraced(sets: &[Spec], args: &Args) -> Outcome {
    let mut off = Tracer::new(false);
    // Set-up samples in host seconds, each with the latest kernel pass before it.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut meter = Meter::on();
    let reps = reps_for(args.seconds, |i| {
        let before = meter.last();
        let rep = sets[i % sets.len()].run_rep(&mut off, &mut meter);
        setups.push((rep.setup_s, before));
        let pass = meter.last();
        setups.extend((0..SETUP_SAMPLES_PER_REP).map(|_| (sets[0].setup_only(), pass)));
        rep
    });
    let setup_plain: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let setup_ref: Vec<f64> = setups.iter().map(|(s, pass)| s / pass).collect();
    let rss = util::peak_rss_mb();
    let (mut problems, attempted, failed) = judge(&reps, sets.len());
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall_refs: Vec<f64> = reps.iter().map(|r| r.wall_ref).collect();
    // Simulated cycles per unit of host time over all verified reps.
    let rate = |time: fn(&Rep) -> f64| -> f64 {
        let (cycles, total) = reps.iter().fold((0.0, 0.0), |(c, t), r| match &r.out {
            Ok(o) => (c + o.report.cycles as f64, t + time(r)),
            Err(_) => (c, t),
        });
        cycles / total
    };
    let outs = per_set(&reps, sets.len());
    let mean =
        |f: fn(&SimOut) -> f64| outs.iter().map(|o| f(o)).sum::<f64>() / outs.len().max(1) as f64;
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setup_ref) * refk::PASS_S,
            unit: "s",
        },
        Metric {
            name: "wall_ref",
            value: median(&wall_refs),
            unit: "ref",
        },
        Metric {
            name: "sim_cycles_per_ref",
            value: rate(|r| r.wall_ref),
            unit: "cycles/ref",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MB",
        },
        Metric {
            name: "sim_cycles",
            value: mean(|o| o.report.cycles as f64),
            unit: "cycles",
        },
        Metric {
            name: "acq_wait_mean_cyc",
            value: mean(|o| o.report.mean_wait.first().copied().unwrap_or(0.0)),
            unit: "cycles",
        },
        Metric {
            name: "noc_bytes",
            value: mean(|o| o.report.traffic.total_bytes() as f64),
            unit: "bytes",
        },
        // The simulator accounts energy in pJ.
        Metric {
            name: "ed2p",
            value: mean(|o| o.report.ed2p * 1e-12),
            unit: "J.cycles2",
        },
        Metric {
            name: "req_p50_cyc",
            value: mean(|o| o.req_p50 as f64),
            unit: "cycles",
        },
        Metric {
            name: "req_p99_cyc",
            value: mean(|o| o.req_p99 as f64),
            unit: "cycles",
        },
    ];
    println!(
        "{} reps over {} input sets ({} verified) · {} set-up samples",
        reps.len(),
        sets.len(),
        reps.iter().filter(|r| r.out.is_ok()).count(),
        setups.len()
    );
    println!(
        "host seconds (quartiles over reps): wall_s {} · reference kernel {} · sim_cycles_per_s {} · setup_s {}",
        quartiles(&walls),
        quartiles(&meter.passes),
        fmt(rate(|r| r.wall_s)),
        fmt(median(&setup_plain))
    );
    println!("end-to-end (host: median over reps, in reference-kernel units, setup_s in reference seconds; simulated: mean over input sets, equal in every rep of a set)");
    for m in &metrics {
        let kind = if matches!(
            m.name,
            "setup_s" | "wall_ref" | "sim_cycles_per_ref" | "peak_rss_mb"
        ) {
            "host"
        } else {
            "simulated"
        };
        println!(
            "  {:<18} {:>22} {:<10} {kind}",
            m.name,
            fmt(m.value),
            m.unit
        );
    }
    if let Some(o) = outs.first() {
        println!(
            "  req_p99_cyc is the {:.1}th percentile of each set's {} requests (>= 10 beyond it)",
            util::tail_q(o.requests) * 100.0,
            o.requests
        );
    }
    println!(
        "  failed_frac        {:>22} ratio      both ({failed} of {attempted} operations)",
        fmt(failed as f64 / attempted.max(1) as f64)
    );
    let cycles = outs.first().map_or(0, |o| o.report.cycles);
    accuracy(&sets[0], args.seed, cycles, &mut problems);
    report_checks(&problems, reps.len());
    Outcome {
        problems,
        attempted,
        failed,
        metrics,
    }
}

/// The model-accuracy line: SCTR GLock-vs-MCS cycle reduction beside the
/// paper's Figure 8. The other SCTR machine runs once, untimed.
fn accuracy(spec: &Spec, seed: u64, cycles: u64, problems: &mut Vec<String>) {
    let partner = match spec.bench {
        Bench::SctrMcs => Bench::SctrGlock,
        Bench::SctrGlock => Bench::SctrMcs,
        Bench::Service | Bench::Chaos => {
            println!("model accuracy: unvalidated (no reference result for this workload)");
            return;
        }
    };
    let other = Spec::new(partner, seed, 0).run_rep(&mut Tracer::new(false), &mut Meter::off());
    let other_cycles = match &other.out {
        Ok(o) => o.report.cycles,
        Err(e) => {
            problems.push(format!("{} reference run: {e}", partner.name()));
            return;
        }
    };
    let (glock, mcs) = if spec.bench == Bench::SctrGlock {
        (cycles, other_cycles)
    } else {
        (other_cycles, cycles)
    };
    let reduction = 1.0 - glock as f64 / mcs.max(1) as f64;
    println!(
        "model accuracy: SCTR GLock vs MCS cycle reduction {:.1}% (GLock {glock} / MCS {mcs} cycles); \
paper Fig. 8: {:.0}% (difference {:+.1} points)",
        reduction * 100.0,
        PAPER_SCTR_REDUCTION * 100.0,
        (reduction - PAPER_SCTR_REDUCTION) * 100.0
    );
}

fn traced(spec: &Spec, args: &Args) -> Outcome {
    let mut problems = Vec::new();
    let probes = probe::run(args.seed).unwrap_or_else(|e| {
        problems.push(e);
        probe::Probes::default()
    });
    // SCTR runs with stats off; a stats-on run of the same inputs gives the
    // layer counters (turning stats on does not change the simulation).
    let harvest = (!spec.stats).then(|| {
        Spec {
            stats: true,
            ..*spec
        }
        .run_rep(&mut Tracer::new(false), &mut Meter::off())
    });
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut refs = Vec::new();
    let reps = reps_for(args.seconds, |i| {
        let rep = if i % 2 == 0 {
            spec.run_rep(&mut off, &mut Meter::off())
        } else {
            spec.run_rep(&mut on, &mut Meter::off())
        };
        refs.push(refk::time());
        rep
    });
    let (mut found, mut attempted, mut failed) = judge(&reps, 1);
    problems.append(&mut found);
    if let Some(h) = &harvest {
        attempted += h.ops;
        failed += h.failed;
        match (&h.out, per_set(&reps, 1).first()) {
            (Err(e), _) => problems.push(format!("stats-on run: {e}")),
            (Ok(h), Some(o)) if h.report.cycles != o.report.cycles => {
                problems.push("turning stats on changed sim_cycles".into())
            }
            _ => {}
        }
    }
    let wall = |parity: usize| -> f64 {
        let xs: Vec<f64> = reps
            .iter()
            .skip(parity)
            .step_by(2)
            .map(|r| r.wall_s)
            .collect();
        median(&xs)
    };
    let self_times: Vec<_> = on.self_times().into_values().collect();
    let traced_out = reps
        .iter()
        .skip(1)
        .step_by(2)
        .find_map(|r| r.out.as_ref().ok());
    let dump = harvest
        .as_ref()
        .and_then(|h| h.out.as_ref().ok())
        .or(traced_out)
        .and_then(SimOut::dump);
    let metrics = match (traced_out, dump) {
        (Some(out), Some(dump)) => {
            let src = layers::Sources {
                traced: &self_times,
                out,
                dump,
                probes: &probes,
                wall_s: wall(0),
                ref_s: median(&refs),
                overhead_s: wall(1) - wall(0),
            };
            layers::values(&src)
        }
        _ => {
            problems.push("no verified traced rep to read layers from".into());
            vec![0.0; layers::ROWS.len()]
        }
    };
    println!(
        "{} reps, alternating untraced/traced · untraced wall_s {} · traced wall_s {}",
        reps.len(),
        fmt(wall(0)),
        fmt(wall(1))
    );
    println!(
        "per layer (spans: median over traced reps; counters: stats dump; probes: median of rounds)"
    );
    println!(
        "  {:<16} {:<28} {:>16} {:<7} {:<30} where",
        "layer", "metric", "value", "unit", "moves"
    );
    for (row, v) in layers::ROWS.iter().zip(&metrics) {
        println!(
            "  {:<16} {:<28} {:>16} {:<7} {:<30} {}",
            row.layer,
            row.name,
            fmt(*v),
            row.unit,
            row.moves,
            row.on
        );
    }
    println!("self time per span name (median over traced reps)");
    let names: std::collections::BTreeSet<&str> =
        self_times.iter().flat_map(|m| m.keys().copied()).collect();
    for name in names {
        println!(
            "  {name:<18} {:>14} s over {} spans",
            fmt(layers::per_rep(&self_times, name, |s| s.self_s)),
            layers::per_rep(&self_times, name, |s| s.count as f64)
        );
    }
    write_spans(&on, args);
    report_checks(&problems, reps.len());
    let metrics = layers::ROWS
        .iter()
        .zip(metrics)
        .map(|(row, value)| Metric {
            name: row.name,
            value,
            unit: row.unit,
        })
        .collect();
    Outcome {
        problems,
        attempted,
        failed,
        metrics,
    }
}

/// Spans are kept in memory during the run and written out here.
fn write_spans(tr: &Tracer, args: &Args) {
    let dir = std::path::Path::new("perfbench/target/spans");
    let path = dir.join(format!("{}-seed{}.jsonl", args.bench.name(), args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

fn report_checks(problems: &[String], reps: usize) {
    if problems.is_empty() {
        println!("checks: passed on all {reps} reps");
    }
    for p in problems {
        println!("CHECK FAILED: {p}");
    }
}

fn quartiles(xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    if v.is_empty() {
        return "-".into();
    }
    format!("{} / {} / {}", fmt(at(0.25)), fmt(at(0.5)), fmt(at(0.75)))
}

/// Human-readable number: integers as such, others to 6 significant digits.
fn fmt(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}
