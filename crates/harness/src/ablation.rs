//! Ablation studies beyond the paper's evaluation, probing the design
//! choices DESIGN.md calls out:
//!
//! * the full lock-algorithm sweep across contention levels (the paper's
//!   Section II narrative: simple locks win uncontended, queue locks win
//!   contended, GLocks win everywhere);
//! * G-line latency sensitivity (the paper's "longer-latency G-lines"
//!   scaling path, Section III-F);
//! * hierarchical vs flat GLock networks, including CMPs beyond the
//!   49-core flat limit.

use crate::exp::{self, ExpOptions, Finished, RunSpec};
use glocks_locks::LockAlgorithm;
use glocks_sim::{LockMapping, SimReport, SimulationOptions};
use glocks_sim_base::table::TextTable;
use glocks_sim_base::CmpConfig;
use glocks_workloads::{BenchConfig, BenchKind};

/// One ablation run of `bench`, its dump tagged `tag` and its meta naming
/// the benchmark and the lock. A wedged run is logged and comes back as
/// `None`, so the rest of the sweep still renders.
fn run_tagged(
    opts: &ExpOptions,
    tag: String,
    bench: &BenchConfig,
    cfg: CmpConfig,
    mapping: LockMapping,
    options: SimulationOptions,
) -> Option<SimReport> {
    let meta = vec![
        ("bench", bench.kind.name().to_string()),
        ("lock", mapping.label().to_string()),
    ];
    let spec = RunSpec { tag, meta, cfg, mapping, options };
    exp::try_run(opts, spec, || bench.build()).map(Finished::verified)
}

/// One ablation cell, tagged like a standard benchmark run.
fn run_once(
    opts: &ExpOptions,
    cfg: CmpConfig,
    bench: &BenchConfig,
    mapping: LockMapping,
    options: SimulationOptions,
) -> Option<u64> {
    let tag = format!("{}_{}_{}t", bench.kind.name(), mapping.label(), bench.threads);
    run_tagged(opts, tag, bench, cfg, mapping, options).map(|r| r.cycles)
}

/// Render an ablation cell, keeping wedged configurations visible.
fn cell(cycles: Option<u64>) -> String {
    cycles.map_or_else(|| "wedged".to_string(), |c| c.to_string())
}

/// Every lock algorithm on SCTR across thread counts: execution time in
/// cycles (lower is better). Shows the low/high-contention crossover that
/// motivates the paper's hybrid scheme.
pub fn algorithm_sweep(opts: &ExpOptions) -> TextTable {
    let algos = [
        LockAlgorithm::Simple,
        LockAlgorithm::Tatas,
        LockAlgorithm::TatasBackoff,
        LockAlgorithm::Ticket,
        LockAlgorithm::Anderson,
        LockAlgorithm::Mcs,
        LockAlgorithm::Reactive,
        LockAlgorithm::MpLock,
        LockAlgorithm::SyncBuf,
        LockAlgorithm::Glock,
        LockAlgorithm::Ideal,
    ];
    let threads = if opts.quick { vec![2usize, 4, 8] } else { vec![2usize, 4, 8, 16, 32] };
    let mut t = TextTable::new("Ablation — lock algorithms on SCTR (cycles)").header(
        std::iter::once("algorithm".to_string())
            .chain(threads.iter().map(|n| format!("{n} cores")))
            .collect::<Vec<_>>(),
    );
    for algo in algos {
        let mut row = vec![algo.name().to_string()];
        for &n in &threads {
            let bench = opts.bench_on(BenchKind::Sctr, n);
            let cfg = CmpConfig::paper_baseline().with_cores(n);
            let mapping = LockMapping::uniform(algo, 1);
            let cycles = run_once(opts, cfg, &bench, mapping, SimulationOptions::default());
            row.push(cell(cycles));
        }
        t.row(row);
    }
    t
}

/// SCTR under GLocks with longer G-line latencies.
pub fn gline_latency_sweep(opts: &ExpOptions) -> TextTable {
    let mut t = TextTable::new("Ablation — G-line latency sensitivity (SCTR, GLocks)")
        .header(["G-line latency", "cycles", "vs 1-cycle"]);
    let mut base = 0u64;
    for lat in [1u64, 2, 4, 8] {
        let mut cfg = CmpConfig::paper_baseline().with_cores(opts.threads);
        cfg.glocks.gline_latency = lat;
        let bench = opts.bench(BenchKind::Sctr);
        let mapping = LockMapping::uniform(LockAlgorithm::Glock, 1);
        let Some(cycles) = run_once(opts, cfg, &bench, mapping, SimulationOptions::default()) else {
            continue;
        };
        if lat == 1 {
            base = cycles;
        }
        t.row([
            format!("{lat} cycle(s)"),
            cycles.to_string(),
            format!("{:.2}x", cycles as f64 / base as f64),
        ]);
    }
    t
}

/// Flat vs hierarchical GLock topology at the baseline size, and
/// hierarchical-only scaling to 64 cores (beyond the flat limit).
pub fn hierarchy_study(opts: &ExpOptions) -> TextTable {
    let mut t = TextTable::new("Ablation — GLock topology (SCTR, GLocks)")
        .header(["configuration", "cores", "cycles"]);
    let bench = opts.bench(BenchKind::Sctr);
    let cfg = CmpConfig::paper_baseline().with_cores(opts.threads);
    let mapping = LockMapping::uniform(LockAlgorithm::Glock, 1);
    let flat = run_once(opts, cfg, &bench, mapping.clone(), SimulationOptions::default());
    t.row(["flat".to_string(), opts.threads.to_string(), cell(flat)]);
    let o = SimulationOptions { force_hierarchical_glocks: true, ..Default::default() };
    let hier = run_once(opts, cfg, &bench, mapping.clone(), o);
    t.row(["hierarchical".to_string(), opts.threads.to_string(), cell(hier)]);
    // Beyond the flat limit: 64 cores (only reachable hierarchically).
    let big = 64;
    let bench64 = opts.bench_on(BenchKind::Sctr, big);
    let cfg64 = CmpConfig::paper_baseline().with_cores(big);
    let c64 = run_once(opts, cfg64, &bench64, mapping, SimulationOptions::default());
    t.row(["hierarchical".to_string(), big.to_string(), cell(c64)]);
    t
}

/// Grant-fairness comparison: coefficient of variation of per-thread grant
/// counts on a saturated lock, per algorithm.
pub fn fairness_study(opts: &ExpOptions) -> TextTable {
    let mut t = TextTable::new("Ablation — fairness on saturated SCTR")
        .header(["algorithm", "grants min/max per thread", "max wait (cycles)"]);
    for algo in [
        LockAlgorithm::Tatas,
        LockAlgorithm::Mcs,
        LockAlgorithm::Glock,
    ] {
        let bench = opts.bench(BenchKind::Sctr);
        let cfg = CmpConfig::paper_baseline().with_cores(opts.threads);
        let mapping = LockMapping::uniform(algo, 1);
        let tag = format!("fairness_{}_{}t", algo.name(), bench.threads);
        let Some(report) = run_tagged(opts, tag, &bench, cfg, mapping, SimulationOptions::default())
        else {
            continue;
        };
        // Per-thread acquisition counts are fixed by the workload (each
        // thread performs its share), so fairness shows in the wait time.
        t.row([
            algo.name().to_string(),
            format!("{}", report.acquires[0]),
            format!("{:.0}", report.mean_wait[0]),
        ]);
    }
    t
}

/// Dynamic GLock sharing (Section V future work) on RAYTR: all 34 locks
/// share the 2 physical GLocks through the binding table — no programmer
/// annotation — versus the paper's static hybrid and the MCS baseline.
pub fn dynamic_sharing_study(opts: &ExpOptions) -> TextTable {
    let mut t = TextTable::new(
        "Ablation — dynamic GLock sharing on RAYTR (34 locks, 2 physical GLocks)",
    )
    .header(["configuration", "cycles", "hw acquires", "spills", "binds"]);
    let bench = opts.bench(BenchKind::Raytr);
    let cfg = CmpConfig::paper_baseline().with_cores(opts.threads);
    let run = |tag: &str, mapping: LockMapping| {
        let tag = format!("sharing_{tag}_{}t", bench.threads);
        run_tagged(opts, tag, &bench, cfg, mapping, SimulationOptions::default())
            .expect("dynamic-sharing ablation wedged")
    };
    // MCS hybrid baseline.
    let mapping = LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Mcs, bench.n_locks());
    let r = run("mcs-hybrid", mapping);
    t.row(["MCS hybrid".to_string(), r.cycles.to_string(), "-".into(), "-".into(), "-".into()]);
    // Static GLocks (the paper's configuration: programmer names the HC locks).
    let mapping = LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Glock, bench.n_locks());
    let r = run("static-glocks", mapping);
    t.row(["static GLocks".to_string(), r.cycles.to_string(), "-".into(), "-".into(), "-".into()]);
    // Dynamic sharing: every lock uses the pool.
    let mapping = LockMapping::uniform(LockAlgorithm::DynamicGlock, bench.n_locks());
    let r = run("dynamic-glocks", mapping);
    let p = r.pool.expect("pool stats");
    t.row([
        "dynamic GLocks".to_string(),
        r.cycles.to_string(),
        p.hw_acquires.to_string(),
        p.spills.to_string(),
        p.binds.to_string(),
    ]);
    t
}

/// Barrier mechanisms (the companion G-line barrier of reference \[22\])
/// on the barrier-heavy benchmarks: the software combining tree vs the
/// hardware arrive/release network, both with GLocks for the locks.
pub fn barrier_study(opts: &ExpOptions) -> TextTable {
    let mut t = TextTable::new(
        "Ablation — barrier mechanism (GLocks for locks): software tree vs G-line barrier",
    )
    .header(["benchmark", "tree barrier", "G-line barrier", "reduction"]);
    for kind in [BenchKind::Actr, BenchKind::Ocean] {
        let bench = opts.bench(kind);
        let cfg = CmpConfig::paper_baseline().with_cores(opts.threads);
        let mapping = LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Glock, bench.n_locks());
        let sw = run_once(opts, cfg, &bench, mapping.clone(), SimulationOptions::default());
        let hw_opts = SimulationOptions { hardware_barrier: true, ..Default::default() };
        let hw = run_once(opts, cfg, &bench, mapping, hw_opts);
        let reduction = match (sw, hw) {
            (Some(s), Some(h)) => format!("{:.1}%", (1.0 - h as f64 / s as f64) * 100.0),
            _ => "-".to_string(),
        };
        t.row([kind.name().to_string(), cell(sw), cell(hw), reduction]);
    }
    t
}

/// Robustness of Figure 10's conclusion to the energy constants: scale
/// each component family ×4 and recompute SCTR's normalized ED²P. The
/// GL/MCS ratio must stay clearly below 1 regardless — the reduction comes
/// from event-count and delay ratios, not from the absolute constants.
///
/// The constants only enter the post-run accounting, so SCTR runs once
/// per lock and each family re-accounts those two reports. A family's
/// constants feed exactly its own components of the `EnergyReport`, and
/// ×4 is exact in binary floating point, so scaling the accounted
/// components gives the same bits as simulating with scaled constants.
pub fn energy_sensitivity(opts: &ExpOptions) -> TextTable {
    use glocks_energy::EnergyReport;
    let mut t = TextTable::new("Ablation — ED2P sensitivity to energy constants (SCTR)")
        .header(["scaled component (x4)", "GL/MCS ED2P"]);
    let bench = opts.bench(BenchKind::Sctr);
    let cfg = CmpConfig::paper_baseline().with_cores(opts.threads);
    let run = |algo: LockAlgorithm| {
        let tag = format!("energy_{}_{}t", algo.name(), bench.threads);
        let mapping = LockMapping::uniform(algo, bench.n_locks());
        run_tagged(opts, tag, &bench, cfg, mapping, SimulationOptions::default())
            .expect("energy-sensitivity ablation wedged")
    };
    let (gl, mcs) = (run(LockAlgorithm::Glock), run(LockAlgorithm::Mcs));
    // Multiplies one family's components of an accounted energy by 4.
    type Scale = fn(&mut EnergyReport);
    let families: [(&str, Scale); 7] = [
        ("baseline", |_| {}),
        ("core", |e| e.core_pj *= 4.0),
        ("caches", |e| {
            e.l1_pj *= 4.0;
            e.l2_dir_pj *= 4.0;
        }),
        ("memory", |e| e.mem_pj *= 4.0),
        ("network", |e| e.noc_pj *= 4.0),
        ("G-lines", |e| e.glock_pj *= 4.0),
        ("leakage", |e| e.leak_pj *= 4.0),
    ];
    for (name, scale) in families {
        let ed2p = |r: &SimReport| {
            let mut energy = r.energy;
            scale(&mut energy);
            energy.ed2p(r.cycles)
        };
        let ratio = ed2p(&gl) / ed2p(&mcs);
        t.row([name.to_string(), format!("{ratio:.3}")]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpOptions {
        ExpOptions { quick: true, threads: 8, ..Default::default() }
    }

    #[test]
    fn sweep_runs_all_algorithms() {
        let t = algorithm_sweep(&quick());
        assert_eq!(t.n_rows(), 11);
    }

    #[test]
    fn gline_latency_monotone() {
        let t = gline_latency_sweep(&quick());
        assert_eq!(t.n_rows(), 4);
    }

    #[test]
    fn hierarchy_matches_flat_closely() {
        let t = hierarchy_study(&quick());
        assert_eq!(t.n_rows(), 3);
    }

    #[test]
    fn dynamic_sharing_works_unannotated() {
        let t = dynamic_sharing_study(&quick());
        assert_eq!(t.n_rows(), 3);
    }

    #[test]
    fn hardware_barrier_helps_barrier_heavy_benchmarks() {
        let t = barrier_study(&quick());
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn ed2p_conclusion_is_constant_robust() {
        let t = energy_sensitivity(&quick());
        assert_eq!(t.n_rows(), 7);
        // every row's ratio stays below 1
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            let ratio: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!(ratio < 1.0, "ED2P conclusion flipped: {line}");
        }
    }
}
