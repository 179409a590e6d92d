//! Whole-workspace integration through the façade crate's public API.

use glocks_repro::prelude::*;
use glocks_repro::sim::CheckerConfig;
use glocks_repro::sim_base::fault::FaultPlan;

fn run(
    kind: BenchKind,
    threads: usize,
    mapping: &LockMapping,
    opts: SimulationOptions,
) -> (SimReport, Result<(), String>) {
    let bench = BenchConfig::smoke(kind, threads);
    let inst = bench.build();
    let cfg = CmpConfig::paper_baseline().with_cores(threads);
    let sim = Simulation::new(&cfg, mapping, inst.workloads, &inst.init, opts);
    let (report, mem) = sim.run().expect("simulation wedged");
    let v = (inst.verify)(mem.store());
    (report, v)
}

#[test]
fn every_benchmark_under_the_paper_configurations() {
    for kind in BenchKind::ALL {
        let bench = BenchConfig::smoke(kind, 8);
        for algo in [LockAlgorithm::Mcs, LockAlgorithm::Glock] {
            let mapping = LockMapping::hybrid(&bench.hc_locks(), algo, bench.n_locks());
            let (report, verify) = run(kind, 8, &mapping, Default::default());
            verify.unwrap_or_else(|e| panic!("{kind:?}/{algo:?}: {e}"));
            assert!(report.cycles > 0);
            let f = report.avg_fractions();
            assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{kind:?}: fractions {f:?}");
        }
    }
}

#[test]
fn glock_networks_report_activity() {
    let bench = BenchConfig::smoke(BenchKind::Actr, 8);
    let mapping = LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Glock, bench.n_locks());
    let (report, verify) = run(BenchKind::Actr, 8, &mapping, Default::default());
    verify.unwrap();
    assert_eq!(report.glocks.len(), 2, "ACTR maps two locks to hardware");
    for (i, g) in report.glocks.iter().enumerate() {
        assert!(g.grants > 0, "GLock {i} never granted");
        assert!(g.signals >= 4 * g.grants, "GLock {i} signal count implausible");
    }
}

#[test]
fn invariant_checked_run_stays_clean() {
    let opts = SimulationOptions {
        checker: Some(CheckerConfig { every: 500, ..Default::default() }),
        ..Default::default()
    };
    let bench = BenchConfig::smoke(BenchKind::Dbll, 8);
    let mapping = LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Glock, bench.n_locks());
    let (_, verify) = run(BenchKind::Dbll, 8, &mapping, opts);
    verify.unwrap();
}

#[test]
fn bounded_waiting_is_not_held_against_the_software_fallback() {
    // Once every G-line network is dead, acquires replay on the TATAS
    // fallback word, which promises no admission order: the arbiter's
    // one-lap bound must not be checked there. A window this tight trips
    // within the first few grants after the failover if it is.
    let checker = Some(CheckerConfig { every: 1024, fairness_window: 20_000 });
    let mut killed = FaultPlan::seeded(0xC4A0);
    killed.kill_all_glock_networks(1, 1_000, 5_000);
    let mapping = LockMapping::uniform(LockAlgorithm::Glock, 1);
    for fault_plan in [None, Some(killed)] {
        let faulted = fault_plan.is_some();
        let opts = SimulationOptions { fault_plan, checker, ..Default::default() };
        let (report, verify) = run(BenchKind::Sctr, 8, &mapping, opts);
        verify.unwrap_or_else(|e| panic!("faulted={faulted}: {e}"));
        assert_eq!(report.acquires, [160], "faulted={faulted}");
    }
}

#[test]
fn hierarchical_glocks_on_a_64_core_cmp() {
    // Beyond the 7×7 flat limit: the runner switches to the hierarchical
    // topology automatically.
    let bench = BenchConfig::smoke(BenchKind::Sctr, 64);
    let mapping = LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Glock, bench.n_locks());
    let (report, verify) = run(BenchKind::Sctr, 64, &mapping, Default::default());
    verify.unwrap();
    assert_eq!(report.glocks[0].grants, report.acquires[0]);
}

#[test]
fn forced_hierarchy_matches_flat_results_functionally() {
    let bench = BenchConfig::smoke(BenchKind::Sctr, 16);
    let mapping = LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Glock, bench.n_locks());
    let (flat, v1) = run(BenchKind::Sctr, 16, &mapping, Default::default());
    let opts = SimulationOptions { force_hierarchical_glocks: true, ..Default::default() };
    let (hier, v2) = run(BenchKind::Sctr, 16, &mapping, opts);
    v1.unwrap();
    v2.unwrap();
    assert_eq!(flat.acquires, hier.acquires);
    // identical protocol depth at 16 cores (4 rows ≤ 7 fan-in) ⇒ close
    // timing
    let ratio = hier.cycles as f64 / flat.cycles as f64;
    assert!((0.9..1.1).contains(&ratio), "flat {} vs hier {}", flat.cycles, hier.cycles);
}

#[test]
fn figure1_mappings_work_through_the_facade() {
    let bench = BenchConfig::smoke(BenchKind::Raytr, 8);
    let hc = bench.hc_locks();
    for x in 0..=2 {
        let mapping = LockMapping::tatas_x(&hc, x, bench.n_locks());
        let (_, verify) = run(BenchKind::Raytr, 8, &mapping, Default::default());
        verify.unwrap_or_else(|e| panic!("TATAS-{x}: {e}"));
    }
}
