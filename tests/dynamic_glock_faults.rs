//! Dynamically-shared GLocks under hardware deaths and repairs.
//!
//! Pool-bound locks use the same GLock driver as statically mapped ones,
//! so a network that dies mid-episode must fail over to software with no
//! lost acquire, and a repaired network — untrusted, and never failed back
//! by the pool — must not serve an acquire that joins an episode still
//! pinned to it while a software holder is inside.

use glocks_repro::prelude::*;
use glocks_repro::sim::CheckerConfig;
use glocks_repro::sim_base::fault::FaultPlan;

fn run(kind: BenchKind, fault_plan: Option<FaultPlan>) -> SimReport {
    let bench = BenchConfig::smoke(kind, 8);
    let inst = bench.build();
    let cfg = CmpConfig::paper_baseline().with_cores(8);
    let mapping = LockMapping::uniform(LockAlgorithm::DynamicGlock, bench.n_locks());
    let options = SimulationOptions {
        fault_plan,
        checker: Some(CheckerConfig::default()),
        ..Default::default()
    };
    let sim = Simulation::new(&cfg, &mapping, inst.workloads, &inst.init, options);
    let (report, mem) = sim.run().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    (inst.verify)(mem.store()).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    report
}

#[test]
fn pool_bound_glocks_survive_network_death_and_repair() {
    for kind in [BenchKind::Sctr, BenchKind::Actr, BenchKind::Dbll] {
        let clean = run(kind, None);
        let mut kill = FaultPlan::seeded(0xC4A0);
        kill.kill_all_glock_networks(2, 500, 2_000);
        let mut blink = FaultPlan::seeded(0xC4A0);
        blink.blink_all_glock_networks(2, 500, 2_000, 40_000);
        for (scenario, plan) in [("kill", kill), ("kill+repair", blink)] {
            let report = run(kind, Some(plan));
            assert_eq!(
                report.acquires, clean.acquires,
                "{kind:?} {scenario}: acquire counts"
            );
            let pool = report.pool.expect("dynamic runs report the binding table");
            assert!(
                pool.failovers > 0,
                "{kind:?} {scenario}: nothing failed over"
            );
        }
    }
}
