//! Full-stack fault-injection tests: the assembled simulator under seeded
//! fault schedules.
//!
//! Two regimes matter. At survivable loss rates (≥1% of G-line signals
//! dropped) the hardened protocol must deliver a *correct* run — exact
//! final counter, one grant per workload acquire, round-robin fairness
//! modulo retries — with no panics. At fatal rates (all TOKEN delivery
//! suppressed, here via 100% signal loss) the runner must hand back a
//! structured [`SimError`] with a populated diagnostic snapshot instead of
//! aborting the process.

use glocks_cpu::{Action, CoreActivity, Workload};
use glocks_locks::LockAlgorithm;
use glocks_mem::MemOp;
use glocks_sim::{CheckerConfig, LockMapping, SimError, Simulation, SimulationOptions};
use glocks_sim_base::fault::{FaultPlan, FaultRates};
use glocks_sim_base::{Addr, CmpConfig, LockId};

const COUNTER: Addr = Addr(0x200_0000);

/// Lock-increment-release loop: `iters` critical sections per core, each
/// bumping one shared counter — any mutual-exclusion violation shows up as
/// a lost increment.
struct Counter {
    iters: u64,
    phase: u8,
    seen: u64,
}

impl Workload for Counter {
    fn next(&mut self, last: u64) -> Action {
        match self.phase {
            0 => {
                if self.iters == 0 {
                    return Action::Done;
                }
                self.phase = 1;
                Action::Acquire(LockId(0))
            }
            1 => {
                self.phase = 2;
                Action::Mem(MemOp::Load(COUNTER))
            }
            2 => {
                self.seen = last;
                self.phase = 3;
                Action::Mem(MemOp::Store(COUNTER, self.seen + 1))
            }
            _ => {
                self.iters -= 1;
                self.phase = 0;
                Action::Release(LockId(0))
            }
        }
    }
}

fn build(cores: usize, iters: u64, plan: FaultPlan, watchdog: u64) -> Simulation {
    let cfg = CmpConfig::paper_baseline().with_cores(cores);
    let mapping = LockMapping::uniform(LockAlgorithm::Glock, 1);
    let workloads = (0..cores)
        .map(|_| Box::new(Counter { iters, phase: 0, seen: 0 }) as Box<dyn Workload>)
        .collect();
    let opts = SimulationOptions {
        checker: Some(CheckerConfig { every: 1000, ..Default::default() }),
        fault_plan: Some(plan),
        watchdog_cycles: watchdog,
        ..Default::default()
    };
    Simulation::new(&cfg, &mapping, workloads, &[], opts)
}

#[test]
fn one_percent_gline_loss_is_survived_correctly() {
    let cores = 9;
    let iters = 6;
    let mut plan = FaultPlan::seeded(0xC0FFEE);
    plan.gline = FaultRates::drops(10_000); // 1%
    let (report, mem) = build(cores, iters, plan, 500_000)
        .run()
        .expect("1% signal loss must be recovered by retransmission");
    // Exact counter: every critical section ran exactly once, atomically.
    let expected = cores as u64 * iters;
    assert_eq!(mem.store().load(COUNTER), expected);
    assert_eq!(report.acquires[0], expected);
    // Grants count accepted tokens only, so they stay exact under faults.
    assert_eq!(report.glocks[0].grants, expected);
    // The schedule actually injected faults and the protocol actually
    // recovered (a vacuous pass would defeat the test).
    assert!(report.glocks[0].dropped > 0, "seed produced no drops");
    assert!(report.glocks[0].retransmits > 0, "drops must force retransmissions");
}

#[test]
fn heavier_mixed_faults_keep_round_robin_fairness_modulo_retries() {
    let cores = 8;
    let iters = 8;
    let mut plan = FaultPlan::seeded(7);
    plan.gline = FaultRates {
        drop_ppm: 30_000,
        delay_ppm: 50_000,
        max_delay: 48,
        duplicate_ppm: 20_000,
    };
    let (report, mem) = build(cores, iters, plan, 500_000)
        .run()
        .expect("mixed fault schedule must be survivable");
    assert_eq!(mem.store().load(COUNTER), cores as u64 * iters);
    // Round-robin fairness modulo retries: the arbiter scan still hands
    // every core exactly its share, so per-lock mean waits stay bounded
    // and every core finished all its iterations (the counter proves it).
    assert_eq!(report.glocks[0].grants, cores as u64 * iters);
}

#[test]
fn total_signal_loss_reports_a_structured_wedge() {
    let mut plan = FaultPlan::seeded(1);
    plan.gline = FaultRates::drops(1_000_000); // every signal lost
    let err = match build(4, 2, plan, 50_000).run() {
        Ok(_) => panic!("no token can ever arrive, yet the run completed"),
        Err(e) => e,
    };
    let SimError::NoForwardProgress { window, ref snapshot } = err else {
        panic!("expected NoForwardProgress, got {}", err.kind());
    };
    assert_eq!(window, 50_000);
    // The snapshot must actually describe the wedge.
    assert_eq!(snapshot.cores.len(), 4);
    assert!(
        snapshot
            .cores
            .iter()
            .any(|c| matches!(c.activity, CoreActivity::Acquiring(LockId(0)))),
        "cores should be stuck acquiring: {:?}",
        snapshot.cores
    );
    assert_eq!(snapshot.locks.len(), 1);
    assert_eq!(snapshot.locks[0].holder, None, "no grant ever happened");
    assert_eq!(snapshot.glocks.len(), 1);
    assert_eq!(snapshot.glocks[0].stats.grants, 0);
    assert!(snapshot.glocks[0].stats.dropped > 0);
    // Display renders the whole picture without panicking.
    let rendered = err.to_string();
    assert!(rendered.contains("no forward progress"), "{rendered}");
    assert!(rendered.contains("Acquiring"), "{rendered}");
}

#[test]
fn noc_and_directory_delays_are_absorbed() {
    let mut plan = FaultPlan::seeded(99);
    plan.noc = FaultRates::delays(100_000, 24); // 10% of packets late
    plan.dir = FaultRates::delays(100_000, 32); // 10% of dir replies stalled
    let cores = 4;
    let iters = 4;
    let (report, mem) = build(cores, iters, plan, 500_000)
        .run()
        .expect("delays alone never kill liveness");
    assert_eq!(mem.store().load(COUNTER), cores as u64 * iters);
    assert_eq!(report.acquires[0], cores as u64 * iters);
}

#[test]
fn fault_runs_are_deterministic() {
    let run = || {
        let mut plan = FaultPlan::seeded(0xDE7);
        plan.gline = FaultRates {
            drop_ppm: 20_000,
            delay_ppm: 30_000,
            max_delay: 16,
            duplicate_ppm: 10_000,
        };
        let (report, _) = build(6, 5, plan, 500_000).run().expect("survivable");
        (report.cycles, report.glocks[0].signals, report.glocks[0].retransmits)
    };
    assert_eq!(run(), run(), "same seed must replay bit-identically");
}
