//! The simulator must be bit-reproducible: identical configurations give
//! identical cycle counts, traffic, energy, and contention profiles.

use glocks_repro::noc::TrafficClass;
use glocks_repro::prelude::*;
use glocks_repro::workloads::Verifier;

fn run_once(kind: BenchKind, algo: LockAlgorithm, threads: usize) -> (Cycle, u64, u64, String) {
    let bench = BenchConfig::smoke(kind, threads);
    let inst = bench.build();
    let cfg = CmpConfig::paper_baseline().with_cores(threads);
    let mapping = LockMapping::hybrid(&bench.hc_locks(), algo, bench.n_locks());
    let sim = Simulation::new(&cfg, &mapping, inst.workloads, &inst.init, Default::default());
    let (report, mem) = sim.run().expect("simulation wedged");
    (inst.verify)(mem.store()).expect("verify");
    (
        report.cycles,
        report.traffic.total_bytes(),
        report.instructions(),
        format!("{:?}", report.lcr),
    )
}

#[test]
fn identical_runs_are_identical() {
    for kind in [BenchKind::Sctr, BenchKind::Qsort, BenchKind::Raytr] {
        for algo in [LockAlgorithm::Mcs, LockAlgorithm::Glock] {
            let a = run_once(kind, algo, 8);
            let b = run_once(kind, algo, 8);
            assert_eq!(a, b, "{kind:?}/{algo:?} diverged between runs");
        }
    }
}

#[test]
fn different_seeds_change_app_kernels() {
    let mut bench = BenchConfig::smoke(BenchKind::Qsort, 8);
    let build = |b: &BenchConfig| {
        let inst = b.build();
        let cfg = CmpConfig::paper_baseline().with_cores(8);
        let mapping = LockMapping::hybrid(&b.hc_locks(), LockAlgorithm::Mcs, b.n_locks());
        let sim = Simulation::new(&cfg, &mapping, inst.workloads, &inst.init, Default::default());
        let (report, mem) = sim.run().expect("simulation wedged");
        (inst.verify)(mem.store()).expect("verify");
        report.cycles
    };
    let a = build(&bench);
    bench.seed ^= 0xDEAD_BEEF;
    let b = build(&bench);
    assert_ne!(a, b, "seed must influence the generated input data");
}

/// Run `sim` to the end, verify the program's result, and return the
/// figures the 100-core test pins: cycles, acquires, request/reply/
/// coherence bytes, messages, hops and directory transactions.
fn mesh_figures(sim: Simulation, verify: Verifier) -> (Cycle, u64, [u64; 3], u64, u64, u64) {
    let (report, mem) = sim.run().expect("simulation wedged");
    verify(mem.store()).expect("verify");
    let t = report.traffic;
    (
        report.cycles,
        report.acquires.iter().sum(),
        [TrafficClass::Request, TrafficClass::Reply, TrafficClass::Coherence].map(|c| t.bytes(c)),
        t.total_messages(),
        t.total_hops(),
        mem.dir_counts().map(|c| c.txn).sum(),
    )
}

/// A 100-core SCTR/MCS run on a 10×10 mesh spans two words of the NoC's
/// router activity set and stays below the directory's 128-core sharer
/// mask. Its figures are pinned as `glocks-run --bench SCTR --lock MCS
/// --threads 100 --mesh 10x10 --quick` reports them, for a straight run
/// and for one checkpointed mid-way and resumed into a rebuilt machine.
#[test]
fn hundred_core_mesh_run_is_pinned_straight_and_resumed() {
    let bench = BenchConfig::smoke(BenchKind::Sctr, 100);
    let cfg = CmpConfig::paper_baseline().with_cores(100).with_mesh(Mesh2D::new(10, 10));
    let mapping = LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Mcs, bench.n_locks());
    let pinned = (141_009, 160, [81_416, 600_136, 572_448], 5_338, 38_118, 1_435);

    let inst = bench.build();
    let sim = Simulation::new(&cfg, &mapping, inst.workloads, &inst.init, Default::default());
    assert_eq!(mesh_figures(sim, inst.verify), pinned, "straight run");

    let inst = bench.build();
    let mut sim = Simulation::new(&cfg, &mapping, inst.workloads, &inst.init, Default::default());
    while sim.now() < 70_000 {
        assert!(!sim.step().expect("simulation wedged"), "finished before the checkpoint");
    }
    let snap = sim.checkpoint().expect("every component snapshots");
    drop(sim);
    let inst = bench.build();
    let sim = Simulation::resume(&cfg, &mapping, inst.workloads, &inst.init, Default::default(), &snap)
        .expect("the image loads into an identically built machine");
    assert_eq!(mesh_figures(sim, inst.verify), pinned, "resumed run");
}
