//! End-to-end runs of every benchmark on the full simulator under several
//! lock mappings, each verified against the benchmark's own correctness
//! checker — the strongest whole-system test in the workspace.

use glocks_locks::LockAlgorithm;
use glocks_sim::{CheckerConfig, LockMapping, Simulation, SimulationOptions};
use glocks_sim_base::CmpConfig;
use glocks_workloads::{BenchConfig, BenchKind};

fn run(kind: BenchKind, threads: usize, mapping_of: impl Fn(&BenchConfig) -> LockMapping) -> u64 {
    let bench = BenchConfig::smoke(kind, threads);
    let inst = bench.build();
    let cfg = CmpConfig::paper_baseline().with_cores(threads);
    let mapping = mapping_of(&bench);
    let opts = SimulationOptions {
        checker: Some(CheckerConfig { every: 20_000, ..Default::default() }),
        ..Default::default()
    };
    let sim = Simulation::new(&cfg, &mapping, inst.workloads, &inst.init, opts);
    let (report, mem) = sim.run().expect("simulation wedged");
    if let Err(e) = (inst.verify)(mem.store()) {
        panic!("{kind:?} under {} failed verification: {e}", mapping.label());
    }
    report.cycles
}

fn hybrid(algo: LockAlgorithm) -> impl Fn(&BenchConfig) -> LockMapping {
    move |bench| LockMapping::hybrid(&bench.hc_locks(), algo, bench.n_locks())
}

#[test]
fn all_benchmarks_verify_under_mcs() {
    for kind in BenchKind::ALL {
        run(kind, 8, hybrid(LockAlgorithm::Mcs));
    }
}

#[test]
fn all_benchmarks_verify_under_glocks() {
    for kind in BenchKind::ALL {
        run(kind, 8, hybrid(LockAlgorithm::Glock));
    }
}

#[test]
fn all_benchmarks_verify_under_tatas() {
    for kind in BenchKind::ALL {
        run(kind, 8, |bench| {
            LockMapping::uniform(LockAlgorithm::Tatas, bench.n_locks())
        });
    }
}

#[test]
fn micro_benchmarks_verify_under_ticket_and_anderson() {
    for kind in BenchKind::MICROS {
        run(kind, 8, hybrid(LockAlgorithm::Ticket));
        run(kind, 8, hybrid(LockAlgorithm::Anderson));
    }
}

#[test]
fn glocks_beat_mcs_on_contended_micros() {
    for kind in [BenchKind::Sctr, BenchKind::Mctr, BenchKind::Dbll] {
        let mcs = run(kind, 8, hybrid(LockAlgorithm::Mcs));
        let gl = run(kind, 8, hybrid(LockAlgorithm::Glock));
        assert!(
            gl < mcs,
            "{kind:?}: GLock ({gl} cycles) should beat MCS ({mcs} cycles)"
        );
    }
}

#[test]
fn odd_thread_counts_work() {
    // Meshes degrade to 1×n for primes; everything must still verify.
    for kind in [BenchKind::Sctr, BenchKind::Actr, BenchKind::Qsort] {
        run(kind, 5, hybrid(LockAlgorithm::Mcs));
    }
}

#[test]
fn thirty_two_core_baseline_smoke() {
    // The paper's full 32-core CMP, reduced input.
    let cycles = run(BenchKind::Sctr, 32, hybrid(LockAlgorithm::Glock));
    assert!(cycles > 0);
}
