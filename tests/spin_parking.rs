//! Parking local spins is unobservable.
//!
//! In the event-driven loop a core whose lock or barrier script re-polls a
//! word that hit its own L1 parks until a coherence message reaches that
//! L1, and the skipped polls are settled in bulk. Each machine here runs
//! once event-driven and once densely (`idle_skip: false`, which never
//! parks), with stats on, checkpointing every 499 cycles. 499 is coprime
//! with the 3-cycle poll, so the images catch an in-flight poll in every
//! phase: just submitted, awaiting its tag access, and answered but not
//! yet taken. Both runs must write the same bytes at every checkpoint and
//! the same final dump. A checkpoint settles every parked spin in place,
//! so none is left parked after it, and the event-driven run must end in
//! the dump of an event-driven run that never checkpoints. An image taken
//! while cores were parked must resume, event-driven, to that dump.

use glocks_repro::prelude::*;
use glocks_repro::sim::Snapshot;
use glocks_repro::sim_base::fault::{FaultPlan, FaultRates};
use glocks_repro::stats as gstats;

const CORES: usize = 8;
const EVERY: u64 = 499;

struct Machine {
    kind: BenchKind,
    algo: LockAlgorithm,
    faults: Option<FaultPlan>,
}

/// What one run leaves behind.
struct Run {
    /// `(cycle, image, cores parked just before it was taken)`.
    images: Vec<(u64, Snapshot, usize)>,
    dump: String,
    parked_polls: u64,
}

impl Machine {
    fn new(kind: BenchKind, algo: LockAlgorithm) -> Self {
        Machine { kind, algo, faults: None }
    }

    fn options(&self, idle_skip: bool) -> SimulationOptions {
        SimulationOptions { idle_skip, fault_plan: self.faults.clone(), ..Default::default() }
    }

    /// Build the machine inside a fresh stats session, fresh or resumed.
    fn start(&self, idle_skip: bool, from: Option<&Snapshot>) -> Simulation {
        gstats::enable(gstats::StatsConfig::default());
        let bench = BenchConfig::smoke(self.kind, CORES);
        let inst = bench.build();
        let cfg = CmpConfig::paper_baseline().with_cores(CORES);
        let mapping = LockMapping::hybrid(&bench.hc_locks(), self.algo, bench.n_locks());
        let options = self.options(idle_skip);
        match from {
            None => Simulation::new(&cfg, &mapping, inst.workloads, &inst.init, options),
            Some(snap) => {
                Simulation::resume(&cfg, &mapping, inst.workloads, &inst.init, options, snap)
                    .expect("an image resumes into its own machine")
            }
        }
    }

    /// Run to completion, checkpointing every `every` cycles (0: never).
    fn run(&self, idle_skip: bool, every: u64) -> Run {
        let mut sim = self.start(idle_skip, None);
        let mut images = Vec::new();
        while !sim.step_fast(every).expect("the run stays healthy") {
            if every > 0 && sim.now().is_multiple_of(every) {
                let cores = sim.parked_cores();
                let snap = sim.checkpoint().expect("every component snapshots");
                assert_eq!(sim.parked_cores(), 0, "@{}: a checkpoint left spins parked", sim.now());
                images.push((sim.now(), snap, cores));
            }
        }
        let parked_polls = sim.parked_polls();
        Run { images, dump: finish(sim), parked_polls }
    }
}

/// Finish the run and close its stats session.
fn finish(sim: Simulation) -> String {
    let (report, _) = sim.finish().expect("the run completes");
    gstats::disable();
    report.stats.expect("stats session active").to_json()
}

fn parking_matches_the_dense_loop(m: Machine) {
    let what = format!("{}/{}", m.kind.name(), m.algo.name());
    let dense = m.run(false, EVERY);
    let parked = m.run(true, EVERY);
    assert_eq!(dense.parked_polls, 0, "{what}: the dense loop parked");
    assert!(parked.parked_polls > 0, "{what}: no poll was ever parked");
    assert_eq!(parked.images.len(), dense.images.len(), "{what}: checkpoint count");
    for ((cycle, p, _), (dense_cycle, d, _)) in parked.images.iter().zip(&dense.images) {
        assert_eq!(cycle, dense_cycle, "{what}: checkpoint cycles");
        assert!(p == d, "{what} @{cycle}: the parked image differs from the dense one");
    }
    assert!(parked.dump == dense.dump, "{what}: final stats dumps differ");
    let straight = m.run(true, 0);
    assert!(straight.parked_polls > 0, "{what}: no poll was parked without checkpoints");
    assert!(parked.dump == straight.dump, "{what}: checkpoints changed the event-driven dump");

    let (cycle, image, cores) = parked
        .images
        .iter()
        .max_by_key(|(_, _, cores)| *cores)
        .expect("the run outlives its first checkpoint");
    assert!(*cores > 0, "{what}: no image caught a parked core");
    let mut sim = m.start(true, Some(image));
    while !sim.step_fast(0).expect("the resumed run stays healthy") {}
    assert!(finish(sim) == parked.dump, "{what}: resumed @{cycle}, the dump differs");
}

#[test]
fn parked_queue_and_test_and_set_spins_match_the_dense_loop() {
    for algo in [
        LockAlgorithm::Mcs,
        LockAlgorithm::Tatas,
        LockAlgorithm::TatasBackoff,
        LockAlgorithm::Ticket,
        LockAlgorithm::Anderson,
    ] {
        parking_matches_the_dense_loop(Machine::new(BenchKind::Sctr, algo));
    }
}

/// OCEAN and QSORT add tree-barrier spins and MCS releases that wait for a
/// successor to link.
#[test]
fn parked_barrier_and_release_spins_match_the_dense_loop() {
    for kind in [BenchKind::Ocean, BenchKind::Qsort] {
        parking_matches_the_dense_loop(Machine::new(kind, LockAlgorithm::Mcs));
    }
}

/// Delayed NoC packets and directory transactions move when the
/// coherence messages that settle a park arrive.
#[test]
fn parked_spins_match_the_dense_loop_under_delay_faults() {
    let mut plan = FaultPlan::seeded(0x5917);
    plan.noc = FaultRates { delay_ppm: 30_000, max_delay: 16, ..FaultRates::NONE };
    plan.dir = FaultRates { delay_ppm: 30_000, max_delay: 16, ..FaultRates::NONE };
    let m = Machine { faults: Some(plan), ..Machine::new(BenchKind::Sctr, LockAlgorithm::Mcs) };
    parking_matches_the_dense_loop(m);
}
