//! The stats subsystem's two load-bearing guarantees, end-to-end:
//!
//! 1. **Determinism** — the same seed and configuration produce a
//!    byte-identical stats JSON dump, run after run, with and without an
//!    active fault plan. This is what lets CI gate on `glocks-stats diff`
//!    against a committed golden dump.
//! 2. **Paper-exactness** — turning stats on observes the simulation but
//!    never perturbs it: cycles, grants and G-line signal counts match the
//!    stats-off run bit for bit.

use glocks_repro::prelude::*;
use glocks_repro::sim_base::fault::{FaultPlan, FaultRates};
use glocks_repro::stats as gstats;

fn sim_for(kind: BenchKind, algo: LockAlgorithm, threads: usize, options: SimulationOptions) -> SimReport {
    let bench = BenchConfig::smoke(kind, threads);
    let inst = bench.build();
    let cfg = CmpConfig::paper_baseline().with_cores(threads);
    let mapping = LockMapping::hybrid(&bench.hc_locks(), algo, bench.n_locks());
    let sim = Simulation::new(&cfg, &mapping, inst.workloads, &inst.init, options);
    let (report, mem) = sim.run().expect("simulation wedged");
    (inst.verify)(mem.store()).expect("verify");
    report
}

/// Run with a fresh stats session and return the dump's JSON text.
fn dump_json(options: SimulationOptions) -> String {
    gstats::enable(gstats::StatsConfig::default());
    let report = sim_for(BenchKind::Sctr, LockAlgorithm::Glock, 8, options);
    gstats::disable();
    report
        .stats
        .expect("stats session active, snapshot attached")
        .to_json()
}

/// The committed golden dumps: the `glocks-experiments stats` run of SCTR
/// under GLocks on 8 cores, and the `glocks-run --quick` dump of SCTR under
/// MCS on 32 cores, which loads every L1, directory and NoC class. CI diffs
/// the first with tolerances and compares the second byte for byte; this
/// test holds the simulator to both byte for byte, in tier-1.
#[test]
fn golden_dump_is_reproduced_byte_for_byte() {
    let cases = [
        (
            "stats_SCTR_GLock_8t_0.json",
            include_str!("golden/stats_SCTR_GLock_8t_0.json"),
            "stats",
            LockAlgorithm::Glock,
            8,
        ),
        (
            "stats_SCTR_MCS_32t.json",
            include_str!("golden/stats_SCTR_MCS_32t.json"),
            "glocks-run",
            LockAlgorithm::Mcs,
            32,
        ),
    ];
    for (file, golden, experiment, algo, threads) in cases {
        gstats::enable(gstats::StatsConfig::default());
        let threads_meta = threads.to_string();
        let meta = [
            ("experiment", experiment),
            ("bench", "SCTR"),
            ("lock", algo.name()),
            ("threads", threads_meta.as_str()),
        ];
        for (key, value) in meta {
            gstats::set_meta(key, value);
        }
        let report = sim_for(BenchKind::Sctr, algo, threads, Default::default());
        gstats::disable();
        let dump = report.stats.expect("stats session active, snapshot attached").to_json();
        assert!(
            dump == golden,
            "the dump no longer matches tests/golden/{file} \
             (`glocks-stats diff` names the keys that moved)"
        );
    }
}

#[test]
fn identical_runs_dump_byte_identical_stats_json() {
    let a = dump_json(Default::default());
    let b = dump_json(Default::default());
    assert!(!a.is_empty() && a.ends_with('\n'));
    assert_eq!(a, b, "same seed + config must dump byte-identical JSON");
}

/// The event-driven idle-skip scheduler (the default) and the dense cycle
/// loop must produce byte-identical dumps — which also means the one
/// committed golden dump gates both execution modes; no golden fork.
#[test]
fn event_driven_and_dense_loops_dump_byte_identical_stats_json() {
    let skip = dump_json(Default::default());
    let dense = dump_json(SimulationOptions { idle_skip: false, ..Default::default() });
    assert_eq!(skip, dense, "idle-skip changed an observable: dumps differ");
}

/// Same equivalence across the paper's workload families (barrier-phased
/// apps, queue-structured producers/consumers) and lock algorithms with
/// very different idle shapes (G-line wait vs spin-with-backoff).
#[test]
fn event_driven_and_dense_loops_agree_across_workloads() {
    for (kind, algo) in [
        (BenchKind::Mctr, LockAlgorithm::Glock),
        (BenchKind::Prco, LockAlgorithm::Mcs),
        (BenchKind::Qsort, LockAlgorithm::TatasBackoff),
        (BenchKind::Ocean, LockAlgorithm::Glock),
    ] {
        let skip = sim_for(kind, algo, 8, Default::default());
        let dense = sim_for(
            kind,
            algo,
            8,
            SimulationOptions { idle_skip: false, ..Default::default() },
        );
        assert_eq!(skip.cycles, dense.cycles, "{kind:?}/{algo:?}: cycle counts differ");
        assert_eq!(skip.finished_at, dense.finished_at, "{kind:?}/{algo:?}");
        assert_eq!(skip.acquires, dense.acquires, "{kind:?}/{algo:?}");
        assert_eq!(skip.instructions(), dense.instructions(), "{kind:?}/{algo:?}");
        assert_eq!(
            skip.traffic.total_messages(), dense.traffic.total_messages(),
            "{kind:?}/{algo:?}"
        );
        for (a, b) in skip.breakdowns.iter().zip(&dense.breakdowns) {
            assert_eq!(a, b, "{kind:?}/{algo:?}: per-core activity breakdowns differ");
        }
    }
}

#[test]
fn identical_runs_dump_byte_identical_stats_json_under_faults() {
    let opts = || {
        let mut plan = FaultPlan::seeded(0xFA01);
        plan.gline = FaultRates::drops(10_000); // 1% signal loss
        SimulationOptions {
            fault_plan: Some(plan),
            watchdog_cycles: 200_000,
            ..Default::default()
        }
    };
    let a = dump_json(opts());
    let b = dump_json(opts());
    assert_eq!(a, b, "a seeded fault plan must not break dump determinism");
    // The retransmission machinery actually fired, so the dump proves the
    // fault path is covered too.
    let dump = gstats::StatsDump::from_json(&a).expect("dump parses");
    let retransmits: u64 = dump
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("glock.") && k.ends_with(".retransmits"))
        .map(|(_, v)| *v)
        .sum();
    assert!(retransmits > 0, "1% G-line loss must cause retransmissions");
}

/// Dense and event-driven loops must also agree through the full
/// kill → failover → repair → fail-back lifecycle. The fail-back
/// controller's probe timers, hysteresis dwell and drain bookkeeping are
/// `next_event`-aware, so the idle-skip scheduler may leap across probe
/// gaps — and must still land on exactly the dense trajectory, down to
/// the `sim.repairs` / `sim.failbacks` counters.
#[test]
fn event_driven_and_dense_loops_agree_under_intermittent_faults() {
    let opts = |idle_skip: bool| {
        let mut plan = FaultPlan::seeded(0xFA02);
        plan.gline = FaultRates::drops(5_000); // transient loss on top
        plan.blink_all_glock_networks(1, 1_000, 5_000, 40_000);
        SimulationOptions {
            fault_plan: Some(plan),
            idle_skip,
            watchdog_cycles: 500_000,
            ..Default::default()
        }
    };
    let skip = dump_json(opts(true));
    let dense = dump_json(opts(false));
    assert_eq!(skip, dense, "the fail-back lifecycle diverged between loop modes");
    let dump = gstats::StatsDump::from_json(&skip).expect("dump parses");
    assert!(
        dump.counters.get("sim.repairs").copied().unwrap_or(0) > 0,
        "the blink plan must actually install a repair"
    );
    assert!(
        dump.counters.get("sim.failbacks").copied().unwrap_or(0) > 0,
        "the repaired network must actually be re-armed"
    );
}

#[test]
fn self_diff_of_a_dump_is_clean() {
    let text = dump_json(Default::default());
    let dump = gstats::StatsDump::from_json(&text).expect("dump parses");
    let report = gstats::diff(&dump, &dump, &gstats::DiffOptions::default());
    assert!(!report.failed);
    assert_eq!(report.changed().count(), 0);
}

/// Paper-exactness: stats are a pure observer. The numbers the paper's
/// figures are built from (execution cycles, grants, G-line signals) must
/// be bit-identical whether or not a stats session is recording.
#[test]
fn enabling_stats_does_not_perturb_the_simulation() {
    assert!(!gstats::is_enabled(), "test assumes a clean thread");
    let off = sim_for(BenchKind::Sctr, LockAlgorithm::Glock, 8, Default::default());
    assert!(off.stats.is_none(), "stats off ⇒ no snapshot in the report");

    gstats::enable(gstats::StatsConfig::default());
    let on = sim_for(BenchKind::Sctr, LockAlgorithm::Glock, 8, Default::default());
    gstats::disable();

    assert_eq!(off.cycles, on.cycles);
    assert_eq!(off.finished_at, on.finished_at);
    assert_eq!(off.glocks.len(), on.glocks.len());
    for (g_off, g_on) in off.glocks.iter().zip(&on.glocks) {
        assert_eq!(g_off.grants, g_on.grants);
        assert_eq!(g_off.signals, g_on.signals);
        assert_eq!(g_off.dropped, g_on.dropped);
        assert_eq!(g_off.retransmits, g_on.retransmits);
    }
    assert_eq!(off.traffic.total_messages(), on.traffic.total_messages());
    assert_eq!(off.instructions(), on.instructions());

    // And the snapshot agrees with the report it rode in on.
    let dump = on.stats.expect("snapshot attached");
    assert_eq!(dump.counters.get("sim.cycles"), Some(&on.cycles));
}

/// The runtime protocol checker is a pure observer too: on a fault-free
/// run it must neither change a single paper-facing number nor add keys to
/// a dump it is not part of (the `checker.*` stats only register when a
/// checker is attached, keeping the golden dump's schema stable).
#[test]
fn enabling_the_checker_does_not_perturb_the_simulation() {
    use glocks_repro::sim::CheckerConfig;
    let off = sim_for(BenchKind::Sctr, LockAlgorithm::Glock, 8, Default::default());
    let on = sim_for(
        BenchKind::Sctr,
        LockAlgorithm::Glock,
        8,
        SimulationOptions {
            // Densest possible cadence — maximum opportunity to perturb.
            checker: Some(CheckerConfig { every: 1, fairness_window: 1_000_000 }),
            ..Default::default()
        },
    );

    assert_eq!(off.cycles, on.cycles);
    assert_eq!(off.finished_at, on.finished_at);
    assert_eq!(off.acquires, on.acquires);
    assert_eq!(off.glocks.len(), on.glocks.len());
    for (g_off, g_on) in off.glocks.iter().zip(&on.glocks) {
        assert_eq!(g_off.grants, g_on.grants);
        assert_eq!(g_off.signals, g_on.signals);
    }
    assert_eq!(off.traffic.total_messages(), on.traffic.total_messages());
    assert_eq!(off.instructions(), on.instructions());

    // Dumps with the checker off must not grow checker keys...
    let plain = dump_json(Default::default());
    let plain = gstats::StatsDump::from_json(&plain).expect("dump parses");
    assert!(
        !plain.counters.keys().any(|k| k.starts_with("checker.")),
        "checker-off dumps must keep the golden schema"
    );
    // ...while checker-on dumps record that checks actually ran.
    let checked = dump_json(SimulationOptions {
        checker: Some(CheckerConfig::default()),
        ..Default::default()
    });
    let checked = gstats::StatsDump::from_json(&checked).expect("dump parses");
    assert!(
        checked.counters.get("checker.checks_run").copied().unwrap_or(0) > 0,
        "an attached checker must actually run checks"
    );
}
