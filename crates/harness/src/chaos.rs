//! Permanent-fault (chaos) sweep — survivability study beyond the paper.
//!
//! Where [`crate::faults`] injects *transient* signal loss that the
//! hardened protocol retries through, this sweep kills components
//! *permanently* mid-run and demands graceful degradation:
//!
//! * **kill-glock-nets** — every G-line lock network dies at a
//!   seed-deterministic cycle inside the kill window. Failure detection
//!   (exhausted retransmission budgets) must quarantine the dead hardware,
//!   drain the pre-death grantee, and replay every stranded acquire on the
//!   TATAS software fallback: the run completes with the *exact* fault-free
//!   acquire count and final memory image.
//! * **tile-death** — a core (and its router) dies outright. That work is
//!   unrecoverable by design, so the correct outcome is a fast, structured
//!   [`glocks_sim::SimError`] naming the frozen core — not a silent hang.
//! * **kill-repair-failback** — the network death is *intermittent*: a
//!   repair crew replaces the dead hardware mid-run. The fail-back state
//!   machine probes the rebooted network, accumulates its hysteresis
//!   score, drains the software fallback at quiescence, and re-arms the
//!   hardware path — again with the exact fault-free acquire count, plus
//!   nonzero `sim.repairs` and `sim.failbacks` in the stats dump.
//!
//! Every completed row is validated against the *stats dump's* numeric
//! counters (`sim.failovers`, `sim.failbacks`), not just its exit code.
//!
//! The runtime protocol invariant checker rides along on every row:
//! mutual exclusion, token uniqueness, bounded waiting, fail-back safety,
//! and MESI compatibility are validated throughout the dying run. A
//! violation would surface as an `invariant-violation` row.

use crate::exp::{self, ExpOptions, Finished, RunSpec};
use glocks_locks::LockAlgorithm;
use glocks_sim::{CheckerConfig, LockMapping, SimulationOptions};
use glocks_sim_base::fault::{FaultPlan, HardFault, HardFaultTarget};
use glocks_sim_base::table::TextTable;
use glocks_workloads::BenchKind;

/// Seed for the published sweep — reproduce any row with
/// `FaultPlan::seeded(CHAOS_SEED)` and the row's kill schedule.
pub const CHAOS_SEED: u64 = 0xC4A0;

/// The kill window, in cycles: every GLock network dies at a
/// seed-deterministic cycle in `[EARLIEST_KILL, LATEST_KILL]`, early enough
/// that plenty of critical sections still lie ahead of the failover.
pub const EARLIEST_KILL: u64 = 1_000;
pub const LATEST_KILL: u64 = 5_000;

/// Repair delay for the intermittent scenario: the replacement hardware
/// becomes available this many cycles after the kill — shortly after the
/// ~31k-cycle detection verdict, so the failover has visibly taken over
/// before the repair lands.
pub const REPAIR_DELAY: u64 = 40_000;

/// Numeric counters pulled from a completed row's stats dump.
struct RowOutcome {
    acquires: u64,
    failovers: Option<u64>,
    repairs: Option<u64>,
    failbacks: Option<u64>,
}

pub fn run(opts: &ExpOptions) -> TextTable {
    let mut t = TextTable::new(
        "Chaos — SCTR under GLocks with permanent hardware deaths",
    )
    .header(["scenario", "outcome", "cycles", "acquires", "failovers", "failbacks", "checks"]);

    // Fault-free reference: the acquire count every survivable scenario
    // must reproduce exactly.
    let clean = row(&mut t, opts, "fault-free", None);

    // Kill every G-line lock network mid-run.
    let mut plan = FaultPlan::seeded(CHAOS_SEED);
    plan.kill_all_glock_networks(1, EARLIEST_KILL, LATEST_KILL);
    let survived = row(&mut t, opts, "kill-glock-nets", Some(plan));
    if let (Some(clean), Some(after)) = (&clean, &survived) {
        assert_eq!(
            clean.acquires, after.acquires,
            "failover lost or double-granted acquires"
        );
        // Dump-backed counters only exist under `--stats-json`; when they
        // do, they must prove the software path actually served acquires.
        if let Some(failovers) = after.failovers {
            assert!(failovers > 0, "the dump must record the reroute onto the software path");
        }
    }

    // A whole tile dies: structured wedge, not a hang.
    let mut plan = FaultPlan::seeded(CHAOS_SEED);
    plan.hard.push(HardFault::permanent(
        EARLIEST_KILL,
        HardFaultTarget::Tile { core: 1 },
    ));
    row(&mut t, opts, "tile-death", Some(plan));

    // Intermittent death: kill, repair, and fail back onto the rebooted
    // hardware — end to end within one run.
    let mut plan = FaultPlan::seeded(CHAOS_SEED);
    plan.blink_all_glock_networks(1, EARLIEST_KILL, LATEST_KILL, REPAIR_DELAY);
    let healed = row(&mut t, opts, "kill-repair-failback", Some(plan));
    if let (Some(clean), Some(healed)) = (&clean, &healed) {
        assert_eq!(
            clean.acquires, healed.acquires,
            "the repair round trip lost or double-granted acquires"
        );
        if let Some(repairs) = healed.repairs {
            assert!(repairs > 0, "the dump must record the repair installing");
        }
        if let Some(failbacks) = healed.failbacks {
            assert!(failbacks > 0, "the dump must record the hardware path re-arming");
        }
    }
    t
}

/// Run one scenario and append its row; returns the dump-backed outcome
/// when the run completed.
fn row(
    t: &mut TextTable,
    opts: &ExpOptions,
    scenario: &str,
    plan: Option<FaultPlan>,
) -> Option<RowOutcome> {
    let bench = opts.bench(BenchKind::Sctr);
    let survivable = plan.as_ref().is_none_or(|p| {
        !p.hard
            .iter()
            .any(|h| matches!(h.target, HardFaultTarget::Tile { .. }))
    });
    let mut options = SimulationOptions {
        fault_plan: plan,
        checker: Some(CheckerConfig::default()),
        ..Default::default()
    };
    // Survivable scenarios keep the full window (failure detection alone
    // takes ~50k cycles of retransmission backoff); a dead tile should be
    // diagnosed fast.
    if !survivable {
        options.watchdog_cycles = 100_000;
    }
    let spec = RunSpec {
        tag: format!("SCTR_GLock_{scenario}_{}t", bench.threads),
        meta: vec![
            ("bench", "SCTR".to_string()),
            ("lock", "GLock".to_string()),
            ("scenario", scenario.to_string()),
        ],
        options,
        ..RunSpec::bench(&bench, LockMapping::uniform(LockAlgorithm::Glock, 1))
    };
    // Surviving a chaos schedule means surviving it *correctly*.
    match exp::run(opts, spec, || bench.build()).map(Finished::verified) {
        Ok(report) => {
            let num = |k: &str| report.stats.as_ref().and_then(|d| d.counters.get(k).copied());
            let show = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            let failovers = num("sim.failovers");
            let failbacks = num("sim.failbacks");
            let checks = num("checker.checks_run");
            let acquires = report.acquires[0];
            t.row([
                scenario.to_string(),
                "completed".to_string(),
                report.cycles.to_string(),
                acquires.to_string(),
                show(failovers),
                show(failbacks),
                show(checks),
            ]);
            Some(RowOutcome {
                acquires,
                failovers,
                repairs: num("sim.repairs"),
                failbacks,
            })
        }
        Err(e) => {
            assert!(
                !survivable,
                "a survivable chaos scenario must complete, got: {e}"
            );
            t.row([
                scenario.to_string(),
                e.kind().to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_sweep_survives_network_death_and_diagnoses_tile_death() {
        // Route stats to a temp dir so every row publishes its dump-backed
        // counters — the failover / repair / fail-back asserts inside
        // `run` must be exercised, not vacuously skipped.
        let dir = std::env::temp_dir().join(format!("glocks_chaos_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ExpOptions {
            quick: true,
            threads: 8,
            stats_dir: dir.to_str().map(str::to_string),
            context: "chaos".to_string(),
            ..Default::default()
        };
        let t = run(&opts);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(t.n_rows(), 4);
        let csv = t.to_csv();
        let rows: Vec<Vec<&str>> = csv.lines().skip(1).map(|l| l.split(',').collect()).collect();
        assert_eq!(rows[0][1], "completed");
        assert_eq!(rows[1][1], "completed", "network death must be survived");
        assert_eq!(
            rows[0][3], rows[1][3],
            "failover must preserve the exact acquire count"
        );
        assert_eq!(rows[2][1], "no-forward-progress", "tile death is a diagnosed wedge");
        assert_eq!(rows[3][1], "completed", "the repair round trip must complete");
        assert_eq!(
            rows[0][3], rows[3][3],
            "fail-back must preserve the exact acquire count"
        );
        assert_ne!(rows[3][5], "-", "the fail-back counter must be published");
        assert_ne!(rows[3][5], "0", "at least one fail-back must have fired");
    }
}
