//! Fault-injection sweep (robustness study beyond the paper).
//!
//! SCTR runs under GLocks while a seeded [`FaultPlan`] drops a growing
//! fraction of G-line signal transmissions. The hardened protocol
//! (epoch-tagged tokens + retransmission timers) must keep the final
//! counter exact at any survivable rate, paying only retransmissions; a
//! rate high enough to kill liveness (100% loss) must come back as a
//! structured [`glocks_sim::SimError`] row instead of aborting the sweep.

use crate::exp::{self, ExpOptions, Finished, RunSpec};
use glocks_locks::LockAlgorithm;
use glocks_sim::{LockMapping, SimulationOptions};
use glocks_sim_base::fault::{FaultPlan, FaultRates};
use glocks_sim_base::table::TextTable;
use glocks_workloads::BenchKind;

/// Drop rates swept, in ppm of G-line signal transmissions.
pub const DROP_PPM: [u32; 6] = [0, 1_000, 10_000, 50_000, 200_000, 1_000_000];

/// Seed for the published sweep — reproduce any row with
/// `FaultPlan::seeded(SWEEP_SEED)` and the row's drop rate.
pub const SWEEP_SEED: u64 = 0xFA01;

pub fn run(opts: &ExpOptions) -> TextTable {
    let mut t = TextTable::new(
        "Fault injection — SCTR under GLocks with G-line signal loss",
    )
    .header(["drop rate", "outcome", "cycles", "grants", "signals", "dropped", "retransmits"]);
    for drop_ppm in DROP_PPM {
        let bench = opts.bench(BenchKind::Sctr);
        let mut plan = FaultPlan::seeded(SWEEP_SEED);
        plan.gline = FaultRates::drops(drop_ppm);
        let spec = RunSpec {
            tag: format!("SCTR_GLock_drop{drop_ppm}ppm_{}t", bench.threads),
            meta: vec![
                ("bench", "SCTR".to_string()),
                ("lock", "GLock".to_string()),
                ("drop_ppm", drop_ppm.to_string()),
            ],
            options: SimulationOptions {
                fault_plan: Some(plan),
                // Short window: a dead configuration should fail fast, and
                // a live one always grants within a few thousand cycles.
                watchdog_cycles: 200_000,
                ..Default::default()
            },
            ..RunSpec::bench(&bench, LockMapping::uniform(LockAlgorithm::Glock, 1))
        };
        let rate = format!("{}%", drop_ppm as f64 / 10_000.0);
        // Surviving a fault schedule means surviving it *correctly*.
        match exp::run(opts, spec, || bench.build()).map(Finished::verified) {
            Ok(report) => {
                let g = report.glocks[0];
                t.row([
                    rate,
                    "completed".to_string(),
                    report.cycles.to_string(),
                    g.grants.to_string(),
                    g.signals.to_string(),
                    g.dropped.to_string(),
                    g.retransmits.to_string(),
                ]);
            }
            Err(e) => {
                let g = e.snapshot().glocks.first().map(|g| g.stats).unwrap_or_default();
                t.row([
                    rate,
                    e.kind().to_string(),
                    "-".to_string(),
                    g.grants.to_string(),
                    g.signals.to_string(),
                    g.dropped.to_string(),
                    g.retransmits.to_string(),
                ]);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_survivable_and_dead_rates() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let t = run(&opts);
        assert_eq!(t.n_rows(), DROP_PPM.len());
        let csv = t.to_csv();
        let outcomes: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap())
            .collect();
        // Every survivable rate completes; total loss is reported as a
        // structured wedge, and the sweep still rendered every row.
        assert!(outcomes[..outcomes.len() - 1].iter().all(|o| *o == "completed"), "{outcomes:?}");
        assert_eq!(outcomes[outcomes.len() - 1], "no-forward-progress");
    }
}
