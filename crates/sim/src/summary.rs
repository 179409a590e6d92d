//! Human-readable rendering of a [`SimReport`] — the "stats dump" a
//! simulator prints at the end of a run.

use crate::report::SimReport;
use glocks_noc::TrafficClass;
use glocks_sim_base::table::{pct, stacked_bar};
use std::fmt::Write as _;

/// Render the full end-of-run summary.
pub fn render(report: &SimReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== simulation summary ===");
    let _ = writeln!(out, "parallel phase: {} cycles", report.cycles);
    let f = report.avg_fractions();
    let _ = writeln!(
        out,
        "time breakdown: busy {} | memory {} | lock {} | barrier {}",
        pct(f[0]),
        pct(f[1]),
        pct(f[2]),
        pct(f[3])
    );
    let _ = writeln!(
        out,
        "                [{}]",
        stacked_bar(&f, &['B', 'M', 'L', 'R'], 48)
    );
    let _ = writeln!(out, "instructions:   {}", report.instructions());
    let t = &report.traffic;
    let _ = writeln!(
        out,
        "NoC traffic:    {} bytes ({} coherence / {} request / {} reply), {} messages",
        t.total_bytes(),
        t.bytes(TrafficClass::Coherence),
        t.bytes(TrafficClass::Request),
        t.bytes(TrafficClass::Reply),
        t.total_messages()
    );
    let e = &report.energy;
    let _ = writeln!(
        out,
        "energy:         {:.3e} pJ (core {:.0}% | L1 {:.0}% | L2+dir {:.0}% | mem {:.0}% | NoC {:.0}% | GLock {:.1}% | leak {:.0}%)",
        e.total_pj(),
        100.0 * e.core_pj / e.total_pj(),
        100.0 * e.l1_pj / e.total_pj(),
        100.0 * e.l2_dir_pj / e.total_pj(),
        100.0 * e.mem_pj / e.total_pj(),
        100.0 * e.noc_pj / e.total_pj(),
        100.0 * e.glock_pj / e.total_pj(),
        100.0 * e.leak_pj / e.total_pj(),
    );
    let _ = writeln!(out, "ED2P:           {:.3e} pJ*cy^2", report.ed2p);
    for (i, (&acq, &wait)) in report.acquires.iter().zip(&report.mean_wait).enumerate() {
        if acq > 0 {
            let _ = writeln!(
                out,
                "lock {i}: {acq} acquires, mean wait {wait:.0} cycles"
            );
        }
    }
    for (i, g) in report.glocks.iter().enumerate() {
        let _ = writeln!(
            out,
            "glock {i}: {} grants, {} G-line signals",
            g.grants, g.signals
        );
    }
    if let Some(p) = &report.pool {
        let _ = writeln!(
            out,
            "glock pool: {} hw acquires, {} spills, {} binds, {} unbinds",
            p.hw_acquires, p.spills, p.binds, p.unbinds
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::LockMapping;
    use crate::runner::{Simulation, SimulationOptions};
    use glocks_cpu::{Action, Workload};
    use glocks_locks::LockAlgorithm;
    use glocks_mem::MemOp;
    use glocks_sim_base::{Addr, CmpConfig, LockId};

    struct Tiny {
        left: u64,
        phase: u8,
    }

    impl Workload for Tiny {
        fn next(&mut self, _last: u64) -> Action {
            match self.phase {
                0 => {
                    if self.left == 0 {
                        return Action::Done;
                    }
                    self.phase = 1;
                    Action::Acquire(LockId(0))
                }
                1 => {
                    self.phase = 2;
                    Action::Mem(MemOp::Store(Addr(0x200_0000), self.left))
                }
                _ => {
                    self.left -= 1;
                    self.phase = 0;
                    Action::Release(LockId(0))
                }
            }
        }
    }

    #[test]
    fn summary_contains_all_sections() {
        let cfg = CmpConfig::paper_baseline().with_cores(4);
        let mapping = LockMapping::uniform(LockAlgorithm::Glock, 1);
        let workloads = (0..4)
            .map(|_| Box::new(Tiny { left: 2, phase: 0 }) as Box<dyn Workload>)
            .collect();
        let sim = Simulation::new(&cfg, &mapping, workloads, &[], SimulationOptions::default());
        let (report, _) = sim.run().expect("simulation wedged");
        let s = render(&report);
        assert!(s.contains("parallel phase"));
        assert!(s.contains("time breakdown"));
        assert!(s.contains("NoC traffic"));
        assert!(s.contains("ED2P"));
        assert!(s.contains("lock 0: 8 acquires"));
        assert!(s.contains("glock 0: 8 grants"));
        assert!(!s.contains("glock pool"), "no pool in this run");
    }
}
