//! Event-based energy accounting for the simulated CMP.
//!
//! Sim-PowerCMP estimates power with Wattch/CACTI models for the cores and
//! caches, HotLeakage for leakage and Orion for the interconnect. We
//! reproduce the *structure* of that accounting — dynamic energy per
//! architectural event plus leakage per cycle, summed per component — with
//! constants chosen for plausible relative magnitudes in a ~45 nm design
//! (absolute calibration is out of scope; Figure 10 reports *normalized*
//! ED²P, which depends only on event-count and execution-time ratios).
//!
//! The G-line consumption model follows the paper's approach of extending
//! the simulator "with the consumption model of G-lines and controllers
//! employed in \[21\]": a small per-signal energy plus a tiny per-controller
//! static component.

/// Per-event energies in picojoules and per-cycle leakage terms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Dynamic energy per executed instruction.
    pub instr_pj: f64,
    /// Clock/pipeline overhead per live core-cycle (a core is live from
    /// simulation start until its thread finishes).
    pub core_cycle_pj: f64,
    /// Per L1 access (hits, fills, external probes).
    pub l1_access_pj: f64,
    /// Per L2 data-array access.
    pub l2_access_pj: f64,
    /// Per directory transaction.
    pub dir_txn_pj: f64,
    /// Per off-chip memory access.
    pub mem_access_pj: f64,
    /// Per packet-hop through a router (buffering + crossbar + arbitration).
    pub router_hop_pj: f64,
    /// Per byte crossing one link.
    pub link_byte_pj: f64,
    /// Per 1-bit G-line signal transmission.
    pub gline_signal_pj: f64,
    /// Static energy per GLock controller per cycle.
    pub glock_ctrl_cycle_pj: f64,
    /// Leakage per tile per cycle (core + caches + router share).
    pub tile_leak_pj: f64,
}

impl EnergyModel {
    /// The default model used by all experiments (documented in DESIGN.md).
    pub fn paper_baseline() -> Self {
        EnergyModel {
            instr_pj: 25.0,
            core_cycle_pj: 10.0,
            l1_access_pj: 20.0,
            l2_access_pj: 100.0,
            dir_txn_pj: 12.0,
            mem_access_pj: 2000.0,
            router_hop_pj: 6.0,
            link_byte_pj: 0.6,
            gline_signal_pj: 2.0,
            glock_ctrl_cycle_pj: 0.05,
            tile_leak_pj: 12.0,
        }
    }
}

/// Raw activity of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct EnergyInputs {
    /// Parallel-phase length in cycles.
    pub cycles: u64,
    pub n_tiles: usize,
    /// Total instructions executed by all cores.
    pub instructions: u64,
    /// Sum over cores of live cycles (start → thread finish).
    pub live_core_cycles: u64,
    /// L1 tag accesses, summed over tiles.
    pub l1_accesses: u64,
    /// L2 data-array accesses, summed over tiles.
    pub l2_accesses: u64,
    /// Directory transactions, summed over tiles.
    pub dir_txns: u64,
    /// Off-chip memory accesses.
    pub mem_accesses: u64,
    /// Total packet-hops through routers.
    pub noc_hops: u64,
    /// Total bytes × hops on links.
    pub noc_byte_hops: u64,
    /// Total G-line signal transmissions (all GLock networks).
    pub gline_signals: u64,
    /// Number of GLock controllers powered (all networks).
    pub glock_controllers: u64,
}

/// Energy broken down by component, in picojoules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyReport {
    pub core_pj: f64,
    pub l1_pj: f64,
    pub l2_dir_pj: f64,
    pub mem_pj: f64,
    pub noc_pj: f64,
    pub glock_pj: f64,
    pub leak_pj: f64,
}

impl EnergyReport {
    pub fn total_pj(&self) -> f64 {
        self.core_pj
            + self.l1_pj
            + self.l2_dir_pj
            + self.mem_pj
            + self.noc_pj
            + self.glock_pj
            + self.leak_pj
    }

    /// Energy-delay product (pJ·cycles).
    pub fn edp(&self, cycles: u64) -> f64 {
        self.total_pj() * cycles as f64
    }

    /// Energy-delay² product (pJ·cycles²) — Figure 10's metric.
    pub fn ed2p(&self, cycles: u64) -> f64 {
        self.total_pj() * (cycles as f64) * (cycles as f64)
    }
}

impl EnergyModel {
    /// Account a run's activity into per-component energy.
    pub fn account(&self, inp: &EnergyInputs) -> EnergyReport {
        EnergyReport {
            core_pj: inp.instructions as f64 * self.instr_pj
                + inp.live_core_cycles as f64 * self.core_cycle_pj,
            l1_pj: inp.l1_accesses as f64 * self.l1_access_pj,
            l2_dir_pj: inp.l2_accesses as f64 * self.l2_access_pj
                + inp.dir_txns as f64 * self.dir_txn_pj,
            mem_pj: inp.mem_accesses as f64 * self.mem_access_pj,
            noc_pj: inp.noc_hops as f64 * self.router_hop_pj
                + inp.noc_byte_hops as f64 * self.link_byte_pj,
            glock_pj: inp.gline_signals as f64 * self.gline_signal_pj
                + inp.glock_controllers as f64 * inp.cycles as f64 * self.glock_ctrl_cycle_pj,
            leak_pj: inp.n_tiles as f64 * inp.cycles as f64 * self.tile_leak_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> EnergyInputs {
        EnergyInputs {
            cycles: 1000,
            n_tiles: 4,
            instructions: 500,
            live_core_cycles: 4000,
            l1_accesses: 100,
            l2_accesses: 10,
            dir_txns: 10,
            mem_accesses: 2,
            noc_hops: 50,
            noc_byte_hops: 800,
            gline_signals: 12,
            glock_controllers: 10,
        }
    }

    #[test]
    fn totals_are_component_sums() {
        let r = EnergyModel::paper_baseline().account(&inputs());
        let sum = r.core_pj + r.l1_pj + r.l2_dir_pj + r.mem_pj + r.noc_pj + r.glock_pj + r.leak_pj;
        assert!((r.total_pj() - sum).abs() < 1e-9);
        assert!(r.total_pj() > 0.0);
    }

    #[test]
    fn component_arithmetic() {
        let m = EnergyModel::paper_baseline();
        let r = m.account(&inputs());
        assert_eq!(r.l1_pj, 100.0 * 20.0);
        assert_eq!(r.l2_dir_pj, 10.0 * 100.0 + 10.0 * 12.0);
        assert_eq!(r.mem_pj, 2.0 * 2000.0);
        assert_eq!(r.core_pj, 500.0 * 25.0 + 4000.0 * 10.0);
        assert_eq!(r.noc_pj, 50.0 * 6.0 + 800.0 * 0.6);
        assert_eq!(r.glock_pj, 12.0 * 2.0 + 10.0 * 1000.0 * 0.05);
        assert_eq!(r.leak_pj, 4.0 * 1000.0 * 12.0);
    }

    #[test]
    fn ed2p_scales_quadratically_with_delay() {
        let m = EnergyModel::paper_baseline();
        let r = m.account(&inputs());
        let e1 = r.ed2p(1000);
        let e2 = r.ed2p(2000);
        assert!((e2 / e1 - 4.0).abs() < 1e-9, "same energy, 2× delay ⇒ 4× ED²P");
        assert!((r.edp(1000) * 1000.0 - e1).abs() < 1e-6);
    }

    #[test]
    fn gline_energy_is_marginal() {
        // The paper's claim: the dedicated network has negligible impact on
        // energy. A full acquire/release (6 signals) must cost far less
        // than a single L2 access.
        let m = EnergyModel::paper_baseline();
        assert!(6.0 * m.gline_signal_pj < m.l2_access_pj / 5.0);
    }

    #[test]
    fn empty_inputs_give_zero_dynamic() {
        let m = EnergyModel::paper_baseline();
        let r = m.account(&EnergyInputs::default());
        assert_eq!(r.total_pj(), 0.0);
    }
}
