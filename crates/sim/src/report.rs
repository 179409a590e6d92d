//! The metrics a simulation run produces — everything the paper's
//! evaluation section reports.

use glocks::{GlockStats, PoolStats};
use glocks_cpu::Breakdown;
use glocks_energy::EnergyReport;
use glocks_noc::TrafficStats;
use glocks_sim_base::Cycle;

/// Everything measured over one parallel-phase run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Parallel-phase execution time in cycles (the last thread's finish).
    pub cycles: Cycle,
    /// Per-thread cycle attribution (Busy / Memory / Lock / Barrier).
    pub breakdowns: Vec<Breakdown>,
    /// Network traffic by class (Figure 9's bars).
    pub traffic: TrafficStats,
    pub energy: EnergyReport,
    /// Figure 10's metric: total energy × cycles².
    pub ed2p: f64,
    /// Eq. 3: `lcr[lock][grac]`, summing to 1 over all locks and grACs.
    pub lcr: Vec<Vec<f64>>,
    /// Total acquires per lock.
    pub acquires: Vec<u64>,
    /// Mean acquire→grant wait per lock, in cycles.
    pub mean_wait: Vec<f64>,
    /// Per hardware-lock G-line network statistics.
    pub glocks: Vec<GlockStats>,
    /// Cycle at which each thread finished (multiprogramming reports).
    pub finished_at: Vec<Cycle>,
    /// Binding-table statistics when dynamic GLock sharing was active.
    pub pool: Option<PoolStats>,
    /// Full typed-stats snapshot, present when a stats session was active
    /// during the run (`glocks_stats::enable`). `None` costs nothing.
    pub stats: Option<glocks_stats::StatsDump>,
}

impl SimReport {
    /// Fleet-average fractions `[busy, memory, lock, barrier]` — the
    /// composition of Figure 8's stacked bars.
    pub fn avg_fractions(&self) -> [f64; 4] {
        let mut total = Breakdown::default();
        for b in &self.breakdowns {
            total.merge(b);
        }
        total.fractions()
    }

    /// Total instructions executed by all threads.
    pub fn instructions(&self) -> u64 {
        self.breakdowns.iter().map(|b| b.instructions).sum()
    }

    /// The fraction of aggregate thread time spent in lock operations.
    pub fn lock_fraction(&self) -> f64 {
        self.avg_fractions()[2]
    }

    /// Aggregate contention rate for grACs above a threshold (the paper
    /// quotes e.g. "contention close to 80% for grACs higher than 20").
    pub fn aggregate_lcr_above(&self, grac_threshold: usize) -> f64 {
        self.lcr
            .iter()
            .map(|per_lock| {
                per_lock
                    .iter()
                    .enumerate()
                    .filter(|(g, _)| *g > grac_threshold)
                    .map(|(_, v)| v)
                    .sum::<f64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_lcr_filters_by_grac() {
        let report = SimReport {
            cycles: 100,
            breakdowns: vec![],
            traffic: TrafficStats::default(),
            energy: Default::default(),
            ed2p: 0.0,
            lcr: vec![vec![0.0, 0.1, 0.2, 0.3, 0.4]],
            acquires: vec![1],
            mean_wait: vec![0.0],
            glocks: vec![],
            finished_at: vec![],
            pool: None,
            stats: None,
        };
        assert!((report.aggregate_lcr_above(2) - 0.7).abs() < 1e-12);
        assert!((report.aggregate_lcr_above(0) - 1.0).abs() < 1e-12);
    }
}
