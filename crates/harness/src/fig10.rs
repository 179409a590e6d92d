//! Figure 10: normalized energy-delay² product (ED²P) for the full CMP,
//! GLocks vs MCS, with the per-component energy split, read from
//! Figure 8's runs.

use crate::fig8::{class_mean, Pair};
use glocks_energy::EnergyReport;
use glocks_sim_base::table::{norm, pct, TextTable};
use glocks_workloads::BenchKind;

pub struct Fig10Row {
    pub bench: BenchKind,
    pub mcs_ed2p: f64,
    pub gl_ed2p: f64,
    pub normalized: f64,
    pub gl_energy: EnergyReport,
    pub mcs_energy: EnergyReport,
}

impl Fig10Row {
    pub fn reduction(&self) -> f64 {
        1.0 - self.normalized
    }
}

pub fn table(pairs: &[Pair]) -> (TextTable, Vec<Fig10Row>) {
    let rows: Vec<Fig10Row> = pairs
        .iter()
        .map(|p| Fig10Row {
            bench: p.bench,
            mcs_ed2p: p.mcs.ed2p,
            gl_ed2p: p.gl.ed2p,
            normalized: p.gl.ed2p / p.mcs.ed2p,
            gl_energy: p.gl.energy,
            mcs_energy: p.mcs.energy,
        })
        .collect();
    let mut t = TextTable::new("Figure 10 — normalized ED2P for the full CMP (GL vs MCS)")
        .header(["bench", "GL/MCS ED2P", "reduction", "GL energy/MCS energy", "GLock HW share"]);
    for r in &rows {
        t.row([
            r.bench.name().to_string(),
            norm(r.normalized),
            pct(r.reduction()),
            norm(r.gl_energy.total_pj() / r.mcs_energy.total_pj()),
            pct(r.gl_energy.glock_pj / r.gl_energy.total_pj()),
        ]);
    }
    for (label, app) in [("AvgM", false), ("AvgA", true)] {
        let avg = class_mean(rows.iter().map(|r| (r.bench, r.normalized)), app);
        t.row([label.to_string(), norm(avg), pct(1.0 - avg), String::new(), String::new()]);
    }
    (t, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::ExpOptions;
    use crate::fig8::runs;

    #[test]
    fn ed2p_improves_and_glock_hw_is_negligible() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let (_t, rows) = table(&runs(&opts));
        for r in &rows {
            let cap = if r.bench == BenchKind::Qsort { 1.6 } else { 1.0 };
            assert!(
                r.normalized < cap,
                "{:?}: ED2P must improve ({})",
                r.bench,
                r.normalized
            );
            // The paper's area/energy claim: the dedicated G-line network's
            // consumption is marginal.
            let share = r.gl_energy.glock_pj / r.gl_energy.total_pj();
            assert!(share < 0.02, "{:?}: GLock HW share {share:.3}", r.bench);
        }
        // micros gain more than apps, as in the paper (78 % vs 28 %)
        let avg = |app: bool| {
            let xs: Vec<f64> = rows
                .iter()
                .filter(|r| r.bench.is_app() == app)
                .map(|r| r.reduction())
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(avg(false) > avg(true));
    }
}
