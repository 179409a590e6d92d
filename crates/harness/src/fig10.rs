//! Figure 10: normalized energy-delay² product (ED²P) for the full CMP,
//! GLocks vs MCS, with the per-component energy split.

use crate::exp::{glock_mapping, mcs_mapping, try_run_bench, ExpOptions};
use glocks_energy::EnergyReport;
use glocks_sim_base::table::{bar, norm, pct, TextTable};
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

/// Bar chart of normalized ED2P (MCS = full width).
pub fn chart(rows: &[Fig10Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in rows {
        let _ = writeln!(
            out,
            "{:>5} |{:<40}| {}",
            r.bench.name(),
            bar(r.normalized, 1.0, 40),
            pct(1.0 - r.normalized)
        );
    }
    out
}

pub fn run(opts: &ExpOptions) -> (TextTable, Vec<Fig10Row>) {
    let mut rows = Vec::new();
    for kind in BenchKind::ALL {
        let bench = opts.bench(kind);
        let Some(mcs) = try_run_bench(opts, &bench, &mcs_mapping(&bench)) else { continue };
        let Some(gl) = try_run_bench(opts, &bench, &glock_mapping(&bench)) else { continue };
        rows.push(Fig10Row {
            bench: kind,
            mcs_ed2p: mcs.ed2p,
            gl_ed2p: gl.ed2p,
            normalized: gl.ed2p / mcs.ed2p,
            gl_energy: gl.energy,
            mcs_energy: mcs.energy,
        });
    }
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
    let avg = |app: bool| {
        let xs: Vec<f64> = rows
            .iter()
            .filter(|r| r.bench.is_app() == app)
            .map(|r| r.normalized)
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    t.row([
        "AvgM".to_string(),
        norm(avg(false)),
        pct(1.0 - avg(false)),
        String::new(),
        String::new(),
    ]);
    t.row([
        "AvgA".to_string(),
        norm(avg(true)),
        pct(1.0 - avg(true)),
        String::new(),
        String::new(),
    ]);
    (t, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ed2p_improves_and_glock_hw_is_negligible() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let (_t, rows) = run(&opts);
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
