//! Figure 8: normalized execution time, GLocks vs MCS, with the
//! Busy / Memory / Lock / Barrier breakdown and the AvgM / AvgA summary
//! bars.

use crate::exp::{glock_mapping, mcs_mapping, try_run_bench, ExpOptions};
use glocks_sim_base::table::{norm, pct, stacked_bar, TextTable};
use glocks_workloads::BenchKind;

pub struct Fig8Row {
    pub bench: BenchKind,
    pub mcs_cycles: u64,
    pub gl_cycles: u64,
    /// GL cycles / MCS cycles.
    pub normalized: f64,
    pub mcs_fracs: [f64; 4],
    pub gl_fracs: [f64; 4],
}

impl Fig8Row {
    pub fn reduction(&self) -> f64 {
        1.0 - self.normalized
    }
}

pub fn run(opts: &ExpOptions) -> (TextTable, Vec<Fig8Row>) {
    let mut rows = Vec::new();
    for kind in BenchKind::ALL {
        let bench = opts.bench(kind);
        let Some(mcs) = try_run_bench(opts, &bench, &mcs_mapping(&bench)) else { continue };
        let Some(gl) = try_run_bench(opts, &bench, &glock_mapping(&bench)) else { continue };
        rows.push(Fig8Row {
            bench: kind,
            mcs_cycles: mcs.cycles,
            gl_cycles: gl.cycles,
            normalized: gl.cycles as f64 / mcs.cycles as f64,
            mcs_fracs: mcs.avg_fractions(),
            gl_fracs: gl.avg_fractions(),
        });
    }
    let mut t = TextTable::new(
        "Figure 8 — normalized execution time (GL vs MCS) with breakdown",
    )
    .header([
        "bench", "MCS cycles", "GL cycles", "GL/MCS", "reduction", "MCS busy/mem/lock/barrier",
        "GL busy/mem/lock/barrier",
    ]);
    let fmt4 = |f: &[f64; 4]| {
        format!(
            "{} {} {} {}",
            pct(f[0]),
            pct(f[1]),
            pct(f[2]),
            pct(f[3])
        )
    };
    for r in &rows {
        t.row([
            r.bench.name().to_string(),
            r.mcs_cycles.to_string(),
            r.gl_cycles.to_string(),
            norm(r.normalized),
            pct(r.reduction()),
            fmt4(&r.mcs_fracs),
            fmt4(&r.gl_fracs),
        ]);
    }
    let avg = |sel: &dyn Fn(&Fig8Row) -> bool| {
        let xs: Vec<f64> = rows.iter().filter(|r| sel(r)).map(|r| r.normalized).collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let avg_m = avg(&|r: &Fig8Row| !r.bench.is_app());
    let avg_a = avg(&|r: &Fig8Row| r.bench.is_app());
    t.row([
        "AvgM".to_string(),
        String::new(),
        String::new(),
        norm(avg_m),
        pct(1.0 - avg_m),
        String::new(),
        String::new(),
    ]);
    t.row([
        "AvgA".to_string(),
        String::new(),
        String::new(),
        norm(avg_a),
        pct(1.0 - avg_a),
        String::new(),
        String::new(),
    ]);
    (t, rows)
}

/// A textual rendering of the paper's stacked-bar figure: per benchmark,
/// the MCS bar at full scale and the GL bar scaled by its normalized
/// execution time, both decomposed into Busy/Memory/Lock/Barrier
/// (`B`/`M`/`L`/`R` glyphs).
pub fn chart(rows: &[Fig8Row]) -> String {
    use std::fmt::Write as _;
    const W: usize = 56;
    const G: [char; 4] = ['B', 'M', 'L', 'R'];
    let mut out = String::new();
    let _ = writeln!(out, "B=busy M=memory L=lock R=barrier (width ∝ execution time)");
    for r in rows {
        let mcs = stacked_bar(&r.mcs_fracs, &G, W);
        let glw = (r.normalized * W as f64).round().max(1.0) as usize;
        let gl = stacked_bar(&r.gl_fracs, &G, glw);
        let _ = writeln!(out, "{:>5} MCS |{mcs}", r.bench.name());
        let _ = writeln!(out, "{:>5}  GL |{gl}", "");
    }
    out
}

/// The microbenchmark / application average reductions the abstract quotes
/// (42 % / 14 %).
pub fn average_reductions(rows: &[Fig8Row]) -> (f64, f64) {
    let avg = |app: bool| {
        let xs: Vec<f64> = rows
            .iter()
            .filter(|r| r.bench.is_app() == app)
            .map(|r| r.reduction())
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    (avg(false), avg(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glocks_win_everywhere_micros_win_more() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let (_t, rows) = run(&opts);
        for r in &rows {
            // QSORT's task DAG makes small-scale runs scheduling-noisy;
            // the full-scale win is validated by the paper_scale test.
            let cap = if r.bench == BenchKind::Qsort { 1.25 } else { 1.05 };
            assert!(
                r.normalized < cap,
                "{:?}: GLocks must not lose to MCS (got {})",
                r.bench,
                r.normalized
            );
        }
        let (micro, app) = average_reductions(&rows);
        assert!(
            micro > app,
            "microbenchmarks ({micro:.2}) should benefit more than apps ({app:.2})"
        );
        assert!(micro > 0.15, "micro reduction {micro:.2} too small");
    }
}
