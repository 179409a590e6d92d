//! Figure 8: normalized execution time, GLocks vs MCS, with the
//! Busy / Memory / Lock / Barrier breakdown and the AvgM / AvgA summary
//! bars.
//!
//! Figures 8, 9 and 10 measure one set of runs three ways (time, traffic
//! and ED²P), so [`runs`] simulates each benchmark once under MCS and once
//! under GLocks, and every figure is a view over those [`Pair`]s.

use crate::exp::{glock_mapping, mcs_mapping, try_run_bench, ExpOptions};
use glocks_sim::SimReport;
use glocks_sim_base::table::{bar, norm, pct, stacked_bar, TextTable};
use glocks_workloads::BenchKind;

/// One benchmark under the paper's two principal configurations.
pub struct Pair {
    pub bench: BenchKind,
    pub mcs: SimReport,
    pub gl: SimReport,
}

/// Every benchmark under MCS, then under GLocks. A benchmark whose MCS or
/// GLock run wedges is left out (its GLock run is skipped once MCS wedged).
pub fn runs(opts: &ExpOptions) -> Vec<Pair> {
    BenchKind::ALL
        .into_iter()
        .filter_map(|kind| {
            let bench = opts.bench(kind);
            let mcs = try_run_bench(opts, &bench, &mcs_mapping(&bench))?;
            let gl = try_run_bench(opts, &bench, &glock_mapping(&bench))?;
            Some(Pair { bench: kind, mcs, gl })
        })
        .collect()
}

/// The mean of the values whose benchmark is an application (`app`, the
/// paper's AvgA bars) or a microbenchmark (`!app`, AvgM).
pub fn class_mean(values: impl IntoIterator<Item = (BenchKind, f64)>, app: bool) -> f64 {
    let xs: Vec<f64> =
        values.into_iter().filter(|(k, _)| k.is_app() == app).map(|(_, x)| x).collect();
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Bar chart of a GL/MCS ratio per benchmark (MCS = full width), with
/// the reduction it amounts to: Figures 9 and 10.
pub fn ratio_chart(values: impl IntoIterator<Item = (BenchKind, f64)>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (kind, normalized) in values {
        let _ = writeln!(
            out,
            "{:>5} |{:<40}| {}",
            kind.name(),
            bar(normalized, 1.0, 40),
            pct(1.0 - normalized)
        );
    }
    out
}

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

pub fn table(pairs: &[Pair]) -> (TextTable, Vec<Fig8Row>) {
    let rows: Vec<Fig8Row> = pairs
        .iter()
        .map(|p| Fig8Row {
            bench: p.bench,
            mcs_cycles: p.mcs.cycles,
            gl_cycles: p.gl.cycles,
            normalized: p.gl.cycles as f64 / p.mcs.cycles as f64,
            mcs_fracs: p.mcs.avg_fractions(),
            gl_fracs: p.gl.avg_fractions(),
        })
        .collect();
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
    for (label, app) in [("AvgM", false), ("AvgA", true)] {
        let avg = class_mean(rows.iter().map(|r| (r.bench, r.normalized)), app);
        t.row([
            label.to_string(),
            String::new(),
            String::new(),
            norm(avg),
            pct(1.0 - avg),
            String::new(),
            String::new(),
        ]);
    }
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
    let avg = |app| class_mean(rows.iter().map(|r| (r.bench, r.reduction())), app);
    (avg(false), avg(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glocks_win_everywhere_micros_win_more() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let (_t, rows) = table(&runs(&opts));
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
