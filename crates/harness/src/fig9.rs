//! Figure 9: normalized network traffic (Coherence / Request / Reply
//! bytes through all switches), GLocks vs MCS.

use crate::exp::{glock_mapping, mcs_mapping, try_run_bench, ExpOptions};
use glocks_sim::TrafficSnapshot;
use glocks_sim_base::table::{bar, norm, pct, TextTable};
use glocks_workloads::BenchKind;

pub struct Fig9Row {
    pub bench: BenchKind,
    pub mcs: TrafficSnapshot,
    pub gl: TrafficSnapshot,
    /// GL total bytes / MCS total bytes.
    pub normalized: f64,
}

impl Fig9Row {
    pub fn reduction(&self) -> f64 {
        1.0 - self.normalized
    }
}

/// Bar chart of normalized traffic (MCS = full width).
pub fn chart(rows: &[Fig9Row]) -> String {
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

pub fn run(opts: &ExpOptions) -> (TextTable, Vec<Fig9Row>) {
    let mut rows = Vec::new();
    for kind in BenchKind::ALL {
        let bench = opts.bench(kind);
        let Some(mcs) = try_run_bench(opts, &bench, &mcs_mapping(&bench)) else { continue };
        let Some(gl) = try_run_bench(opts, &bench, &glock_mapping(&bench)) else { continue };
        let (mcs, gl) = (mcs.traffic, gl.traffic);
        rows.push(Fig9Row {
            bench: kind,
            mcs,
            gl,
            normalized: gl.total_bytes() as f64 / mcs.total_bytes() as f64,
        });
    }
    let mut t = TextTable::new("Figure 9 — normalized network traffic (GL vs MCS)").header([
        "bench",
        "MCS bytes (coh/req/rep)",
        "GL bytes (coh/req/rep)",
        "GL/MCS",
        "reduction",
    ]);
    let fmt = |s: &TrafficSnapshot| {
        format!(
            "{} ({}/{}/{})",
            s.total_bytes(),
            s.coherence_bytes,
            s.request_bytes,
            s.reply_bytes
        )
    };
    for r in &rows {
        t.row([
            r.bench.name().to_string(),
            fmt(&r.mcs),
            fmt(&r.gl),
            norm(r.normalized),
            pct(r.reduction()),
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
        String::new(),
        String::new(),
        norm(avg(false)),
        pct(1.0 - avg(false)),
    ]);
    t.row([
        "AvgA".to_string(),
        String::new(),
        String::new(),
        norm(avg(true)),
        pct(1.0 - avg(true)),
    ]);
    (t, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glocks_cut_traffic() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let (_t, rows) = run(&opts);
        for r in &rows {
            assert!(
                r.normalized < 1.02,
                "{:?}: GLocks must not add traffic ({})",
                r.bench,
                r.normalized
            );
        }
        // Micros lose most of their traffic (paper: 76 % average).
        let micro_avg: f64 = rows
            .iter()
            .filter(|r| !r.bench.is_app())
            .map(|r| r.reduction())
            .sum::<f64>()
            / 5.0;
        assert!(micro_avg > 0.3, "micro traffic reduction only {micro_avg:.2}");
    }
}
