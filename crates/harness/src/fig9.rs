//! Figure 9: normalized network traffic (Coherence / Request / Reply
//! bytes through all switches), GLocks vs MCS, read from Figure 8's runs.

use crate::fig8::{class_mean, Pair};
use glocks_noc::{TrafficClass, TrafficStats};
use glocks_sim_base::table::{norm, pct, TextTable};
use glocks_workloads::BenchKind;

pub struct Fig9Row {
    pub bench: BenchKind,
    pub mcs: TrafficStats,
    pub gl: TrafficStats,
    /// GL total bytes / MCS total bytes.
    pub normalized: f64,
}

impl Fig9Row {
    pub fn reduction(&self) -> f64 {
        1.0 - self.normalized
    }
}

pub fn table(pairs: &[Pair]) -> (TextTable, Vec<Fig9Row>) {
    let rows: Vec<Fig9Row> = pairs
        .iter()
        .map(|p| {
            let (mcs, gl) = (p.mcs.traffic, p.gl.traffic);
            Fig9Row {
                bench: p.bench,
                mcs,
                gl,
                normalized: gl.total_bytes() as f64 / mcs.total_bytes() as f64,
            }
        })
        .collect();
    let mut t = TextTable::new("Figure 9 — normalized network traffic (GL vs MCS)").header([
        "bench",
        "MCS bytes (coh/req/rep)",
        "GL bytes (coh/req/rep)",
        "GL/MCS",
        "reduction",
    ]);
    let fmt = |s: &TrafficStats| {
        format!(
            "{} ({}/{}/{})",
            s.total_bytes(),
            s.bytes(TrafficClass::Coherence),
            s.bytes(TrafficClass::Request),
            s.bytes(TrafficClass::Reply)
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
    for (label, app) in [("AvgM", false), ("AvgA", true)] {
        let avg = class_mean(rows.iter().map(|r| (r.bench, r.normalized)), app);
        t.row([label.to_string(), String::new(), String::new(), norm(avg), pct(1.0 - avg)]);
    }
    (t, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::ExpOptions;
    use crate::fig8::runs;

    #[test]
    fn glocks_cut_traffic() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let (_t, rows) = table(&runs(&opts));
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
