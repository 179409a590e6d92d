//! Figure 7: locks' contention rate (LCR, Eqs. 1–3).
//!
//! The figure reads Table III's post-mortem runs ([`crate::table3::runs`]:
//! every lock a Simple Lock with TATAS); the cycle-by-cycle grAC
//! histograms are decomposed per lock (RAYTR's 32 low-contention locks
//! are aggregated as `RAYTR-LR`, as in the paper).

use glocks_sim::SimReport;
use glocks_sim_base::table::{pct, TextTable};
use glocks_workloads::contention::{summarize, BUCKETS};
use glocks_workloads::{BenchConfig, BenchKind};

pub struct Fig7Row {
    pub label: String,
    pub weight: f64,
    pub buckets: [f64; 4],
}

/// Full-resolution LCR matrix (one column per grAC value up to
/// `threads`) — enough to replot the paper's 3D Figure 7 exactly.
pub fn full_matrix(runs: &[(BenchConfig, SimReport)], threads: usize) -> TextTable {
    let mut t = TextTable::new("Figure 7 (full resolution) — LCR per grAC").header(
        std::iter::once("lock".to_string())
            .chain((1..=threads).map(|g| format!("g{g}")))
            .collect::<Vec<_>>(),
    );
    for (bench, r) in runs {
        for (i, per_grac) in r.lcr.iter().enumerate() {
            // omit all-zero rows (silent low-contention locks)
            if per_grac.iter().sum::<f64>() < 1e-9 {
                continue;
            }
            let mut row = vec![format!("{}-L{}", bench.kind.name(), i + 1)];
            for g in 1..=threads {
                row.push(format!("{:.4}", per_grac.get(g).copied().unwrap_or(0.0)));
            }
            t.row(row);
        }
    }
    t
}

pub fn table(runs: &[(BenchConfig, SimReport)]) -> (TextTable, Vec<Fig7Row>) {
    let mut rows: Vec<Fig7Row> = Vec::new();
    for (bench, r) in runs {
        let kind = bench.kind;
        let summaries = summarize(&r.lcr);
        if kind == BenchKind::Raytr {
            // The paper shows the two most contended locks and aggregates
            // the rest as RAYTR-LR.
            for (i, s) in summaries.iter().enumerate().take(2) {
                rows.push(Fig7Row {
                    label: format!("{}-L{}", kind.name(), i + 1),
                    weight: s.weight,
                    buckets: s.buckets,
                });
            }
            let mut rest = Fig7Row {
                label: format!("{}-LR", kind.name()),
                weight: 0.0,
                buckets: [0.0; 4],
            };
            for s in summaries.iter().skip(2) {
                rest.weight += s.weight;
                for b in 0..4 {
                    rest.buckets[b] += s.buckets[b];
                }
            }
            rows.push(rest);
        } else {
            for (i, s) in summaries.iter().enumerate() {
                let label = if summaries.len() == 1 {
                    kind.name().to_string()
                } else {
                    format!("{}-L{}", kind.name(), i + 1)
                };
                rows.push(Fig7Row { label, weight: s.weight, buckets: s.buckets });
            }
        }
    }
    let mut t = TextTable::new("Figure 7 — locks' contention rate by grAC bucket").header([
        "lock".to_string(),
        "weight".to_string(),
        format!("grAC {}-{}", BUCKETS[0].0, BUCKETS[0].1),
        format!("grAC {}-{}", BUCKETS[1].0, BUCKETS[1].1),
        format!("grAC {}-{}", BUCKETS[2].0, BUCKETS[2].1),
        format!("grAC >{}", BUCKETS[3].0 - 1),
    ]);
    for r in &rows {
        t.row([
            r.label.clone(),
            pct(r.weight),
            pct(r.buckets[0]),
            pct(r.buckets[1]),
            pct(r.buckets[2]),
            pct(r.buckets[3]),
        ]);
    }
    (t, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::ExpOptions;
    use crate::table3::runs;

    #[test]
    fn micro_contention_shape() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let (_t, rows) = table(&runs(&opts));
        // SCTR: all mass on one lock, concentrated at high grAC.
        let sctr = rows.iter().find(|r| r.label == "SCTR").unwrap();
        assert!((sctr.weight - 1.0).abs() < 1e-9);
        assert!(
            sctr.buckets[1] + sctr.buckets[2] + sctr.buckets[3] > 0.5,
            "SCTR should be dominated by grACs near the core count: {:?}",
            sctr.buckets
        );
        // RAYTR rows present, including the aggregated remainder.
        assert!(rows.iter().any(|r| r.label == "RAYTR-L1"));
        assert!(rows.iter().any(|r| r.label == "RAYTR-LR"));
        // each benchmark's weights sum to ~1
        let raytr_total: f64 = rows
            .iter()
            .filter(|r| r.label.starts_with("RAYTR"))
            .map(|r| r.weight)
            .sum();
        assert!((raytr_total - 1.0).abs() < 1e-9);
    }
}
