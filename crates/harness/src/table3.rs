//! Table III: benchmark configuration and lock-related characteristics,
//! with the lock and highly-contended-lock counts *measured* from a run of
//! each benchmark (the table is asserted, not just printed).

use crate::exp::{try_run_bench, ExpOptions};
use glocks_locks::LockAlgorithm;
use glocks_sim::LockMapping;
use glocks_sim_base::table::TextTable;
use glocks_workloads::contention::classify_hc;
use glocks_workloads::BenchKind;

pub fn run(opts: &ExpOptions) -> TextTable {
    let mut t = TextTable::new("Table III — benchmarks and lock characteristics").header([
        "benchmark",
        "input size",
        "locks",
        "H-C locks",
        "measured H-C",
        "access pattern",
    ]);
    for kind in BenchKind::ALL {
        let bench = opts.bench(kind);
        // The paper's post-mortem runs every lock as Simple Lock with the
        // test-and-test&set optimization.
        let mapping = LockMapping::uniform(LockAlgorithm::Tatas, bench.n_locks());
        let Some(r) = try_run_bench(opts, &bench, &mapping) else { continue };
        // Footnote-3 criterion: substantial cycle weight and most mass at
        // grACs comparable to the core count.
        let hc_measured = classify_hc(&r.lcr, bench.threads / 4, 0.35, 0.02);
        t.row([
            kind.name().to_string(),
            kind.input_size_label().to_string(),
            bench.n_locks().to_string(),
            bench.hc_locks().len().to_string(),
            hc_measured.len().to_string(),
            kind.access_pattern().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_benchmarks() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let t = run(&opts);
        assert_eq!(t.n_rows(), 8);
        let s = t.render();
        assert!(s.contains("RAYTR"));
        assert!(s.contains("16384 elements"));
    }
}
