//! Table IV: speedups for the real applications at 4/8/16/32 cores, under
//! MCS and GLocks, relative to a single-core run.

use crate::exp::{glock_mapping, mcs_mapping, try_run_bench, ExpOptions};
use glocks_sim_base::table::TextTable;
use glocks_workloads::BenchKind;

pub const CORE_COUNTS: [usize; 4] = [4, 8, 16, 32];

pub struct Table4Row {
    pub bench: BenchKind,
    pub version: &'static str,
    pub speedups: Vec<f64>,
}

pub fn run(opts: &ExpOptions) -> (TextTable, Vec<Table4Row>) {
    let mut rows = Vec::new();
    for kind in BenchKind::APPS {
        // Serial reference: one core (lock implementation is irrelevant
        // without contention; use the MCS configuration).
        let serial_bench = opts.bench_on(kind, 1);
        let Some(serial) = try_run_bench(opts, &serial_bench, &mcs_mapping(&serial_bench)) else {
            continue;
        };
        let t1 = serial.cycles as f64;
        for (version, use_gl) in [("MCS", false), ("GL", true)] {
            let mut speedups = Vec::new();
            for &cores in &CORE_COUNTS {
                let bench = opts.bench_on(kind, cores);
                let mapping = if use_gl { glock_mapping(&bench) } else { mcs_mapping(&bench) };
                match try_run_bench(opts, &bench, &mapping) {
                    Some(r) => speedups.push(t1 / r.cycles as f64),
                    None => speedups.push(f64::NAN),
                }
            }
            rows.push(Table4Row { bench: kind, version, speedups });
        }
    }
    let mut t = TextTable::new("Table IV — speedups for the real applications")
        .header(["benchmark", "lock version", "4", "8", "16", "32"]);
    for r in &rows {
        t.row([
            r.bench.name().to_string(),
            r.version.to_string(),
            format!("{:.2}", r.speedups[0]),
            format!("{:.2}", r.speedups[1]),
            format!("{:.2}", r.speedups[2]),
            format!("{:.2}", r.speedups[3]),
        ]);
    }
    (t, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_shape_matches_the_paper() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let (_t, rows) = run(&opts);
        assert_eq!(rows.len(), 6);
        for pair in rows.chunks(2) {
            let (mcs, gl) = (&pair[0], &pair[1]);
            assert_eq!(mcs.bench, gl.bench);
            // GLocks at 32 cores must not scale worse than MCS.
            let last = CORE_COUNTS.len() - 1;
            assert!(
                gl.speedups[last] >= mcs.speedups[last] * 0.97,
                "{:?}: GL {} vs MCS {}",
                gl.bench,
                gl.speedups[last],
                mcs.speedups[last]
            );
            // RAYTR must scale even at quick sizes; OCEAN/QSORT saturate
            // when the quick input is small (full-scale behavior is
            // validated in EXPERIMENTS.md).
            if mcs.bench == BenchKind::Raytr {
                assert!(
                    mcs.speedups[last] > mcs.speedups[0] * 0.9,
                    "{:?} fails to scale under MCS: {:?}",
                    mcs.bench,
                    mcs.speedups
                );
            }
        }
    }
}
