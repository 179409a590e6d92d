//! Multiprogramming study (Section V future work): two benchmarks share
//! one CMP on disjoint core halves, and the two hardware GLocks are
//! statically split — one per program. Compared against all-MCS for the
//! highly-contended locks.

use crate::exp::{self, ExpOptions, RunSpec};
use glocks_locks::LockAlgorithm;
use glocks_sim::{LockMapping, SimReport, SimulationOptions};
use glocks_sim_base::table::{norm, TextTable};
use glocks_sim_base::CmpConfig;
use glocks_workloads::multiprog::MultiprogConfig;
use glocks_workloads::BenchKind;

fn run(opts: &ExpOptions, mp: &MultiprogConfig, hc_algo: LockAlgorithm) -> SimReport {
    // Static sharing: one GLock per program's hottest lock (or MCS).
    let hc = if hc_algo == LockAlgorithm::Glock {
        mp.statically_shared_hc()
    } else {
        mp.hc_locks()
    };
    let spec = RunSpec {
        tag: format!(
            "{}+{}_{}_{}t",
            mp.a.kind.name(),
            mp.b.kind.name(),
            hc_algo.name(),
            mp.total_threads()
        ),
        meta: vec![("lock", hc_algo.name().to_string())],
        cfg: CmpConfig::paper_baseline().with_cores(mp.total_threads()),
        mapping: LockMapping::hybrid(&hc, hc_algo, mp.n_locks()),
        options: SimulationOptions {
            barrier_partitions: Some(mp.barrier_partitions()),
            ..Default::default()
        },
    };
    exp::run(opts, spec, || mp.build()).expect("multiprogramming run wedged").verified()
}

/// Completion time of one program = the last finish among its cores.
fn program_time(report: &SimReport, range: std::ops::Range<usize>) -> u64 {
    report.finished_at[range].iter().copied().max().unwrap_or(0)
}

pub fn run_study(opts: &ExpOptions) -> TextTable {
    let half = opts.threads / 2;
    let pairs = [
        (BenchKind::Sctr, BenchKind::Prco),
        (BenchKind::Mctr, BenchKind::Dbll),
        (BenchKind::Sctr, BenchKind::Qsort),
    ];
    let mut t = TextTable::new(
        "Multiprogramming — two programs per CMP, 2 GLocks statically split (vs MCS)",
    )
    .header([
        "pair",
        "A time MCS",
        "A time GL",
        "A GL/MCS",
        "B time MCS",
        "B time GL",
        "B GL/MCS",
    ]);
    for (ka, kb) in pairs {
        let mp = MultiprogConfig {
            a: opts.bench_on(ka, half),
            b: opts.bench_on(kb, half),
        };
        let mcs = run(opts, &mp, LockAlgorithm::Mcs);
        let gl = run(opts, &mp, LockAlgorithm::Glock);
        let (a_mcs, b_mcs) = (
            program_time(&mcs, 0..half),
            program_time(&mcs, half..2 * half),
        );
        let (a_gl, b_gl) = (program_time(&gl, 0..half), program_time(&gl, half..2 * half));
        t.row([
            format!("{}+{}", ka.name(), kb.name()),
            a_mcs.to_string(),
            a_gl.to_string(),
            norm(a_gl as f64 / a_mcs as f64),
            b_mcs.to_string(),
            b_gl.to_string(),
            norm(b_gl as f64 / b_mcs as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks_workloads::BenchConfig;

    #[test]
    fn both_programs_verify_and_benefit() {
        let half = 4;
        let mp = MultiprogConfig {
            a: BenchConfig::smoke(BenchKind::Sctr, half),
            b: BenchConfig::smoke(BenchKind::Prco, half),
        };
        let opts = ExpOptions::default();
        let mcs = run(&opts, &mp, LockAlgorithm::Mcs);
        let gl = run(&opts, &mp, LockAlgorithm::Glock);
        let a_gain = program_time(&gl, 0..half) as f64 / program_time(&mcs, 0..half) as f64;
        let b_gain =
            program_time(&gl, half..2 * half) as f64 / program_time(&mcs, half..2 * half) as f64;
        assert!(a_gain < 1.05, "program A got slower: {a_gain}");
        assert!(b_gain < 1.05, "program B got slower: {b_gain}");
        // the statically shared GLocks serve both programs
        assert_eq!(gl.glocks.len(), 2);
        assert!(gl.glocks.iter().all(|g| g.grants > 0));
    }

    #[test]
    fn study_renders() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let t = run_study(&opts);
        assert_eq!(t.n_rows(), 3);
    }
}
