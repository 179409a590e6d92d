//! Many-core scale sweep: GLocks versus software locks at 64, 256 and
//! 1024 cores.
//!
//! The paper's evaluation stops at 32 cores; its scaling argument (Section
//! III.D) is that the hierarchical GLock organization extends the G-line
//! fabric to arbitrarily large meshes while software locks pay ever more
//! coherence traffic per handoff. This sweep drives that argument to the
//! 32×32 (1024-core) end point: the SCTR microbenchmark — every core
//! hammering one highly-contended lock — on square meshes of 8×8, 16×16
//! and 32×32 tiles, under GLocks and the strongest software contenders.
//! Every mesh above 7×7 exceeds the G-line transmitter budget, so all
//! three sizes exercise `Topology::hierarchical`.
//!
//! The event-driven simulator core is what makes the 1024-core rows
//! affordable: cores sleeping in exponential backoff and long lock
//! hand-off lulls are skipped over rather than ticked.

use crate::exp::{self, ExpOptions, Finished, RunSpec};
use glocks_locks::LockAlgorithm;
use glocks_sim::{LockMapping, SimReport};
use glocks_sim_base::table::TextTable;
use glocks_sim_base::Mesh2D;
use glocks_workloads::BenchKind;

/// The sweep's mesh shapes (all square, all hierarchical-GLock territory).
pub const MESHES: [(u16, u16); 3] = [(8, 8), (16, 16), (32, 32)];

/// Lock algorithms compared at each size: the paper's hardware proposal
/// against the two strongest software baselines of its evaluation.
pub const ALGOS: [LockAlgorithm; 3] =
    [LockAlgorithm::Glock, LockAlgorithm::Mcs, LockAlgorithm::TatasBackoff];

pub struct ScaleRow {
    pub cores: usize,
    pub mesh: (u16, u16),
    pub algo: LockAlgorithm,
    pub cycles: u64,
    /// Mean acquire-to-grant wait on the contended lock.
    pub mean_wait: f64,
    /// Execution time relative to GLocks at the same size (GLock row = 1).
    pub vs_glock: f64,
}

/// SCTR under `algo` on `mesh`, whatever `--mesh` says.
fn run_at(opts: &ExpOptions, mesh: Mesh2D, algo: LockAlgorithm) -> Option<SimReport> {
    let bench = opts.bench_on(BenchKind::Sctr, mesh.len());
    let mapping = LockMapping::hybrid(&bench.hc_locks(), algo, bench.n_locks());
    let mut spec = RunSpec::bench(&bench, mapping);
    spec.cfg = spec.cfg.with_mesh(mesh);
    exp::try_run(opts, spec, || bench.build()).map(Finished::verified)
}

pub fn run(opts: &ExpOptions) -> (TextTable, Vec<ScaleRow>) {
    let mut rows = Vec::new();
    for (w, h) in MESHES {
        let mesh = Mesh2D::new(w, h);
        let glock_cycles = match run_at(opts, mesh, LockAlgorithm::Glock) {
            Some(r) => {
                let cycles = r.cycles;
                rows.push(ScaleRow {
                    cores: mesh.len(),
                    mesh: (w, h),
                    algo: LockAlgorithm::Glock,
                    cycles,
                    mean_wait: r.mean_wait[0],
                    vs_glock: 1.0,
                });
                cycles as f64
            }
            None => f64::NAN,
        };
        for algo in [LockAlgorithm::Mcs, LockAlgorithm::TatasBackoff] {
            if let Some(r) = run_at(opts, mesh, algo) {
                rows.push(ScaleRow {
                    cores: mesh.len(),
                    mesh: (w, h),
                    algo,
                    cycles: r.cycles,
                    mean_wait: r.mean_wait[0],
                    vs_glock: r.cycles as f64 / glock_cycles,
                });
            }
        }
    }
    let mut t = TextTable::new("Scale sweep — SCTR, one contended lock, hierarchical meshes")
        .header(["cores", "mesh", "lock", "cycles", "mean wait", "time vs GLock"]);
    for r in &rows {
        t.row([
            r.cores.to_string(),
            format!("{}x{}", r.mesh.0, r.mesh.1),
            r.algo.name().to_string(),
            r.cycles.to_string(),
            format!("{:.0}", r.mean_wait),
            format!("{:.2}x", r.vs_glock),
        ]);
    }
    (t, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 1024-core smoke of the issue: all cores contend one GLock on a
    /// 32×32 hierarchical mesh; the run must complete with exact acquire
    /// counts inside a hard wall-clock budget.
    #[test]
    fn glock_completes_on_1024_core_mesh() {
        let opts = ExpOptions {
            quick: true,
            threads: 1024,
            mesh: Some(Mesh2D::new(32, 32)),
            ..Default::default()
        };
        let bench = opts.bench_on(BenchKind::Sctr, 1024);
        let mapping = LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Glock, 1);
        let started = std::time::Instant::now();
        let r = crate::exp::run_bench(&opts, &bench, &mapping)
            .expect("1024-core GLock run completes");
        // Every SCTR iteration is exactly one acquire of lock 0; shares sum
        // to the configured total, so the count is exact, not approximate.
        assert_eq!(r.acquires[0], bench.scale);
        assert_eq!(r.finished_at.len(), 1024);
        assert!(r.cycles > 0);
        // CI smoke budget: the event-driven core must keep a thousand-core
        // machine interactive. Generous to absorb slow shared runners.
        assert!(
            started.elapsed() < std::time::Duration::from_secs(120),
            "1024-core smoke took {:?}",
            started.elapsed()
        );
    }

    /// GLocks must not scale worse than MCS as the mesh grows — the
    /// paper's scaling argument, pushed past its own 32-core evaluation.
    #[test]
    fn glock_beats_mcs_at_256_cores() {
        let opts = ExpOptions { quick: true, threads: 256, ..Default::default() };
        let mesh = Mesh2D::new(16, 16);
        let gl = run_at(&opts, mesh, LockAlgorithm::Glock).expect("GLock run");
        let mcs = run_at(&opts, mesh, LockAlgorithm::Mcs).expect("MCS run");
        assert!(
            gl.cycles as f64 <= mcs.cycles as f64 * 1.03,
            "GLock {} vs MCS {} cycles at 256 cores",
            gl.cycles,
            mcs.cycles
        );
    }
}
