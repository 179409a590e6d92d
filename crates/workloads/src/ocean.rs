//! OCEAN: an Ocean-style iterative grid solver kernel.
//!
//! SPLASH-2 Ocean (258×258) is barrier- and memory-dominated: each sweep
//! updates the thread's band of grid cells, then a *global reduction lock*
//! (the single highly-contended lock of Table III, SCTR-like) accumulates
//! the local residual, and a barrier closes the sweep. Two further locks
//! exist but are touched only by thread 0 once per sweep (low contention).
//! Less than 5 % of Ocean's time goes to locks (Figure 8), which this
//! kernel reproduces by giving every sweep a large compute/memory phase
//! with per-thread jitter that staggers arrivals at the reduction lock.

use crate::{BenchConfig, BenchInstance, DATA_BASE};
use glocks_cpu::{snap_methods, Action, Workload};
use glocks_mem::MemOp;
use glocks_sim_base::{snap, Addr, LockId, SplitMix64};

/// Sweeps of the solver.
pub const ITERS: u64 = 4;

fn residual() -> Addr {
    DATA_BASE
}

fn aux_word(i: u64) -> Addr {
    Addr(DATA_BASE.0 + 64 + i * 64)
}

fn cell(idx: u64) -> Addr {
    Addr(DATA_BASE.0 + 0x10_0000 + idx * 8)
}

enum Phase {
    SweepStart { iter: u64 },
    CellLoad { iter: u64, i: u64 },
    CellStore { iter: u64, i: u64 },
    Jitter { iter: u64 },
    RedEnter { iter: u64 },
    RedLoad { iter: u64 },
    RedStore { iter: u64 },
    RedExit { iter: u64 },
    AuxEnter { iter: u64, which: u64 },
    AuxLoad { iter: u64, which: u64 },
    AuxStore { iter: u64, which: u64 },
    AuxExit { iter: u64, which: u64 },
    SweepBarrier { iter: u64 },
    Finished,
}
snap!(enum Phase {
    0 => SweepStart { iter },
    1 => CellLoad { iter, i },
    2 => CellStore { iter, i },
    3 => Jitter { iter },
    4 => RedEnter { iter },
    5 => RedLoad { iter },
    6 => RedStore { iter },
    7 => RedExit { iter },
    8 => AuxEnter { iter, which },
    9 => AuxLoad { iter, which },
    10 => AuxStore { iter, which },
    11 => AuxExit { iter, which },
    12 => SweepBarrier { iter },
    13 => Finished,
});

struct OceanThread {
    tid: usize,
    first_cell: u64,
    n_cells: u64,
    seed: u64,
    phase: Phase,
    seen: u64,
}
snap!(OceanThread { phase, seen; skip tid, first_cell, n_cells, seed });

impl Workload for OceanThread {
    fn next(&mut self, last: u64) -> Action {
        match self.phase {
            Phase::SweepStart { iter } => {
                if iter == ITERS {
                    self.phase = Phase::Finished;
                    return Action::Done;
                }
                if self.n_cells == 0 {
                    self.phase = Phase::Jitter { iter };
                    return Action::Compute(8);
                }
                self.phase = Phase::CellStore { iter, i: 0 };
                Action::Mem(MemOp::Load(cell(self.first_cell)))
            }
            Phase::CellLoad { iter, i } => {
                self.phase = Phase::CellStore { iter, i };
                Action::Mem(MemOp::Load(cell(self.first_cell + i)))
            }
            Phase::CellStore { iter, i } => {
                self.seen = last;
                self.phase = if i + 1 < self.n_cells {
                    Phase::CellLoad { iter, i: i + 1 }
                } else {
                    Phase::Jitter { iter }
                };
                Action::Mem(MemOp::Store(cell(self.first_cell + i), self.seen + 1))
            }
            Phase::Jitter { iter } => {
                // Stencil arithmetic plus per-(thread, sweep) imbalance:
                // this staggers arrivals at the reduction lock, keeping its
                // contention moderate, as measured for the real Ocean.
                let h = SplitMix64::new(self.seed ^ (self.tid as u64) << 32 ^ iter).next_u64();
                self.phase = Phase::RedEnter { iter };
                Action::Compute(6000 + h % 20000)
            }
            Phase::RedEnter { iter } => {
                self.phase = Phase::RedLoad { iter };
                Action::Acquire(LockId(0))
            }
            Phase::RedLoad { iter } => {
                self.phase = Phase::RedStore { iter };
                Action::Mem(MemOp::Load(residual()))
            }
            Phase::RedStore { iter } => {
                self.seen = last;
                self.phase = Phase::RedExit { iter };
                Action::Mem(MemOp::Store(residual(), self.seen + 1))
            }
            Phase::RedExit { iter } => {
                self.phase = if self.tid == 0 {
                    Phase::AuxEnter { iter, which: 0 }
                } else {
                    Phase::SweepBarrier { iter }
                };
                Action::Release(LockId(0))
            }
            Phase::AuxEnter { iter, which } => {
                self.phase = Phase::AuxLoad { iter, which };
                Action::Acquire(LockId(1 + which as u16))
            }
            Phase::AuxLoad { iter, which } => {
                self.phase = Phase::AuxStore { iter, which };
                Action::Mem(MemOp::Load(aux_word(which)))
            }
            Phase::AuxStore { iter, which } => {
                self.seen = last;
                self.phase = Phase::AuxExit { iter, which };
                Action::Mem(MemOp::Store(aux_word(which), self.seen + 1))
            }
            Phase::AuxExit { iter, which } => {
                self.phase = if which == 0 {
                    Phase::AuxEnter { iter, which: 1 }
                } else {
                    Phase::SweepBarrier { iter }
                };
                Action::Release(LockId(1 + which as u16))
            }
            Phase::SweepBarrier { iter } => {
                self.phase = Phase::SweepStart { iter: iter + 1 };
                Action::Barrier
            }
            Phase::Finished => Action::Done,
        }
    }

    snap_methods!(workload);
}

/// Build OCEAN on a `scale × scale` grid.
pub fn build(cfg: &BenchConfig) -> BenchInstance {
    let edge = cfg.scale;
    let cells = edge * edge;
    let threads = cfg.threads;
    // Contiguous bands of cells per thread.
    let mut first = 0u64;
    let mut workloads: Vec<Box<dyn Workload>> = Vec::with_capacity(threads);
    let mut bands = Vec::with_capacity(threads);
    for t in 0..threads {
        let n = crate::share(cells, threads, t);
        bands.push((first, n));
        workloads.push(Box::new(OceanThread {
            tid: t,
            first_cell: first,
            n_cells: n,
            seed: cfg.seed,
            phase: Phase::SweepStart { iter: 0 },
            seen: 0,
        }));
        first += n;
    }
    let n_threads = threads as u64;
    BenchInstance {
        workloads,
        init: vec![],
        verify: Box::new(move |store| {
            let r = store.load(residual());
            let expect = n_threads * ITERS;
            if r != expect {
                return Err(format!("residual = {r}, expected {expect}"));
            }
            for w in 0..2u64 {
                let v = store.load(aux_word(w));
                if v != ITERS {
                    return Err(format!("aux[{w}] = {v}, expected {ITERS}"));
                }
            }
            // Spot-check the grid: every sampled cell swept ITERS times.
            for idx in (0..cells).step_by((cells / 64).max(1) as usize) {
                let v = store.load(cell(idx));
                if v != ITERS {
                    return Err(format!("cell[{idx}] = {v}, expected {ITERS}"));
                }
            }
            Ok(())
        }),
    }
}

#[cfg(test)]
mod tests {
    use crate::{BenchConfig, BenchKind};

    #[test]
    fn builds_with_bands() {
        let inst = BenchConfig::smoke(BenchKind::Ocean, 8).build();
        assert_eq!(inst.workloads.len(), 8);
    }
}
