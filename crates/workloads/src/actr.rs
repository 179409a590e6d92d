//! ACTR: "two locks that protect two counters accessed consecutively by
//! all threads. For each iteration, all threads acquire the first lock to
//! update the first counter, barrier synchronizes them, and then the
//! second lock is acquired to modify the second counter."
//!
//! The interleaved barrier spreads acquisitions out, which is why the
//! paper measures a *moderate, homogeneous* contention level across the
//! whole grAC range for ACTR (Figure 7) — and why its MCS penalty is the
//! largest (MCS is inefficient at low contention).

use crate::{BenchConfig, BenchInstance, DATA_BASE};
use glocks_cpu::{snap_methods, Action, Workload};
use glocks_mem::MemOp;
use glocks_sim_base::{snap, Addr, LockId};

fn ctr0() -> Addr {
    DATA_BASE
}

fn ctr1() -> Addr {
    Addr(DATA_BASE.0 + 64)
}

enum Phase {
    EnterFirst,
    LoadFirst,
    StoreFirst,
    ExitFirst,
    BarrierWait,
    EnterSecond,
    LoadSecond,
    StoreSecond,
    ExitSecond,
    EndBarrier,
}
snap!(enum Phase {
    0 => EnterFirst,
    1 => LoadFirst,
    2 => StoreFirst,
    3 => ExitFirst,
    4 => BarrierWait,
    5 => EnterSecond,
    6 => LoadSecond,
    7 => StoreSecond,
    8 => ExitSecond,
    9 => EndBarrier,
});

struct ActrLoop {
    iters: u64,
    phase: Phase,
    seen: u64,
}
snap!(ActrLoop { phase, iters, seen });

impl Workload for ActrLoop {
    fn next(&mut self, last: u64) -> Action {
        match self.phase {
            Phase::EnterFirst => {
                if self.iters == 0 {
                    return Action::Done;
                }
                self.phase = Phase::LoadFirst;
                Action::Acquire(LockId(0))
            }
            Phase::LoadFirst => {
                self.phase = Phase::StoreFirst;
                Action::Mem(MemOp::Load(ctr0()))
            }
            Phase::StoreFirst => {
                self.seen = last;
                self.phase = Phase::ExitFirst;
                Action::Mem(MemOp::Store(ctr0(), self.seen + 1))
            }
            Phase::ExitFirst => {
                self.phase = Phase::BarrierWait;
                Action::Release(LockId(0))
            }
            Phase::BarrierWait => {
                self.phase = Phase::EnterSecond;
                Action::Barrier
            }
            Phase::EnterSecond => {
                self.phase = Phase::LoadSecond;
                Action::Acquire(LockId(1))
            }
            Phase::LoadSecond => {
                self.phase = Phase::StoreSecond;
                Action::Mem(MemOp::Load(ctr1()))
            }
            Phase::StoreSecond => {
                self.seen = last;
                self.phase = Phase::ExitSecond;
                Action::Mem(MemOp::Store(ctr1(), self.seen + 1))
            }
            Phase::ExitSecond => {
                self.iters -= 1;
                self.phase = Phase::EndBarrier;
                Action::Release(LockId(1))
            }
            Phase::EndBarrier => {
                self.phase = Phase::EnterFirst;
                Action::Barrier
            }
        }
    }

    snap_methods!(workload);
}

/// Build ACTR. All threads run the same number of iterations (the barrier
/// requires every thread to participate every round), so the per-thread
/// count is `scale / threads` rounded up to at least 1.
pub fn build(cfg: &BenchConfig) -> BenchInstance {
    let threads = cfg.threads;
    let iters = (cfg.scale / threads as u64).max(1);
    let total = iters * threads as u64;
    let workloads = (0..threads)
        .map(|_| Box::new(ActrLoop { iters, phase: Phase::EnterFirst, seen: 0 }) as Box<dyn Workload>)
        .collect();
    BenchInstance {
        workloads,
        init: vec![],
        verify: Box::new(move |store| {
            for (name, addr) in [("first", ctr0()), ("second", ctr1())] {
                let v = store.load(addr);
                if v != total {
                    return Err(format!("ACTR {name} counter = {v}, expected {total}"));
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
    fn builds_with_uniform_iterations() {
        let inst = BenchConfig::smoke(BenchKind::Actr, 8).build();
        assert_eq!(inst.workloads.len(), 8);
    }
}
