//! SCTR and MCTR: the counter microbenchmarks.
//!
//! * **Single Counter (SCTR)** — "a counter (fits in a cache line),
//!   protected by a single lock, that is incremented by all threads in a
//!   loop".
//! * **Multiple Counter (MCTR)** — "an array of counters (residing in
//!   different cache lines), protected by a single lock, where each thread
//!   increments a different counter of the array in a loop".
//!
//! Increments are deliberately non-atomic load/compute/store sequences so
//! that a mutual-exclusion failure corrupts the final count.

use crate::{share, BenchConfig, BenchInstance, DATA_BASE};
use glocks_cpu::{snap_methods, Action, Workload};
use glocks_mem::MemOp;
use glocks_sim_base::{snap, Addr, LockId};

/// Cycles of "work" between critical sections (keeps a short re-entry gap
/// so the lock stays saturated, as in the paper's microbenchmarks).
const REST_INSTRS: u64 = 24;
/// Instructions inside the critical section besides the two memory ops.
const CS_INSTRS: u64 = 4;

enum Phase {
    Enter,
    Load,
    Bump,
    Store,
    Exit,
    Rest,
}
snap!(enum Phase { 0 => Enter, 1 => Load, 2 => Bump, 3 => Store, 4 => Exit, 5 => Rest });

struct CounterLoop {
    counter: Addr,
    iters: u64,
    phase: Phase,
    seen: u64,
}
snap!(CounterLoop { phase, iters, seen; skip counter });

impl CounterLoop {
    fn new(counter: Addr, iters: u64) -> Self {
        CounterLoop { counter, iters, phase: Phase::Enter, seen: 0 }
    }
}

impl Workload for CounterLoop {
    fn next(&mut self, last: u64) -> Action {
        match self.phase {
            Phase::Enter => {
                if self.iters == 0 {
                    return Action::Done;
                }
                self.phase = Phase::Load;
                Action::Acquire(LockId(0))
            }
            Phase::Load => {
                self.phase = Phase::Bump;
                Action::Mem(MemOp::Load(self.counter))
            }
            Phase::Bump => {
                self.seen = last;
                self.phase = Phase::Store;
                Action::Compute(CS_INSTRS)
            }
            Phase::Store => {
                self.phase = Phase::Exit;
                Action::Mem(MemOp::Store(self.counter, self.seen + 1))
            }
            Phase::Exit => {
                self.iters -= 1;
                self.phase = Phase::Rest;
                Action::Release(LockId(0))
            }
            Phase::Rest => {
                self.phase = Phase::Enter;
                Action::Compute(REST_INSTRS)
            }
        }
    }

    snap_methods!(workload);
}

/// Build SCTR.
pub fn sctr(cfg: &BenchConfig) -> BenchInstance {
    let counter = DATA_BASE;
    let total = cfg.scale;
    let threads = cfg.threads;
    let workloads = (0..threads)
        .map(|t| {
            Box::new(CounterLoop::new(counter, share(total, threads, t))) as Box<dyn Workload>
        })
        .collect();
    BenchInstance {
        workloads,
        init: vec![],
        verify: Box::new(move |store| {
            let v = store.load(counter);
            if v == total {
                Ok(())
            } else {
                Err(format!("SCTR counter = {v}, expected {total} (lost updates)"))
            }
        }),
    }
}

/// Build MCTR: same loop, but thread `t` bumps its own line-separated
/// counter (still under the single global lock).
pub fn mctr(cfg: &BenchConfig) -> BenchInstance {
    let threads = cfg.threads;
    let total = cfg.scale;
    let counter_of = |t: usize| Addr(DATA_BASE.0 + t as u64 * 64);
    let shares: Vec<u64> = (0..threads).map(|t| share(total, threads, t)).collect();
    let workloads = (0..threads)
        .map(|t| Box::new(CounterLoop::new(counter_of(t), shares[t])) as Box<dyn Workload>)
        .collect();
    BenchInstance {
        workloads,
        init: vec![],
        verify: Box::new(move |store| {
            for (t, &expect) in shares.iter().enumerate() {
                let v = store.load(counter_of(t));
                if v != expect {
                    return Err(format!(
                        "MCTR counter[{t}] = {v}, expected {expect}"
                    ));
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
    fn instances_have_expected_shape() {
        let c = BenchConfig::smoke(BenchKind::Sctr, 8);
        let inst = c.build();
        assert_eq!(inst.workloads.len(), 8);
        assert!(inst.init.is_empty());
        let c = BenchConfig::smoke(BenchKind::Mctr, 8);
        let inst = c.build();
        assert_eq!(inst.workloads.len(), 8);
    }
}
