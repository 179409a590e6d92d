//! Core-side driver of the G-line barrier network (reference \[22\], the
//! authors' companion mechanism): one register write to signal arrival,
//! then a busy-wait on the same register — the barrier twin of Figure 5's
//! `GL_Lock`.

use glocks::barrier::BarrierRegs;
use glocks_cpu::{load_script, snap_methods, BarrierBackend, Script, Spin, Step};
use glocks_sim_base::snap::{SnapError, SnapReader};
use glocks_sim_base::{snap, ThreadId};
use std::rc::Rc;

/// Hardware barrier backend over a [`glocks::GBarrierNetwork`]'s registers.
pub struct GBarrierBackend {
    regs: Rc<BarrierRegs>,
}
// Registers are shared structure saved by the owning GBarrierNetwork.
snap!(shared GBarrierBackend { ; skip regs });

impl GBarrierBackend {
    pub fn new(regs: Rc<BarrierRegs>) -> Self {
        GBarrierBackend { regs }
    }
}

enum Phase {
    Arrive,
    Spin,
}
snap!(enum Phase { 0 => Arrive, 1 => Spin });

struct GBarrierWait {
    regs: Rc<BarrierRegs>,
    core: usize,
    phase: Phase,
}
snap!(GBarrierWait { phase; skip regs, core });

impl Script for GBarrierWait {
    fn resume(&mut self, _last: u64) -> Step {
        match self.phase {
            Phase::Arrive => {
                self.regs.set_arrive(self.core);
                self.phase = Phase::Spin;
                // mov 1, barrier_arrive
                Step::Compute(1)
            }
            Phase::Spin => {
                if self.regs.waiting(self.core) {
                    // bnz barrier_arrive, loop
                    Step::Compute(1)
                } else {
                    Step::Done
                }
            }
        }
    }

    snap_methods!(script);

    /// Spinning on `barrier_arrive` is inert until the barrier network
    /// (which watches the arrive registers and reports its own wakes)
    /// releases this core's episode.
    fn spin(&self) -> Spin {
        if matches!(self.phase, Phase::Spin) && self.regs.waiting(self.core) {
            Spin::Register
        } else {
            Spin::Hot
        }
    }
}

impl GBarrierBackend {
    fn wait_script(&self, tid: ThreadId) -> GBarrierWait {
        GBarrierWait { regs: Rc::clone(&self.regs), core: tid.index(), phase: Phase::Arrive }
    }
}

impl BarrierBackend for GBarrierBackend {
    fn wait(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(self.wait_script(tid))
    }

    snap_methods!(backend);

    fn load_wait_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        load_script(self.wait_script(tid), r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks::{GBarrierNetwork, Topology};
    use glocks_cpu::{Action, Backends, Core, LockBackend, LockTracker, Workload};
    use glocks_mem::MemorySystem;
    use glocks_sim_base::{CmpConfig, CoreId, Mesh2D};
    use std::cell::RefCell;

    /// Same epoch-checking workload as the software-barrier tests.
    struct EpochChecker {
        tid: usize,
        epochs: Rc<RefCell<Vec<u64>>>,
        rounds: u64,
        state: u8,
    }

    impl Workload for EpochChecker {
        fn next(&mut self, _last: u64) -> Action {
            match self.state {
                0 => {
                    if self.rounds == 0 {
                        return Action::Done;
                    }
                    self.epochs.borrow_mut()[self.tid] += 1;
                    self.state = 1;
                    Action::Barrier
                }
                _ => {
                    let my = self.epochs.borrow()[self.tid];
                    for (t, &e) in self.epochs.borrow().iter().enumerate() {
                        assert!(e >= my, "thread {t} behind after a barrier");
                    }
                    self.rounds -= 1;
                    self.state = 0;
                    Action::Compute(5 + (self.tid as u64 * 13) % 37)
                }
            }
        }
    }

    #[test]
    fn hardware_barrier_synchronizes_and_is_fast() {
        let threads = 9;
        let cfg = CmpConfig::paper_baseline().with_cores(threads);
        let mut mem = MemorySystem::new(&cfg);
        let mut net = GBarrierNetwork::new(&Topology::flat(Mesh2D::near_square(threads)), 1);
        let backend = GBarrierBackend::new(net.regs());
        let locks: Vec<Box<dyn LockBackend>> = Vec::new();
        let backends = Backends { locks: &locks, barrier: &backend };
        let mut tracker = LockTracker::new(0, threads);
        let epochs = Rc::new(RefCell::new(vec![0u64; threads]));
        let rounds = 6;
        let mut cores: Vec<Core> = (0..threads)
            .map(|i| {
                Core::new(
                    CoreId(i as u16),
                    cfg.issue_width,
                    Box::new(EpochChecker {
                        tid: i,
                        epochs: Rc::clone(&epochs),
                        rounds,
                        state: 0,
                    }),
                )
            })
            .collect();
        let mut now = 0u64;
        loop {
            let mut all_done = true;
            for c in &mut cores {
                c.tick(now, &mut mem, &backends, &mut tracker);
                all_done &= c.is_finished();
            }
            mem.tick(now);
            net.tick(now);
            if all_done {
                break;
            }
            now += 1;
            assert!(now < 100_000, "hardware barrier hung");
        }
        assert_eq!(net.episodes(), rounds);
        assert!(epochs.borrow().iter().all(|&e| e == rounds));
        // 6 episodes of a handful of cycles each plus jittered compute —
        // far faster than a memory-based barrier would allow.
        assert!(now < 500, "took {now} cycles");
    }
}
