//! The MCS queue lock (Mellor-Crummey & Scott) — the paper's baseline for
//! highly-contended locks: a distributed queue of waiting threads, each
//! busy-waiting on a unique, locally-cached flag.

use crate::layout::{region_bytes, slot};
use glocks_cpu::{load_script, snap_methods, LockBackend, Script, Spin, Step};
use glocks_mem::{MemOp, RmwKind};
use glocks_sim_base::snap::{SnapError, SnapReader};
use glocks_sim_base::{snap, Addr, ThreadId};

/// MCS lock memory layout:
/// * slot 0 — the tail pointer (0 = null, otherwise a qnode base address);
/// * per thread `t`, two dedicated cache lines:
///   `qnode_t.next` (slot `1 + 2t`) and `qnode_t.locked` (slot `2 + 2t`).
pub struct McsLock {
    base: Addr,
}
// The queue (tail pointer, qnodes) lives entirely in simulated memory.
snap!(shared McsLock { ; skip base });

impl McsLock {
    pub fn new(base: Addr, _n_threads: usize) -> Self {
        McsLock { base }
    }

    /// Simulated-memory footprint in bytes (for region planning).
    pub fn region_bytes(n_threads: usize) -> u64 {
        region_bytes(1 + 2 * n_threads as u64)
    }

    fn tail(&self) -> Addr {
        slot(self.base, 0)
    }

    fn qnode_next(&self, tid: ThreadId) -> Addr {
        slot(self.base, 1 + 2 * tid.index() as u64)
    }

    fn qnode_locked(&self, tid: ThreadId) -> Addr {
        slot(self.base, 2 + 2 * tid.index() as u64)
    }
}

enum AcqState {
    /// `my.next := null`
    ClearNext,
    /// `pred := swap(tail, my_node)`
    Swap,
    /// Examine `pred`.
    GotPred,
    /// `my.locked := true` done; now `pred.next := my_node`.
    SetLocked { pred_next: Addr },
    /// Link stored; start spinning on `my.locked`.
    Linked,
    /// Spin until `my.locked == 0`.
    Spinning,
}
snap!(enum AcqState {
    0 => ClearNext,
    1 => Swap,
    2 => GotPred,
    3 => SetLocked { pred_next },
    4 => Linked,
    5 => Spinning,
});

pub(crate) struct McsAcquire {
    tail: Addr,
    my_node: u64,
    my_next: Addr,
    my_locked: Addr,
    state: AcqState,
}
snap!(McsAcquire { state; skip tail, my_node, my_next, my_locked });

impl Script for McsAcquire {
    fn resume(&mut self, last: u64) -> Step {
        match self.state {
            AcqState::ClearNext => {
                self.state = AcqState::Swap;
                Step::Mem(MemOp::Store(self.my_next, 0))
            }
            AcqState::Swap => {
                self.state = AcqState::GotPred;
                Step::Mem(MemOp::Rmw(self.tail, RmwKind::Swap(self.my_node)))
            }
            AcqState::GotPred => {
                let pred = last;
                if pred == 0 {
                    return Step::Done; // queue was empty: we own the lock
                }
                // pred.next lives at pred + LINE (qnode base = next field).
                self.state = AcqState::SetLocked { pred_next: Addr(pred) };
                Step::Mem(MemOp::Store(self.my_locked, 1))
            }
            AcqState::SetLocked { pred_next } => {
                self.state = AcqState::Linked;
                Step::Mem(MemOp::Store(pred_next, self.my_node))
            }
            AcqState::Linked => {
                self.state = AcqState::Spinning;
                Step::Mem(MemOp::Load(self.my_locked))
            }
            AcqState::Spinning => {
                if last == 0 {
                    Step::Done
                } else {
                    Step::Mem(MemOp::Load(self.my_locked))
                }
            }
        }
    }

    snap_methods!(script);

    fn spin(&self) -> Spin {
        match self.state {
            AcqState::Spinning => Spin::Load,
            _ => Spin::Hot,
        }
    }
}

enum RelState {
    /// `next := my.next`
    ReadNext,
    /// Decide: successor present or CAS the tail.
    GotNext,
    /// `compare&swap(tail, my_node, 0)` issued.
    CasIssued,
    /// CAS failed: a successor is linking; spin on `my.next`.
    WaitLink,
    /// `successor.locked := 0`
    Unlock { locked_addr: Addr },
    Finished,
}
snap!(enum RelState {
    0 => ReadNext,
    1 => GotNext,
    2 => CasIssued,
    3 => WaitLink,
    4 => Unlock { locked_addr },
    5 => Finished,
});

pub(crate) struct McsRelease {
    tail: Addr,
    my_node: u64,
    my_next: Addr,
    state: RelState,
}
snap!(McsRelease { state; skip tail, my_node, my_next });

impl McsRelease {
    /// The `locked` field of the successor qnode whose *base* (= the `next`
    /// field's address) is `node`.
    fn locked_of(node: u64) -> Addr {
        Addr(node + crate::layout::LINE)
    }
}

impl Script for McsRelease {
    fn resume(&mut self, last: u64) -> Step {
        loop {
            match self.state {
                RelState::ReadNext => {
                    self.state = RelState::GotNext;
                    return Step::Mem(MemOp::Load(self.my_next));
                }
                RelState::GotNext => {
                    if last == 0 {
                        // No visible successor: try to swing tail to null.
                        self.state = RelState::CasIssued;
                        return Step::Mem(MemOp::Rmw(
                            self.tail,
                            RmwKind::CompareAndSwap { expected: self.my_node, new: 0 },
                        ));
                    }
                    self.state = RelState::Unlock { locked_addr: Self::locked_of(last) };
                    // fall through next loop iteration
                }
                RelState::CasIssued => {
                    if last == self.my_node {
                        // CAS succeeded: the queue is empty.
                        self.state = RelState::Finished;
                        return Step::Done;
                    }
                    // A successor is mid-link: wait for pred.next to appear.
                    self.state = RelState::WaitLink;
                    return Step::Mem(MemOp::Load(self.my_next));
                }
                RelState::WaitLink => {
                    if last == 0 {
                        return Step::Mem(MemOp::Load(self.my_next));
                    }
                    self.state = RelState::Unlock { locked_addr: Self::locked_of(last) };
                }
                RelState::Unlock { locked_addr } => {
                    self.state = RelState::Finished;
                    return Step::Mem(MemOp::Store(locked_addr, 0));
                }
                RelState::Finished => return Step::Done,
            }
        }
    }

    snap_methods!(script);

    fn spin(&self) -> Spin {
        match self.state {
            RelState::WaitLink => Spin::Load,
            _ => Spin::Hot,
        }
    }
}

impl McsLock {
    pub(crate) fn acquire_script(&self, tid: ThreadId) -> McsAcquire {
        McsAcquire {
            tail: self.tail(),
            my_node: self.qnode_next(tid).0,
            my_next: self.qnode_next(tid),
            my_locked: self.qnode_locked(tid),
            state: AcqState::ClearNext,
        }
    }

    pub(crate) fn release_script(&self, tid: ThreadId) -> McsRelease {
        McsRelease {
            tail: self.tail(),
            my_node: self.qnode_next(tid).0,
            my_next: self.qnode_next(tid),
            state: RelState::ReadNext,
        }
    }
}

impl LockBackend for McsLock {
    fn acquire(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(self.acquire_script(tid))
    }

    fn release(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(self.release_script(tid))
    }

    snap_methods!(backend);

    fn load_acquire_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        load_script(self.acquire_script(tid), r)
    }

    fn load_release_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        load_script(self.release_script(tid), r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::run_counter_bench;

    #[test]
    fn mcs_is_correct_under_contention() {
        let outcome = run_counter_bench(|base, n| Box::new(McsLock::new(base, n)) as _, 8, 5);
        assert_eq!(outcome.counter_value, 40);
    }

    #[test]
    fn mcs_32_cores() {
        let outcome = run_counter_bench(|base, n| Box::new(McsLock::new(base, n)) as _, 32, 2);
        assert_eq!(outcome.counter_value, 64);
    }

    #[test]
    fn mcs_single_thread_uncontended() {
        let outcome = run_counter_bench(|base, n| Box::new(McsLock::new(base, n)) as _, 1, 6);
        assert_eq!(outcome.counter_value, 6);
    }

    #[test]
    fn mcs_is_fifo_under_pileup() {
        let outcome = run_counter_bench(|base, n| Box::new(McsLock::new(base, n)) as _, 8, 3);
        let g = &outcome.grant_order;
        // swap() order defines the queue; each subsequent round must follow
        // the same cyclic order because every thread re-enqueues promptly.
        let first: Vec<ThreadId> = g[..8].to_vec();
        for r in 1..3 {
            assert_eq!(&g[r * 8..(r + 1) * 8], first.as_slice(), "round {r}");
        }
    }

    #[test]
    fn mcs_spins_locally() {
        // MCS's signature property: while waiting, each thread loads its
        // own locked flag, which stays cached — byte *rate* on the network
        // must be far below Simple lock's.
        let mcs = run_counter_bench(|base, n| Box::new(McsLock::new(base, n)) as _, 8, 4);
        let simple = run_counter_bench(
            |base, _n| Box::new(crate::tatas::TatasLock::simple(base)) as _,
            8,
            4,
        );
        let mcs_rate = mcs.total_bytes as f64 / mcs.cycles as f64;
        let simple_rate = simple.total_bytes as f64 / simple.cycles as f64;
        assert!(
            mcs_rate < simple_rate,
            "MCS rate {mcs_rate:.3} !< Simple rate {simple_rate:.3}"
        );
    }
}
