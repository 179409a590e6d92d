//! Core-side driver for MP-Locks (related work \[14\]): acquire sends a
//! `Req` message to the kernel lock manager over the main data network and
//! busy-waits on the NIC's grant flag; release sends `Rel` and returns
//! immediately. Like GLocks this avoids coherence storms on a lock
//! variable — but the messages share the data NoC and pay a software
//! manager latency, which is exactly the gap the paper's dedicated G-line
//! network closes.

use glocks_cpu::{load_script, snap_methods, LockBackend, Script, Step};
use glocks_mem::mplock::MpFabric;
use glocks_sim_base::snap::{SnapError, SnapReader};
use glocks_sim_base::{snap, CoreId, ThreadId};
use std::rc::Rc;

/// One workload lock backed by a message-passing lock manager.
pub struct MpLockBackend {
    fabric: Rc<MpFabric>,
    /// The MP-lock id this backend drives (its manager lives at tile
    /// `lock_id % tiles`).
    lock_id: u16,
}
// The fabric (outbox, grant flags) is saved with the memory system.
snap!(shared MpLockBackend { ; skip fabric, lock_id });

impl MpLockBackend {
    pub fn new(fabric: Rc<MpFabric>, lock_id: u16) -> Self {
        MpLockBackend { fabric, lock_id }
    }
}

enum AcqPhase {
    Send,
    Spin,
}
snap!(enum AcqPhase { 0 => Send, 1 => Spin });

struct MpAcquire {
    fabric: Rc<MpFabric>,
    lock_id: u16,
    core: CoreId,
    phase: AcqPhase,
}
snap!(MpAcquire { phase; skip fabric, lock_id, core });

impl Script for MpAcquire {
    fn resume(&mut self, _last: u64) -> Step {
        match self.phase {
            AcqPhase::Send => {
                self.fabric.request(self.core, self.lock_id);
                self.phase = AcqPhase::Spin;
                // the send instruction
                Step::Compute(2)
            }
            AcqPhase::Spin => {
                if self.fabric.take_grant(self.core, self.lock_id) {
                    Step::Done
                } else {
                    // poll the NIC grant flag
                    Step::Compute(1)
                }
            }
        }
    }

    snap_methods!(script);
}

struct MpRelease {
    fabric: Rc<MpFabric>,
    lock_id: u16,
    core: CoreId,
    done: bool,
}
snap!(MpRelease { done; skip fabric, lock_id, core });

impl Script for MpRelease {
    fn resume(&mut self, _last: u64) -> Step {
        if self.done {
            Step::Done
        } else {
            self.done = true;
            self.fabric.release(self.core, self.lock_id);
            Step::Compute(2)
        }
    }

    snap_methods!(script);
}

impl MpLockBackend {
    fn acquire_script(&self, tid: ThreadId) -> MpAcquire {
        MpAcquire {
            fabric: Rc::clone(&self.fabric),
            lock_id: self.lock_id,
            core: CoreId(tid.0),
            phase: AcqPhase::Send,
        }
    }

    fn release_script(&self, tid: ThreadId) -> MpRelease {
        MpRelease {
            fabric: Rc::clone(&self.fabric),
            lock_id: self.lock_id,
            core: CoreId(tid.0),
            done: false,
        }
    }
}

impl LockBackend for MpLockBackend {
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
    use crate::testkit::run_counter_bench_with_mem;

    #[test]
    fn mp_lock_is_correct_under_contention() {
        let out = run_counter_bench_with_mem(
            |mem, _base, _n| Box::new(MpLockBackend::new(mem.mp_fabric(), 0)) as _,
            8,
            5,
        );
        assert_eq!(out.counter_value, 40);
    }

    #[test]
    fn mp_lock_is_fifo() {
        let out = run_counter_bench_with_mem(
            |mem, _base, _n| Box::new(MpLockBackend::new(mem.mp_fabric(), 0)) as _,
            8,
            3,
        );
        let g = &out.grant_order;
        let first: Vec<_> = g[..8].to_vec();
        for r in 1..3 {
            assert_eq!(&g[r * 8..(r + 1) * 8], first.as_slice(), "round {r}");
        }
    }

    #[test]
    fn mp_lock_beats_simple_lock_traffic_rate() {
        let mp = run_counter_bench_with_mem(
            |mem, _base, _n| Box::new(MpLockBackend::new(mem.mp_fabric(), 0)) as _,
            8,
            4,
        );
        let simple = run_counter_bench_with_mem(
            |_mem, base, _n| Box::new(crate::tatas::TatasLock::simple(base)) as _,
            8,
            4,
        );
        let mp_rate = mp.total_bytes as f64 / mp.cycles as f64;
        let simple_rate = simple.total_bytes as f64 / simple.cycles as f64;
        assert!(
            mp_rate < simple_rate,
            "MP-Lock byte rate {mp_rate:.3} !< Simple {simple_rate:.3}"
        );
    }
}
