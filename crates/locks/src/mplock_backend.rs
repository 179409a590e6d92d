//! Core-side driver for MP-Locks (related work \[14\]): acquire sends a
//! `Req` message to the kernel lock manager over the main data network and
//! busy-waits on the NIC's grant flag; release sends `Rel` and returns
//! immediately. Like GLocks this avoids coherence storms on a lock
//! variable — but the messages share the data NoC and pay a software
//! manager latency, which is exactly the gap the paper's dedicated G-line
//! network closes.

use glocks_cpu::{LockBackend, Script, Step};
use glocks_mem::mplock::MpFabric;
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{CoreId, ThreadId};
use std::rc::Rc;

/// One workload lock backed by a message-passing lock manager.
pub struct MpLockBackend {
    fabric: Rc<MpFabric>,
    /// The MP-lock id this backend drives (its manager lives at tile
    /// `lock_id % tiles`).
    lock_id: u16,
}

impl MpLockBackend {
    pub fn new(fabric: Rc<MpFabric>, lock_id: u16) -> Self {
        MpLockBackend { fabric, lock_id }
    }
}

enum AcqPhase {
    Send,
    Spin,
}

struct MpAcquire {
    fabric: Rc<MpFabric>,
    lock_id: u16,
    core: CoreId,
    phase: AcqPhase,
}

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

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u8(match self.phase {
            AcqPhase::Send => 0,
            AcqPhase::Spin => 1,
        });
        Ok(())
    }
}

struct MpRelease {
    fabric: Rc<MpFabric>,
    lock_id: u16,
    core: CoreId,
    done: bool,
}

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

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.bool(self.done);
        Ok(())
    }
}

impl LockBackend for MpLockBackend {
    fn acquire(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(MpAcquire {
            fabric: Rc::clone(&self.fabric),
            lock_id: self.lock_id,
            core: CoreId(tid.0),
            phase: AcqPhase::Send,
        })
    }

    fn release(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(MpRelease {
            fabric: Rc::clone(&self.fabric),
            lock_id: self.lock_id,
            core: CoreId(tid.0),
            done: false,
        })
    }

    // The fabric (outbox, grant flags) is saved with the memory system.
    fn save_state(&self, _w: &mut SnapWriter) -> Result<(), SnapError> {
        Ok(())
    }

    fn load_state(&self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }

    fn load_acquire_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        let phase = match r.u8()? {
            0 => AcqPhase::Send,
            1 => AcqPhase::Spin,
            tag => {
                return Err(SnapError::BadTag { what: "mp-lock acquire phase", tag: u64::from(tag) })
            }
        };
        Ok(Box::new(MpAcquire {
            fabric: Rc::clone(&self.fabric),
            lock_id: self.lock_id,
            core: CoreId(tid.0),
            phase,
        }))
    }

    fn load_release_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        Ok(Box::new(MpRelease {
            fabric: Rc::clone(&self.fabric),
            lock_id: self.lock_id,
            core: CoreId(tid.0),
            done: r.bool()?,
        }))
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
