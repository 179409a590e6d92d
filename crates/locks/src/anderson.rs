//! Anderson's Array-based queue lock: "just replaces the now-serving
//! counter by an array of locations" (Section II). Each thread spins on its
//! own slot, in its own cache line.

use crate::layout::slot;
use glocks_cpu::{LockBackend, Script, Step};
use glocks_mem::{MemOp, RmwKind};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{Addr, ThreadId};
use std::cell::Cell;
use std::rc::Rc;

/// Array-based lock: a tail counter plus `n` spin slots.
///
/// Layout: slot 0 = tail counter; slots 1..=n = the `has_lock` array.
/// Initialization: `has_lock\[0\] = 1` (performed lazily through the
/// convention that slot values hold *generation counts*: a slot is open for
/// round `r` when its value is ≥ r+1; see below).
pub struct AndersonLock {
    base: Addr,
    n: u64,
    my_index: Vec<Rc<Cell<u64>>>,
}

impl AndersonLock {
    pub fn new(base: Addr, n_threads: usize) -> Self {
        AndersonLock {
            base,
            n: n_threads as u64,
            my_index: (0..n_threads).map(|_| Rc::new(Cell::new(0))).collect(),
        }
    }

    fn tail(&self) -> Addr {
        slot(self.base, 0)
    }

    fn slot_addr(&self, i: u64) -> Addr {
        slot(self.base, 1 + i)
    }
}

enum AcqState {
    TakeIndex,
    GotIndex,
    Spinning,
}

/// Generation trick: the classic boolean `has_lock` array needs
/// `has_lock\[0\]` pre-set and per-round resets that race under wraparound.
/// Instead each slot stores the number of times it has been *opened*;
/// ticket `t` (slot `t mod n`, round `t div n`) may enter when its slot's
/// open-count is ≥ `round + 1`, with slot 0 implicitly open for round 0
/// (count ≥ 0 ⇒ the very first ticket enters immediately).
struct AndersonAcquire {
    tail: Addr,
    n: u64,
    base: Addr,
    state: AcqState,
    my_index: Rc<Cell<u64>>,
    needed: u64,
    spin_addr: Addr,
}

impl Script for AndersonAcquire {
    fn resume(&mut self, last: u64) -> Step {
        match self.state {
            AcqState::TakeIndex => {
                self.state = AcqState::GotIndex;
                Step::Mem(MemOp::Rmw(self.tail, RmwKind::FetchAdd(1)))
            }
            AcqState::GotIndex => {
                let ticket = last;
                self.my_index.set(ticket);
                let index = ticket % self.n;
                let round = ticket / self.n;
                // Ticket 0 holds the lock without waiting.
                if ticket == 0 {
                    return Step::Done;
                }
                self.needed = if index == 0 { round } else { round + 1 };
                self.spin_addr = slot(self.base, 1 + index);
                self.state = AcqState::Spinning;
                Step::Mem(MemOp::Load(self.spin_addr))
            }
            AcqState::Spinning => {
                if last >= self.needed {
                    Step::Done
                } else {
                    Step::Mem(MemOp::Load(self.spin_addr))
                }
            }
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u8(match self.state {
            AcqState::TakeIndex => 0,
            AcqState::GotIndex => 1,
            AcqState::Spinning => 2,
        });
        w.u64(self.needed);
        w.u64(self.spin_addr.0);
        Ok(())
    }
}

enum RelState {
    Bump(Addr),
    Finished,
}

/// Release: open the successor's slot by incrementing its open-count.
struct AndersonRelease {
    state: RelState,
}

impl Script for AndersonRelease {
    fn resume(&mut self, _last: u64) -> Step {
        match std::mem::replace(&mut self.state, RelState::Finished) {
            RelState::Bump(addr) => Step::Mem(MemOp::Rmw(addr, RmwKind::FetchAdd(1))),
            RelState::Finished => Step::Done,
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        match self.state {
            RelState::Bump(addr) => {
                w.u8(0);
                w.u64(addr.0);
            }
            RelState::Finished => w.u8(1),
        }
        Ok(())
    }
}

impl LockBackend for AndersonLock {
    fn acquire(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(AndersonAcquire {
            tail: self.tail(),
            n: self.n,
            base: self.base,
            state: AcqState::TakeIndex,
            my_index: Rc::clone(&self.my_index[tid.index()]),
            needed: 0,
            spin_addr: Addr(0),
        })
    }

    fn release(&self, tid: ThreadId) -> Box<dyn Script> {
        let ticket = self.my_index[tid.index()].get();
        let next = (ticket + 1) % self.n;
        Box::new(AndersonRelease {
            state: RelState::Bump(self.slot_addr(next)),
        })
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.my_index.len());
        for t in &self.my_index {
            w.u64(t.get());
        }
        Ok(())
    }

    fn load_state(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.usize()? != self.my_index.len() {
            return Err(SnapError::Corrupt { what: "anderson lock thread count" });
        }
        for t in &self.my_index {
            t.set(r.u64()?);
        }
        Ok(())
    }

    fn load_acquire_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        let state = match r.u8()? {
            0 => AcqState::TakeIndex,
            1 => AcqState::GotIndex,
            2 => AcqState::Spinning,
            tag => {
                return Err(SnapError::BadTag {
                    what: "anderson acquire state",
                    tag: u64::from(tag),
                })
            }
        };
        let needed = r.u64()?;
        let spin_addr = Addr(r.u64()?);
        Ok(Box::new(AndersonAcquire {
            tail: self.tail(),
            n: self.n,
            base: self.base,
            state,
            my_index: Rc::clone(&self.my_index[tid.index()]),
            needed,
            spin_addr,
        }))
    }

    fn load_release_script(
        &self,
        _tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        let state = match r.u8()? {
            0 => RelState::Bump(Addr(r.u64()?)),
            1 => RelState::Finished,
            tag => {
                return Err(SnapError::BadTag {
                    what: "anderson release state",
                    tag: u64::from(tag),
                })
            }
        };
        Ok(Box::new(AndersonRelease { state }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::run_counter_bench;

    #[test]
    fn anderson_is_correct() {
        let outcome = run_counter_bench(|base, n| Box::new(AndersonLock::new(base, n)) as _, 8, 5);
        assert_eq!(outcome.counter_value, 40);
    }

    #[test]
    fn anderson_is_fifo() {
        let outcome = run_counter_bench(|base, n| Box::new(AndersonLock::new(base, n)) as _, 8, 3);
        let g = &outcome.grant_order;
        let first: Vec<ThreadId> = g[..8].to_vec();
        for r in 1..3 {
            assert_eq!(&g[r * 8..(r + 1) * 8], first.as_slice(), "round {r}");
        }
    }

    #[test]
    fn wraparound_many_rounds() {
        // More rounds than slots: the generation counters must keep the
        // array consistent across wraparound.
        let outcome = run_counter_bench(|base, n| Box::new(AndersonLock::new(base, n)) as _, 4, 12);
        assert_eq!(outcome.counter_value, 48);
    }

    #[test]
    fn single_thread_fast_path() {
        let outcome = run_counter_bench(|base, n| Box::new(AndersonLock::new(base, n)) as _, 1, 5);
        assert_eq!(outcome.counter_value, 5);
    }
}
