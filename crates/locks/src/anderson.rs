//! Anderson's Array-based queue lock: "just replaces the now-serving
//! counter by an array of locations" (Section II). Each thread spins on its
//! own slot, in its own cache line.

use crate::layout::{region_bytes, slot};
use glocks_cpu::{load_script, snap_methods, LockBackend, Script, Spin, Step};
use glocks_mem::{MemOp, RmwKind};
use glocks_sim_base::snap::{SnapError, SnapReader};
use glocks_sim_base::{snap, Addr, ThreadId};
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
snap!(shared AndersonLock { my_index as fixed; skip base, n });

impl AndersonLock {
    pub fn new(base: Addr, n_threads: usize) -> Self {
        AndersonLock {
            base,
            n: n_threads as u64,
            my_index: (0..n_threads).map(|_| Rc::new(Cell::new(0))).collect(),
        }
    }

    /// Simulated-memory footprint in bytes (for region planning).
    pub fn region_bytes(n_threads: usize) -> u64 {
        region_bytes(1 + n_threads as u64)
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
snap!(enum AcqState { 0 => TakeIndex, 1 => GotIndex, 2 => Spinning });

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
snap!(AndersonAcquire { state, needed, spin_addr; skip tail, n, base, my_index });

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

    snap_methods!(script);

    fn spin(&self) -> Spin {
        match self.state {
            AcqState::Spinning => Spin::Load,
            _ => Spin::Hot,
        }
    }
}

enum RelState {
    Bump(Addr),
    Finished,
}
snap!(enum RelState { 0 => Bump(slot), 1 => Finished });

/// Release: open the successor's slot by incrementing its open-count.
struct AndersonRelease {
    state: RelState,
}
snap!(AndersonRelease { state });

impl Script for AndersonRelease {
    fn resume(&mut self, _last: u64) -> Step {
        match std::mem::replace(&mut self.state, RelState::Finished) {
            RelState::Bump(addr) => Step::Mem(MemOp::Rmw(addr, RmwKind::FetchAdd(1))),
            RelState::Finished => Step::Done,
        }
    }

    snap_methods!(script);
}

impl AndersonLock {
    fn acquire_script(&self, tid: ThreadId) -> AndersonAcquire {
        AndersonAcquire {
            tail: self.tail(),
            n: self.n,
            base: self.base,
            state: AcqState::TakeIndex,
            my_index: Rc::clone(&self.my_index[tid.index()]),
            needed: 0,
            spin_addr: Addr(0),
        }
    }

    fn release_script(&self, tid: ThreadId) -> AndersonRelease {
        let ticket = self.my_index[tid.index()].get();
        let next = (ticket + 1) % self.n;
        AndersonRelease { state: RelState::Bump(self.slot_addr(next)) }
    }
}

impl LockBackend for AndersonLock {
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
