//! Ticket Lock: a `fetch&increment` ticket counter plus a now-serving
//! counter (Section II).

use crate::layout::slot;
use glocks_cpu::{load_script, snap_methods, LockBackend, Script, Spin, Step};
use glocks_mem::{MemOp, RmwKind};
use glocks_sim_base::snap::{SnapError, SnapReader};
use glocks_sim_base::{snap, Addr, ThreadId};
use std::cell::Cell;
use std::rc::Rc;

/// FIFO ticket lock. The two counters live in distinct cache lines.
pub struct TicketLock {
    ticket: Addr,
    serving: Addr,
    /// Each thread's current ticket, carried from acquire to release
    /// (shared with the in-flight acquire script).
    my_ticket: Vec<Rc<Cell<u64>>>,
}
snap!(shared TicketLock { my_ticket as fixed; skip ticket, serving });

impl TicketLock {
    pub fn new(base: Addr, n_threads: usize) -> Self {
        TicketLock {
            ticket: slot(base, 0),
            serving: slot(base, 1),
            my_ticket: (0..n_threads).map(|_| Rc::new(Cell::new(0))).collect(),
        }
    }
}

enum AcqState {
    TakeTicket,
    GotTicket,
    Spinning,
}
snap!(enum AcqState { 0 => TakeTicket, 1 => GotTicket, 2 => Spinning });

struct TicketAcquire {
    ticket: Addr,
    serving: Addr,
    state: AcqState,
    mine: Rc<Cell<u64>>,
}
snap!(TicketAcquire { state; skip ticket, serving, mine });

impl Script for TicketAcquire {
    fn resume(&mut self, last: u64) -> Step {
        match self.state {
            AcqState::TakeTicket => {
                // my_ticket := fetch&increment(next_ticket)
                self.state = AcqState::GotTicket;
                Step::Mem(MemOp::Rmw(self.ticket, RmwKind::FetchAdd(1)))
            }
            AcqState::GotTicket => {
                self.mine.set(last);
                self.state = AcqState::Spinning;
                Step::Mem(MemOp::Load(self.serving))
            }
            AcqState::Spinning => {
                // busy-wait until now_serving == my_ticket
                if last == self.mine.get() {
                    Step::Done
                } else {
                    Step::Mem(MemOp::Load(self.serving))
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

struct TicketRelease {
    serving: Addr,
    next: u64,
    done: bool,
}
snap!(TicketRelease { next, done; skip serving });

impl Script for TicketRelease {
    fn resume(&mut self, _last: u64) -> Step {
        if self.done {
            Step::Done
        } else {
            self.done = true;
            // now_serving := my_ticket + 1
            Step::Mem(MemOp::Store(self.serving, self.next))
        }
    }

    snap_methods!(script);
}

impl TicketLock {
    fn acquire_script(&self, tid: ThreadId) -> TicketAcquire {
        TicketAcquire {
            ticket: self.ticket,
            serving: self.serving,
            state: AcqState::TakeTicket,
            mine: Rc::clone(&self.my_ticket[tid.index()]),
        }
    }

    fn release_script(&self, tid: ThreadId) -> TicketRelease {
        TicketRelease {
            serving: self.serving,
            next: self.my_ticket[tid.index()].get() + 1,
            done: false,
        }
    }
}

impl LockBackend for TicketLock {
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
    fn ticket_lock_is_correct() {
        let outcome = run_counter_bench(|base, n| Box::new(TicketLock::new(base, n)) as _, 8, 5);
        assert_eq!(outcome.counter_value, 40);
    }

    #[test]
    fn ticket_lock_is_fifo() {
        // All 8 threads pile up; after the first round the grant order must
        // repeat in exactly the same sequence (FIFO tickets).
        let outcome = run_counter_bench(|base, n| Box::new(TicketLock::new(base, n)) as _, 8, 3);
        let g = &outcome.grant_order;
        assert_eq!(g.len(), 24);
        let first_round: Vec<ThreadId> = g[..8].to_vec();
        for r in 1..3 {
            assert_eq!(&g[r * 8..(r + 1) * 8], first_round.as_slice(), "round {r}");
        }
    }

    #[test]
    fn two_thread_handoff() {
        let outcome = run_counter_bench(|base, n| Box::new(TicketLock::new(base, n)) as _, 2, 10);
        assert_eq!(outcome.counter_value, 20);
    }
}
