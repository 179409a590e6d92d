//! Ticket Lock: a `fetch&increment` ticket counter plus a now-serving
//! counter (Section II).

use crate::layout::slot;
use glocks_cpu::{LockBackend, Script, Step};
use glocks_mem::{MemOp, RmwKind};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{Addr, ThreadId};
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

struct TicketAcquire {
    ticket: Addr,
    serving: Addr,
    state: AcqState,
    mine: Rc<Cell<u64>>,
}

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

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u8(match self.state {
            AcqState::TakeTicket => 0,
            AcqState::GotTicket => 1,
            AcqState::Spinning => 2,
        });
        Ok(())
    }
}

struct TicketRelease {
    serving: Addr,
    next: u64,
    done: bool,
}

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

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u64(self.next);
        w.bool(self.done);
        Ok(())
    }
}

impl LockBackend for TicketLock {
    fn acquire(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(TicketAcquire {
            ticket: self.ticket,
            serving: self.serving,
            state: AcqState::TakeTicket,
            mine: Rc::clone(&self.my_ticket[tid.index()]),
        })
    }

    fn release(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(TicketRelease {
            serving: self.serving,
            next: self.my_ticket[tid.index()].get() + 1,
            done: false,
        })
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.my_ticket.len());
        for t in &self.my_ticket {
            w.u64(t.get());
        }
        Ok(())
    }

    fn load_state(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.usize()? != self.my_ticket.len() {
            return Err(SnapError::Corrupt { what: "ticket lock thread count" });
        }
        for t in &self.my_ticket {
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
            0 => AcqState::TakeTicket,
            1 => AcqState::GotTicket,
            2 => AcqState::Spinning,
            tag => {
                return Err(SnapError::BadTag { what: "ticket acquire state", tag: u64::from(tag) })
            }
        };
        Ok(Box::new(TicketAcquire {
            ticket: self.ticket,
            serving: self.serving,
            state,
            mine: Rc::clone(&self.my_ticket[tid.index()]),
        }))
    }

    fn load_release_script(
        &self,
        _tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        Ok(Box::new(TicketRelease { serving: self.serving, next: r.u64()?, done: r.bool()? }))
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
