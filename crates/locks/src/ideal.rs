//! The ideal lock of Figure 1: acquire and release take a single clock
//! cycle each, never touch the memory hierarchy, and grant in FIFO order.
//!
//! Used to bound the potential benefit of any lock implementation
//! ("ideal locks do not deal with the cache coherence protocol ... lock
//! acquisition and release operations take a single clock cycle each").

use glocks_cpu::{LockBackend, Script, Step};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::ThreadId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

#[derive(Default)]
struct IdealState {
    holder: Option<ThreadId>,
    queue: VecDeque<ThreadId>,
}

/// A magic zero-overhead FIFO lock.
pub struct IdealLock {
    state: Rc<RefCell<IdealState>>,
}

impl IdealLock {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        IdealLock { state: Rc::new(RefCell::new(IdealState::default())) }
    }
}

enum AcqPhase {
    Enqueue,
    Poll,
}

struct IdealAcquire {
    state: Rc<RefCell<IdealState>>,
    tid: ThreadId,
    phase: AcqPhase,
}

impl Script for IdealAcquire {
    fn resume(&mut self, _last: u64) -> Step {
        match self.phase {
            AcqPhase::Enqueue => {
                self.state.borrow_mut().queue.push_back(self.tid);
                self.phase = AcqPhase::Poll;
                // The single-cycle acquire instruction.
                Step::Compute(1)
            }
            AcqPhase::Poll => {
                let mut s = self.state.borrow_mut();
                if s.holder.is_none() && s.queue.front() == Some(&self.tid) {
                    s.queue.pop_front();
                    s.holder = Some(self.tid);
                    Step::Done
                } else {
                    drop(s);
                    // Zero-traffic wait: one cycle per poll.
                    Step::Compute(1)
                }
            }
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u8(match self.phase {
            AcqPhase::Enqueue => 0,
            AcqPhase::Poll => 1,
        });
        Ok(())
    }
}

struct IdealRelease {
    state: Rc<RefCell<IdealState>>,
    tid: ThreadId,
    done: bool,
}

impl Script for IdealRelease {
    fn resume(&mut self, _last: u64) -> Step {
        if self.done {
            let mut s = self.state.borrow_mut();
            debug_assert_eq!(s.holder, Some(self.tid), "ideal release by non-holder");
            s.holder = None;
            Step::Done
        } else {
            self.done = true;
            // The single-cycle release instruction.
            Step::Compute(1)
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.bool(self.done);
        Ok(())
    }
}

impl LockBackend for IdealLock {
    fn acquire(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(IdealAcquire {
            state: Rc::clone(&self.state),
            tid,
            phase: AcqPhase::Enqueue,
        })
    }

    fn release(&self, tid: ThreadId) -> Box<dyn Script> {
        Box::new(IdealRelease { state: Rc::clone(&self.state), tid, done: false })
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        let s = self.state.borrow();
        w.opt_u64(s.holder.map(|t| u64::from(t.0)));
        w.usize(s.queue.len());
        for t in &s.queue {
            w.u16(t.0);
        }
        Ok(())
    }

    fn load_state(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut s = self.state.borrow_mut();
        s.holder = r.opt_u64()?.map(|v| ThreadId(v as u16));
        let n = r.usize()?;
        s.queue.clear();
        for _ in 0..n {
            s.queue.push_back(ThreadId(r.u16()?));
        }
        Ok(())
    }

    fn load_acquire_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        let phase = match r.u8()? {
            0 => AcqPhase::Enqueue,
            1 => AcqPhase::Poll,
            tag => {
                return Err(SnapError::BadTag { what: "ideal acquire phase", tag: u64::from(tag) })
            }
        };
        Ok(Box::new(IdealAcquire { state: Rc::clone(&self.state), tid, phase }))
    }

    fn load_release_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        Ok(Box::new(IdealRelease { state: Rc::clone(&self.state), tid, done: r.bool()? }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::run_counter_bench;

    #[test]
    fn ideal_lock_is_correct() {
        let outcome = run_counter_bench(|_base, _n| Box::new(IdealLock::new()) as _, 8, 5);
        assert_eq!(outcome.counter_value, 40);
    }

    #[test]
    fn ideal_lock_is_fifo() {
        let outcome = run_counter_bench(|_base, _n| Box::new(IdealLock::new()) as _, 8, 3);
        let g = &outcome.grant_order;
        let first: Vec<ThreadId> = g[..8].to_vec();
        for r in 1..3 {
            assert_eq!(&g[r * 8..(r + 1) * 8], first.as_slice(), "round {r}");
        }
    }

    #[test]
    fn ideal_lock_generates_no_lock_traffic() {
        // The only traffic in the counter bench under the ideal lock is the
        // counter line itself migrating between cores.
        let ideal = run_counter_bench(|_b, _n| Box::new(IdealLock::new()) as _, 8, 4);
        let mcs = run_counter_bench(
            |base, n| Box::new(crate::mcs::McsLock::new(base, n)) as _,
            8,
            4,
        );
        assert!(
            ideal.total_bytes < mcs.total_bytes / 2,
            "ideal {} should be far below MCS {}",
            ideal.total_bytes,
            mcs.total_bytes
        );
    }

    #[test]
    fn ideal_lock_time_is_tiny() {
        let outcome = run_counter_bench(|_b, _n| Box::new(IdealLock::new()) as _, 4, 4);
        // Lock time exists (queueing) but per acquire+release the *owner's*
        // overhead is ~2 cycles; the bench must finish quickly.
        assert_eq!(outcome.counter_value, 16);
        assert!(outcome.cycles < 20_000);
    }
}
