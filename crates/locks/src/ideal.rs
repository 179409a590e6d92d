//! The ideal lock of Figure 1: acquire and release take a single clock
//! cycle each, never touch the memory hierarchy, and grant in FIFO order.
//!
//! Used to bound the potential benefit of any lock implementation
//! ("ideal locks do not deal with the cache coherence protocol ... lock
//! acquisition and release operations take a single clock cycle each").

use glocks_cpu::{load_script, snap_methods, LockBackend, Script, Step};
use glocks_sim_base::snap::{SnapError, SnapReader};
use glocks_sim_base::{snap, ThreadId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

#[derive(Default)]
struct IdealState {
    holder: Option<ThreadId>,
    queue: VecDeque<ThreadId>,
}
snap!(IdealState { holder as wide, queue });

/// A magic zero-overhead FIFO lock.
pub struct IdealLock {
    state: Rc<RefCell<IdealState>>,
}
snap!(shared IdealLock { state });

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
snap!(enum AcqPhase { 0 => Enqueue, 1 => Poll });

struct IdealAcquire {
    state: Rc<RefCell<IdealState>>,
    tid: ThreadId,
    phase: AcqPhase,
}
snap!(IdealAcquire { phase; skip state, tid });

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

    snap_methods!(script);
}

struct IdealRelease {
    state: Rc<RefCell<IdealState>>,
    tid: ThreadId,
    done: bool,
}
snap!(IdealRelease { done; skip state, tid });

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

    snap_methods!(script);
}

impl IdealLock {
    fn acquire_script(&self, tid: ThreadId) -> IdealAcquire {
        IdealAcquire { state: Rc::clone(&self.state), tid, phase: AcqPhase::Enqueue }
    }

    fn release_script(&self, tid: ThreadId) -> IdealRelease {
        IdealRelease { state: Rc::clone(&self.state), tid, done: false }
    }
}

impl LockBackend for IdealLock {
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
