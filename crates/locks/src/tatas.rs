//! Simple Lock (`test&set`), `test-and-test&set`, and exponential back-off
//! (Section II of the paper).

use crate::layout::slot;
use glocks_cpu::{LockBackend, Script, Step};
use glocks_mem::{MemOp, RmwKind};
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{Addr, ThreadId};

/// Back-off parameters (Anderson found exponential back-off the most
/// effective delay form).
const BACKOFF_BASE: u64 = 16;
const BACKOFF_CAP: u64 = 1024;

/// The `test&set` family of locks: one boolean flag in one cache line.
pub struct TatasLock {
    flag: Addr,
    /// Spin on plain loads before attempting `test&set`.
    test_first: bool,
    /// Insert exponential delays between attempts.
    backoff: bool,
}

impl TatasLock {
    /// Plain Simple Lock: `test&set` in a tight loop.
    pub fn simple(base: Addr) -> Self {
        TatasLock { flag: slot(base, 0), test_first: false, backoff: false }
    }

    /// `test-and-test&set`: loads hit the local cache while busy-waiting.
    pub fn tatas(base: Addr) -> Self {
        TatasLock { flag: slot(base, 0), test_first: true, backoff: false }
    }

    /// TATAS with capped exponential back-off.
    pub fn with_backoff(base: Addr) -> Self {
        TatasLock { flag: slot(base, 0), test_first: true, backoff: true }
    }
}

enum AcqState {
    /// About to issue the spin load (TATAS) or the `test&set` (Simple).
    Try,
    /// Waiting for the spin load's value.
    Tested,
    /// Waiting for the `test&set`'s old value.
    SetIssued,
    /// Back-off delay issued; retry next.
    BackedOff,
}

struct TatasAcquire {
    flag: Addr,
    test_first: bool,
    backoff: bool,
    delay: u64,
    state: AcqState,
}

impl Script for TatasAcquire {
    fn resume(&mut self, last: u64) -> Step {
        loop {
            match self.state {
                AcqState::Try => {
                    if self.test_first {
                        self.state = AcqState::Tested;
                        return Step::Mem(MemOp::Load(self.flag));
                    }
                    self.state = AcqState::SetIssued;
                    return Step::Mem(MemOp::Rmw(self.flag, RmwKind::TestAndSet));
                }
                AcqState::Tested => {
                    if last == 0 {
                        // Lock appears free: try to grab it.
                        self.state = AcqState::SetIssued;
                        return Step::Mem(MemOp::Rmw(self.flag, RmwKind::TestAndSet));
                    }
                    // Still held: spin on local loads (each one hits the
                    // L1 in S state until the holder's release invalidates).
                    return Step::Mem(MemOp::Load(self.flag));
                }
                AcqState::SetIssued => {
                    if last == 0 {
                        return Step::Done; // we toggled false→true
                    }
                    if self.backoff {
                        let d = self.delay;
                        self.delay = (self.delay * 2).min(BACKOFF_CAP);
                        self.state = AcqState::BackedOff;
                        return Step::Compute(d);
                    }
                    self.state = AcqState::Try;
                    // loop: immediately re-test
                }
                AcqState::BackedOff => {
                    self.state = AcqState::Try;
                }
            }
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u8(match self.state {
            AcqState::Try => 0,
            AcqState::Tested => 1,
            AcqState::SetIssued => 2,
            AcqState::BackedOff => 3,
        });
        w.u64(self.delay);
        Ok(())
    }
}

struct TatasRelease {
    flag: Addr,
    done: bool,
}

impl Script for TatasRelease {
    fn resume(&mut self, _last: u64) -> Step {
        if self.done {
            Step::Done
        } else {
            self.done = true;
            // Toggle the flag back from true to false.
            Step::Mem(MemOp::Store(self.flag, 0))
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.bool(self.done);
        Ok(())
    }
}

impl LockBackend for TatasLock {
    fn acquire(&self, _tid: ThreadId) -> Box<dyn Script> {
        Box::new(TatasAcquire {
            flag: self.flag,
            test_first: self.test_first,
            backoff: self.backoff,
            delay: BACKOFF_BASE,
            state: AcqState::Try,
        })
    }

    fn release(&self, _tid: ThreadId) -> Box<dyn Script> {
        Box::new(TatasRelease { flag: self.flag, done: false })
    }

    // The lock word itself lives in simulated memory (saved with the
    // memory system); the backend carries no dynamic state of its own.
    fn save_state(&self, _w: &mut SnapWriter) -> Result<(), SnapError> {
        Ok(())
    }

    fn load_state(&self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }

    fn load_acquire_script(
        &self,
        _tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        let state = match r.u8()? {
            0 => AcqState::Try,
            1 => AcqState::Tested,
            2 => AcqState::SetIssued,
            3 => AcqState::BackedOff,
            tag => return Err(SnapError::BadTag { what: "tatas acquire state", tag: u64::from(tag) }),
        };
        let delay = r.u64()?;
        Ok(Box::new(TatasAcquire {
            flag: self.flag,
            test_first: self.test_first,
            backoff: self.backoff,
            delay,
            state,
        }))
    }

    fn load_release_script(
        &self,
        _tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        Ok(Box::new(TatasRelease { flag: self.flag, done: r.bool()? }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::run_counter_bench;

    #[test]
    fn tatas_provides_mutual_exclusion() {
        let outcome = run_counter_bench(|base, _n| Box::new(TatasLock::tatas(base)) as _, 8, 5);
        assert_eq!(outcome.counter_value, 8 * 5);
    }

    #[test]
    fn simple_lock_works_too() {
        let outcome = run_counter_bench(|base, _n| Box::new(TatasLock::simple(base)) as _, 4, 3);
        assert_eq!(outcome.counter_value, 12);
    }

    #[test]
    fn backoff_variant_is_correct() {
        let outcome =
            run_counter_bench(|base, _n| Box::new(TatasLock::with_backoff(base)) as _, 8, 4);
        assert_eq!(outcome.counter_value, 32);
    }

    #[test]
    fn tatas_spins_locally_vs_simple() {
        let plain = run_counter_bench(|base, _n| Box::new(TatasLock::simple(base)) as _, 8, 4);
        let tatas = run_counter_bench(|base, _n| Box::new(TatasLock::tatas(base)) as _, 8, 4);
        // Simple's blind test&set storm moves the flag line M-to-M between
        // all spinners; TATAS spins on local loads. Compare coherence+reply
        // bytes normalized by wall time (absolute byte counts also depend
        // on run length).
        let plain_rate = plain.coherence_bytes as f64 / plain.cycles as f64;
        let tatas_rate = tatas.coherence_bytes as f64 / tatas.cycles as f64;
        assert!(
            tatas_rate < plain_rate,
            "TATAS byte rate {tatas_rate:.3} !< Simple byte rate {plain_rate:.3}"
        );
    }
}
