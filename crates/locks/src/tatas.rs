//! Simple Lock (`test&set`), `test-and-test&set`, and exponential back-off
//! (Section II of the paper).

use crate::layout::slot;
use glocks_cpu::{load_script, snap_methods, LockBackend, Script, Spin, Step};
use glocks_mem::{MemOp, RmwKind};
use glocks_sim_base::snap::{SnapError, SnapReader};
use glocks_sim_base::{snap, Addr, ThreadId};

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
// The lock word lives in simulated memory, saved with the memory system.
snap!(shared TatasLock { ; skip flag, test_first, backoff });

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
snap!(enum AcqState { 0 => Try, 1 => Tested, 2 => SetIssued, 3 => BackedOff });

pub(crate) struct TatasAcquire {
    flag: Addr,
    test_first: bool,
    backoff: bool,
    delay: u64,
    state: AcqState,
}
snap!(TatasAcquire { state, delay; skip flag, test_first, backoff });

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

    snap_methods!(script);

    fn spin(&self) -> Spin {
        match self.state {
            AcqState::Tested => Spin::Load,
            _ => Spin::Hot,
        }
    }
}

pub(crate) struct TatasRelease {
    flag: Addr,
    done: bool,
}
snap!(TatasRelease { done; skip flag });

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

    snap_methods!(script);
}

impl TatasLock {
    pub(crate) fn acquire_script(&self) -> TatasAcquire {
        TatasAcquire {
            flag: self.flag,
            test_first: self.test_first,
            backoff: self.backoff,
            delay: BACKOFF_BASE,
            state: AcqState::Try,
        }
    }

    pub(crate) fn release_script(&self) -> TatasRelease {
        TatasRelease { flag: self.flag, done: false }
    }
}

impl LockBackend for TatasLock {
    fn acquire(&self, _tid: ThreadId) -> Box<dyn Script> {
        Box::new(self.acquire_script())
    }

    fn release(&self, _tid: ThreadId) -> Box<dyn Script> {
        Box::new(self.release_script())
    }

    snap_methods!(backend);

    fn load_acquire_script(
        &self,
        _tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        load_script(self.acquire_script(), r)
    }

    fn load_release_script(
        &self,
        _tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        load_script(self.release_script(), r)
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
