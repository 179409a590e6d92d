//! Reactive Lock (related work \[13\]: Lim & Agarwal, "Reactive
//! Synchronization Algorithms for Multiprocessors") — "a library-based
//! adaptive approach that … switches between Simple Lock and MCS Lock for
//! the low and high contention cases, respectively."
//!
//! Mode decisions use the same safety idea as the dynamic GLock pool: the
//! backend tracks how many acquires are outstanding, and the protocol may
//! only change when the lock is *quiescent* (no acquirer, no holder), so
//! every contender of a critical-section episode uses one protocol and
//! mutual exclusion is preserved across switches. Contention is estimated
//! with an exponentially weighted average of the concurrent-acquirer count
//! sampled at each acquire.

use crate::mcs::{McsAcquire, McsLock, McsRelease};
use crate::tatas::{TatasAcquire, TatasLock, TatasRelease};
use glocks_cpu::{load_script, snap_methods, LockBackend, Script, Spin, Step};
use glocks_sim_base::snap::{Decode, Snap, SnapError, SnapReader, SnapShared, SnapWriter};
use glocks_sim_base::{snap, Addr, ThreadId};
use std::cell::Cell;
use std::rc::Rc;

/// Switch to MCS when the average concurrent-acquirer estimate exceeds
/// this, and back to TATAS when it falls below the low-water mark.
const HIGH_WATER: f64 = 3.0;
const LOW_WATER: f64 = 1.5;
/// EWMA smoothing factor.
const ALPHA: f64 = 0.2;
/// Where the MCS queue starts in the lock's region, a few lines past the
/// TATAS flag so the two protocols never share a line.
const MCS_OFFSET: u64 = 0x1000;

/// The protocol currently backing the lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Tatas,
    Mcs,
}
snap!(enum Mode { 0 => Tatas, 1 => Mcs });

/// Reactive lock: TATAS under low contention, MCS under high.
pub struct ReactiveLock {
    tatas: TatasLock,
    mcs: McsLock,
    mode: Cell<Mode>,
    /// Acquires outstanding (acquire-start → release-end).
    refs: Cell<u32>,
    /// EWMA of the concurrent-acquirer count.
    estimate: Cell<f64>,
    /// Protocol switches performed (diagnostics).
    switches: Cell<u64>,
    /// Which mode each thread's current acquire used.
    path: Vec<Rc<Cell<Option<Mode>>>>,
}

impl ReactiveLock {
    /// `base` is this lock's private region; the TATAS flag and the MCS
    /// queue live in disjoint parts of it.
    pub fn new(base: Addr, n_threads: usize) -> Self {
        ReactiveLock {
            tatas: TatasLock::tatas(base),
            mcs: McsLock::new(Addr(base.0 + MCS_OFFSET), n_threads),
            mode: Cell::new(Mode::Tatas),
            refs: Cell::new(0),
            estimate: Cell::new(0.0),
            switches: Cell::new(0),
            path: (0..n_threads).map(|_| Rc::new(Cell::new(None))).collect(),
        }
    }

    /// Simulated-memory footprint in bytes (for region planning).
    pub fn region_bytes(n_threads: usize) -> u64 {
        MCS_OFFSET + McsLock::region_bytes(n_threads)
    }

    /// Sample contention and (when quiescent) adapt the protocol.
    fn decide(&self) -> Mode {
        let concurrent = self.refs.get() as f64 + 1.0;
        let e = self.estimate.get() * (1.0 - ALPHA) + concurrent * ALPHA;
        self.estimate.set(e);
        if self.refs.get() == 0 {
            // Quiescent: a switch is safe.
            let current = self.mode.get();
            let next = match current {
                Mode::Tatas if e > HIGH_WATER => Mode::Mcs,
                Mode::Mcs if e < LOW_WATER => Mode::Tatas,
                m => m,
            };
            if next != current {
                self.switches.set(self.switches.get() + 1);
                self.mode.set(next);
            }
        }
        self.mode.get()
    }

    pub fn current_mode(&self) -> Mode {
        self.mode.get()
    }

    pub fn switches(&self) -> u64 {
        self.switches.get()
    }

    fn acquire_script(&self, mode: Mode, tid: ThreadId) -> Protocol<TatasAcquire, McsAcquire> {
        match mode {
            Mode::Tatas => Protocol::Tatas(self.tatas.acquire_script()),
            Mode::Mcs => Protocol::Mcs(self.mcs.acquire_script(tid)),
        }
    }

    fn release_script(&self, mode: Mode, tid: ThreadId) -> Protocol<TatasRelease, McsRelease> {
        match mode {
            Mode::Tatas => Protocol::Tatas(self.tatas.release_script()),
            Mode::Mcs => Protocol::Mcs(self.mcs.release_script(tid)),
        }
    }
}

/// The protocol script a reactive acquire or release wraps. Its variant is
/// the mode, which the wrapper saves ahead of its own flag.
enum Protocol<T, M> {
    Tatas(T),
    Mcs(M),
}

impl<T: Script, M: Script> Protocol<T, M> {
    fn mode(&self) -> Mode {
        match self {
            Protocol::Tatas(_) => Mode::Tatas,
            Protocol::Mcs(_) => Mode::Mcs,
        }
    }

    fn resume(&mut self, last: u64) -> Step {
        match self {
            Protocol::Tatas(s) => s.resume(last),
            Protocol::Mcs(s) => s.resume(last),
        }
    }

    fn spin(&self) -> Spin {
        match self {
            Protocol::Tatas(s) => s.spin(),
            Protocol::Mcs(s) => s.spin(),
        }
    }
}

/// The variant's own state only; the wrapper saves the mode and rebuilds
/// the variant before loading into it.
impl<T: Snap, M: Snap> Snap for Protocol<T, M> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Protocol::Tatas(s) => s.save(w),
            Protocol::Mcs(s) => s.save(w),
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match self {
            Protocol::Tatas(s) => s.load(r),
            Protocol::Mcs(s) => s.load(r),
        }
    }
}

/// Wraps the chosen protocol's script and charges a small decision cost.
struct ReactiveScript {
    lock: Rc<ReactiveLock>,
    tid: ThreadId,
    inner: Protocol<TatasAcquire, McsAcquire>,
    decided: bool,
}

/// Hand-written: the mode precedes the decision flag, and the wrapped
/// script is rebuilt by the protocol the mode names.
impl Snap for ReactiveScript {
    fn save(&self, w: &mut SnapWriter) {
        let ReactiveScript { lock: _, tid: _, inner, decided } = self;
        inner.mode().save(w);
        decided.save(w);
        inner.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ReactiveScript { lock, tid, inner, decided } = self;
        let mode = Mode::decode(r)?;
        decided.load(r)?;
        *inner = lock.acquire_script(mode, *tid);
        inner.load(r)
    }
}

impl Script for ReactiveScript {
    fn resume(&mut self, last: u64) -> Step {
        if !self.decided {
            self.decided = true;
            // reading the mode word and branching
            return Step::Compute(3);
        }
        self.inner.resume(last)
    }

    snap_methods!(script);

    fn spin(&self) -> Spin {
        if self.decided {
            self.inner.spin()
        } else {
            Spin::Hot
        }
    }
}

/// Release wrapper that drops the reference count once done.
struct ReactiveRelease {
    lock: Rc<ReactiveLock>,
    tid: ThreadId,
    inner: Protocol<TatasRelease, McsRelease>,
    refs: Rc<Cell<u32>>,
    done: bool,
}

/// Hand-written for the same reason as [`ReactiveScript`]'s.
impl Snap for ReactiveRelease {
    fn save(&self, w: &mut SnapWriter) {
        let ReactiveRelease { lock: _, tid: _, inner, refs: _, done } = self;
        inner.mode().save(w);
        done.save(w);
        inner.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ReactiveRelease { lock, tid, inner, refs: _, done } = self;
        let mode = Mode::decode(r)?;
        done.load(r)?;
        *inner = lock.release_script(mode, *tid);
        inner.load(r)
    }
}

impl Script for ReactiveRelease {
    fn resume(&mut self, last: u64) -> Step {
        let step = self.inner.resume(last);
        if matches!(step, Step::Done) && !self.done {
            self.done = true;
            self.refs.set(self.refs.get() - 1);
        }
        step
    }

    snap_methods!(script);

    fn spin(&self) -> Spin {
        self.inner.spin()
    }
}

/// The backend needs a sharable refcount for the release wrapper.
pub struct ReactiveBackend {
    lock: Rc<ReactiveLock>,
    refs: Rc<Cell<u32>>,
}

impl ReactiveBackend {
    pub fn new(base: Addr, n_threads: usize) -> Self {
        let lock = Rc::new(ReactiveLock::new(base, n_threads));
        ReactiveBackend { lock, refs: Rc::new(Cell::new(0)) }
    }

    fn acquire_script(&self, mode: Mode, tid: ThreadId) -> ReactiveScript {
        let inner = self.lock.acquire_script(mode, tid);
        ReactiveScript { lock: Rc::clone(&self.lock), tid, inner, decided: false }
    }

    fn release_script(&self, mode: Mode, tid: ThreadId) -> ReactiveRelease {
        let inner = self.lock.release_script(mode, tid);
        let (lock, refs) = (Rc::clone(&self.lock), Rc::clone(&self.refs));
        ReactiveRelease { lock, tid, inner, refs, done: false }
    }

    pub fn inner(&self) -> &ReactiveLock {
        &self.lock
    }
}

/// Hand-written: a thread's recorded mode is one tag (0 = none, else one
/// more than the mode's own tag).
impl Snap for ReactiveBackend {
    fn save(&self, w: &mut SnapWriter) {
        let ReactiveBackend { lock, refs } = self;
        let ReactiveLock { tatas: _, mcs: _, mode, refs: lock_refs, estimate, switches, path } =
            &**lock;
        mode.save(w);
        lock_refs.save(w);
        estimate.save(w);
        switches.save(w);
        w.usize(path.len());
        for cell in path {
            w.u8(match cell.get() {
                None => 0,
                Some(Mode::Tatas) => 1,
                Some(Mode::Mcs) => 2,
            });
        }
        refs.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.load_shared(r)
    }
}

impl SnapShared for ReactiveBackend {
    fn load_shared(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ReactiveBackend { lock, refs } = self;
        let ReactiveLock { tatas: _, mcs: _, mode, refs: lock_refs, estimate, switches, path } =
            &**lock;
        mode.load_shared(r)?;
        lock_refs.load_shared(r)?;
        estimate.load_shared(r)?;
        switches.load_shared(r)?;
        if r.usize()? != path.len() {
            return Err(SnapError::Corrupt { what: "reactive lock thread count" });
        }
        for cell in path {
            cell.set(match r.u8()? {
                0 => None,
                1 => Some(Mode::Tatas),
                2 => Some(Mode::Mcs),
                tag => {
                    let what = "reactive path mode";
                    return Err(SnapError::BadTag { what, tag: u64::from(tag) });
                }
            });
        }
        refs.load_shared(r)
    }
}

impl LockBackend for ReactiveBackend {
    fn acquire(&self, tid: ThreadId) -> Box<dyn Script> {
        // `prior` = acquires already outstanding; a switch is only safe
        // when this acquire is the lone contender (prior == 0).
        let prior = self.refs.get();
        self.refs.set(prior + 1);
        self.lock.refs.set(prior);
        let mode = self.lock.decide();
        self.lock.path[tid.index()].set(Some(mode));
        Box::new(self.acquire_script(mode, tid))
    }

    fn release(&self, tid: ThreadId) -> Box<dyn Script> {
        let mode = self.lock.path[tid.index()]
            .take()
            .expect("release without a recorded acquire mode");
        Box::new(self.release_script(mode, tid))
    }

    snap_methods!(backend);

    fn load_acquire_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        load_script(self.acquire_script(Mode::Tatas, tid), r)
    }

    fn load_release_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        load_script(self.release_script(Mode::Tatas, tid), r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::run_counter_bench;

    #[test]
    fn reactive_lock_is_correct() {
        let out = run_counter_bench(
            |base, n| Box::new(ReactiveBackend::new(base, n)) as _,
            8,
            5,
        );
        assert_eq!(out.counter_value, 40);
    }

    #[test]
    fn reactive_lock_two_threads() {
        let out = run_counter_bench(
            |base, n| Box::new(ReactiveBackend::new(base, n)) as _,
            2,
            10,
        );
        assert_eq!(out.counter_value, 20);
    }

    #[test]
    fn contended_run_switches_to_mcs() {
        // Drive the backend directly: 8 simultaneous acquirers push the
        // EWMA over the high-water mark; once quiescent, the next acquire
        // must run in MCS mode.
        let b = ReactiveBackend::new(glocks_sim_base::Addr(0x10_000), 8);
        assert_eq!(b.inner().current_mode(), Mode::Tatas);
        for round in 0..4 {
            let _scripts: Vec<_> = (0..8).map(|t| b.acquire(ThreadId(t))).collect();
            for t in 0..8 {
                let mut r = b.release(ThreadId(t));
                // drain the release scripts' bookkeeping without a sim:
                // TATAS/MCS release scripts issue memory steps; we only
                // need the refcount drop, which happens at Done. Resume
                // until Done with fake completions.
                for _ in 0..64 {
                    if matches!(r.resume(0), Step::Done) {
                        break;
                    }
                }
            }
            let _ = round;
        }
        assert_eq!(b.inner().current_mode(), Mode::Mcs, "high contention must switch");
        assert!(b.inner().switches() >= 1);
    }

    /// Snapshot the lock just after a protocol switch, with an acquire and
    /// a release in flight under the *new* (MCS) protocol, and restore into
    /// a fresh backend that starts in its initial TATAS mode. The restored
    /// backend must come back in MCS mode with the EWMA estimate and switch
    /// count intact, the scripts must decode through the protocol recorded
    /// in the snapshot (not the backend's construction-time mode), and
    /// everything must re-encode byte-identically.
    #[test]
    fn mid_switch_scripts_round_trip_through_a_snapshot() {
        use glocks_sim_base::snap::{SnapReader, SnapWriter};
        let base = glocks_sim_base::Addr(0x10_000);

        let b = ReactiveBackend::new(base, 8);
        // Pump contention until the protocol switches to MCS (same drive
        // as `contended_run_switches_to_mcs`).
        let mut rounds = 0;
        while b.inner().current_mode() == Mode::Tatas {
            rounds += 1;
            assert!(rounds < 16, "contention must push the EWMA over the high-water mark");
            let _scripts: Vec<_> = (0..8).map(|t| b.acquire(ThreadId(t))).collect();
            for t in 0..8 {
                let mut r = b.release(ThreadId(t));
                for _ in 0..64 {
                    if matches!(r.resume(0), Step::Done) {
                        break;
                    }
                }
            }
        }
        assert_eq!(b.inner().current_mode(), Mode::Mcs);

        // Thread 3 runs a full MCS tenure and leaves its release half-done;
        // thread 2 has an MCS acquire in flight past the decision branch.
        let mut a3 = b.acquire(ThreadId(3));
        for _ in 0..64 {
            if matches!(a3.resume(0), Step::Done) {
                break;
            }
        }
        let mut rel3 = b.release(ThreadId(3));
        assert!(!matches!(rel3.resume(0), Step::Done), "release must be mid-flight");
        let mut s2 = b.acquire(ThreadId(2));
        assert_eq!(s2.resume(0), Step::Compute(3)); // the mode-decision branch
        assert!(matches!(s2.resume(0), Step::Mem(_))); // first MCS queue op

        let mut w = SnapWriter::new();
        b.save_state(&mut w).unwrap();
        s2.save_state(&mut w).unwrap();
        rel3.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();

        // A fresh twin starts in TATAS mode; the snapshot must carry the
        // switched protocol over.
        let b2 = ReactiveBackend::new(base, 8);
        assert_eq!(b2.inner().current_mode(), Mode::Tatas);
        let mut r = SnapReader::new(&bytes);
        b2.load_state(&mut r).unwrap();
        let mut s2r = b2.load_acquire_script(ThreadId(2), &mut r).unwrap();
        let mut rel3r = b2.load_release_script(ThreadId(3), &mut r).unwrap();
        assert_eq!(r.remaining(), 0, "decode must consume exactly what encode wrote");
        assert_eq!(b2.inner().current_mode(), Mode::Mcs);
        assert_eq!(b2.inner().switches(), b.inner().switches());
        assert_eq!(b2.inner().estimate.get(), b.inner().estimate.get());
        assert_eq!(b2.lock.path[2].get(), Some(Mode::Mcs));
        assert_eq!(b2.refs.get(), b.refs.get());

        let mut w2 = SnapWriter::new();
        b2.save_state(&mut w2).unwrap();
        s2r.save_state(&mut w2).unwrap();
        rel3r.save_state(&mut w2).unwrap();
        assert_eq!(w2.into_bytes(), bytes, "restored state must re-encode identically");

        // Behavior parity, step by step with the same spoofed values.
        assert_eq!(s2r.resume(0), s2.resume(0));
        assert_eq!(rel3r.resume(0), rel3.resume(0));
    }
}
