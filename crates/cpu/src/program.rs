//! Thread programs, scripts and backend traits.

use glocks_mem::MemOp;
use glocks_sim_base::snap::{Snap, SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{Cycle, LockId, ThreadId};

/// What a workload thread asks its core to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Execute `n` instructions of pure computation
    /// (`ceil(n / issue_width)` cycles on the 2-way core).
    Compute(u64),
    /// Issue one memory operation and wait for it.
    Mem(MemOp),
    /// Acquire a workload lock. The lock mapping decides whether this is a
    /// software algorithm or a hardware GLock.
    Acquire(LockId),
    /// Release a workload lock.
    Release(LockId),
    /// Wait at the global barrier.
    Barrier,
    /// Sleep until the given absolute cycle, then resume the workload with
    /// `last` = the current cycle. A target at or before the current cycle
    /// completes immediately at zero cost, so `WaitUntil(0)` doubles as a
    /// clock read. This is the open-loop request-injection point: an
    /// arrival-driven workload sleeps here between scheduled requests, and
    /// the sleep is attributed to the `Idle` breakdown category rather than
    /// any of Figure 8's four working categories.
    WaitUntil(Cycle),
    /// This thread has finished the parallel phase.
    Done,
}

/// What a lock/barrier script asks the core to do next. Scripts interact
/// with devices (GLock registers, ideal-lock queues) through shared state
/// they carry internally, so only two primitive step kinds are needed —
/// exactly mirroring Figure 5, where `GL_Lock` is a register write plus a
/// branch loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Execute `n` instructions (polling loops yield `Compute(1)` per
    /// iteration).
    Compute(u64),
    /// Issue one memory operation and wait for it; the script is resumed
    /// with the loaded/old value.
    Mem(MemOp),
    /// The script has finished (lock acquired / released / barrier passed).
    Done,
}

/// How a script in its current position waits, as declared to the
/// event-driven runner (see [`Script::spin`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spin {
    /// Not a declared spin: the core runs every step. Always safe.
    Hot,
    /// An inert register poll: until some device flips the register it
    /// polls, every `resume` returns `Step::Compute(1)` (one
    /// `bnz reg, loop` iteration) and leaves the script where it is. The
    /// runner replicates those poll cycles in bulk, bounded by the polled
    /// device's own `next_event`, so a script may declare this only while
    /// the flip it waits for comes from a component the runner polls for
    /// wakes.
    Register,
    /// A memory poll: every `resume` from this position that returns
    /// `Step::Mem(MemOp::Load(a))` leaves the script where it is. Resumed
    /// with the value its last `Load(a)` returned, the script therefore
    /// returns `Load(a)` again, so a core whose poll hit its own L1 parks
    /// until a coherence message reaches that L1 (the only way the word
    /// can change).
    Load,
}

/// A resumable sub-program (one lock acquire, one release, one barrier
/// episode). `resume` is called with the result of the previously returned
/// step (the loaded/old value of a `Mem` step, else 0).
pub trait Script {
    fn resume(&mut self, last: u64) -> Step;

    /// How this script waits in its current position. Declaring a spin
    /// lets the event-driven runner replicate the poll iterations in bulk
    /// instead of running them one by one. The default, [`Spin::Hot`],
    /// never skips anything.
    fn spin(&self) -> Spin {
        Spin::Hot
    }

    /// Serialize this script's resumable position for a checkpoint. The
    /// default refuses: a backend that wants checkpointing must implement
    /// it on every script it manufactures — silently saving nothing would
    /// corrupt the restore instead of failing it.
    fn save_state(&self, _w: &mut SnapWriter) -> Result<(), SnapError> {
        Err(SnapError::Unsupported { what: "script snapshot" })
    }
}

/// A workload thread: one instance per simulated thread. `next` is called
/// when the previous action completed; `last` carries the value of a
/// completed `Mem` action (else 0).
pub trait Workload {
    fn next(&mut self, last: u64) -> Action;

    /// Serialize the thread's program counter and loop state. Defaults to
    /// refusing, so only workloads that opted in can be checkpointed.
    fn save_state(&self, _w: &mut SnapWriter) -> Result<(), SnapError> {
        Err(SnapError::Unsupported { what: "workload snapshot" })
    }

    /// Restore state saved by [`Workload::save_state`] into a freshly
    /// constructed instance of the same workload.
    fn load_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Err(SnapError::Unsupported { what: "workload snapshot" })
    }

    /// End-of-run hook: publish workload-level summary counters into the
    /// stats registry (called once per core from [`crate::Core::publish_stats`],
    /// only when stats are enabled). Closed-loop workloads have nothing
    /// beyond what the core already reports, so the default is a no-op;
    /// open-loop service workloads publish arrival/completion/drop totals
    /// here.
    fn publish_stats(&self) {}
}

/// A lock implementation: manufactures acquire/release scripts. Backends
/// share state among threads internally (e.g. the MCS tail pointer is a
/// simulated memory address; the GLock backend holds the per-core register
/// files).
pub trait LockBackend {
    fn acquire(&self, tid: ThreadId) -> Box<dyn Script>;
    fn release(&self, tid: ThreadId) -> Box<dyn Script>;

    /// Serialize the backend's shared state (queues, counters, regime
    /// flags). Per-thread script positions are saved separately through
    /// [`Script::save_state`]. Defaults to refusing.
    fn save_state(&self, _w: &mut SnapWriter) -> Result<(), SnapError> {
        Err(SnapError::Unsupported { what: "lock backend snapshot" })
    }

    /// Restore state saved by [`LockBackend::save_state`]. Backends hold
    /// their mutable state behind interior mutability (the same reason
    /// `acquire` takes `&self`), so restore does too.
    fn load_state(&self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Err(SnapError::Unsupported { what: "lock backend snapshot" })
    }

    /// Reconstruct an in-progress acquire script from its saved position.
    /// This must NOT go through [`LockBackend::acquire`]: manufacturing a
    /// fresh acquire has side effects (queue entries, pool pinning) that
    /// already happened before the checkpoint and are restored with the
    /// backend state.
    fn load_acquire_script(
        &self,
        _tid: ThreadId,
        _r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        Err(SnapError::Unsupported { what: "lock backend script restore" })
    }

    /// Reconstruct an in-progress release script from its saved position.
    fn load_release_script(
        &self,
        _tid: ThreadId,
        _r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        Err(SnapError::Unsupported { what: "lock backend script restore" })
    }
}

/// A barrier implementation: manufactures one wait-episode script per call.
pub trait BarrierBackend {
    fn wait(&self, tid: ThreadId) -> Box<dyn Script>;

    /// Serialize the barrier's shared state. Defaults to refusing.
    fn save_state(&self, _w: &mut SnapWriter) -> Result<(), SnapError> {
        Err(SnapError::Unsupported { what: "barrier backend snapshot" })
    }

    /// Restore state saved by [`BarrierBackend::save_state`].
    fn load_state(&self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Err(SnapError::Unsupported { what: "barrier backend snapshot" })
    }

    /// Reconstruct an in-progress wait script (see
    /// [`LockBackend::load_acquire_script`] for why this bypasses `wait`).
    fn load_wait_script(
        &self,
        _tid: ThreadId,
        _r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        Err(SnapError::Unsupported { what: "barrier backend script restore" })
    }
}

/// A trivial script that finishes after a fixed instruction count —
/// useful for ideal devices and tests.
pub struct FixedScript {
    left: Option<u64>,
}
glocks_sim_base::snap!(FixedScript { left });

impl FixedScript {
    /// A script costing `instructions` then done.
    pub fn new(instructions: u64) -> Self {
        FixedScript { left: Some(instructions) }
    }
}

impl Script for FixedScript {
    fn resume(&mut self, _last: u64) -> Step {
        match self.left.take() {
            Some(n) => Step::Compute(n),
            None => Step::Done,
        }
    }

    crate::snap_methods!(script);
}

/// Rebuild an in-flight script for a `load_*_script` method: `fresh` is
/// the script as the backend builds it, without the side effects of
/// `acquire`/`release`/`wait`, and its saved state loads into it.
pub fn load_script<S: Script + Snap + 'static>(
    mut fresh: S,
    r: &mut SnapReader<'_>,
) -> Result<Box<dyn Script>, SnapError> {
    fresh.load(r)?;
    Ok(Box::new(fresh))
}

/// Implements a trait's snapshot methods from the type's
/// [`snap!`](glocks_sim_base::snap!) declaration. Invoke it inside the
/// trait impl: `snap_methods!(script)` in `impl Script`,
/// `snap_methods!(workload)` in `impl Workload`, and
/// `snap_methods!(backend)` in `impl LockBackend` or `impl BarrierBackend`
/// (whose state is shared with their scripts, so it loads through `&self`).
#[macro_export]
macro_rules! snap_methods {
    (script) => {
        fn save_state(
            &self,
            w: &mut ::glocks_sim_base::snap::SnapWriter,
        ) -> Result<(), ::glocks_sim_base::snap::SnapError> {
            ::glocks_sim_base::snap::Snap::save(self, w);
            Ok(())
        }
    };
    (workload) => {
        $crate::snap_methods!(script);
        fn load_state(
            &mut self,
            r: &mut ::glocks_sim_base::snap::SnapReader<'_>,
        ) -> Result<(), ::glocks_sim_base::snap::SnapError> {
            ::glocks_sim_base::snap::Snap::load(self, r)
        }
    };
    (backend) => {
        $crate::snap_methods!(script);
        fn load_state(
            &self,
            r: &mut ::glocks_sim_base::snap::SnapReader<'_>,
        ) -> Result<(), ::glocks_sim_base::snap::SnapError> {
            ::glocks_sim_base::snap::SnapShared::load_shared(self, r)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_script_runs_once() {
        let mut s = FixedScript::new(3);
        assert_eq!(s.resume(0), Step::Compute(3));
        assert_eq!(s.resume(0), Step::Done);
        assert_eq!(s.resume(0), Step::Done);
    }
}
