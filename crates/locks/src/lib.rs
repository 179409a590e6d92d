//! Lock and barrier implementations for the simulated CMP.
//!
//! Software algorithms (Section II of the paper) are expressed as scripts
//! of simulated memory operations, so their cache-coherence traffic and
//! latency *emerge* from the protocol simulation rather than being modeled:
//!
//! * [`tatas`] — Simple Lock (`test&set`), the `test-and-test&set`
//!   optimization, and exponential back-off;
//! * [`ticket`] — Ticket Lock (`fetch&increment` + now-serving counter);
//! * [`anderson`] — Array-based Lock (one spin slot per core);
//! * [`mcs`] — MCS Lock, "the most efficient software algorithm for lock
//!   synchronization" and the paper's main baseline;
//! * [`ideal`] — the zero-latency, zero-traffic ideal lock of Figure 1;
//! * [`glock`] — the one core-side driver of the hardware GLock (Figure 5:
//!   a register write plus a busy-wait on `lock_req`), for statically
//!   mapped and dynamically shared (pool-bound) GLocks alike, with
//!   failover onto TATAS when its network dies (survivability, beyond the
//!   paper);
//! * [`failback`] — the per-network controller that re-arms a statically
//!   mapped GLock once its repaired network has earned trust back;
//! * [`reactive`], [`mplock_backend`] — Reactive Lock and MP-Locks / SB
//!   (related work);
//! * [`barrier`], [`gbarrier_backend`] — a sense-versioned combining-tree
//!   barrier (the applications' library barrier: at most two threads meet
//!   at any node) and the G-line hardware barrier's driver.
//!
//! All backends implement [`glocks_cpu::LockBackend`] /
//! [`glocks_cpu::BarrierBackend`] and are manufactured by
//! [`LockAlgorithm::make_backend`].

pub mod anderson;
pub mod barrier;
pub mod failback;
pub mod gbarrier_backend;
pub mod glock;
pub mod ideal;
pub mod layout;
pub mod mcs;
pub mod mplock_backend;
pub mod reactive;
pub mod tatas;
pub mod ticket;

#[cfg(test)]
pub(crate) mod testkit;

use failback::FailbackCtl;
use glocks_cpu::LockBackend;
use glocks_mem::mplock::MpFabric;
use glocks_sim_base::Addr;
use std::rc::Rc;

/// The lock algorithms available to workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockAlgorithm {
    /// `test&set` in a loop (Simple Lock).
    Simple,
    /// `test-and-test&set`: spin on local loads, `test&set` only when free.
    Tatas,
    /// TATAS with capped exponential back-off.
    TatasBackoff,
    /// Ticket lock.
    Ticket,
    /// Anderson's array-based queue lock.
    Anderson,
    /// Mellor-Crummey & Scott queue lock (the paper's baseline for
    /// highly-contended locks).
    Mcs,
    /// The ideal lock of Figure 1: 1-cycle acquire/release, no traffic.
    Ideal,
    /// The hardware GLock (requires a G-line network's register file).
    Glock,
    /// MP-Locks (related work \[14\]): message-passing lock managers over
    /// the main data network (requires the memory system's NIC fabric).
    MpLock,
    /// Synchronization-operation Buffer (related work \[16\]): the same
    /// message protocol served by dedicated queueing *hardware* at the
    /// home tile (2-cycle processing instead of a software manager).
    SyncBuf,
    /// Dynamically-shared GLocks (Section V future work): all locks share
    /// the CMP's few physical G-line networks through a runtime binding
    /// table, spilling to TATAS when none is free. Constructed by the
    /// simulation runner (needs the shared [`glocks::GlockPool`]).
    DynamicGlock,
    /// Reactive Lock (related work \[13\]): adapts between Simple Lock and
    /// MCS with the observed contention level.
    Reactive,
}

impl LockAlgorithm {
    pub fn name(self) -> &'static str {
        match self {
            LockAlgorithm::Simple => "Simple",
            LockAlgorithm::Tatas => "TATAS",
            LockAlgorithm::TatasBackoff => "TATAS-BO",
            LockAlgorithm::Ticket => "Ticket",
            LockAlgorithm::Anderson => "Anderson",
            LockAlgorithm::Mcs => "MCS",
            LockAlgorithm::Ideal => "Ideal",
            LockAlgorithm::Glock => "GLock",
            LockAlgorithm::MpLock => "MP-Lock",
            LockAlgorithm::SyncBuf => "SB",
            LockAlgorithm::DynamicGlock => "DynGLock",
            LockAlgorithm::Reactive => "Reactive",
        }
    }

    /// Every algorithm, in the order the paper's figures list them.
    pub const ALL: [LockAlgorithm; 12] = [
        LockAlgorithm::Simple,
        LockAlgorithm::Tatas,
        LockAlgorithm::TatasBackoff,
        LockAlgorithm::Ticket,
        LockAlgorithm::Anderson,
        LockAlgorithm::Mcs,
        LockAlgorithm::Ideal,
        LockAlgorithm::Glock,
        LockAlgorithm::MpLock,
        LockAlgorithm::SyncBuf,
        LockAlgorithm::DynamicGlock,
        LockAlgorithm::Reactive,
    ];

    /// Parse a [`LockAlgorithm::name`] label back into the algorithm,
    /// case-insensitively and ignoring `-`/`_` (so `glock`, `tatas-bo`,
    /// `TATAS_BO` and `mp-lock` all resolve). Returns `None` for unknown
    /// labels — CLI arms turn that into a usage error naming the valid set.
    pub fn parse(label: &str) -> Option<LockAlgorithm> {
        let canon = |s: &str| {
            s.chars()
                .filter(|c| *c != '-' && *c != '_')
                .map(|c| c.to_ascii_lowercase())
                .collect::<String>()
        };
        let want = canon(label);
        LockAlgorithm::ALL.into_iter().find(|a| canon(a.name()) == want)
    }

    /// Bytes of simulated memory a lock of this algorithm uses from its
    /// base address with `n_threads` threads.
    pub fn region_bytes(self, n_threads: usize) -> u64 {
        match self {
            // The lock word, or the GLock's TATAS fallback word.
            LockAlgorithm::Simple
            | LockAlgorithm::Tatas
            | LockAlgorithm::TatasBackoff
            | LockAlgorithm::Glock
            | LockAlgorithm::DynamicGlock => layout::region_bytes(1),
            // The ticket and now-serving counters.
            LockAlgorithm::Ticket => layout::region_bytes(2),
            LockAlgorithm::Anderson => anderson::AndersonLock::region_bytes(n_threads),
            LockAlgorithm::Mcs => mcs::McsLock::region_bytes(n_threads),
            LockAlgorithm::Reactive => reactive::ReactiveLock::region_bytes(n_threads),
            LockAlgorithm::Ideal | LockAlgorithm::MpLock | LockAlgorithm::SyncBuf => 0,
        }
    }

    /// Manufacture a backend. `base` is the start of this lock's private
    /// region of simulated memory (unused by `Ideal`/`MpLock`; hosts the
    /// failover word of `Glock`); `glock` — the fail-back controller of the
    /// lock's G-line network — is required for [`LockAlgorithm::Glock`],
    /// and `mp` (the NIC fabric plus this lock's MP-lock id) for
    /// [`LockAlgorithm::MpLock`].
    pub fn make_backend(
        self,
        base: Addr,
        n_threads: usize,
        glock: Option<Rc<FailbackCtl>>,
        mp: Option<(Rc<MpFabric>, u16)>,
    ) -> Box<dyn LockBackend> {
        match self {
            LockAlgorithm::Simple => Box::new(tatas::TatasLock::simple(base)),
            LockAlgorithm::Tatas => Box::new(tatas::TatasLock::tatas(base)),
            LockAlgorithm::TatasBackoff => Box::new(tatas::TatasLock::with_backoff(base)),
            LockAlgorithm::Ticket => Box::new(ticket::TicketLock::new(base, n_threads)),
            LockAlgorithm::Anderson => Box::new(anderson::AndersonLock::new(base, n_threads)),
            LockAlgorithm::Mcs => Box::new(mcs::McsLock::new(base, n_threads)),
            LockAlgorithm::Ideal => Box::new(ideal::IdealLock::new()),
            LockAlgorithm::Glock => Box::new(glock::GlockBackend::pinned(
                glock.expect("GLock backend needs a G-line network (register file and controller)"),
                base,
                n_threads,
            )),
            LockAlgorithm::MpLock | LockAlgorithm::SyncBuf => {
                let (fabric, id) = mp.expect("MP-Lock backend needs the NIC fabric");
                Box::new(mplock_backend::MpLockBackend::new(fabric, id))
            }
            LockAlgorithm::DynamicGlock => {
                unreachable!("DynamicGlock backends are built by the simulation runner")
            }
            LockAlgorithm::Reactive => {
                Box::new(reactive::ReactiveBackend::new(base, n_threads))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(LockAlgorithm::Mcs.name(), "MCS");
        assert_eq!(LockAlgorithm::Glock.name(), "GLock");
        assert_eq!(LockAlgorithm::Tatas.name(), "TATAS");
        assert_eq!(LockAlgorithm::MpLock.name(), "MP-Lock");
        assert_eq!(LockAlgorithm::SyncBuf.name(), "SB");
        assert_eq!(LockAlgorithm::DynamicGlock.name(), "DynGLock");
        assert_eq!(LockAlgorithm::Reactive.name(), "Reactive");
    }

    #[test]
    fn parse_round_trips_every_label() {
        for a in LockAlgorithm::ALL {
            assert_eq!(LockAlgorithm::parse(a.name()), Some(a), "{}", a.name());
        }
        assert_eq!(LockAlgorithm::parse("glock"), Some(LockAlgorithm::Glock));
        assert_eq!(LockAlgorithm::parse("tatas_bo"), Some(LockAlgorithm::TatasBackoff));
        assert_eq!(LockAlgorithm::parse("mplock"), Some(LockAlgorithm::MpLock));
        assert_eq!(LockAlgorithm::parse("no-such-lock"), None);
    }

    #[test]
    #[should_panic(expected = "register file")]
    fn glock_requires_registers() {
        let _ = LockAlgorithm::Glock.make_backend(Addr(0), 4, None, None);
    }

    #[test]
    #[should_panic(expected = "NIC fabric")]
    fn mp_lock_requires_fabric() {
        let _ = LockAlgorithm::MpLock.make_backend(Addr(0), 4, None, None);
    }
}
