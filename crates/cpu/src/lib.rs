//! The simulated cores and the thread-program abstraction.
//!
//! A workload thread is a resumable state machine yielding [`Action`]s:
//! computation, memory operations, lock acquire/release and barriers. The
//! per-core driver ([`core::Core`]) expands lock and barrier actions into
//! *scripts* supplied by a lock backend (a software lock algorithm over
//! simulated memory operations, or the GLocks hardware's register
//! interface) and attributes every cycle to one of the four categories of
//! the paper's Figure 8 breakdown: **Busy**, **Memory**, **Lock**,
//! **Barrier**.
//!
//! The paper's grAC contention analysis (Figure 7, Eqs. 1–3) is fed by
//! [`tracker::LockTracker`], which samples the number of concurrent
//! requesters of every lock on a cycle-by-cycle basis and enforces mutual
//! exclusion as a checked invariant.

pub mod breakdown;
pub mod core;
pub mod program;
pub mod tracker;

pub use crate::core::{Backends, Core, CoreActivity};
pub use breakdown::{Breakdown, Category};
pub use program::{
    load_script, Action, BarrierBackend, FixedScript, LockBackend, Script, Spin, Step, Workload,
};
pub use tracker::LockTracker;
