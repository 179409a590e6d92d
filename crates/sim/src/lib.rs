//! The assembled CMP simulator: cores + L1s + directory L2 + mesh NoC +
//! GLock G-line networks + energy accounting, driven cycle by cycle.
//!
//! [`Simulation`] is workload-agnostic: it takes one `Workload` per core,
//! a [`LockMapping`] deciding which algorithm backs each workload lock
//! (the paper's hybrid scheme maps the highly-contended locks to GLocks or
//! MCS and everything else to TATAS), an optional initial memory image, and
//! runs the parallel phase to completion, returning a [`SimReport`] with
//! every metric the paper's evaluation uses.

pub mod checker;
pub mod error;
pub mod mapping;
pub mod report;
pub mod runner;
pub mod snapshot;
pub mod summary;

pub use checker::{CheckerConfig, ProtocolChecker};
pub use error::{CoreDiag, DiagnosticSnapshot, GlockDiag, LockDiag, SimError};
pub use mapping::LockMapping;
pub use report::SimReport;
pub use runner::{Simulation, SimulationOptions};
pub use snapshot::Snapshot;
