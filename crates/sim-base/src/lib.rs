//! Foundation types shared by every crate in the GLocks reproduction.
//!
//! This crate is deliberately dependency-free and contains the vocabulary of
//! the simulated machine: identifiers ([`ids`]), the 2D-mesh floor plan
//! ([`geom`]), the architectural configuration of the simulated CMP
//! ([`config`], reproducing Table II of the paper), a deterministic RNG
//! ([`rng`]), the activity sets per-cycle loops walk ([`activity`]) and
//! plain-text table rendering used by the experiment harness ([`table`]).

pub mod activity;
pub mod config;
pub mod fault;
pub mod geom;
pub mod ids;
pub mod rng;
pub mod snap;
pub mod table;
pub mod trace;

pub use activity::ActivitySet;
pub use config::{CacheConfig, CmpConfig, GlockConfig, NocConfig};
pub use fault::{FaultDecision, FaultInjector, FaultPlan, FaultRates, FaultSite, FaultStats};
pub use geom::{Coord, Mesh2D};
pub use ids::{Addr, CoreId, Cycle, LineAddr, LockId, ThreadId, TileId};
pub use rng::SplitMix64;
pub use snap::{Fingerprint, SnapError, SnapReader, SnapWriter, SNAP_MAGIC, SNAP_VERSION};
