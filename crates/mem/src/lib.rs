//! The simulated memory hierarchy: per-core L1 data caches, a distributed
//! shared L2, and a blocking full-map MESI directory protocol over the mesh
//! NoC — the substrate the paper's Sim-PowerCMP provides.
//!
//! # Protocol overview
//!
//! Each cache line has a *home* tile (line-interleaved). The home tile's
//! directory controller serializes all transactions on a line: while a
//! transaction is in flight the line is *busy* and later requests queue at
//! the home. Cores are in-order with blocking caches (one outstanding miss
//! per core), matching Table II's "in-order 2-way model".
//!
//! Directory state is held in an unbounded map (a "perfect" full-map
//! directory), while the L2 *data array* is modeled as a real
//! set-associative array for timing: a directory-satisfied fetch that
//! misses in the L2 array pays the 400-cycle memory latency. This standard
//! decoupling (correctness in the directory map, timing in the array)
//! avoids back-invalidation complexity without changing any of the traffic
//! or latency effects the paper measures.
//!
//! All data responses flow through the home tile (a 4-hop protocol):
//! cache-to-cache transfers appear as `WbData` messages from the previous
//! owner to the home, which the paper's Figure 9 counts in its *Coherence*
//! category.
//!
//! # Values
//!
//! Memory values are held word-granular in one authoritative
//! [`store::WordStore`], read/written at the commit point of each memory
//! operation. Because the protocol is invalidation-based, a cached copy is
//! never stale, so commit-time reads return exactly the coherent value
//! while timing comes entirely from the protocol simulation.

pub mod cache_array;
pub mod events;
pub mod l1;
pub mod dir;
pub mod mplock;
pub mod msg;
pub mod store;
pub mod subsystem;

pub use l1::Park;
pub use msg::{CoherenceMsg, MemOp, MemResult, MpLockMsg, RmwKind, SysMsg};
pub use subsystem::{MemDiag, MemorySystem};
