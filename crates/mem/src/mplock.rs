//! MP-Locks: message-passing lock synchronization over the main data
//! network (related work \[14\] of the paper — Kuo, Carter & Kuramkote,
//! "MP-LOCKs: Replacing H/W Synchronization Primitives with Message
//! Passing", HPCA 1999, *centralized* flavor).
//!
//! Each lock is owned by a kernel lock manager at its home tile
//! (`lock % tiles`). A core acquires by sending `Req` and busy-waiting on
//! a local NIC grant flag; the manager queues contenders FIFO and answers
//! with `Grant`; `Rel` passes the lock on. All three message types ride
//! the shared mesh — so unlike GLocks they contend with coherence traffic
//! and pay NoC latency, but like GLocks they avoid coherence storms on
//! lock variables.
//!
//! The core-side NIC ([`MpFabric`]) is shared state between the lock
//! backend's scripts and the memory system, exactly like the GLock
//! register file: scripts enqueue operations and poll grant flags; the
//! memory system moves messages.

use crate::events::EventQueue;
use crate::msg::MpLockMsg;
use glocks_sim_base::{CoreId, Cycle};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Kernel lock-manager software overhead per processed message, in cycles
/// (the "embedded kernel lock managers" of \[14\] run handler code).
pub const MANAGER_LATENCY: u64 = 20;

/// Hardware lock-buffer latency per processed message (the
/// Synchronization-operation Buffer of \[16\] augments the memory
/// controller with dedicated queueing hardware).
pub const SYNC_BUF_LATENCY: u64 = 2;

/// Maximum MP-lock id (grant flags are a u64 bitmask per core).
pub const MAX_MP_LOCKS: u16 = 64;

/// The per-core NIC interface shared with the lock backend.
#[derive(Debug, Default)]
pub struct MpFabric {
    /// Operations enqueued by scripts, drained by the memory system.
    outbox: RefCell<VecDeque<(CoreId, MpLockMsg)>>,
    /// Per-core bitmask of granted lock ids.
    granted: Vec<Cell<u64>>,
}
glocks_sim_base::snap!(shared MpFabric { outbox, granted as fixed });

impl MpFabric {
    pub fn new(n_cores: usize) -> Rc<Self> {
        Rc::new(MpFabric {
            outbox: RefCell::new(VecDeque::new()),
            granted: (0..n_cores).map(|_| Cell::new(0)).collect(),
        })
    }

    /// Script side: send a lock request.
    pub fn request(&self, core: CoreId, lock: u16) {
        assert!(lock < MAX_MP_LOCKS);
        self.outbox
            .borrow_mut()
            .push_back((core, MpLockMsg::Req { lock, from: core }));
    }

    /// Script side: send a release.
    pub fn release(&self, core: CoreId, lock: u16) {
        self.outbox
            .borrow_mut()
            .push_back((core, MpLockMsg::Rel { lock, from: core }));
    }

    /// Script side: consume a grant if it has arrived.
    pub fn take_grant(&self, core: CoreId, lock: u16) -> bool {
        let g = &self.granted[core.index()];
        let bit = 1u64 << lock;
        if g.get() & bit != 0 {
            g.set(g.get() & !bit);
            true
        } else {
            false
        }
    }

    /// Memory-system side: pop the next outgoing operation.
    pub(crate) fn pop_outgoing(&self) -> Option<(CoreId, MpLockMsg)> {
        self.outbox.borrow_mut().pop_front()
    }

    /// Memory-system side: a `Grant` arrived at `core`'s tile.
    pub(crate) fn deliver_grant(&self, core: CoreId, lock: u16) {
        let g = &self.granted[core.index()];
        g.set(g.get() | (1u64 << lock));
    }
}

#[derive(Debug, Default)]
struct LockState {
    held: bool,
    queue: VecDeque<CoreId>,
}
glocks_sim_base::snap!(LockState { held, queue });

/// The kernel lock manager of one tile (serves the locks homed there).
pub struct MpManager {
    locks: HashMap<u16, LockState>,
    /// Lock messages waiting out the manager's processing latency.
    events: EventQueue<MpLockMsg>,
    /// Grants decided this tick, to be sent by the memory system.
    outgoing: Vec<(CoreId, MpLockMsg)>,
    pub grants: u64,
}
glocks_sim_base::snap!(MpManager { locks, events, outgoing, grants });

impl Default for MpManager {
    fn default() -> Self {
        MpManager {
            locks: HashMap::new(),
            events: EventQueue::new(),
            outgoing: Vec::new(),
            grants: 0,
        }
    }
}

impl MpManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// A lock message arrived at this tile: process it after the manager's
    /// processing latency (software kernel manager for MP-Locks, ~2 cycles
    /// for the hardware Synchronization-operation Buffer of \[16\]).
    pub fn handle(&mut self, msg: MpLockMsg, now: Cycle, latency: u64) {
        self.events.schedule(now + latency, msg);
    }

    /// Advance; decided grants appear in the outgoing buffer.
    pub fn tick(&mut self, now: Cycle) {
        while let Some((_, msg)) = self.events.pop_due(now) {
            match msg {
                MpLockMsg::Req { lock, from } => {
                    let st = self.locks.entry(lock).or_default();
                    if st.held {
                        st.queue.push_back(from);
                    } else {
                        st.held = true;
                        self.grants += 1;
                        self.outgoing.push((from, MpLockMsg::Grant { lock }));
                    }
                }
                MpLockMsg::Rel { lock, from: _ } => {
                    let st = self.locks.entry(lock).or_default();
                    debug_assert!(st.held, "release of a free MP lock");
                    if let Some(next) = st.queue.pop_front() {
                        self.grants += 1;
                        self.outgoing.push((next, MpLockMsg::Grant { lock }));
                    } else {
                        st.held = false;
                    }
                }
                MpLockMsg::Grant { .. } => unreachable!("managers do not receive grants"),
            }
        }
    }

    /// Drain decided grants.
    pub fn take_outgoing(&mut self, out: &mut Vec<(CoreId, MpLockMsg)>) {
        out.append(&mut self.outgoing);
    }

    /// No queued work (end-of-run check).
    pub fn is_quiescent(&self) -> bool {
        self.events.is_empty() && self.outgoing.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_grant_order() {
        let mut m = MpManager::new();
        m.handle(MpLockMsg::Req { lock: 3, from: CoreId(1) }, 0, MANAGER_LATENCY);
        m.handle(MpLockMsg::Req { lock: 3, from: CoreId(2) }, 1, MANAGER_LATENCY);
        m.tick(MANAGER_LATENCY + 1);
        let mut out = Vec::new();
        m.take_outgoing(&mut out);
        assert_eq!(out, vec![(CoreId(1), MpLockMsg::Grant { lock: 3 })]);
        // release passes the lock to the queued core
        m.handle(MpLockMsg::Rel { lock: 3, from: CoreId(1) }, 10, MANAGER_LATENCY);
        m.tick(10 + MANAGER_LATENCY);
        out.clear();
        m.take_outgoing(&mut out);
        assert_eq!(out, vec![(CoreId(2), MpLockMsg::Grant { lock: 3 })]);
        // final release leaves the lock free
        m.handle(MpLockMsg::Rel { lock: 3, from: CoreId(2) }, 40, MANAGER_LATENCY);
        m.tick(40 + MANAGER_LATENCY);
        out.clear();
        m.take_outgoing(&mut out);
        assert!(out.is_empty());
        assert!(m.is_quiescent());
    }

    #[test]
    fn manager_latency_is_respected() {
        let mut m = MpManager::new();
        m.handle(MpLockMsg::Req { lock: 0, from: CoreId(0) }, 100, MANAGER_LATENCY);
        m.tick(100 + MANAGER_LATENCY - 1);
        let mut out = Vec::new();
        m.take_outgoing(&mut out);
        assert!(out.is_empty(), "grant decided too early");
        m.tick(100 + MANAGER_LATENCY);
        m.take_outgoing(&mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn fabric_grant_flags() {
        let f = MpFabric::new(4);
        f.request(CoreId(2), 5);
        assert!(!f.take_grant(CoreId(2), 5));
        f.deliver_grant(CoreId(2), 5);
        assert!(f.take_grant(CoreId(2), 5));
        assert!(!f.take_grant(CoreId(2), 5), "grant is consumed once");
        let (c, msg) = f.pop_outgoing().unwrap();
        assert_eq!(c, CoreId(2));
        assert!(matches!(msg, MpLockMsg::Req { lock: 5, .. }));
        assert!(f.pop_outgoing().is_none());
    }

    #[test]
    fn independent_locks_do_not_interact() {
        let mut m = MpManager::new();
        m.handle(MpLockMsg::Req { lock: 1, from: CoreId(0) }, 0, MANAGER_LATENCY);
        m.handle(MpLockMsg::Req { lock: 2, from: CoreId(1) }, 0, MANAGER_LATENCY);
        m.tick(MANAGER_LATENCY);
        let mut out = Vec::new();
        m.take_outgoing(&mut out);
        assert_eq!(out.len(), 2, "both locks granted immediately");
    }
}
