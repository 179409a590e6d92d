//! Coherence protocol messages and the core-facing memory operations.

use glocks_noc::TrafficClass;
use glocks_sim_base::{Addr, CoreId, Cycle, LineAddr};

/// Atomic read-modify-write flavors — the hardware primitives the paper's
/// software lock algorithms are built from (Section II).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmwKind {
    /// `test&set`: write 1, return the old value.
    TestAndSet,
    /// `swap`: write the operand, return the old value.
    Swap(u64),
    /// `fetch&add`: add the operand, return the old value
    /// (`fetch&increment` is `FetchAdd(1)`).
    FetchAdd(u64),
    /// `compare&swap { expected, new }`: write `new` iff the current value
    /// equals `expected`; always returns the old value.
    CompareAndSwap { expected: u64, new: u64 },
}
glocks_sim_base::snap!(enum RmwKind {
    0 => TestAndSet,
    1 => Swap(value),
    2 => FetchAdd(delta),
    3 => CompareAndSwap { expected, new },
});

impl RmwKind {
    /// Apply the RMW to a value, returning `(new_value, returned_old)`.
    pub fn apply(self, old: u64) -> (u64, u64) {
        match self {
            RmwKind::TestAndSet => (1, old),
            RmwKind::Swap(v) => (v, old),
            RmwKind::FetchAdd(d) => (old.wrapping_add(d), old),
            RmwKind::CompareAndSwap { expected, new } => {
                if old == expected {
                    (new, old)
                } else {
                    (old, old)
                }
            }
        }
    }
}

/// A memory operation issued by a core. One word (8 bytes) at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOp {
    Load(Addr),
    Store(Addr, u64),
    Rmw(Addr, RmwKind),
}
glocks_sim_base::snap!(enum MemOp { 0 => Load(a), 1 => Store(a, v), 2 => Rmw(a, kind) });

impl MemOp {
    pub fn addr(&self) -> Addr {
        match *self {
            MemOp::Load(a) | MemOp::Store(a, _) | MemOp::Rmw(a, _) => a,
        }
    }

    /// Does this operation require exclusive (M) permission?
    pub fn needs_exclusive(&self) -> bool {
        !matches!(self, MemOp::Load(_))
    }
}

/// Completion record handed back to the core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemResult {
    pub op: MemOp,
    /// Loaded value (loads) or the old value (RMWs); 0 for stores.
    pub value: u64,
    pub finished_at: Cycle,
    /// True if the op completed without leaving the L1 (an L1 hit with
    /// sufficient permissions).
    pub l1_hit: bool,
}
glocks_sim_base::snap!(MemResult { op, value, finished_at, l1_hit });

/// Messages of the MP-Locks message-passing lock protocol (Kuo et al.,
/// "MP-LOCKs", HPCA 1999 — the paper's related work \[14\]): lock
/// synchronization via explicit messages to per-tile kernel lock managers,
/// carried over the **main data network** (unlike GLocks' dedicated
/// G-lines).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpLockMsg {
    /// Ask the manager for the lock.
    Req { lock: u16, from: CoreId },
    /// Manager grants the lock to the destination core.
    Grant { lock: u16 },
    /// Give the lock back to the manager.
    Rel { lock: u16, from: CoreId },
}
glocks_sim_base::snap!(enum MpLockMsg {
    0 => Req { lock, from },
    1 => Grant { lock },
    2 => Rel { lock, from },
});

impl MpLockMsg {
    /// Figure-9 class of this message on the shared network.
    pub fn traffic_class(&self) -> TrafficClass {
        match self {
            MpLockMsg::Req { .. } => TrafficClass::Request,
            MpLockMsg::Grant { .. } => TrafficClass::Reply,
            MpLockMsg::Rel { .. } => TrafficClass::Coherence,
        }
    }
}

/// Everything the main data network carries: coherence protocol messages
/// plus (when MP-Locks are in use) lock-manager messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SysMsg {
    Coh(CoherenceMsg),
    Lock(MpLockMsg),
}
glocks_sim_base::snap!(enum SysMsg { 0 => Coh(m), 1 => Lock(m) });

/// Messages of the directory MESI protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoherenceMsg {
    // ---- L1 → home directory (requests) ----
    /// Read miss.
    GetS { line: LineAddr, from: CoreId },
    /// Write/RMW miss (line absent at requester).
    GetM { line: LineAddr, from: CoreId },
    /// Write/RMW upgrade (requester holds the line in S).
    UpgradeM { line: LineAddr, from: CoreId },
    /// Dirty eviction writeback (carries data).
    PutM { line: LineAddr, from: CoreId },
    /// Clean-exclusive eviction notice (no data).
    PutE { line: LineAddr, from: CoreId },
    /// Response to a `Fwd*`: the previous owner's data, sent to the home
    /// (the paper's "cache-to-cache transfer").
    WbData { line: LineAddr, from: CoreId },
    /// Invalidation acknowledgment.
    InvAck { line: LineAddr, from: CoreId },

    // ---- home directory → L1 ----
    /// Data grant, shared.
    DataS { line: LineAddr },
    /// Data grant, exclusive-clean (MESI E: granted when no other copy).
    DataE { line: LineAddr },
    /// Data grant, modified permission.
    DataM { line: LineAddr },
    /// Permission-only M grant for an upgrade (requester already has data).
    GrantM { line: LineAddr },
    /// Invalidate your copy and ack to the home.
    Inv { line: LineAddr },
    /// Demote to S and send `WbData` to the home.
    FwdGetS { line: LineAddr },
    /// Invalidate and send `WbData` to the home.
    FwdGetM { line: LineAddr },
    /// Eviction handshake completion.
    PutAck { line: LineAddr },
}
glocks_sim_base::snap!(enum CoherenceMsg {
    0 => GetS { line, from },
    1 => GetM { line, from },
    2 => UpgradeM { line, from },
    3 => PutM { line, from },
    4 => PutE { line, from },
    5 => WbData { line, from },
    6 => InvAck { line, from },
    7 => DataS { line },
    8 => DataE { line },
    9 => DataM { line },
    10 => GrantM { line },
    11 => Inv { line },
    12 => FwdGetS { line },
    13 => FwdGetM { line },
    14 => PutAck { line },
});

impl CoherenceMsg {
    pub fn line(&self) -> LineAddr {
        match *self {
            CoherenceMsg::GetS { line, .. }
            | CoherenceMsg::GetM { line, .. }
            | CoherenceMsg::UpgradeM { line, .. }
            | CoherenceMsg::PutM { line, .. }
            | CoherenceMsg::PutE { line, .. }
            | CoherenceMsg::WbData { line, .. }
            | CoherenceMsg::InvAck { line, .. }
            | CoherenceMsg::DataS { line }
            | CoherenceMsg::DataE { line }
            | CoherenceMsg::DataM { line }
            | CoherenceMsg::GrantM { line }
            | CoherenceMsg::Inv { line }
            | CoherenceMsg::FwdGetS { line }
            | CoherenceMsg::FwdGetM { line }
            | CoherenceMsg::PutAck { line } => line,
        }
    }

    /// True for messages handled by the home directory; false for messages
    /// handled by an L1 controller.
    pub fn to_directory(&self) -> bool {
        matches!(
            self,
            CoherenceMsg::GetS { .. }
                | CoherenceMsg::GetM { .. }
                | CoherenceMsg::UpgradeM { .. }
                | CoherenceMsg::PutM { .. }
                | CoherenceMsg::PutE { .. }
                | CoherenceMsg::WbData { .. }
                | CoherenceMsg::InvAck { .. }
        )
    }

    /// Does the message carry a full cache line of data?
    pub fn carries_data(&self) -> bool {
        matches!(
            self,
            CoherenceMsg::PutM { .. }
                | CoherenceMsg::WbData { .. }
                | CoherenceMsg::DataS { .. }
                | CoherenceMsg::DataE { .. }
                | CoherenceMsg::DataM { .. }
        )
    }

    /// Figure 9 traffic category of this message.
    pub fn traffic_class(&self) -> TrafficClass {
        match self {
            // "messages generated when load and store instructions miss in
            // cache and must access a remote directory"
            CoherenceMsg::GetS { .. }
            | CoherenceMsg::GetM { .. }
            | CoherenceMsg::UpgradeM { .. } => TrafficClass::Request,
            // "messages with data" plus the upgrade permission grant and
            // writebacks
            CoherenceMsg::DataS { .. }
            | CoherenceMsg::DataE { .. }
            | CoherenceMsg::DataM { .. }
            | CoherenceMsg::GrantM { .. }
            | CoherenceMsg::PutM { .. } => TrafficClass::Reply,
            // "messages generated by the cache coherence protocol
            // (e.g. invalidations and cache-to-cache transfers)"
            CoherenceMsg::Inv { .. }
            | CoherenceMsg::InvAck { .. }
            | CoherenceMsg::FwdGetS { .. }
            | CoherenceMsg::FwdGetM { .. }
            | CoherenceMsg::WbData { .. }
            | CoherenceMsg::PutE { .. }
            | CoherenceMsg::PutAck { .. } => TrafficClass::Coherence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_semantics() {
        assert_eq!(RmwKind::TestAndSet.apply(0), (1, 0));
        assert_eq!(RmwKind::TestAndSet.apply(1), (1, 1));
        assert_eq!(RmwKind::Swap(9).apply(4), (9, 4));
        assert_eq!(RmwKind::FetchAdd(3).apply(7), (10, 7));
        assert_eq!(
            RmwKind::CompareAndSwap { expected: 7, new: 1 }.apply(7),
            (1, 7)
        );
        assert_eq!(
            RmwKind::CompareAndSwap { expected: 7, new: 1 }.apply(8),
            (8, 8)
        );
    }

    #[test]
    fn fetch_add_wraps() {
        assert_eq!(RmwKind::FetchAdd(2).apply(u64::MAX), (1, u64::MAX));
    }

    #[test]
    fn op_exclusive_requirements() {
        let a = Addr(64);
        assert!(!MemOp::Load(a).needs_exclusive());
        assert!(MemOp::Store(a, 1).needs_exclusive());
        assert!(MemOp::Rmw(a, RmwKind::TestAndSet).needs_exclusive());
    }

    #[test]
    fn message_routing_split() {
        let l = LineAddr(5);
        let c = CoreId(1);
        assert!(CoherenceMsg::GetS { line: l, from: c }.to_directory());
        assert!(CoherenceMsg::InvAck { line: l, from: c }.to_directory());
        assert!(!CoherenceMsg::DataM { line: l }.to_directory());
        assert!(!CoherenceMsg::PutAck { line: l }.to_directory());
    }

    #[test]
    fn traffic_classes_match_paper() {
        let l = LineAddr(5);
        let c = CoreId(0);
        assert_eq!(
            CoherenceMsg::GetM { line: l, from: c }.traffic_class(),
            TrafficClass::Request
        );
        assert_eq!(
            CoherenceMsg::DataS { line: l }.traffic_class(),
            TrafficClass::Reply
        );
        assert_eq!(
            CoherenceMsg::WbData { line: l, from: c }.traffic_class(),
            TrafficClass::Coherence
        );
        assert_eq!(
            CoherenceMsg::Inv { line: l }.traffic_class(),
            TrafficClass::Coherence
        );
    }

    #[test]
    fn mp_lock_traffic_classes() {
        let c = CoreId(1);
        assert_eq!(
            MpLockMsg::Req { lock: 0, from: c }.traffic_class(),
            TrafficClass::Request
        );
        assert_eq!(MpLockMsg::Grant { lock: 0 }.traffic_class(), TrafficClass::Reply);
        assert_eq!(
            MpLockMsg::Rel { lock: 0, from: c }.traffic_class(),
            TrafficClass::Coherence
        );
    }

    #[test]
    fn sysmsg_wraps_both_protocols() {
        let l = LineAddr(2);
        let a = SysMsg::Coh(CoherenceMsg::GetS { line: l, from: CoreId(0) });
        let b = SysMsg::Lock(MpLockMsg::Grant { lock: 1 });
        assert_ne!(a, b);
        match a {
            SysMsg::Coh(m) => assert!(m.to_directory()),
            SysMsg::Lock(_) => panic!("wrong arm"),
        }
    }

    #[test]
    fn data_flag_matches_variants() {
        let l = LineAddr(1);
        let c = CoreId(0);
        assert!(CoherenceMsg::DataS { line: l }.carries_data());
        assert!(CoherenceMsg::PutM { line: l, from: c }.carries_data());
        assert!(!CoherenceMsg::GrantM { line: l }.carries_data());
        assert!(!CoherenceMsg::Inv { line: l }.carries_data());
    }
}
