//! The assembled memory subsystem: per-tile L1 + directory over the mesh.
//!
//! This is the interface the simulated cores talk to: submit one memory
//! operation, tick the world, poll for the completion.

use crate::dir::{DirState, Directory};
use crate::l1::{L1Cache, L1State};
use crate::mplock::{MpFabric, MpManager, MANAGER_LATENCY, MAX_MP_LOCKS};
use crate::msg::{MemOp, MemResult, MpLockMsg, SysMsg};
use crate::store::WordStore;
use glocks_noc::{MeshNoc, Packet, TrafficStats};
use glocks_sim_base::fault::{FaultPlan, FaultSite};
use glocks_sim_base::stats::CounterSet;
use glocks_sim_base::{CmpConfig, CoreId, Cycle, LineAddr, TileId};

/// A point-in-time picture of what the memory system is doing — part of
/// the runner's diagnostic snapshot when a run wedges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemDiag {
    /// Packets inside the fabric or delivery buffers.
    pub noc_in_flight: usize,
    /// Packets sitting in router input queues (congestion).
    pub noc_queued: usize,
    /// Packets lost to an injected fault schedule.
    pub noc_dropped: u64,
    /// L1s with an operation outstanding.
    pub busy_l1s: usize,
    /// Directory lines with a transaction in flight.
    pub dir_busy_lines: usize,
    /// Requests queued behind busy directory lines.
    pub dir_queued_requests: usize,
}

/// The full memory hierarchy of the simulated CMP.
pub struct MemorySystem {
    l1s: Vec<L1Cache>,
    dirs: Vec<Directory>,
    store: WordStore,
    net: MeshNoc<SysMsg>,
    drain_buf: Vec<Packet<SysMsg>>,
    /// MP-Locks kernel lock managers, one per tile (related work \[14\]).
    mp_managers: Vec<MpManager>,
    /// Core-side MP-Locks NIC, shared with the lock backend.
    mp_fabric: std::rc::Rc<MpFabric>,
    mp_out_buf: Vec<(CoreId, MpLockMsg)>,
    /// Per-MP-lock manager processing latency (software kernel manager by
    /// default; 2 cycles for the hardware SB of related work \[16\]).
    mp_latency: Vec<u64>,
    ctrl_bytes: u32,
    n_tiles: usize,
}
glocks_sim_base::snap!(MemorySystem mark "mem" {
    l1s as fixed, dirs as fixed, store, net, mp_managers as fixed, mp_fabric;
    skip drain_buf, mp_out_buf, mp_latency, ctrl_bytes, n_tiles
});

impl MemorySystem {
    pub fn new(cfg: &CmpConfig) -> Self {
        cfg.validate();
        let mesh = cfg.mesh();
        MemorySystem {
            l1s: (0..cfg.num_cores)
                .map(|i| L1Cache::new(CoreId(i as u16), cfg))
                .collect(),
            dirs: mesh.tiles().map(|t| Directory::new(t, cfg)).collect(),
            store: WordStore::new(),
            net: MeshNoc::new(mesh, cfg.noc),
            drain_buf: Vec::new(),
            mp_managers: (0..mesh.len()).map(|_| MpManager::new()).collect(),
            mp_fabric: MpFabric::new(cfg.num_cores),
            mp_out_buf: Vec::new(),
            mp_latency: vec![MANAGER_LATENCY; MAX_MP_LOCKS as usize],
            ctrl_bytes: cfg.noc.ctrl_msg_bytes,
            n_tiles: mesh.len(),
        }
    }

    /// The MP-Locks NIC handle for lock backends.
    pub fn mp_fabric(&self) -> std::rc::Rc<MpFabric> {
        std::rc::Rc::clone(&self.mp_fabric)
    }

    /// Configure one MP lock's manager latency (e.g.
    /// [`crate::mplock::SYNC_BUF_LATENCY`] for the hardware SB flavor).
    pub fn set_mp_latency(&mut self, lock: u16, cycles: u64) {
        self.mp_latency[lock as usize] = cycles;
    }

    /// Home tile of an MP lock.
    fn mp_home(&self, lock: u16) -> TileId {
        TileId(lock % self.n_tiles as u16)
    }

    fn inject_mp(&mut self, src: TileId, dst: TileId, msg: MpLockMsg, now: Cycle) {
        self.net.inject(
            Packet {
                src,
                dst,
                bytes: self.ctrl_bytes,
                class: msg.traffic_class(),
                injected_at: now,
                payload: SysMsg::Lock(msg),
            },
            now,
        );
    }

    /// Submit a memory operation for `core`. One outstanding op per core.
    pub fn submit(&mut self, core: CoreId, op: MemOp, now: Cycle) {
        self.l1s[core.index()].submit(op, now);
    }

    /// Take the completion for `core`, if its operation finished.
    pub fn take_result(&mut self, core: CoreId) -> Option<MemResult> {
        self.l1s[core.index()].take_result()
    }

    /// Advance the memory world by one cycle. Call once per simulated cycle
    /// *after* cores have submitted their operations for this cycle.
    pub fn tick(&mut self, now: Cycle) {
        // 1. The fabric moves packets.
        self.net.tick(now);
        // 2. Deliver arrived packets to their tile's L1, directory, NIC
        //    or lock manager.
        for t in 0..self.dirs.len() {
            if !self.net.has_deliveries(TileId(t as u16)) {
                continue;
            }
            self.drain_buf.clear();
            self.net.drain(TileId(t as u16), now, &mut self.drain_buf);
            for i in 0..self.drain_buf.len() {
                match self.drain_buf[i].payload {
                    SysMsg::Coh(msg) => {
                        if msg.to_directory() {
                            self.dirs[t].handle_msg(msg, now, &mut self.store, &mut self.net);
                        } else {
                            self.l1s[t].handle_msg(msg, now, &mut self.store, &mut self.net);
                        }
                    }
                    SysMsg::Lock(MpLockMsg::Grant { lock }) => {
                        self.mp_fabric.deliver_grant(CoreId(t as u16), lock);
                    }
                    SysMsg::Lock(msg) => {
                        let lock = match msg {
                            MpLockMsg::Req { lock, .. } | MpLockMsg::Rel { lock, .. } => lock,
                            MpLockMsg::Grant { .. } => unreachable!("handled above"),
                        };
                        self.mp_managers[t].handle(msg, now, self.mp_latency[lock as usize]);
                    }
                }
            }
        }
        // 3. Controllers process their scheduled work.
        for l1 in &mut self.l1s {
            l1.tick(now, &mut self.store, &mut self.net);
        }
        for dir in &mut self.dirs {
            dir.tick(now, &mut self.store, &mut self.net);
        }
        // 4. MP-Locks: NIC outbox → network; manager decisions → network.
        while let Some((core, msg)) = self.mp_fabric.pop_outgoing() {
            let dst = match msg {
                MpLockMsg::Req { lock, .. } | MpLockMsg::Rel { lock, .. } => self.mp_home(lock),
                MpLockMsg::Grant { .. } => unreachable!("cores do not send grants"),
            };
            self.inject_mp(TileId(core.0), dst, msg, now);
        }
        for t in 0..self.mp_managers.len() {
            if self.mp_managers[t].is_quiescent() {
                continue;
            }
            self.mp_managers[t].tick(now);
            self.mp_out_buf.clear();
            self.mp_managers[t].take_outgoing(&mut self.mp_out_buf);
            for i in 0..self.mp_out_buf.len() {
                let (core, msg) = self.mp_out_buf[i];
                self.inject_mp(TileId(t as u16), TileId(core.0), msg, now);
            }
        }
    }

    /// True when no packet, transaction or pending L1 request exists (used
    /// to detect simulation quiescence and by invariant checks).
    pub fn is_quiescent(&self) -> bool {
        self.net.is_idle()
            && self.dirs.iter().all(Directory::is_quiescent)
            && self.l1s.iter().all(|l1| !l1.busy())
            && self.mp_managers.iter().all(MpManager::is_quiescent)
    }

    /// The earliest future cycle at which ticking the memory system could
    /// change state, or `None` if it is quiescent with nothing scheduled.
    ///
    /// The memory hierarchy is event-dense while anything is in flight
    /// (router arbitration, delayed deliveries and controller event queues
    /// interact cycle by cycle), so a non-quiescent system reports
    /// `Some(now)` — "hot, tick me densely". A quiescent system only ever
    /// wakes for a scheduled permanent router fault: the kill mutates the
    /// fabric (the router dies in place) even with no packet anywhere.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.is_quiescent() {
            return Some(now);
        }
        self.net.next_scheduled_kill(now)
    }

    /// Network traffic statistics (Figure 9's raw material).
    pub fn traffic(&self) -> &TrafficStats {
        self.net.stats()
    }

    /// Wire the NoC and every directory into a fault plan's schedule.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.noc.is_active() {
            self.net.set_faults(plan.injector(FaultSite::Noc, 0));
        }
        if plan.dir.is_active() {
            for (t, dir) in self.dirs.iter_mut().enumerate() {
                dir.set_faults(plan.injector(FaultSite::Dir, t as u64));
            }
        }
    }

    /// Soft-fault totals from the NoC's injector, if one is attached.
    pub fn noc_fault_stats(&self) -> Option<glocks_sim_base::fault::FaultStats> {
        self.net.fault_stats()
    }

    /// Aggregate soft-fault totals over every directory injector, or
    /// `None` when no directory carries one.
    pub fn dir_fault_stats(&self) -> Option<glocks_sim_base::fault::FaultStats> {
        let mut any = false;
        let mut total = glocks_sim_base::fault::FaultStats::default();
        for dir in &self.dirs {
            if let Some(s) = dir.fault_stats() {
                any = true;
                total.decided += s.decided;
                total.dropped += s.dropped;
                total.delayed += s.delayed;
                total.duplicated += s.duplicated;
            }
        }
        any.then_some(total)
    }

    /// Schedule a permanent NoC router fault (see
    /// [`MeshNoc::schedule_router_kill`]): from cycle `at` every packet
    /// through `tile`'s router is lost. The coherence protocol has no
    /// retransmission layer, so transactions through the dead router wedge
    /// and the runner's watchdog escalates with this diagnosis.
    pub fn schedule_router_kill(&mut self, tile: TileId, at: Cycle) {
        self.net.schedule_router_kill(tile, at);
    }

    /// Cycle at which `tile`'s router died, if a scheduled kill has fired.
    pub fn router_dead_at(&self, tile: TileId) -> Option<Cycle> {
        self.net.router_dead_at(tile)
    }

    /// Snapshot of in-flight state for wedge diagnostics.
    pub fn diag(&self) -> MemDiag {
        MemDiag {
            noc_in_flight: self.net.in_flight(),
            noc_queued: self.net.queued_packets(),
            noc_dropped: self.net.packets_dropped(),
            busy_l1s: self.l1s.iter().filter(|l1| l1.busy()).count(),
            dir_busy_lines: self.dirs.iter().map(Directory::busy_lines).sum(),
            dir_queued_requests: self.dirs.iter().map(Directory::queued_requests).sum(),
        }
    }

    /// Pre-install a line's home L2 entry (initialization-phase data).
    pub fn prewarm(&mut self, line: LineAddr) {
        let home = (line.0 % self.dirs.len() as u64) as usize;
        self.dirs[home].prewarm(line);
    }

    /// Direct access to the functional store (workload setup/verification).
    pub fn store(&self) -> &WordStore {
        &self.store
    }

    pub fn store_mut(&mut self) -> &mut WordStore {
        &mut self.store
    }

    /// Aggregated event counters of all L1s and directories (energy input).
    pub fn counters(&self) -> CounterSet {
        let mut c = CounterSet::default();
        for l1 in &self.l1s {
            c.merge(l1.counters());
        }
        for d in &self.dirs {
            c.merge(d.counters());
        }
        c
    }

    /// Publish end-of-run memory-hierarchy totals into the stats registry:
    /// per-tile L1 and directory event counters plus chip-wide aggregates
    /// (no-op when stats are off).
    pub fn publish_stats(&self) {
        if !glocks_stats::is_enabled() {
            return;
        }
        for (t, l1) in self.l1s.iter().enumerate() {
            for (k, v) in l1.counters().iter() {
                glocks_stats::set(glocks_stats::counter(&format!("mem.l1.t{t}.{k}")), v);
            }
        }
        for (t, dir) in self.dirs.iter().enumerate() {
            for (k, v) in dir.counters().iter() {
                glocks_stats::set(glocks_stats::counter(&format!("mem.dir.t{t}.{k}")), v);
            }
        }
        for (k, v) in self.counters().iter() {
            glocks_stats::set(glocks_stats::counter(&format!("mem.total.{k}")), v);
        }
        self.net.publish_stats();
    }

    /// Check the MESI system invariants; panics with a description if one
    /// is violated. Intended for tests (called every N cycles). The
    /// non-panicking flavor is [`Self::find_invariant_violation`], used by
    /// the runtime protocol checker to produce a structured `SimError`.
    pub fn check_invariants(&self) {
        if let Some(v) = self.find_invariant_violation() {
            panic!("{v}");
        }
    }

    /// Scan the MESI system invariants; returns a description of the first
    /// violation found, or `None` when the hierarchy is coherent.
    ///
    /// * At most one L1 holds a line in M or E, and then no other L1 holds
    ///   it at all — true at *every* cycle.
    /// * If any L1 holds a line in S, no L1 holds it in M/E — ditto.
    /// * The directory's stable state is consistent with (a superset of)
    ///   the true cache states — checked only when no grant can still be
    ///   in flight (network idle and the involved L1 not mid-transaction),
    ///   since e.g. a sent `GrantM` updates the directory to Owned while
    ///   the requester still holds S until the grant is delivered.
    pub fn find_invariant_violation(&self) -> Option<String> {
        use std::collections::HashMap;
        let net_idle = self.net.is_idle();
        let mut holders: HashMap<LineAddr, (Vec<CoreId>, Vec<CoreId>)> = HashMap::new();
        for (i, l1) in self.l1s.iter().enumerate() {
            let core = CoreId(i as u16);
            for line in self.lines_of(l1) {
                let entry = holders.entry(line).or_default();
                match l1.state_of(line).expect("enumerated line") {
                    L1State::Modified | L1State::Exclusive => entry.0.push(core),
                    L1State::Shared => entry.1.push(core),
                }
            }
        }
        for (line, (excl, shared)) in &holders {
            if excl.len() > 1 {
                return Some(format!("line {line:?} exclusively held by {excl:?}"));
            }
            if !excl.is_empty() && !shared.is_empty() {
                return Some(format!(
                    "line {line:?} both exclusive ({excl:?}) and shared ({shared:?})"
                ));
            }
            if let Some(&owner) = excl.first() {
                let home = &self.dirs[(line.0 % self.dirs.len() as u64) as usize];
                match home.state_of(*line) {
                    DirState::Owned(o) => {
                        if o != owner {
                            return Some(format!(
                                "directory owner mismatch for {line:?}: L1 {owner:?} owns it but the directory says {o:?}"
                            ));
                        }
                    }
                    // A transaction or in-flight message may be moving
                    // ownership.
                    _ if !home.is_quiescent()
                        || !net_idle
                        || self.l1s[owner.index()].busy() => {}
                    st => {
                        return Some(format!(
                            "L1 {owner:?} owns {line:?} but directory says {st:?}"
                        ))
                    }
                }
            }
            for &s in shared {
                let home = &self.dirs[(line.0 % self.dirs.len() as u64) as usize];
                match home.state_of(*line) {
                    DirState::Shared(mask) => {
                        if mask & (1u128 << s.index()) == 0 {
                            return Some(format!(
                                "L1 {s:?} holds {line:?} in S but is not in the sharer mask"
                            ));
                        }
                    }
                    _ if !home.is_quiescent()
                        || !net_idle
                        || self.l1s[s.index()].busy() => {}
                    st => {
                        return Some(format!(
                            "L1 {s:?} shares {line:?} but directory says {st:?}"
                        ))
                    }
                }
            }
        }
        None
    }

    fn lines_of(&self, l1: &L1Cache) -> Vec<LineAddr> {
        l1.resident_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::RmwKind;
    use glocks_sim_base::Addr;

    fn system() -> MemorySystem {
        MemorySystem::new(&CmpConfig::paper_baseline())
    }

    /// Drive the system until `core`'s op completes; returns (result, cycles).
    fn run_op(sys: &mut MemorySystem, core: CoreId, op: MemOp, start: Cycle) -> (MemResult, Cycle) {
        sys.submit(core, op, start);
        for now in start..start + 100_000 {
            sys.tick(now);
            if let Some(r) = sys.take_result(core) {
                return (r, now - start);
            }
        }
        panic!("op never completed: {op:?}");
    }

    #[test]
    fn load_miss_then_hit() {
        let mut sys = system();
        let a = Addr(0x1000);
        let (r1, lat1) = run_op(&mut sys, CoreId(0), MemOp::Load(a), 0);
        assert_eq!(r1.value, 0);
        assert!(!r1.l1_hit);
        assert!(lat1 > 400, "cold miss must reach memory (took {lat1})");
        let (r2, lat2) = run_op(&mut sys, CoreId(0), MemOp::Load(a), 10_000);
        assert!(r2.l1_hit);
        assert_eq!(lat2, 2, "L1 hit is 2 cycles");
    }

    #[test]
    fn store_then_remote_load_sees_value() {
        let mut sys = system();
        let a = Addr(0x2000);
        run_op(&mut sys, CoreId(0), MemOp::Store(a, 77), 0);
        let (r, _) = run_op(&mut sys, CoreId(5), MemOp::Load(a), 10_000);
        assert_eq!(r.value, 77, "remote core must see the committed store");
        sys.check_invariants();
    }

    #[test]
    fn second_sharer_is_faster_than_memory() {
        let mut sys = system();
        let a = Addr(0x3000);
        run_op(&mut sys, CoreId(0), MemOp::Load(a), 0);
        // L2 now holds the line; another core's miss stays on chip.
        let (_, lat) = run_op(&mut sys, CoreId(1), MemOp::Load(a), 10_000);
        assert!(lat < 400, "L2 hit must beat memory (took {lat})");
    }

    #[test]
    fn exclusive_grant_enables_silent_upgrade() {
        let mut sys = system();
        let a = Addr(0x4000);
        // Sole reader gets E...
        run_op(&mut sys, CoreId(3), MemOp::Load(a), 0);
        // ...so the following store hits locally (silent E→M).
        let (r, lat) = run_op(&mut sys, CoreId(3), MemOp::Store(a, 5), 10_000);
        assert!(r.l1_hit);
        assert_eq!(lat, 2);
        sys.check_invariants();
    }

    #[test]
    fn rmw_is_atomic_under_contention() {
        let mut sys = system();
        let a = Addr(0x5000);
        // All cores increment the same word once, interleaved.
        let n = 32;
        for c in 0..n {
            sys.submit(CoreId(c as u16), MemOp::Rmw(a, RmwKind::FetchAdd(1)), 0);
        }
        let mut done = 0;
        let mut olds = Vec::new();
        for now in 0..2_000_000 {
            sys.tick(now);
            for c in 0..n {
                if let Some(r) = sys.take_result(CoreId(c as u16)) {
                    olds.push(r.value);
                    done += 1;
                }
            }
            if done == n {
                break;
            }
        }
        assert_eq!(done, n, "all increments must complete");
        olds.sort_unstable();
        // Atomicity ⟹ the observed old values are exactly 0..n-1.
        assert_eq!(olds, (0..n as u64).collect::<Vec<_>>());
        assert_eq!(sys.store().load(a), n as u64);
        sys.check_invariants();
    }

    #[test]
    fn invalidation_updates_sharers() {
        let mut sys = system();
        let a = Addr(0x6000);
        // Three readers...
        for c in [0u16, 1, 2] {
            run_op(&mut sys, CoreId(c), MemOp::Load(a), 0);
        }
        // ...then core 3 writes: all readers must be invalidated.
        run_op(&mut sys, CoreId(3), MemOp::Store(a, 1), 50_000);
        let line = a.line(64);
        for c in [0u16, 1, 2] {
            assert_eq!(sys.l1s[c as usize].state_of(line), None);
        }
        assert_eq!(sys.l1s[3].state_of(line), Some(L1State::Modified));
        sys.check_invariants();
    }

    #[test]
    fn upgrade_from_shared_uses_grant() {
        let mut sys = system();
        let a = Addr(0x7000);
        run_op(&mut sys, CoreId(0), MemOp::Load(a), 0);
        run_op(&mut sys, CoreId(1), MemOp::Load(a), 20_000);
        // Core 0 now shares; its store is an upgrade (no data transfer).
        let before = sys.traffic().bytes(glocks_noc::TrafficClass::Reply);
        run_op(&mut sys, CoreId(0), MemOp::Store(a, 9), 40_000);
        let after = sys.traffic().bytes(glocks_noc::TrafficClass::Reply);
        // Home of 0x7000/64 = line 448 % 32 = tile 0 == the requester, so
        // the GrantM reply crosses zero links; any growth must stay far
        // below a data packet crossing the mesh.
        assert!(
            after - before < 72,
            "upgrade moved a full data packet ({} bytes)",
            after - before
        );
        sys.check_invariants();
    }

    #[test]
    fn dirty_line_migrates_between_cores() {
        let mut sys = system();
        let a = Addr(0x8000);
        run_op(&mut sys, CoreId(0), MemOp::Store(a, 1), 0);
        let (r, _) = run_op(&mut sys, CoreId(7), MemOp::Rmw(a, RmwKind::TestAndSet), 20_000);
        assert_eq!(r.value, 1, "migrated dirty value visible");
        let line = a.line(64);
        assert_eq!(sys.l1s[0].state_of(line), None, "old owner invalidated");
        assert_eq!(sys.l1s[7].state_of(line), Some(L1State::Modified));
        sys.check_invariants();
    }

    #[test]
    fn quiescence_after_activity() {
        let mut sys = system();
        for c in 0..8u16 {
            run_op(&mut sys, CoreId(c), MemOp::Store(Addr(0x9000 + c as u64 * 8), c as u64), 0);
        }
        // settle any writeback handshakes
        for now in 500_000..600_000 {
            sys.tick(now);
        }
        assert!(sys.is_quiescent());
    }

    #[test]
    fn capacity_eviction_writes_back() {
        let mut sys = system();
        // Fill one L1 set (4 ways) plus one more line mapping to the same
        // set (128 sets ⇒ stride 128 lines = 8192 bytes), all dirty.
        let stride = 128 * 64;
        for i in 0..5u64 {
            run_op(&mut sys, CoreId(0), MemOp::Store(Addr(i * stride), i + 1), i * 50_000);
        }
        // Everything still readable with correct values.
        for i in 0..5u64 {
            let (r, _) = run_op(
                &mut sys,
                CoreId(0),
                MemOp::Load(Addr(i * stride)),
                1_000_000 + i * 50_000,
            );
            assert_eq!(r.value, i + 1);
        }
        sys.check_invariants();
    }
}
