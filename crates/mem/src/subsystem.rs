//! The assembled memory subsystem: per-tile L1 + directory over the mesh.
//!
//! This is the interface the simulated cores talk to: submit one memory
//! operation, tick the world, poll for the completion.

use crate::dir::{DirCounts, DirState, Directory, SharerMask};
use crate::l1::{L1Cache, L1Counts, L1State, Park};
use crate::mplock::{MpFabric, MpManager, MANAGER_LATENCY, MAX_MP_LOCKS};
use crate::msg::{MemOp, MemResult, MpLockMsg, SysMsg};
use crate::store::WordStore;
use glocks_noc::{MeshNoc, Packet, TrafficStats};
use glocks_sim_base::fault::{FaultPlan, FaultSite};
use glocks_sim_base::snap::{fixed, Snap, SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{ActivitySet, Addr, CmpConfig, CoreId, Cycle, LineAddr, TileId};
use std::collections::BTreeMap;

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
    /// Visit sets, one bit per tile: a clear bit means that tile's
    /// directory (`dirs_active`) or MP-Lock manager (`mps_active`) has no
    /// event scheduled, so ticking it would be a no-op. The drain sets the
    /// bit when it hands the controller a message, and a visit that leaves
    /// the event queue empty (the manager quiescent) clears it. Both start
    /// all-set, at construction and after a load.
    dirs_active: ActivitySet,
    mps_active: ActivitySet,
    /// The parked spins, one slot per core and the only record of each
    /// (see [`L1Cache::park`]): neither a held slot's L1 nor its core is
    /// visited until a message reaches the L1. Boxed, because held inline
    /// the record enlarged every slot and slowed `Simulation::new` on
    /// workloads that never park. Starts empty; a resumed machine starts
    /// unparked.
    parks: Vec<Option<Box<Park>>>,
    /// Spins a message unparked during the last tick, whose cores the
    /// runner settles next ([`Self::drain_woken`]).
    woken: Vec<(CoreId, Box<Park>)>,
}

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
            dirs_active: ActivitySet::full(mesh.len()),
            mps_active: ActivitySet::full(mesh.len()),
            parks: vec![None; cfg.num_cores],
            woken: Vec::new(),
        }
    }

    /// Serialize the memory system, every parked spin settled first
    /// ([`Self::unpark`]). The layout is that of a `snap!` declaration of
    /// the saved fields.
    pub fn save(&self, w: &mut SnapWriter) {
        debug_assert_eq!(self.parked_cores(), 0, "memory system saved with parked spins");
        w.mark("mem");
        fixed::save(&self.l1s, w);
        fixed::save(&self.dirs, w);
        self.store.save(w);
        self.net.save(w);
        fixed::save(&self.mp_managers, w);
        self.mp_fabric.save(w);
    }

    /// Load what [`Self::save`] wrote. Nothing is left parked, and the
    /// router and visit sets start all-set, so the first tick re-derives
    /// them.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect("mem")?;
        fixed::load(&mut self.l1s, r)?;
        fixed::load(&mut self.dirs, r)?;
        Snap::load(&mut self.store, r)?;
        self.net.load(r)?;
        fixed::load(&mut self.mp_managers, r)?;
        self.mp_fabric.load(r)?;
        self.net.wake_routers();
        self.dirs_active.fill();
        self.mps_active.fill();
        self.parks.fill(None);
        Ok(())
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

    /// Park `core`'s spin on `addr` at its L1 (see [`L1Cache::park`]).
    pub fn park(&mut self, core: CoreId, addr: Addr, value: u64, now: Cycle) {
        let park = self.l1s[core.index()].park(addr, value, now);
        self.parks[core.index()] = Some(Box::new(park));
    }

    /// Whether every sharer of a written line gets its `Inv`, which parking
    /// relies on: the sharer mask aliases cores past its width, leaving
    /// stale copies that only the functional store keeps correct.
    pub fn invalidates_every_sharer(&self) -> bool {
        self.l1s.len() <= SharerMask::BITS as usize
    }

    /// True while `core`'s spin is parked at its L1.
    #[inline]
    pub fn is_parked(&self, core: CoreId) -> bool {
        self.parks[core.index()].is_some()
    }

    /// Cores whose spin is parked right now.
    pub fn parked_cores(&self) -> usize {
        self.parks.iter().filter(|p| p.is_some()).count()
    }

    /// Settle `core`'s parked spin, if any, at a cycle boundary where the
    /// core and its L1 have both ticked through `through`. The L1's side is
    /// settled here; the record returned settles the core's.
    pub fn unpark(&mut self, core: CoreId, through: Cycle) -> Option<Box<Park>> {
        let park = self.parks[core.index()].take()?;
        self.l1s[core.index()].unpark(&park, through, through);
        Some(park)
    }

    /// The spins a message unparked during the last [`Self::tick`], each
    /// settled on the L1's side; the caller settles each core's side
    /// through that tick's cycle.
    pub fn drain_woken(&mut self) -> std::vec::Drain<'_, (CoreId, Box<Park>)> {
        self.woken.drain(..)
    }

    /// Advance the memory world by one cycle. Call once per simulated cycle
    /// *after* cores have submitted their operations for this cycle.
    pub fn tick(&mut self, now: Cycle) {
        debug_assert!(self.woken.is_empty(), "cycle {now}: woken spins left unsettled");
        // 1. The fabric moves packets.
        self.net.tick(now);
        // 2. Deliver arrived packets to their tile's L1, directory, NIC
        //    or lock manager. A message enters its directory or manager
        //    into that visit set, and one reaching an L1 wakes a spin
        //    parked there.
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
                            self.dirs_active.insert(t);
                        } else {
                            // Any message settles the L1's side of a parked
                            // spin first: one for the polled line may change
                            // the word, and a `FwdGetS` for any line moves the
                            // LRU clock the polls advance. The core's poll of
                            // this cycle is already in; the tag accesses of
                            // this cycle come after the message.
                            if let Some(park) = self.parks[t].take() {
                                self.l1s[t].unpark(&park, now, now - 1);
                                self.woken.push((CoreId(t as u16), park));
                            }
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
                        self.mps_active.insert(t);
                    }
                }
            }
        }
        // 3. Controllers process their scheduled work: the unparked L1s,
        //    then the directories in the visit set, in ascending tile
        //    order as over every tile.
        for (l1, park) in self.l1s.iter_mut().zip(&self.parks) {
            if park.is_none() {
                l1.tick(now, &mut self.store, &mut self.net);
            }
        }
        let mut from = 0;
        while let Some(t) = self.dirs_active.next(from) {
            from = t + 1;
            self.dirs[t].tick(now, &mut self.store, &mut self.net);
            if !self.dirs[t].has_events() {
                self.dirs_active.remove(t);
            }
        }
        // 4. MP-Locks: NIC outbox → network; manager decisions → network.
        while let Some((core, msg)) = self.mp_fabric.pop_outgoing() {
            let dst = match msg {
                MpLockMsg::Req { lock, .. } | MpLockMsg::Rel { lock, .. } => self.mp_home(lock),
                MpLockMsg::Grant { .. } => unreachable!("cores do not send grants"),
            };
            self.inject_mp(TileId(core.0), dst, msg, now);
        }
        let mut from = 0;
        while let Some(t) = self.mps_active.next(from) {
            from = t + 1;
            self.mp_managers[t].tick(now);
            self.mp_out_buf.clear();
            self.mp_managers[t].take_outgoing(&mut self.mp_out_buf);
            for i in 0..self.mp_out_buf.len() {
                let (core, msg) = self.mp_out_buf[i];
                self.inject_mp(TileId(t as u16), TileId(core.0), msg, now);
            }
            if self.mp_managers[t].is_quiescent() {
                self.mps_active.remove(t);
            }
        }
        if cfg!(debug_assertions) {
            if let Some(v) = self.activity_violation() {
                panic!("cycle {now}: {v}");
            }
        }
    }

    /// The first breach of the activity sets' invariants, if any: a
    /// router, directory or MP-Lock manager holding work behind a clear
    /// bit. Debug builds check it after every tick, since a set bug the
    /// dense and event-driven loops share would escape their comparison.
    fn activity_violation(&self) -> Option<String> {
        if let Some(t) = self.net.idle_router_with_packets() {
            return Some(format!("router {t} holds packets outside its activity set"));
        }
        for t in 0..self.n_tiles {
            if !self.dirs_active.contains(t) && self.dirs[t].has_events() {
                return Some(format!("directory {t} holds events outside its visit set"));
            }
            if !self.mps_active.contains(t) && !self.mp_managers[t].is_quiescent() {
                return Some(format!("MP-Lock manager {t} holds work outside its visit set"));
            }
        }
        None
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

    /// Soft-fault totals over every directory injector (zero when none
    /// carries one).
    pub fn dir_fault_stats(&self) -> glocks_sim_base::fault::FaultStats {
        self.dirs.iter().filter_map(Directory::fault_stats).sum()
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

    /// Each tile's L1 event counts, in tile order.
    pub fn l1_counts(&self) -> impl Iterator<Item = L1Counts> + '_ {
        self.l1s.iter().map(L1Cache::counts)
    }

    /// Each tile's directory and L2 event counts, in tile order.
    pub fn dir_counts(&self) -> impl Iterator<Item = DirCounts> + '_ {
        self.dirs.iter().map(Directory::counts)
    }

    /// Publish end-of-run memory-hierarchy totals into the stats registry
    /// (no-op when stats are off): `mem.l1.t{N}.{key}` and
    /// `mem.dir.t{N}.{key}` for each nonzero count, and `mem.total.{key}`
    /// for their sums over tiles.
    pub fn publish_stats(&self) {
        if !glocks_stats::is_enabled() {
            return;
        }
        let mut totals = BTreeMap::<&str, u64>::new();
        let mut publish = |unit: &str, tile: usize, named: &[(&'static str, u64)]| {
            for &(key, n) in named.iter().filter(|&&(_, n)| n > 0) {
                glocks_stats::set(glocks_stats::counter(&format!("mem.{unit}.t{tile}.{key}")), n);
                *totals.entry(key).or_default() += n;
            }
        };
        for (t, c) in self.l1_counts().enumerate() {
            publish("l1", t, &c.named());
        }
        for (t, c) in self.dir_counts().enumerate() {
            publish("dir", t, &c.named());
        }
        for (key, n) in totals {
            glocks_stats::set(glocks_stats::counter(&format!("mem.total.{key}")), n);
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

    fn image(sys: &MemorySystem) -> Vec<u8> {
        let mut w = SnapWriter::new();
        sys.save(&mut w);
        w.into_bytes()
    }

    /// On a 100-tile machine the directory visit set spans two words: a
    /// miss homed at tile 77 enters that directory into the set, the set
    /// empties once its queue drains, and a machine resumed mid-miss ticks
    /// to the same state as the straight one.
    #[test]
    fn visit_sets_follow_a_miss_homed_past_the_first_word() {
        let cfg = CmpConfig::paper_baseline().with_cores(100);
        let mut sys = MemorySystem::new(&cfg);
        let (core, home) = (CoreId(3), 77);
        let a = Addr(home as u64 * cfg.line_bytes);
        sys.submit(core, MemOp::Load(a), 0);
        // The first tick clears every idle directory and manager.
        sys.tick(0);
        assert_eq!(sys.dirs_active.next(0), None);
        assert_eq!(sys.mps_active.next(0), None);
        let mut now = 1;
        while !sys.dirs_active.contains(home) {
            sys.tick(now);
            now += 1;
            assert!(now < 1_000, "the GetS never reached its home");
        }
        assert_eq!(sys.dirs_active.next(0), Some(home), "only the home directory holds work");
        let mut resumed = MemorySystem::new(&cfg);
        resumed.load(&mut SnapReader::new(&image(&sys))).unwrap();
        let run = |sys: &mut MemorySystem| {
            let mut result = None;
            for t in now..now + 2_000 {
                sys.tick(t);
                result = result.or(sys.take_result(core));
            }
            (result.expect("the miss completes"), image(sys))
        };
        let straight = run(&mut sys);
        assert_eq!(run(&mut resumed), straight, "resumed mid-miss, the state differs");
        assert!(sys.is_quiescent());
        assert_eq!(sys.dirs_active.next(0), None, "a drained directory stays in the set");
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

    /// `publish_stats` names a tile's count only where it is nonzero, and
    /// `mem.total.{key}` is that count summed over tiles.
    #[test]
    fn publish_stats_names_each_nonzero_count_and_its_total() {
        let mut sys = system();
        // A store by core 0, then a load by core 5 that core 0 forwards...
        let a = Addr(0x2000);
        run_op(&mut sys, CoreId(0), MemOp::Store(a, 77), 0);
        run_op(&mut sys, CoreId(5), MemOp::Load(a), 10_000);
        // ...then five dirty lines in one of core 0's L1 sets.
        let stride = 128 * 64;
        for i in 0..5u64 {
            run_op(&mut sys, CoreId(0), MemOp::Store(Addr(i * stride), i + 1), 20_000 + i * 50_000);
        }
        glocks_stats::enable(glocks_stats::StatsConfig::default());
        sys.publish_stats();
        let dump = glocks_stats::snapshot();
        glocks_stats::disable();

        let mut want = BTreeMap::new();
        let mut totals = BTreeMap::<&str, u64>::new();
        let l1s = sys.l1_counts().enumerate().map(|(t, c)| ("l1", t, c.named().to_vec()));
        let dirs = sys.dir_counts().enumerate().map(|(t, c)| ("dir", t, c.named().to_vec()));
        for (unit, tile, named) in l1s.chain(dirs) {
            for (key, n) in named {
                *totals.entry(key).or_default() += n;
                if n > 0 {
                    want.insert(format!("mem.{unit}.t{tile}.{key}"), n);
                }
            }
        }
        for (key, n) in totals.into_iter().filter(|&(_, n)| n > 0) {
            want.insert(format!("mem.total.{key}"), n);
        }
        let got: BTreeMap<_, _> =
            dump.counters.into_iter().filter(|(k, _)| k.starts_with("mem.")).collect();
        assert_eq!(got, want);
        // The run took the paths it names: the forward, the dirty victim's
        // writeback, and none at core 5.
        assert_eq!(got["mem.l1.t0.l1_fwd_recv"], 1);
        assert_eq!(got["mem.total.dir_c2c"], 1);
        assert_eq!(got["mem.l1.t0.l1_wb_dirty"], 1);
        assert!(!got.contains_key("mem.l1.t5.l1_wb_dirty"));
    }
}
