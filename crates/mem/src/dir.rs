//! The home-tile controller: full-map MESI directory + L2 slice.
//!
//! One transaction is in flight per line (a *blocking* directory); later
//! requests queue at the home and are served in arrival order. Directory
//! state (who caches what) lives in an unbounded map — a "perfect"
//! directory — while the L2 data array is a real set-associative array used
//! for timing: a data fetch that misses in the array pays the 400-cycle
//! memory latency.
//!
//! The one genuinely racy interaction, an eviction (`PutM`/`PutE`) crossing
//! a forwarded probe, is resolved here: while the directory waits for the
//! owner's `WbData`, a `PutM`/`PutE` arriving *from that owner* is absorbed
//! as the response (and acknowledged); a later stale `WbData` is dropped.

use crate::cache_array::CacheArray;
use crate::events::EventQueue;
use crate::msg::{CoherenceMsg, SysMsg};
use crate::store::WordStore;
use glocks_noc::{MeshNoc, Packet};
use glocks_sim_base::fault::{FaultDecision, FaultInjector};
use glocks_sim_base::trace::TraceMask;
use glocks_sim_base::{trace_event, CmpConfig, CoreId, Cycle, LineAddr, TileId};
use std::collections::{HashMap, VecDeque};

/// Sharer bit-set (supports CMPs up to 128 cores).
pub type SharerMask = u128;

/// Stable directory state of a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No cached copy the directory knows of; L2/memory data is current.
    Uncached,
    /// Cached read-only by the set cores (bits may be stale-inclusive after
    /// silent S evictions).
    Shared(SharerMask),
    /// Cached exclusively (E or M) by one core; L2 data may be stale.
    Owned(CoreId),
}
glocks_sim_base::snap!(enum DirState { 0 => Uncached, 1 => Shared(sharers), 2 => Owned(core) });

/// Request kinds processed as directory transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReqKind {
    GetS,
    GetM,
    UpgradeM,
    PutM,
    PutE,
}
glocks_sim_base::snap!(enum ReqKind { 0 => GetS, 1 => GetM, 2 => UpgradeM, 3 => PutM, 4 => PutE });

impl ReqKind {

    fn of(msg: &CoherenceMsg) -> Option<(CoreId, ReqKind)> {
        match *msg {
            CoherenceMsg::GetS { from, .. } => Some((from, ReqKind::GetS)),
            CoherenceMsg::GetM { from, .. } => Some((from, ReqKind::GetM)),
            CoherenceMsg::UpgradeM { from, .. } => Some((from, ReqKind::UpgradeM)),
            CoherenceMsg::PutM { from, .. } => Some((from, ReqKind::PutM)),
            CoherenceMsg::PutE { from, .. } => Some((from, ReqKind::PutE)),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Phase {
    /// Tag/directory lookup in progress (the `Act` event is scheduled).
    Deciding,
    /// Waiting for the owner's `WbData` (or a crossed `PutM`/`PutE`).
    AwaitOwner { owner: CoreId },
    /// Waiting for `acks_left` invalidation acks.
    AwaitAcks { acks_left: u32 },
    /// Data fetch or reply send scheduled; no message can affect us.
    Completing,
}
glocks_sim_base::snap!(enum Phase {
    0 => Deciding,
    1 => AwaitOwner { owner },
    2 => AwaitAcks { acks_left },
    3 => Completing,
});

#[derive(Clone, Copy, Debug)]
struct Busy {
    requester: CoreId,
    kind: ReqKind,
    phase: Phase,
}
glocks_sim_base::snap!(Busy { requester, kind, phase });

#[derive(Clone, Debug)]
struct DirEntry {
    state: DirState,
    busy: Option<Busy>,
    pending: VecDeque<(CoreId, ReqKind)>,
}
glocks_sim_base::snap!(DirEntry { state, busy, pending });

impl DirEntry {
    fn new() -> Self {
        DirEntry {
            state: DirState::Uncached,
            busy: None,
            pending: VecDeque::new(),
        }
    }
}

enum DirEvent {
    /// Pop the next queued request for the line, if idle.
    StartNext(LineAddr),
    /// Tag latency elapsed: act on the transaction.
    Act(LineAddr),
    /// Send `msg`, commit `final_state`, release the line.
    Finish {
        line: LineAddr,
        msg: CoherenceMsg,
        dst: CoreId,
        final_state: DirState,
        /// Also acknowledge a crossed eviction to this core.
        put_ack_to: Option<CoreId>,
    },
}
glocks_sim_base::snap!(enum DirEvent {
    0 => StartNext(line),
    1 => Act(line),
    2 => Finish { line, msg, dst, final_state, put_ack_to },
});

/// Event counts of one home tile's directory and L2 slice: the energy
/// model's input, and `mem.dir.t{N}.*` in a stats dump.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirCounts {
    /// Owner `WbData` answers to a forwarded probe (cache-to-cache).
    pub c2c: u64,
    /// Evictions that crossed a forwarded probe and answered it.
    pub crossed_put: u64,
    /// Invalidations sent.
    pub inv_sent: u64,
    /// Evictions from a core that no longer owned the line.
    pub stale_put: u64,
    /// `WbData` dropped because a crossed eviction already answered.
    pub stale_wbdata: u64,
    /// Transactions started.
    pub txn: u64,
    /// Upgrades from a core that had lost its copy, served as `GetM`.
    pub upgrade_degraded: u64,
    /// L2 data-array reads and writes.
    pub l2_access: u64,
    pub l2_hit: u64,
    pub l2_miss: u64,
    /// Off-chip memory reads (one per L2 miss).
    pub mem_access: u64,
}
glocks_sim_base::snap!(DirCounts {
    c2c, crossed_put, inv_sent, stale_put, stale_wbdata, txn, upgrade_degraded, l2_access,
    l2_hit, l2_miss, mem_access
});

impl DirCounts {
    /// Each count with its stats key, in key order.
    pub fn named(&self) -> [(&'static str, u64); 11] {
        let DirCounts {
            c2c, crossed_put, inv_sent, stale_put, stale_wbdata, txn, upgrade_degraded,
            l2_access, l2_hit, l2_miss, mem_access,
        } = *self;
        [
            ("dir_c2c", c2c),
            ("dir_crossed_put", crossed_put),
            ("dir_inv_sent", inv_sent),
            ("dir_stale_put", stale_put),
            ("dir_stale_wbdata", stale_wbdata),
            ("dir_txn", txn),
            ("dir_upgrade_degraded", upgrade_degraded),
            ("l2_access", l2_access),
            ("l2_hit", l2_hit),
            ("l2_miss", l2_miss),
            ("mem_access", mem_access),
        ]
    }
}

/// Directory + L2-slice controller of one home tile.
pub struct Directory {
    tile: TileId,
    entries: HashMap<u64, DirEntry>,
    l2_array: CacheArray<()>,
    events: EventQueue<DirEvent>,
    counts: DirCounts,
    tag_latency: u64,
    data_latency: u64,
    mem_latency: u64,
    ctrl_bytes: u32,
    data_bytes: u32,
    faults: Option<FaultInjector>,
}
// The entry map is unordered; it is saved sorted by line address.
glocks_sim_base::snap!(Directory mark "directory" {
    entries, l2_array, events, counts, faults as present;
    skip tile, tag_latency, data_latency, mem_latency, ctrl_bytes, data_bytes
});

impl Directory {
    pub fn new(tile: TileId, cfg: &CmpConfig) -> Self {
        Directory {
            tile,
            entries: HashMap::new(),
            l2_array: CacheArray::new(cfg.l2.sets(cfg.line_bytes), cfg.l2.ways as usize),
            events: EventQueue::new(),
            counts: DirCounts::default(),
            tag_latency: cfg.l2.latency,
            data_latency: cfg.l2.extra_data_latency,
            mem_latency: cfg.mem_latency,
            ctrl_bytes: cfg.noc.ctrl_msg_bytes,
            data_bytes: cfg.noc.data_msg_bytes,
            faults: None,
        }
    }

    /// Stall completing replies according to a deterministic delay
    /// schedule (only the `delay` component of the rates is meaningful for
    /// a directory — it cannot "drop" its own transaction).
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// Soft-fault totals from the injector, if one is attached.
    pub fn fault_stats(&self) -> Option<glocks_sim_base::fault::FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    pub fn counts(&self) -> DirCounts {
        self.counts
    }

    /// Lines with a transaction in flight (diagnostics input).
    pub fn busy_lines(&self) -> usize {
        self.entries.values().filter(|e| e.busy.is_some()).count()
    }

    /// Requests queued behind busy lines (diagnostics input).
    pub fn queued_requests(&self) -> usize {
        self.entries.values().map(|e| e.pending.len()).sum()
    }

    /// Directory-visible state of a line (tests/invariants).
    pub fn state_of(&self, line: LineAddr) -> DirState {
        self.entries
            .get(&line.0)
            .map(|e| e.state)
            .unwrap_or(DirState::Uncached)
    }

    /// True while an event is scheduled: otherwise [`Self::tick`] is a
    /// no-op until a message arrives.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// True when no transaction or queued request exists anywhere.
    pub fn is_quiescent(&self) -> bool {
        self.events.is_empty()
            && self
                .entries
                .values()
                .all(|e| e.busy.is_none() && e.pending.is_empty())
    }

    fn send(&mut self, msg: CoherenceMsg, dst: CoreId, now: Cycle, net: &mut MeshNoc<SysMsg>) {
        let bytes = if msg.carries_data() { self.data_bytes } else { self.ctrl_bytes };
        net.inject(
            Packet {
                src: self.tile,
                dst: TileId(dst.0),
                bytes,
                class: msg.traffic_class(),
                injected_at: now,
                payload: SysMsg::Coh(msg),
            },
            now,
        );
    }

    fn entry(&mut self, line: LineAddr) -> &mut DirEntry {
        self.entries.entry(line.0).or_insert_with(DirEntry::new)
    }

    /// Probe the L2 data array for `line`; returns the extra latency beyond
    /// the tag access (data array, plus memory on a miss) and installs the
    /// line on a miss.
    fn data_fetch_latency(&mut self, line: LineAddr) -> u64 {
        self.counts.l2_access += 1;
        if self.l2_array.lookup(line).is_some() {
            self.counts.l2_hit += 1;
            self.data_latency
        } else {
            self.counts.l2_miss += 1;
            self.counts.mem_access += 1;
            // Silent eviction: the array is timing-only.
            self.l2_array.insert(line, ());
            self.data_latency + self.mem_latency
        }
    }

    /// Pre-install a line into the L2 data array without timing or
    /// counters — models data produced by the (untimed) initialization
    /// phase that precedes the measured parallel phase.
    pub fn prewarm(&mut self, line: LineAddr) {
        if self.l2_array.lookup(line).is_none() {
            self.l2_array.insert(line, ());
        }
    }

    /// Record a data write into the L2 array (WbData/PutM install).
    fn data_install(&mut self, line: LineAddr) {
        self.counts.l2_access += 1;
        if self.l2_array.lookup(line).is_none() {
            self.l2_array.insert(line, ());
        }
    }

    /// Handle a message addressed to this directory.
    pub fn handle_msg(
        &mut self,
        msg: CoherenceMsg,
        now: Cycle,
        _store: &mut WordStore,
        net: &mut MeshNoc<SysMsg>,
    ) {
        let line = msg.line();
        match msg {
            CoherenceMsg::WbData { from, .. } => {
                let e = self.entry(line);
                match e.busy {
                    Some(Busy { phase: Phase::AwaitOwner { owner }, .. }) if owner == from => {
                        self.counts.c2c += 1;
                        self.owner_responded(line, from, true, false, now, net);
                    }
                    // Stale WbData from a previous owner that raced its own
                    // eviction: the data was already absorbed via PutM.
                    _ => self.counts.stale_wbdata += 1,
                }
            }
            CoherenceMsg::InvAck { from: _, .. } => {
                let e = self.entry(line);
                let Some(busy) = e.busy.as_mut() else {
                    unreachable!("InvAck for an idle line")
                };
                let Phase::AwaitAcks { acks_left } = &mut busy.phase else {
                    unreachable!("InvAck outside collection phase")
                };
                *acks_left -= 1;
                if *acks_left == 0 {
                    self.acks_complete(line, now);
                }
            }
            CoherenceMsg::PutM { from, .. } | CoherenceMsg::PutE { from, .. } => {
                let with_data = matches!(msg, CoherenceMsg::PutM { .. });
                let e = self.entry(line);
                match e.busy {
                    Some(Busy { phase: Phase::AwaitOwner { owner }, .. }) if owner == from => {
                        // Crossed eviction: this *is* the owner's response.
                        self.counts.crossed_put += 1;
                        self.owner_responded(line, from, with_data, true, now, net);
                    }
                    _ => {
                        // Normal (or stale) eviction: a regular transaction.
                        let (core, kind) = ReqKind::of(&msg).expect("put is a request");
                        self.enqueue(line, core, kind, now);
                    }
                }
            }
            _ => {
                let (core, kind) = ReqKind::of(&msg).expect("directory-bound request");
                self.enqueue(line, core, kind, now);
            }
        }
    }

    fn enqueue(&mut self, line: LineAddr, core: CoreId, kind: ReqKind, now: Cycle) {
        let e = self.entry(line);
        e.pending.push_back((core, kind));
        if e.busy.is_none() {
            self.start_next(line, now);
        }
    }

    fn start_next(&mut self, line: LineAddr, now: Cycle) {
        let tag_latency = self.tag_latency;
        let e = self.entry(line);
        debug_assert!(e.busy.is_none());
        let Some((requester, kind)) = e.pending.pop_front() else {
            return;
        };
        e.busy = Some(Busy { requester, kind, phase: Phase::Deciding });
        trace_event!(
            TraceMask::COHERENCE,
            now,
            "dir{}: start {kind:?} on {line:?} for core {requester}",
            self.tile
        );
        self.counts.txn += 1;
        self.events.schedule(now + tag_latency, DirEvent::Act(line));
    }

    /// Process due internal events.
    pub fn tick(&mut self, now: Cycle, _store: &mut WordStore, net: &mut MeshNoc<SysMsg>) {
        while let Some((at, ev)) = self.events.pop_due(now) {
            match ev {
                DirEvent::StartNext(line) => {
                    if self.entry(line).busy.is_none() {
                        self.start_next(line, at);
                    }
                }
                DirEvent::Act(line) => self.act(line, at, net),
                DirEvent::Finish { line, msg, dst, final_state, put_ack_to } => {
                    trace_event!(
                        TraceMask::COHERENCE,
                        at,
                        "dir{}: finish {line:?} -> {msg:?} to core {dst}, state {final_state:?}",
                        self.tile
                    );
                    self.send(msg, dst, at, net);
                    if let Some(victim) = put_ack_to {
                        self.send(CoherenceMsg::PutAck { line }, victim, at, net);
                    }
                    let e = self.entry(line);
                    e.state = final_state;
                    e.busy = None;
                    self.events.schedule(at + 1, DirEvent::StartNext(line));
                }
            }
        }
    }

    /// Tag latency elapsed: dispatch on (state, kind).
    fn act(&mut self, line: LineAddr, now: Cycle, net: &mut MeshNoc<SysMsg>) {
        let e = self.entry(line);
        let busy = e.busy.as_mut().expect("Act on idle line");
        let requester = busy.requester;
        let state = e.state;
        // An upgrade by a core that is no longer a sharer (its copy raced an
        // invalidation) degrades to a full GetM.
        let mut degraded = false;
        if busy.kind == ReqKind::UpgradeM {
            let still_sharer =
                matches!(state, DirState::Shared(s) if s & (1u128 << requester.index()) != 0);
            if !still_sharer {
                busy.kind = ReqKind::GetM;
                degraded = true;
            }
        }
        let kind = busy.kind;
        if degraded {
            self.counts.upgrade_degraded += 1;
        }
        match (state, kind) {
            // ---- reads ----
            (DirState::Uncached, ReqKind::GetS) => {
                let lat = self.data_fetch_latency(line);
                self.finish(
                    line,
                    CoherenceMsg::DataE { line },
                    requester,
                    DirState::Owned(requester),
                    None,
                    now + lat,
                );
            }
            (DirState::Shared(s), ReqKind::GetS) => {
                let lat = self.data_fetch_latency(line);
                self.finish(
                    line,
                    CoherenceMsg::DataS { line },
                    requester,
                    DirState::Shared(s | (1u128 << requester.index())),
                    None,
                    now + lat,
                );
            }
            (DirState::Owned(owner), ReqKind::GetS) => {
                debug_assert_ne!(owner, requester, "owner re-requesting GetS");
                let e = self.entry(line);
                e.busy.as_mut().expect("busy").phase = Phase::AwaitOwner { owner };
                self.send(CoherenceMsg::FwdGetS { line }, owner, now, net);
            }
            // ---- writes ----
            (DirState::Uncached, ReqKind::GetM | ReqKind::UpgradeM) => {
                let lat = self.data_fetch_latency(line);
                self.finish(
                    line,
                    CoherenceMsg::DataM { line },
                    requester,
                    DirState::Owned(requester),
                    None,
                    now + lat,
                );
            }
            (DirState::Shared(s), ReqKind::GetM | ReqKind::UpgradeM) => {
                let invs = s & !(1u128 << requester.index());
                let n = invs.count_ones();
                if n == 0 {
                    // Sole (possibly stale-listed) sharer: grant directly.
                    if kind == ReqKind::UpgradeM {
                        self.finish(
                            line,
                            CoherenceMsg::GrantM { line },
                            requester,
                            DirState::Owned(requester),
                            None,
                            now,
                        );
                    } else {
                        let lat = self.data_fetch_latency(line);
                        self.finish(
                            line,
                            CoherenceMsg::DataM { line },
                            requester,
                            DirState::Owned(requester),
                            None,
                            now + lat,
                        );
                    }
                } else {
                    let e = self.entry(line);
                    e.busy.as_mut().expect("busy").phase = Phase::AwaitAcks { acks_left: n };
                    self.counts.inv_sent += u64::from(n);
                    for c in 0..128u32 {
                        if invs & (1u128 << c) != 0 {
                            self.send(CoherenceMsg::Inv { line }, CoreId(c as u16), now, net);
                        }
                    }
                }
            }
            (DirState::Owned(owner), ReqKind::GetM | ReqKind::UpgradeM) => {
                debug_assert_ne!(owner, requester, "owner re-requesting GetM");
                let e = self.entry(line);
                e.busy.as_mut().expect("busy").phase = Phase::AwaitOwner { owner };
                self.send(CoherenceMsg::FwdGetM { line }, owner, now, net);
            }
            // ---- evictions ----
            (st, ReqKind::PutM | ReqKind::PutE) => {
                let is_owner = matches!(st, DirState::Owned(o) if o == requester);
                let final_state = if is_owner { DirState::Uncached } else { st };
                if is_owner && kind == ReqKind::PutM {
                    self.data_install(line);
                } else if !is_owner {
                    self.counts.stale_put += 1;
                }
                self.finish(
                    line,
                    CoherenceMsg::PutAck { line },
                    requester,
                    final_state,
                    None,
                    now,
                );
            }
        }
    }

    /// Schedule the completing reply.
    fn finish(
        &mut self,
        line: LineAddr,
        msg: CoherenceMsg,
        dst: CoreId,
        final_state: DirState,
        put_ack_to: Option<CoreId>,
        at: Cycle,
    ) {
        // Injected fault: the completing reply stalls for extra cycles
        // (models a slow bank / flaky controller pipeline).
        let at = match self.faults.as_mut().map(|f| f.decide()) {
            Some(FaultDecision::Delay(extra)) => at + extra,
            _ => at,
        };
        let e = self.entry(line);
        e.busy.as_mut().expect("busy while finishing").phase = Phase::Completing;
        self.events.schedule(
            at,
            DirEvent::Finish { line, msg, dst, final_state, put_ack_to },
        );
    }

    /// The awaited owner answered — via `WbData` (kept data flowing through
    /// the protocol) or a crossed `PutM`/`PutE` (eviction in flight, which
    /// also needs a `PutAck`).
    fn owner_responded(
        &mut self,
        line: LineAddr,
        owner: CoreId,
        with_data: bool,
        crossed_put: bool,
        now: Cycle,
        net: &mut MeshNoc<SysMsg>,
    ) {
        let _ = net;
        let e = self.entry(line);
        let busy = *e.busy.as_ref().expect("owner response while idle");
        let requester = busy.requester;
        let extra = if with_data {
            self.data_install(line);
            self.data_latency
        } else {
            // Clean-exclusive eviction carried no data: fetch from L2/mem.
            self.data_fetch_latency(line)
        };
        let put_ack_to = crossed_put.then_some(owner);
        match busy.kind {
            ReqKind::GetS => {
                // On a crossed eviction the old owner kept no copy.
                let mut sharers = 1u128 << requester.index();
                if !crossed_put {
                    sharers |= 1u128 << owner.index();
                }
                self.finish(
                    line,
                    CoherenceMsg::DataS { line },
                    requester,
                    DirState::Shared(sharers),
                    put_ack_to,
                    now + extra,
                );
            }
            ReqKind::GetM | ReqKind::UpgradeM => {
                self.finish(
                    line,
                    CoherenceMsg::DataM { line },
                    requester,
                    DirState::Owned(requester),
                    put_ack_to,
                    now + extra,
                );
            }
            k => unreachable!("owner response during {k:?}"),
        }
    }

    /// All invalidation acks arrived: grant M.
    fn acks_complete(&mut self, line: LineAddr, now: Cycle) {
        let e = self.entry(line);
        let busy = *e.busy.as_ref().expect("acks for idle line");
        let requester = busy.requester;
        match busy.kind {
            ReqKind::UpgradeM => {
                self.finish(
                    line,
                    CoherenceMsg::GrantM { line },
                    requester,
                    DirState::Owned(requester),
                    None,
                    now,
                );
            }
            ReqKind::GetM => {
                let lat = self.data_fetch_latency(line);
                self.finish(
                    line,
                    CoherenceMsg::DataM { line },
                    requester,
                    DirState::Owned(requester),
                    None,
                    now + lat,
                );
            }
            k => unreachable!("ack collection during {k:?}"),
        }
    }
}
