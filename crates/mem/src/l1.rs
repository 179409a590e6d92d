//! The per-core L1 data-cache controller.
//!
//! Blocking (one outstanding miss, matching the in-order core), write
//! allocate, with a MESI state per resident line. Dirty/exclusive evictions
//! use a writeback handshake (`PutM`/`PutE` → `PutAck`) through a writeback
//! buffer, so a forwarded probe that races an eviction always finds the
//! line either in the array or in the buffer — the protocol has no Nacks.

use crate::cache_array::CacheArray;
use crate::events::EventQueue;
use crate::msg::{CoherenceMsg, MemOp, MemResult, SysMsg};
use crate::store::WordStore;
use glocks_noc::{MeshNoc, Packet};
use glocks_sim_base::trace::TraceMask;
use glocks_sim_base::{trace_event, Addr, CmpConfig, CoreId, Cycle, LineAddr, TileId};

/// MESI state of a resident L1 line (absent = Invalid).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1State {
    Shared,
    Exclusive,
    Modified,
}
glocks_sim_base::snap!(enum L1State { 0 => Shared, 1 => Exclusive, 2 => Modified });

#[derive(Clone, Copy, Debug)]
struct Pending {
    op: MemOp,
    line: LineAddr,
    /// We held the line in S and asked for an upgrade.
    is_upgrade: bool,
    /// The line is still in the writeback buffer; the request is deferred
    /// until its `PutAck` arrives.
    stalled_on_wb: bool,
}
glocks_sim_base::snap!(Pending { op, line, is_upgrade, stalled_on_wb });

/// A parked local spin (see [`L1Cache::park`]): the core re-polls
/// `Load(addr)`, which hit this L1 with `value`. The memory system holds
/// the only copy. Neither the core nor the L1 is visited while it is
/// held, so a settle point passes in the last cycle each side would have
/// ticked.
#[derive(Clone, Copy, Debug)]
pub struct Park {
    addr: Addr,
    value: u64,
    /// Cycle the poll in flight at parking was submitted.
    since: Cycle,
    /// Cycles from one poll's submit to the next: the tag access, then the
    /// core's re-issue on the cycle after the hit.
    period: u64,
}

impl Park {
    /// Cycles after the parked poll's submit, through cycle `through`.
    pub fn cycles(&self, through: Cycle) -> u64 {
        through - self.since
    }

    /// Polls the core submitted after the parked one, through its tick at
    /// `through`.
    pub fn polls(&self, through: Cycle) -> u64 {
        self.cycles(through) / self.period
    }
}

/// Event counts of one L1: the energy model's input, and `mem.l1.t{N}.*`
/// in a stats dump.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L1Counts {
    /// Tag accesses: every submitted operation, and each grant that
    /// changes a resident line's state in place.
    pub access: u64,
    /// Shared victims dropped silently.
    pub evict_shared: u64,
    /// Lines installed by a data grant.
    pub fill: u64,
    /// `FwdGetS` and `FwdGetM` probes received.
    pub fwd_recv: u64,
    pub hit: u64,
    /// Invalidations received.
    pub inv_recv: u64,
    pub miss: u64,
    /// Writes (stores and atomics) to a Shared line, each sending an
    /// `UpgradeM`.
    pub upgrade: u64,
    /// Exclusive victims, written back with `PutE`.
    pub wb_clean: u64,
    /// Modified victims, written back with `PutM`.
    pub wb_dirty: u64,
}
glocks_sim_base::snap!(L1Counts {
    access, evict_shared, fill, fwd_recv, hit, inv_recv, miss, upgrade, wb_clean, wb_dirty
});

impl L1Counts {
    /// Each count with its stats key, in key order.
    pub fn named(&self) -> [(&'static str, u64); 10] {
        let L1Counts {
            access, evict_shared, fill, fwd_recv, hit, inv_recv, miss, upgrade, wb_clean, wb_dirty,
        } = *self;
        [
            ("l1_access", access),
            ("l1_evict_shared", evict_shared),
            ("l1_fill", fill),
            ("l1_fwd_recv", fwd_recv),
            ("l1_hit", hit),
            ("l1_inv_recv", inv_recv),
            ("l1_miss", miss),
            ("l1_upgrade", upgrade),
            ("l1_wb_clean", wb_clean),
            ("l1_wb_dirty", wb_dirty),
        ]
    }
}

/// One L1 data cache + controller.
pub struct L1Cache {
    core: CoreId,
    array: CacheArray<L1State>,
    pending: Option<Pending>,
    /// Lines evicted from the array, awaiting `PutAck`.
    wb: Vec<LineAddr>,
    /// Tag/data accesses in flight; each decides hit or miss when due.
    events: EventQueue<MemOp>,
    done: Option<MemResult>,
    counts: L1Counts,
    /// Submit cycle of the in-flight op, for the miss-latency histogram.
    submitted_at: Option<Cycle>,
    /// `mem.l1.t{N}.miss_latency` (free `NONE` id when stats are off).
    miss_hist: glocks_stats::HistId,
    l1_latency: u64,
    line_bytes: u64,
    num_tiles: usize,
    ctrl_bytes: u32,
    data_bytes: u32,
}
glocks_sim_base::snap!(L1Cache mark "l1" {
    array, pending, wb, events, done, counts, submitted_at;
    skip core, miss_hist, l1_latency, line_bytes, num_tiles, ctrl_bytes, data_bytes
});

impl L1Cache {
    pub fn new(core: CoreId, cfg: &CmpConfig) -> Self {
        L1Cache {
            core,
            array: CacheArray::new(cfg.l1.sets(cfg.line_bytes), cfg.l1.ways as usize),
            pending: None,
            wb: Vec::new(),
            events: EventQueue::new(),
            done: None,
            counts: L1Counts::default(),
            submitted_at: None,
            miss_hist: glocks_stats::hist(&format!("mem.l1.t{}.miss_latency", core.0)),
            l1_latency: cfg.l1.total_latency(),
            line_bytes: cfg.line_bytes,
            num_tiles: cfg.num_cores,
            ctrl_bytes: cfg.noc.ctrl_msg_bytes,
            data_bytes: cfg.noc.data_msg_bytes,
        }
    }

    /// The home tile of a line (line-interleaved across tiles).
    #[inline]
    fn home(&self, line: LineAddr) -> TileId {
        TileId((line.0 % self.num_tiles as u64) as u16)
    }

    /// True while an operation is in flight or its result not yet taken.
    pub fn busy(&self) -> bool {
        self.pending.is_some() || self.done.is_some() || !self.events.is_empty()
    }

    pub fn counts(&self) -> L1Counts {
        self.counts
    }

    /// Begin a memory operation. Panics if one is already outstanding
    /// (cores are in-order and blocking).
    pub fn submit(&mut self, op: MemOp, now: Cycle) {
        assert!(!self.busy(), "core {} submitted while L1 busy", self.core);
        self.counts.access += 1;
        self.submitted_at = Some(now);
        self.events.schedule(now + self.l1_latency, op);
    }

    /// Retrieve the completion of the last submitted operation, if ready.
    pub fn take_result(&mut self) -> Option<MemResult> {
        self.done.take()
    }

    /// The record of the core's spin on `addr`, parked as its poll is
    /// submitted at `now`: the previous poll hit this L1 with `value`, and
    /// the core re-issues the same load on the cycle after every hit. Only
    /// a coherence message reaching this L1 can change the word (a write
    /// elsewhere needs this copy invalidated or forwarded first), so until
    /// one arrives every poll would hit and return `value`. Neither side
    /// ticks them; [`Self::unpark`] replays them.
    pub fn park(&self, addr: Addr, value: u64, now: Cycle) -> Park {
        debug_assert!(
            self.pending.is_none() && self.done.is_none() && self.events.len() == 1,
            "core {}: parked beside other work",
            self.core
        );
        Park { addr, value, since: now, period: self.l1_latency + 1 }
    }

    /// Settle a parked spin in O(1): replay the polls the core submitted
    /// through its tick at `core_through` and their tag accesses through
    /// this L1's tick at `l1_through`, leaving exactly the state the dense
    /// loop holds.
    pub fn unpark(&mut self, p: &Park, core_through: Cycle, l1_through: Cycle) {
        let polls = p.polls(core_through);
        // The poll in flight now, and whether its tag access already ran.
        let last = p.since + polls * p.period;
        let due = last + self.l1_latency;
        let answered = due <= l1_through;
        let op = MemOp::Load(p.addr);
        if polls > 0 {
            self.counts.access += polls;
            self.events.pop_due(Cycle::MAX);
            self.events.skip(polls - 1);
            self.events.schedule(due, op);
            self.submitted_at = Some(last);
        }
        if answered {
            self.events.pop_due(due);
            self.submitted_at = None;
            self.done = Some(MemResult { op, value: p.value, finished_at: due, l1_hit: true });
        }
        let hits = polls + u64::from(answered);
        if hits > 0 {
            self.counts.hit += hits;
            self.array.lookup_n(p.addr.line(self.line_bytes), hits);
        }
    }

    fn send(
        &mut self,
        msg: CoherenceMsg,
        dst: TileId,
        now: Cycle,
        net: &mut MeshNoc<SysMsg>,
    ) {
        let bytes = if msg.carries_data() { self.data_bytes } else { self.ctrl_bytes };
        net.inject(
            Packet {
                src: TileId(self.core.0),
                dst,
                bytes,
                class: msg.traffic_class(),
                injected_at: now,
                payload: SysMsg::Coh(msg),
            },
            now,
        );
    }

    fn commit(&mut self, op: MemOp, now: Cycle, store: &mut WordStore, l1_hit: bool) {
        let value = match op {
            MemOp::Load(a) => store.load(a),
            MemOp::Store(a, v) => {
                store.store(a, v);
                0
            }
            MemOp::Rmw(a, kind) => {
                let (new, old) = kind.apply(store.load(a));
                store.store(a, new);
                old
            }
        };
        debug_assert!(self.done.is_none());
        if let Some(at) = self.submitted_at.take() {
            if !l1_hit {
                glocks_stats::hist_record(self.miss_hist, now.saturating_sub(at));
            }
        }
        self.done = Some(MemResult { op, value, finished_at: now, l1_hit });
    }

    fn issue_request(&mut self, now: Cycle, net: &mut MeshNoc<SysMsg>) {
        let p = self.pending.expect("pending request to issue");
        trace_event!(
            TraceMask::L1,
            now,
            "l1[{}]: miss on {:?} ({:?}), requesting",
            self.core,
            p.line,
            p.op
        );
        let msg = if p.is_upgrade {
            CoherenceMsg::UpgradeM { line: p.line, from: self.core }
        } else if p.op.needs_exclusive() {
            CoherenceMsg::GetM { line: p.line, from: self.core }
        } else {
            CoherenceMsg::GetS { line: p.line, from: self.core }
        };
        let home = self.home(p.line);
        self.send(msg, home, now, net);
    }

    /// Process due internal events (the tag-access pipeline). Never called
    /// while parked: the memory system skips parked L1s.
    pub fn tick(&mut self, now: Cycle, store: &mut WordStore, net: &mut MeshNoc<SysMsg>) {
        while let Some((at, op)) = self.events.pop_due(now) {
            self.access(op, at, store, net);
        }
    }

    fn access(
        &mut self,
        op: MemOp,
        now: Cycle,
        store: &mut WordStore,
        net: &mut MeshNoc<SysMsg>,
    ) {
        let line = op.addr().line(self.line_bytes);
        match self.array.lookup(line).copied() {
            Some(L1State::Modified) => {
                self.counts.hit += 1;
                self.commit(op, now, store, true);
            }
            Some(L1State::Exclusive) => {
                self.counts.hit += 1;
                if op.needs_exclusive() {
                    // Silent E→M upgrade: the hallmark of MESI.
                    *self.array.lookup(line).expect("resident") = L1State::Modified;
                }
                self.commit(op, now, store, true);
            }
            Some(L1State::Shared) => {
                if op.needs_exclusive() {
                    self.counts.upgrade += 1;
                    self.pending = Some(Pending {
                        op,
                        line,
                        is_upgrade: true,
                        stalled_on_wb: false,
                    });
                    self.issue_request(now, net);
                } else {
                    self.counts.hit += 1;
                    self.commit(op, now, store, true);
                }
            }
            None => {
                self.counts.miss += 1;
                let stalled = self.wb.contains(&line);
                self.pending = Some(Pending {
                    op,
                    line,
                    is_upgrade: false,
                    stalled_on_wb: stalled,
                });
                if !stalled {
                    self.issue_request(now, net);
                }
            }
        }
    }

    /// Install a line granted by the directory, handling victim eviction.
    fn install(
        &mut self,
        line: LineAddr,
        state: L1State,
        now: Cycle,
        net: &mut MeshNoc<SysMsg>,
    ) {
        self.counts.fill += 1;
        if let Some((vline, vstate)) = self.array.insert(line, state) {
            match vstate {
                L1State::Modified => {
                    self.counts.wb_dirty += 1;
                    self.wb.push(vline);
                    let home = self.home(vline);
                    self.send(CoherenceMsg::PutM { line: vline, from: self.core }, home, now, net);
                }
                L1State::Exclusive => {
                    self.counts.wb_clean += 1;
                    self.wb.push(vline);
                    let home = self.home(vline);
                    self.send(CoherenceMsg::PutE { line: vline, from: self.core }, home, now, net);
                }
                L1State::Shared => {
                    // Silent: the directory tolerates stale sharer bits.
                    self.counts.evict_shared += 1;
                }
            }
        }
    }

    /// Handle a protocol message addressed to this L1. A spin parked here
    /// is settled first (`MemorySystem::tick`).
    pub fn handle_msg(
        &mut self,
        msg: CoherenceMsg,
        now: Cycle,
        store: &mut WordStore,
        net: &mut MeshNoc<SysMsg>,
    ) {
        let line = msg.line();
        match msg {
            CoherenceMsg::DataS { .. } | CoherenceMsg::DataE { .. } | CoherenceMsg::DataM { .. } => {
                let state = match msg {
                    CoherenceMsg::DataS { .. } => L1State::Shared,
                    CoherenceMsg::DataE { .. } => L1State::Exclusive,
                    _ => L1State::Modified,
                };
                let p = self
                    .pending
                    .take()
                    .expect("data grant without a pending request");
                debug_assert_eq!(p.line, line, "grant for the wrong line");
                // A raced upgrade can come back as full data; if the Inv
                // already removed our S copy, the line is absent and we
                // install fresh. If we still hold S (directory chose to send
                // data anyway), replace the state in place.
                if self.array.peek(line).is_some() {
                    *self.array.lookup(line).expect("resident") = state;
                    self.counts.access += 1;
                } else {
                    self.install(line, state, now, net);
                }
                let state_after = if p.op.needs_exclusive() {
                    L1State::Modified
                } else {
                    state
                };
                *self.array.lookup(line).expect("just installed") = state_after;
                self.commit(p.op, now, store, false);
            }
            CoherenceMsg::GrantM { .. } => {
                let p = self
                    .pending
                    .take()
                    .expect("GrantM without a pending upgrade");
                debug_assert!(p.is_upgrade);
                debug_assert_eq!(p.line, line);
                let s = self
                    .array
                    .lookup(line)
                    .expect("GrantM implies the S copy survived");
                *s = L1State::Modified;
                self.commit(p.op, now, store, false);
            }
            CoherenceMsg::Inv { .. } => {
                trace_event!(TraceMask::L1, now, "l1[{}]: Inv {line:?}", self.core);
                self.counts.inv_recv += 1;
                // May be absent (stale sharer bit after a silent S evict).
                self.array.remove(line);
                let home = self.home(line);
                self.send(CoherenceMsg::InvAck { line, from: self.core }, home, now, net);
            }
            CoherenceMsg::FwdGetS { .. } => {
                self.counts.fwd_recv += 1;
                if let Some(s) = self.array.lookup(line) {
                    *s = L1State::Shared;
                } else {
                    debug_assert!(
                        self.wb.contains(&line),
                        "FwdGetS for a line neither resident nor in WB"
                    );
                }
                let home = self.home(line);
                self.send(CoherenceMsg::WbData { line, from: self.core }, home, now, net);
            }
            CoherenceMsg::FwdGetM { .. } => {
                self.counts.fwd_recv += 1;
                if self.array.remove(line).is_none() {
                    debug_assert!(
                        self.wb.contains(&line),
                        "FwdGetM for a line neither resident nor in WB"
                    );
                }
                let home = self.home(line);
                self.send(CoherenceMsg::WbData { line, from: self.core }, home, now, net);
            }
            CoherenceMsg::PutAck { .. } => {
                if let Some(i) = self.wb.iter().position(|&l| l == line) {
                    self.wb.swap_remove(i);
                }
                // A deferred miss on the same line can now be issued.
                if let Some(p) = self.pending.as_mut() {
                    if p.stalled_on_wb && p.line == line {
                        p.stalled_on_wb = false;
                        self.issue_request(now, net);
                    }
                }
            }
            other => unreachable!("L1 received a directory-bound message: {other:?}"),
        }
    }

    /// The MESI state this L1 currently holds for `line` (tests/invariants).
    pub fn state_of(&self, line: LineAddr) -> Option<L1State> {
        self.array.peek(line).copied()
    }

    /// All lines currently resident in the array (tests/invariants).
    pub fn resident_lines(&self) -> Vec<LineAddr> {
        self.array.iter().map(|(l, _)| l).collect()
    }
}
