//! One hardware lock's assembled G-line network.

use crate::node::{ArbiterNode, LeafCtl, LeafState, RetryPolicy};
use crate::regs::GlockRegisters;
use crate::signal::{Endpoint, InFlight, Sig, Wires};
use crate::topology::Topology;
use glocks_sim_base::fault::FaultInjector;
use glocks_sim_base::trace::TraceMask;
use glocks_sim_base::{trace_event, CoreId, Cycle};
use glocks_stats as gstats;
use std::cell::Cell;
use std::rc::Rc;

/// Retransmission attempts before a controller declares the network dead.
/// Only set when a hard fault is scheduled — transient-only fault plans keep
/// the unbounded PR-1 behavior (any sub-100% loss rate is survivable, so
/// giving up would be a false verdict).
pub const DETECTION_ATTEMPTS: u32 = 5;

/// Trust state of one GLock network's hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HealthMode {
    /// Fully operational and trusted by the lock backends.
    Healthy,
    /// Death verdict reached: quarantined, never delivers or grants.
    Dead,
    /// Physically repaired (rebooted to a clean image) but not yet trusted:
    /// only the fail-back probes may exercise it until hysteresis clears it.
    Untrusted,
}
glocks_sim_base::snap!(enum HealthMode { 0 => Healthy, 1 => Dead, 2 => Untrusted });

/// Shared liveness handle of one GLock network. Set to `Dead` when failure
/// detection (exhausted retransmission budgets) escalates to a
/// `NetworkDead` verdict; the lock backends and the dynamic pool observe it
/// to fail over to the software path. A scheduled repair moves it to
/// `Untrusted`, and the fail-back controller of a statically mapped GLock
/// promotes it back to `Healthy` once its probe hysteresis is satisfied —
/// so under intermittent faults the cycle can repeat.
#[derive(Debug)]
pub struct NetworkHealth {
    mode: Cell<HealthMode>,
    dead_since: Cell<Cycle>,
    /// Times this network's hardware was repaired (rebooted to the boot
    /// image). Cumulative across flapping episodes.
    repairs: Cell<u64>,
}
glocks_sim_base::snap!(shared NetworkHealth { mode, dead_since, repairs });

impl Default for NetworkHealth {
    fn default() -> Self {
        NetworkHealth {
            mode: Cell::new(HealthMode::Healthy),
            dead_since: Cell::new(0),
            repairs: Cell::new(0),
        }
    }
}

impl NetworkHealth {
    pub fn is_dead(&self) -> bool {
        self.mode.get() == HealthMode::Dead
    }

    /// Fully trusted: the lock backends may route acquires through the
    /// hardware path. False while dead *and* while repaired-but-untrusted.
    pub fn is_trusted(&self) -> bool {
        self.mode.get() == HealthMode::Healthy
    }

    /// Cycle the (latest) death verdict was reached (not the physical
    /// fault cycle). `None` unless the network is currently dead.
    pub fn dead_since(&self) -> Option<Cycle> {
        self.is_dead().then(|| self.dead_since.get())
    }

    /// Times this network was repaired (hardware reboots survived).
    pub fn repairs(&self) -> u64 {
        self.repairs.get()
    }

    pub(crate) fn mark_dead(&self, now: Cycle) {
        if self.mode.get() != HealthMode::Dead {
            self.mode.set(HealthMode::Dead);
            self.dead_since.set(now);
        }
    }

    /// Repair: the hardware was rebooted to a clean image. Untrusted until
    /// the fail-back probes promote it via [`Self::mark_trusted`].
    pub(crate) fn mark_untrusted(&self) {
        debug_assert_eq!(self.mode.get(), HealthMode::Dead, "only dead hardware is repaired");
        self.mode.set(HealthMode::Untrusted);
        self.repairs.set(self.repairs.get() + 1);
    }

    /// Fail-back commit: the probe hysteresis is satisfied; the hardware
    /// path is trusted again. Called by the lock's fail-back controller.
    pub fn mark_trusted(&self) {
        self.mode.set(HealthMode::Healthy);
    }
}

/// A scheduled permanent failure inside one network.
#[derive(Clone, Copy, Debug)]
enum Kill {
    /// The shared G-line segments: all communication stops.
    Line,
    /// One arbiter (manager) node, by index.
    Manager(usize),
    /// One core's local controller.
    Leaf(usize),
}
glocks_sim_base::snap!(enum Kill { 0 => Line, 1 => Manager(node), 2 => Leaf(core) });

/// Event counters of one GLock network (energy-model input).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GlockStats {
    /// Lock grants performed (fresh tokens accepted by cores; duplicates
    /// and stale regenerations are not counted).
    pub grants: u64,
    /// 1-bit signal transmissions on G-lines.
    pub signals: u64,
    /// Transmissions lost to an injected fault schedule.
    pub dropped: u64,
    /// Signals regenerated by the loss-recovery timers.
    pub retransmits: u64,
}

/// The hardware of one GLock: the controller tree plus its G-lines.
///
/// ```
/// use glocks::{GlockNetwork, Topology};
/// use glocks_sim_base::Mesh2D;
///
/// // The paper's 9-core example (Figure 2): request at cycle 0,
/// // token granted at cycle 4 (Table I worst case).
/// let mut net = GlockNetwork::new(&Topology::flat(Mesh2D::new(3, 3)), 1);
/// let regs = net.regs();
/// regs.set_req(0);
/// for now in 0..=4 {
///     net.tick(now);
/// }
/// assert!(!regs.req_pending(0), "granted at cycle 4");
/// assert_eq!(net.holder().unwrap().index(), 0);
/// ```
pub struct GlockNetwork {
    latency: u64,
    policy: RetryPolicy,
    /// Loss-recovery timers run only when armed. Fault-free networks keep
    /// them off so legitimate long waits under contention never trigger a
    /// spurious retransmission — signal counts stay exactly the paper's.
    timers_armed: bool,
    arbs: Vec<ArbiterNode>,
    leaves: Vec<LeafCtl>,
    wires: Wires,
    regs: Rc<GlockRegisters>,
    deliver_buf: Vec<InFlight>,
    grants: u64,
    /// Grant order (bounded) for fairness tests.
    grant_log: Vec<CoreId>,
    /// Set once the log hits [`GRANT_LOG_CAP`], so fairness checks can
    /// refuse to run on a partial record.
    grant_log_truncated: bool,
    /// Cycle of the previous token acceptance (grant-to-grant gap).
    last_grant_at: Option<Cycle>,
    /// Per-run instance number for stable stat names: a network does not
    /// know its own lock index, so the registry hands out `glock.{k}`.
    stats_idx: u32,
    /// `glock.{k}.grant_gap_cycles` (free `NONE` id when stats are off).
    gap_hist: gstats::HistId,
    /// Pending hard faults, applied when their cycle comes up.
    scheduled_kills: Vec<(Cycle, Kill)>,
    /// Pending repairs (intermittent faults). A repair becomes *claimable*
    /// at its cycle but only installs once the dead network is drained.
    scheduled_repairs: Vec<Cycle>,
    /// The (policy, timers_armed) pair in force before `arm_detection`
    /// first mutated them, restored when a repair reboots the hardware so
    /// the replacement runs with the original (pre-fault) timer setup.
    prearm: Option<(RetryPolicy, bool)>,
    /// Liveness flag shared with lock backends (failover trigger).
    health: Rc<NetworkHealth>,
}
glocks_sim_base::snap!(GlockNetwork mark "glock-net" {
    policy, timers_armed, arbs as fixed, leaves as fixed, wires, regs, grants, grant_log,
    grant_log_truncated, last_grant_at, scheduled_kills, scheduled_repairs, prearm, health;
    skip latency, deliver_buf, stats_idx, gap_hist
});

const GRANT_LOG_CAP: usize = 100_000;

impl GlockNetwork {
    /// Build the network for a topology with the given G-line latency.
    pub fn new(topo: &Topology, gline_latency: u64) -> Self {
        assert!(gline_latency >= 1);
        let arbs: Vec<ArbiterNode> = topo
            .arbiters
            .iter()
            .map(|(parent, children)| ArbiterNode::new(*parent, children.clone()))
            .collect();
        let leaves: Vec<LeafCtl> = (0..topo.n_cores)
            .map(|c| LeafCtl::new(CoreId(c as u16), topo.leaf_parent[c]))
            .collect();
        let stats_idx = gstats::next_instance("glock");
        GlockNetwork {
            latency: gline_latency,
            policy: RetryPolicy::DEFAULT,
            timers_armed: false,
            arbs,
            leaves,
            wires: Wires::new(),
            regs: GlockRegisters::new(topo.n_cores),
            deliver_buf: Vec::new(),
            grants: 0,
            grant_log: Vec::new(),
            grant_log_truncated: false,
            last_grant_at: None,
            stats_idx,
            gap_hist: gstats::hist(&format!("glock.{stats_idx}.grant_gap_cycles")),
            scheduled_kills: Vec::new(),
            scheduled_repairs: Vec::new(),
            prearm: None,
            health: Rc::new(NetworkHealth::default()),
        }
    }

    /// The register file the cores (and the lock backend's scripts) use.
    pub fn regs(&self) -> Rc<GlockRegisters> {
        Rc::clone(&self.regs)
    }

    /// Subject this network's G-lines to a deterministic fault schedule.
    /// Arms the loss-recovery timers: a lossy wire needs retransmission
    /// to stay live, whereas a fault-free network keeps them disarmed so
    /// signal counts match the paper exactly.
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.wires.set_faults(faults);
        self.timers_armed = true;
    }

    /// Soft-fault totals from the wires' injector, if one is attached.
    pub fn fault_stats(&self) -> Option<glocks_sim_base::fault::FaultStats> {
        self.wires.fault_stats()
    }

    /// The retry policy the controllers actually see this cycle.
    fn active_policy(&self) -> RetryPolicy {
        if self.timers_armed {
            self.policy
        } else {
            RetryPolicy::DISABLED
        }
    }

    /// This network's liveness handle (shared with the lock drivers).
    pub fn health(&self) -> Rc<NetworkHealth> {
        Rc::clone(&self.health)
    }

    /// Schedule the G-line segments to die permanently at `at`.
    pub fn schedule_line_kill(&mut self, at: Cycle) {
        self.scheduled_kills.push((at, Kill::Line));
    }

    /// Schedule manager (arbiter) `node` to die permanently at `at`.
    pub fn schedule_manager_kill(&mut self, at: Cycle, node: usize) {
        assert!(node < self.arbs.len(), "no such manager node");
        self.scheduled_kills.push((at, Kill::Manager(node)));
    }

    /// Schedule core `core`'s local controller to die permanently at `at`.
    pub fn schedule_leaf_kill(&mut self, at: Cycle, core: usize) {
        assert!(core < self.leaves.len(), "no such core");
        self.scheduled_kills.push((at, Kill::Leaf(core)));
    }

    /// Schedule a repair (intermittent fault): from cycle `at` on, the
    /// replacement hardware is available. It installs at the first cycle
    /// `>= at` at which the network is dead *and* drained (the frozen
    /// holder's release has been written), rebooting every automaton, the
    /// wires, and the register file to a clean image — after which the
    /// network is repaired-but-untrusted until fail-back promotes it.
    pub fn schedule_repair(&mut self, at: Cycle) {
        self.scheduled_repairs.push(at);
    }

    /// Arm the loss-recovery timers with a *bounded* retransmission budget
    /// so survivors escalate to a death verdict instead of retrying
    /// forever. Called when a scheduled hard fault fires — never before,
    /// so legitimately long waits under fault-free (or transient-fault)
    /// contention can never produce a false `NetworkDead`.
    fn arm_detection(&mut self) {
        if self.prearm.is_none() {
            self.prearm = Some((self.policy, self.timers_armed));
        }
        self.timers_armed = true;
        if self.policy.max_attempts == 0 {
            self.policy.max_attempts = DETECTION_ATTEMPTS;
        }
    }

    /// Install the replacement hardware: reboot every automaton, the wires
    /// and the register file to the boot image, restore the pre-detection
    /// retry setup (a later kill re-arms it), and mark the network
    /// repaired-but-untrusted. Only called on a dead, drained network, so
    /// no core is inside a hardware critical section and every core-side
    /// script has already observed the death and failed over — wiping
    /// `lock_req` can never be mistaken for a grant.
    fn repair(&mut self, now: Cycle) {
        debug_assert!(self.regs.hw_drained());
        for a in &mut self.arbs {
            a.reset();
        }
        for l in &mut self.leaves {
            l.reset();
        }
        self.wires.revive();
        self.regs.reset();
        if let Some((policy, armed)) = self.prearm.take() {
            self.policy = policy;
            self.timers_armed = armed;
        }
        self.health.mark_untrusted();
        trace_event!(TraceMask::GLOCK, now, "glock: network repaired (untrusted)");
    }

    /// Advance the network one cycle: deliver due signals, then run every
    /// automaton. Matches Figure 4's timing: a request raised during cycle
    /// `t` is granted at cycle `t + 4` worst-case / `t + 2` best-case, and
    /// a release costs one cycle.
    pub fn tick(&mut self, now: Cycle) {
        if !self.scheduled_kills.is_empty() {
            let mut fired = false;
            let mut i = 0;
            while i < self.scheduled_kills.len() {
                let (at, kill) = self.scheduled_kills[i];
                if now >= at {
                    match kill {
                        Kill::Line => self.wires.kill(at),
                        Kill::Manager(node) => self.arbs[node].kill(),
                        Kill::Leaf(core) => self.leaves[core].kill(),
                    }
                    self.scheduled_kills.swap_remove(i);
                    fired = true;
                } else {
                    i += 1;
                }
            }
            if fired {
                self.arm_detection();
            }
        }
        if self.health.is_dead() {
            // A claimable repair installs as soon as the dead network is
            // drained (the frozen holder — if any — has written its
            // release, and every failed-over script has stopped trusting
            // the registers).
            if let Some(i) = self.scheduled_repairs.iter().position(|&at| now >= at) {
                if self.regs.hw_drained() {
                    self.scheduled_repairs.swap_remove(i);
                    self.repair(now);
                }
            }
        }
        if self.health.is_dead() {
            // Quarantined: a dead network never delivers, grants, or emits
            // anything again. Cores that accepted a grant before the
            // verdict still hold their registers; the failover layer
            // drains them on the software path.
            return;
        }
        self.deliver_buf.clear();
        self.wires.deliver_due(now, &mut self.deliver_buf);
        for i in 0..self.deliver_buf.len() {
            let s = self.deliver_buf[i];
            match s.dst {
                Endpoint::Arb(a) => {
                    trace_event!(
                        TraceMask::GLOCK,
                        now,
                        "glock: {:?} delivered to manager {a} (child {})",
                        s.sig,
                        s.child_index
                    );
                    self.arbs[a].on_signal(s.sig, s.child_index, s.epoch)
                }
                Endpoint::Leaf(c) => {
                    debug_assert_eq!(s.sig, Sig::Token, "leaves only receive TOKEN");
                    if self.leaves[c.index()].on_token(&self.regs, s.epoch) {
                        trace_event!(TraceMask::GLOCK, now, "glock: TOKEN granted to core {c}");
                        self.grants += 1;
                        if let Some(prev) = self.last_grant_at.replace(now) {
                            gstats::hist_record(self.gap_hist, now.saturating_sub(prev));
                        }
                        if self.grant_log.len() < GRANT_LOG_CAP {
                            self.grant_log.push(c);
                        } else {
                            self.grant_log_truncated = true;
                        }
                    } else {
                        trace_event!(
                            TraceMask::GLOCK,
                            now,
                            "glock: stale/duplicate TOKEN refused by core {c}"
                        );
                    }
                }
            }
        }
        let policy = self.active_policy();
        for leaf in &mut self.leaves {
            leaf.tick(now, self.latency, &policy, &self.regs, &mut self.wires);
        }
        for arb in &mut self.arbs {
            arb.tick(now, self.latency, &policy, &mut self.wires);
        }
        // Failure detection: any controller that exhausted its bounded
        // retransmission budget escalates to a network-wide death verdict.
        if policy.max_attempts > 0
            && !self.health.is_dead()
            && (self.leaves.iter().any(|l| l.gave_up()) || self.arbs.iter().any(|a| a.gave_up()))
        {
            trace_event!(TraceMask::GLOCK, now, "glock: network declared dead");
            self.health.mark_dead(now);
        }
    }

    /// The core currently holding this lock, if any.
    pub fn holder(&self) -> Option<CoreId> {
        self.leaves
            .iter()
            .find(|l| l.state() == LeafState::Holding)
            .map(|l| l.core)
    }

    /// Cores currently waiting for the token.
    pub fn n_waiting(&self) -> usize {
        self.leaves
            .iter()
            .filter(|l| l.state() == LeafState::Waiting)
            .count()
    }

    /// No signal in flight and every controller idle.
    pub fn is_idle(&self) -> bool {
        self.wires.is_idle()
            && self.leaves.iter().all(|l| l.is_quiet())
            && self.arbs.iter().all(|a| a.is_quiet())
    }

    /// The earliest cycle ≥ `now` at which ticking this network could do
    /// anything observable, or `None` if it is inert until a core writes a
    /// lock register. `Some(now)` means "hot, tick densely".
    ///
    /// This is the network's idle-skip contract: between `now` and the
    /// returned cycle every [`GlockNetwork::tick`] is a no-op — no kill
    /// fires, no signal is due, and every automaton's own `next_event`
    /// (which mirrors its tick exactly, including armed retry timers) says
    /// it would neither emit nor change state. A quarantined (dead)
    /// network only ever wakes for scheduled kills, which still purge
    /// wires when they fire.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let fold = |a: Option<Cycle>, b: Option<Cycle>| match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
        let kills = self.scheduled_kills.iter().map(|&(at, _)| at.max(now)).min();
        if self.health.is_dead() {
            // A dead network additionally wakes for repairs: at the repair
            // cycle itself, then densely while the claimable repair waits
            // for the drain (the drain signal is a register write the
            // network cannot predict).
            let repairs = match self.scheduled_repairs.iter().map(|&at| at.max(now)).min() {
                Some(at) if at > now => Some(at),
                Some(_) => Some(now), // claimable: stay dense until drained
                None => None,
            };
            return fold(kills, repairs);
        }
        if !self.wires.is_idle() {
            // Signal deliveries interleave with automaton responses cycle
            // by cycle — stay dense until the wires drain.
            return Some(now);
        }
        let policy = self.active_policy();
        let mut wake = kills;
        for leaf in &self.leaves {
            wake = fold(wake, leaf.next_event(now, &policy, &self.regs));
            if wake == Some(now) {
                return wake;
            }
        }
        for arb in &self.arbs {
            wake = fold(wake, arb.next_event(now, &policy));
            if wake == Some(now) {
                return wake;
            }
        }
        wake
    }

    pub fn stats(&self) -> GlockStats {
        GlockStats {
            grants: self.grants,
            signals: self.wires.signals_sent(),
            dropped: self.wires.signals_dropped(),
            retransmits: self.leaves.iter().map(|l| l.retransmits()).sum::<u64>()
                + self.arbs.iter().map(|a| a.retransmits()).sum::<u64>(),
        }
    }

    /// Publish end-of-run signal/grant totals into the stats registry as
    /// `glock.{k}.*` (no-op when stats are off). The counts are the same
    /// paper-exact [`GlockStats`] the report carries — publication reads
    /// them, it never changes how they are counted.
    pub fn publish_stats(&self) {
        if !gstats::is_enabled() {
            return;
        }
        let k = self.stats_idx;
        let s = self.stats();
        for (field, v) in [
            ("grants", s.grants),
            ("signals", s.signals),
            ("dropped", s.dropped),
            ("retransmits", s.retransmits),
        ] {
            gstats::set(gstats::counter(&format!("glock.{k}.{field}")), v);
        }
        // Registered only on a dead network, so fault-free dumps keep
        // their exact golden shape.
        if let Some(since) = self.health.dead_since() {
            gstats::set(gstats::counter(&format!("glock.{k}.dead_at")), since);
        }
    }

    /// Grant order (bounded log) for fairness analysis.
    pub fn grant_log(&self) -> &[CoreId] {
        &self.grant_log
    }

    /// True once grants stopped being recorded because the log hit its
    /// cap. Fairness checks must assert this is `false` before trusting
    /// [`Self::grant_log`].
    pub fn grant_log_truncated(&self) -> bool {
        self.grant_log_truncated
    }

    /// Whether any permanent fault has compromised this network (fired
    /// kill or a death verdict). Token-conservation invariants that assume
    /// reliable hardware are relaxed on a compromised network.
    pub fn is_compromised(&self) -> bool {
        self.health.is_dead()
            || self.wires.is_dead()
            || self.arbs.iter().any(|a| a.is_dead())
            || self.leaves.iter().any(|l| l.is_dead())
    }

    /// Non-panicking token-uniqueness check: at most one core holds the
    /// lock, and (on uncompromised hardware) the root never loses track of
    /// its token. Returns a description of the first violation, if any.
    /// Mutual exclusion is checked unconditionally — even a dying network
    /// must never end up with two holders.
    pub fn token_invariant_violation(&self) -> Option<String> {
        let holding = self
            .leaves
            .iter()
            .filter(|l| l.state() == LeafState::Holding)
            .count();
        if holding > 1 {
            return Some(format!("token duplicated: {holding} cores holding"));
        }
        if !self.is_compromised() && !self.arbs[0].has_token() {
            return Some("root lost the token".to_string());
        }
        None
    }

    /// Token-uniqueness invariants: at most one core holds the lock, at
    /// most one TOKEN is in flight, and never both.
    pub fn assert_token_invariants(&self) {
        if let Some(v) = self.token_invariant_violation() {
            panic!("{v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks_sim_base::snap::{Snap, SnapReader, SnapWriter};
    use glocks_sim_base::Mesh2D;

    fn net(cols: u16, rows: u16) -> GlockNetwork {
        GlockNetwork::new(&Topology::flat(Mesh2D::new(cols, rows)), 1)
    }

    /// Tick until `core`'s request is granted; returns elapsed cycles.
    fn acquire(n: &mut GlockNetwork, core: usize, start: Cycle) -> Cycle {
        let regs = n.regs();
        regs.set_req(core);
        for now in start..start + 1000 {
            n.tick(now);
            n.assert_token_invariants();
            if !regs.req_pending(core) {
                return now - start;
            }
        }
        panic!("grant never arrived for core {core}");
    }

    fn release(n: &mut GlockNetwork, core: usize, start: Cycle) -> Cycle {
        let regs = n.regs();
        regs.set_rel(core);
        for now in start..start + 1000 {
            n.tick(now);
            if !regs.rel_pending(core) {
                return now - start;
            }
        }
        panic!("release never processed for core {core}");
    }

    #[test]
    fn worst_case_acquire_is_4_cycles() {
        // Uncontended acquire with the token at the primary: REQ C→S,
        // REQ S→R, TOKEN R→S, TOKEN S→C (Figure 4 a–b).
        let mut n = net(3, 3);
        let lat = acquire(&mut n, 0, 0);
        assert_eq!(lat, 4, "Table I worst-case acquire");
        assert_eq!(n.holder(), Some(CoreId(0)));
    }

    /// A quarantined network — line killed, death verdict reached, a grant
    /// frozen at one core and an unanswerable request at another — must
    /// round-trip through its snapshot into a freshly built (healthy) twin:
    /// same holder, same stats, same death cycle, byte-identical re-encode,
    /// and the quarantine semantics (a frozen request is never answered)
    /// must hold after the restore.
    #[test]
    fn quarantined_network_round_trips_through_a_snapshot() {
        let mut n = net(2, 2);
        let regs = n.regs();
        acquire(&mut n, 0, 0);
        regs.set_req(1); // waits: the token is out at core 0
        n.schedule_line_kill(50);
        let mut now = 50;
        while !n.health().is_dead() {
            n.tick(now);
            now += 1;
            assert!(now < 100_000, "death verdict never reached");
        }

        let mut w = SnapWriter::new();
        n.save(&mut w);
        let bytes = w.into_bytes();

        let mut n2 = net(2, 2);
        assert!(!n2.health().is_dead());
        let mut r = SnapReader::new(&bytes);
        n2.load(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "decode must consume exactly what encode wrote");

        assert!(n2.health().is_dead());
        assert_eq!(n2.health().dead_since(), n.health().dead_since());
        assert_eq!(n2.holder(), Some(CoreId(0)));
        assert_eq!(n2.stats(), n.stats());
        assert_eq!(n2.grant_log(), n.grant_log());
        assert!(n2.is_compromised());

        let mut w2 = SnapWriter::new();
        n2.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "restored state must re-encode identically");

        // Quarantine survives the round trip: the restored dead network
        // never answers the frozen request.
        let regs2 = n2.regs();
        assert!(regs2.req_pending(1));
        for t in 0..1_000 {
            n2.tick(now + t);
        }
        assert!(regs2.req_pending(1), "a dead network must never grant");
        assert_eq!(n2.holder(), Some(CoreId(0)), "the frozen grant is final");
    }

    #[test]
    fn release_is_1_cycle() {
        let mut n = net(3, 3);
        acquire(&mut n, 0, 0);
        let lat = release(&mut n, 0, 100);
        assert_eq!(lat, 0, "lock_rel consumed in the release cycle");
        // The REL signal reaches the manager one cycle later; the network
        // then drains to idle.
        for now in 101..130 {
            n.tick(now);
        }
        assert!(n.is_idle());
    }

    #[test]
    fn best_case_acquire_is_2_cycles() {
        // Table I best case: a request that reaches its row manager in the
        // very cycle the manager resumes scanning needs only REQ C→S and
        // TOKEN S→C. Arrange it by releasing core 0 and raising core 1's
        // request in the same cycle: the REL and the REQ are delivered
        // together, and the manager grants immediately.
        let mut n = net(3, 3);
        let regs = n.regs();
        acquire(&mut n, 0, 0);
        let m = 50;
        for t in 10..m {
            n.tick(t);
        }
        regs.set_rel(0);
        regs.set_req(1);
        for t in m..m + 10 {
            n.tick(t);
            if !regs.req_pending(1) {
                assert_eq!(t - m, 2, "best-case acquire is 2 cycles");
                assert_eq!(n.holder(), Some(CoreId(1)));
                return;
            }
        }
        panic!("core 1 never granted");
    }

    #[test]
    fn intra_row_handoff_takes_2_cycles() {
        // Figure 4c: core 0 releases at cycle m, S designates core 1 at
        // m+1, so core 1 observes the grant two ticks after the release.
        let mut n = net(3, 3);
        let regs = n.regs();
        acquire(&mut n, 0, 0);
        regs.set_req(1);
        for t in 10..50 {
            n.tick(t);
        }
        assert!(regs.req_pending(1), "still waiting while core 0 holds");
        regs.set_rel(0);
        let m = 50;
        for t in m..m + 10 {
            n.tick(t);
            if !regs.req_pending(1) {
                assert_eq!(t - m, 2, "REL then TOKEN: two transmissions");
                return;
            }
        }
        panic!("core 1 never granted");
    }

    #[test]
    fn simultaneous_requests_grant_in_round_robin_order() {
        // The paper's Figure 4 example: all 9 cores request at once and are
        // served 0,1,...,8.
        let mut n = net(3, 3);
        let regs = n.regs();
        for c in 0..9 {
            regs.set_req(c);
        }
        let mut now = 0;
        let mut order = Vec::new();
        while order.len() < 9 {
            n.tick(now);
            n.assert_token_invariants();
            if let Some(h) = n.holder() {
                // release immediately; record each distinct grant
                if order.last() != Some(&h) {
                    order.push(h);
                }
                regs.set_rel(h.index());
            }
            now += 1;
            assert!(now < 10_000, "protocol stalled");
        }
        assert_eq!(order, (0..9).map(CoreId).collect::<Vec<_>>());
        assert!(!n.grant_log_truncated(), "fairness checked on a full log");
        assert_eq!(n.grant_log(), order.as_slice());
    }

    #[test]
    fn wraps_around_for_second_round() {
        let mut n = net(2, 2);
        let regs = n.regs();
        // Two rounds of requests from every core.
        let mut remaining = [2u32; 4];
        for c in 0..4 {
            regs.set_req(c);
        }
        let mut grants = Vec::new();
        let mut now = 0;
        while grants.len() < 8 {
            n.tick(now);
            if let Some(h) = n.holder() {
                grants.push(h);
                remaining[h.index()] -= 1;
                regs.set_rel(h.index());
                if remaining[h.index()] > 0 {
                    // re-request right away (highly-contended pattern)
                    regs.set_req(h.index());
                }
            }
            now += 1;
            assert!(now < 10_000);
        }
        // Fairness: each core granted exactly twice.
        for c in 0..4u16 {
            assert_eq!(grants.iter().filter(|&&g| g == CoreId(c)).count(), 2);
        }
    }

    #[test]
    fn hierarchical_network_grants_everyone() {
        let topo = Topology::hierarchical(Mesh2D::new(8, 8), 7);
        let mut n = GlockNetwork::new(&topo, 1);
        let regs = n.regs();
        for c in 0..64 {
            regs.set_req(c);
        }
        let mut grants = 0;
        let mut now = 0;
        while grants < 64 {
            n.tick(now);
            n.assert_token_invariants();
            if let Some(h) = n.holder() {
                grants += 1;
                regs.set_rel(h.index());
            }
            now += 1;
            assert!(now < 100_000, "hierarchical protocol stalled");
        }
        for t in now..now + 50 {
            n.tick(t);
        }
        assert!(n.is_idle());
    }

    #[test]
    fn longer_gline_latency_scales_acquire() {
        // The paper's "longer-latency G-lines" scaling path: latency 2
        // doubles the worst-case acquire to 8 cycles.
        let topo = Topology::flat(Mesh2D::new(3, 3));
        let mut n = GlockNetwork::new(&topo, 2);
        let lat = acquire(&mut n, 0, 0);
        assert_eq!(lat, 8);
    }

    #[test]
    fn idle_network_stays_idle() {
        let mut n = net(3, 3);
        for now in 0..100 {
            n.tick(now);
        }
        assert!(n.is_idle());
        assert_eq!(n.stats().signals, 0);
        assert_eq!(n.stats().grants, 0);
    }

    #[test]
    fn signal_count_for_one_acquire_release() {
        let mut n = net(3, 3);
        acquire(&mut n, 0, 0);
        release(&mut n, 0, 100);
        for t in 101..140 {
            n.tick(t);
        }
        // REQ C→S, REQ S→R, TOKEN R→S, TOKEN S→C, REL C→S, REL S→R
        assert_eq!(n.stats().signals, 6);
        assert_eq!(n.stats().grants, 1);
        assert_eq!(n.stats().retransmits, 0, "no timers fire fault-free");
    }

    #[test]
    fn fault_free_long_waits_never_retransmit() {
        // A critical section far longer than the retry timeout, with
        // another core waiting the whole time: disarmed timers must not
        // mistake the wait for a lost signal (that would inflate signal
        // counts and energy in fault-free paper runs).
        let mut n = net(3, 3);
        let regs = n.regs();
        acquire(&mut n, 0, 0);
        regs.set_req(5);
        let hold = 20 * RetryPolicy::DEFAULT.base_timeout;
        for t in 10..hold {
            n.tick(t);
        }
        assert!(regs.req_pending(5), "core 5 still waiting");
        assert_eq!(n.stats().retransmits, 0, "no spurious retransmission");
        // REQ C->S, REQ S->R (token parked at manager 0), REQ C->S, REQ S->R,
        // TOKEN R->S, TOKEN S->C: exactly one transmission chain per event.
        let before = n.stats().signals;
        regs.set_rel(0);
        let mut t = hold;
        while regs.req_pending(5) {
            n.tick(t);
            t += 1;
            assert!(t < hold + 100, "handoff stalled");
        }
        assert_eq!(n.stats().retransmits, 0);
        assert!(n.stats().signals - before <= 4, "handoff costs no extra signals");
    }

    /// Saturate the network under an injected fault schedule: everyone is
    /// still granted exactly the right number of times, mutual exclusion
    /// holds every cycle, and the network drains to idle.
    fn run_under_faults(rates: glocks_sim_base::FaultRates, seed: u64) {
        use glocks_sim_base::{FaultPlan, FaultSite};
        let mut n = net(3, 3);
        let mut plan = FaultPlan::seeded(seed);
        plan.gline = rates;
        n.set_faults(plan.injector(FaultSite::Gline, 0));
        let regs = n.regs();
        let mut remaining = [3u32; 9];
        for c in 0..9 {
            regs.set_req(c);
        }
        let mut grants = 0u64;
        let mut now = 0;
        while grants < 27 {
            n.tick(now);
            n.assert_token_invariants();
            if let Some(h) = n.holder() {
                grants += 1;
                remaining[h.index()] -= 1;
                regs.set_rel(h.index());
                if remaining[h.index()] > 0 {
                    regs.set_req(h.index());
                }
            }
            now += 1;
            assert!(now < 5_000_000, "protocol wedged under faults");
        }
        assert!(remaining.iter().all(|&r| r == 0), "fair modulo retries");
        assert_eq!(n.stats().grants, 27, "refused tokens must not count");
        for _ in 0..200_000 {
            n.tick(now);
            now += 1;
            if n.is_idle() {
                break;
            }
        }
        assert!(n.is_idle(), "network must recover to idle");
    }

    #[test]
    fn line_kill_is_detected_and_quarantined() {
        let mut n = net(3, 3);
        let health = n.health();
        // Core 0 holds; cores 1..9 wait when the G-lines die.
        acquire(&mut n, 0, 0);
        let regs = n.regs();
        for c in 1..9 {
            regs.set_req(c);
        }
        n.schedule_line_kill(100);
        let mut now = 10;
        while !health.is_dead() {
            n.tick(now);
            assert!(n.token_invariant_violation().is_none(), "invariants hold while dying");
            now += 1;
            assert!(now < 1_000_000, "death verdict never reached");
        }
        assert!(now >= 100, "no verdict before the fault fires");
        assert!(health.dead_since().unwrap() >= 100);
        assert!(n.is_compromised());
        // Quarantine: nothing is ever granted again, holders keep their
        // registers, waiters spin forever on the hardware path.
        let grants_at_death = n.stats().grants;
        for t in now..now + 5_000 {
            n.tick(t);
        }
        assert_eq!(n.stats().grants, grants_at_death);
        assert_eq!(n.holder(), Some(CoreId(0)), "pre-death holder undisturbed");
        assert!(regs.req_pending(3), "hardware path never answers again");
        // The release register write goes unanswered too — draining a dead
        // network's holder is the failover layer's job.
        regs.set_rel(0);
        for t in now + 5_000..now + 6_000 {
            n.tick(t);
        }
        assert_eq!(n.holder(), Some(CoreId(0)));
    }

    #[test]
    fn manager_kill_severs_and_is_detected() {
        // Kill the root manager mid-contention: whoever is waiting on a
        // delegation or a REQ response exhausts its budget and the network
        // is declared dead.
        let mut n = net(3, 3);
        let health = n.health();
        acquire(&mut n, 0, 0); // cycles 0..=4
        let regs = n.regs();
        // The root dies before the release/handoff chain can pass through
        // it; core 5 sits in a different row, so its REQ needs the root.
        n.schedule_manager_kill(6, 0);
        regs.set_req(5);
        regs.set_rel(0);
        let mut now = 5;
        while !health.is_dead() {
            n.tick(now);
            assert!(n.token_invariant_violation().is_none());
            now += 1;
            assert!(now < 1_000_000, "death verdict never reached");
        }
        assert!(n.is_compromised());
    }

    #[test]
    fn fresh_requests_on_a_dead_network_are_detected() {
        // The network is killed while completely idle; the first core to
        // request afterwards must still reach a death verdict (bounded
        // REQ retransmission), not spin forever undetected.
        let mut n = net(3, 3);
        let health = n.health();
        n.schedule_line_kill(10);
        for t in 0..20 {
            n.tick(t);
        }
        assert!(!health.is_dead(), "an unused dead network is latent");
        let regs = n.regs();
        regs.set_req(4);
        let mut now = 20;
        while !health.is_dead() {
            n.tick(now);
            now += 1;
            assert!(now < 1_000_000, "death verdict never reached");
        }
        assert!(regs.req_pending(4), "the request is never granted");
    }

    #[test]
    fn repaired_network_reboots_clean_and_round_trips() {
        let mut n = net(3, 3);
        let health = n.health();
        acquire(&mut n, 0, 0);
        let regs = n.regs();
        regs.set_req(1); // stranded waiter, wiped by the reboot
        n.schedule_line_kill(100);
        n.schedule_repair(150); // claimable long before the death verdict
        let mut now = 10;
        while !health.is_dead() {
            n.tick(now);
            now += 1;
            assert!(now < 1_000_000, "death verdict never reached");
        }
        // Dead but not drained: core 0's grant is frozen with its release
        // unwritten, so the claimable repair must wait.
        for _ in 0..500 {
            n.tick(now);
            now += 1;
        }
        assert!(health.is_dead(), "repair must wait for the drain");
        assert_eq!(health.repairs(), 0);
        // The failover layer drains the holder: the release write is the
        // drain signal, and the repair installs on the very next tick.
        regs.set_rel(0);
        n.tick(now);
        assert!(!health.is_dead());
        assert!(!health.is_trusted(), "fresh repairs are untrusted");
        assert_eq!(health.repairs(), 1);
        assert_eq!(n.holder(), None);
        assert!(!regs.req_pending(1), "stale requests wiped by the reboot");
        assert!(!regs.rel_pending(0), "stale releases wiped by the reboot");
        assert!(!n.is_compromised(), "rebooted hardware is whole again");

        // The untrusted state round-trips through a snapshot.
        let mut w = SnapWriter::new();
        n.save(&mut w);
        let bytes = w.into_bytes();
        let mut n2 = net(3, 3);
        let mut r = SnapReader::new(&bytes);
        n2.load(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(!n2.health().is_trusted());
        assert_eq!(n2.health().repairs(), 1);
        let mut w2 = SnapWriter::new();
        n2.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "restored state must re-encode identically");

        // The rebooted network grants again — a fail-back probe round-trip
        // — and the restored pre-fault policy fires no new retransmissions
        // (the dying network's retransmits survive as a cumulative
        // diagnostic; the reboot must not add to them).
        let retransmits_at_repair = n.stats().retransmits;
        now += 1;
        acquire(&mut n, 2, now);
        assert_eq!(n.holder(), Some(CoreId(2)));
        release(&mut n, 2, now + 100);
        assert_eq!(n.stats().retransmits, retransmits_at_repair, "pre-fault timer setup restored");
        health.mark_trusted();
        assert!(health.is_trusted());
        assert_eq!(health.repairs(), 1);
    }

    #[test]
    fn redeath_after_repair_records_a_new_verdict() {
        // Flapping: kill, repair, kill again — the second death verdict
        // must land (mark_dead works from the untrusted state) with a
        // fresh dead_since.
        let mut n = net(2, 2);
        let health = n.health();
        let regs = n.regs();
        // Kill while idle so no grant freezes: the net is drained at death.
        n.schedule_line_kill(10);
        for t in 0..20 {
            n.tick(t);
        }
        regs.set_req(0); // first post-death request reaches the verdict
        let mut now = 20;
        while !health.is_dead() {
            n.tick(now);
            now += 1;
            assert!(now < 1_000_000);
        }
        let first_death = health.dead_since().unwrap();
        n.schedule_repair(first_death + 1);
        n.tick(now); // drained (no holder): repair installs immediately
        assert_eq!(health.repairs(), 1);
        assert!(!health.is_dead());
        n.schedule_line_kill(now + 10);
        regs.set_req(1);
        while !health.is_dead() {
            n.tick(now);
            now += 1;
            assert!(now < 2_000_000, "second death verdict never reached");
        }
        let second_death = health.dead_since().unwrap();
        assert!(second_death > first_death, "re-death records a fresh verdict cycle");
    }

    #[test]
    fn survives_dropped_signals() {
        run_under_faults(glocks_sim_base::FaultRates::drops(50_000), 11);
    }

    #[test]
    fn survives_duplicated_signals() {
        run_under_faults(glocks_sim_base::FaultRates::duplicates(100_000), 12);
    }

    #[test]
    fn survives_mixed_fault_schedules() {
        run_under_faults(
            glocks_sim_base::FaultRates {
                drop_ppm: 30_000,
                delay_ppm: 50_000,
                max_delay: 64,
                duplicate_ppm: 30_000,
            },
            13,
        );
    }
}
