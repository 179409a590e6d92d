//! Runtime protocol invariant checker.
//!
//! A sampling checker that rides along every run it is enabled for —
//! notably the fault sweeps, where an injected failure could silently
//! corrupt the protocol instead of wedging visibly. Like the stats
//! subsystem it is **zero-cost when off**: `SimulationOptions::checker` is
//! `None` by default and the runner's cycle loop then never touches it, so
//! fault-free paper runs stay bit-identical.
//!
//! Five invariant families are validated every [`CheckerConfig::every`]
//! cycles:
//!
//! 1. **Mutual exclusion per lock** — the [`glocks_cpu::LockTracker`]'s
//!    holder/requester picture must be self-consistent (the tracker's own
//!    asserts catch a double-grant immediately; this scan catches backends
//!    that desynchronize the bookkeeping).
//! 2. **At most one token per G-line network** — across epochs, exactly
//!    one automaton of a healthy network may hold the token, and the root
//!    must hold it when nobody else does
//!    ([`glocks::GlockNetwork::token_invariant_violation`]). Networks
//!    compromised by a hard fault are exempt from the liveness half (a
//!    dead component may have taken the token with it) but never from
//!    the at-most-one half.
//! 3. **Bounded waiting** — round-robin arbitration means a requester is
//!    served within one round. If the oldest outstanding request has waited
//!    more than [`CheckerConfig::fairness_window`] cycles *while more
//!    grants than a full round flowed past it*, fairness is broken. (A
//!    global stall trips the watchdog instead, with its own diagnosis.)
//!    The bound is the G-line arbiter's, so it holds only while the
//!    hardware path serves: no violation is reported while a network is
//!    compromised or untrusted, or a fail-back controller is out of
//!    `Hardware` mode. Acquires then replay on the test-and-set fallback
//!    word, which gives no admission-order guarantee.
//! 4. **Directory/L1 MESI compatibility** —
//!    [`glocks_mem::MemorySystem::find_invariant_violation`].
//! 5. **Fail-back safety** — on a repaired-but-untrusted network, the
//!    only legitimate grant holder is the fail-back probe's core (no
//!    production acquire may sneak onto unproven hardware); while a
//!    fail-back drain is in progress no hardware grant may exist at all;
//!    and once the hardware path is trusted again no software tenure may
//!    still be in flight (no double-path ownership).
//!
//! A violation surfaces as [`crate::SimError::InvariantViolation`] carrying
//! the usual diagnostic snapshot, so a sweep harness logs it like any other
//! structured failure and moves on.

use glocks::GlockNetwork;
use glocks_cpu::LockTracker;
use glocks_locks::failback::{FailbackCtl, FailbackMode};
use glocks_mem::MemorySystem;
use glocks_sim_base::{Cycle, LockId, ThreadId};
use glocks_stats as gstats;
use std::rc::Rc;

/// Sampling cadence and fairness bound of the runtime checker.
#[derive(Clone, Copy, Debug)]
pub struct CheckerConfig {
    /// Run the checks every `every` cycles (must be ≥ 1).
    pub every: u64,
    /// Bounded-waiting horizon: a requester stuck this long while a full
    /// round of grants passed it by is a fairness violation.
    pub fairness_window: u64,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        // The MESI scan walks every resident line, so the default cadence
        // is coarse enough not to dominate runtime.
        CheckerConfig { every: 1024, fairness_window: 1_000_000 }
    }
}

/// Per-lock memory of the bounded-waiting analysis: the oldest request we
/// have been watching and how many grants the lock had served when we
/// first saw it.
#[derive(Clone, Copy)]
struct WaitWatch {
    tid: ThreadId,
    since: Cycle,
    acquires_then: u64,
}
glocks_sim_base::snap!(WaitWatch { tid, since, acquires_then });

/// The runtime checker's state across a run.
pub struct ProtocolChecker {
    cfg: CheckerConfig,
    watches: Vec<Option<WaitWatch>>,
    n_cores: u64,
    checks_run: u64,
}
glocks_sim_base::snap!(ProtocolChecker mark "checker" {
    watches as fixed, checks_run;
    skip cfg, n_cores
});

impl ProtocolChecker {
    pub fn new(cfg: CheckerConfig, n_locks: usize, n_cores: usize) -> Self {
        assert!(cfg.every >= 1, "checker cadence must be at least 1 cycle");
        ProtocolChecker {
            cfg,
            watches: vec![None; n_locks],
            n_cores: n_cores as u64,
            checks_run: 0,
        }
    }

    /// Is a check due this cycle?
    pub fn due(&self, now: Cycle) -> bool {
        now.is_multiple_of(self.cfg.every)
    }

    /// Run every invariant family; returns a description of the first
    /// violation found. `ctls` holds the fail-back controllers
    /// index-aligned with `nets` (empty for pool networks, which never
    /// fail back).
    pub fn check(
        &mut self,
        now: Cycle,
        tracker: &LockTracker,
        mem: &MemorySystem,
        nets: &[GlockNetwork],
        ctls: &[Rc<FailbackCtl>],
    ) -> Option<String> {
        self.checks_run += 1;
        if let Some(v) = tracker.find_violation() {
            return Some(format!("mutual exclusion: {v}"));
        }
        for (k, net) in nets.iter().enumerate() {
            if let Some(v) = net.token_invariant_violation() {
                return Some(format!("glock net {k} token invariant: {v}"));
            }
            let ctl = ctls.get(k);
            let health = net.health();
            if !health.is_dead() && !health.is_trusted() {
                // Repaired but untrusted: the only legitimate grant is the
                // fail-back probe's round-trip.
                if let Some(h) = net.regs().hw_holder() {
                    if ctl.and_then(|c| c.probing_core()) != Some(h) {
                        return Some(format!(
                            "glock net {k}: grant to core {h} from an untrusted network"
                        ));
                    }
                }
            }
            if let Some(ctl) = ctl {
                match ctl.mode() {
                    FailbackMode::Draining => {
                        if let Some(h) = net.regs().hw_holder() {
                            return Some(format!(
                                "glock net {k}: hardware holder {h} during fail-back drain"
                            ));
                        }
                    }
                    FailbackMode::Hardware => {
                        let inflight = ctl.sw_inflight();
                        if inflight > 0 {
                            return Some(format!(
                                "glock net {k}: {inflight} software tenure(s) in flight \
                                 while the hardware path is trusted (double-path ownership)"
                            ));
                        }
                    }
                    FailbackMode::SoftwareWait | FailbackMode::Probing => {}
                }
            }
        }
        let hardware_serves = || {
            nets.iter().all(|n| !n.is_compromised() && n.health().is_trusted())
                && ctls.iter().all(|c| c.mode() == FailbackMode::Hardware)
        };
        if let Some(v) = self.check_bounded_waiting(now, tracker, hardware_serves) {
            return Some(v);
        }
        if let Some(v) = mem.find_invariant_violation() {
            return Some(format!("MESI: {v}"));
        }
        None
    }

    /// `hardware_serves` is asked only once a watch has overstayed, so a
    /// run whose every wait is short never evaluates it.
    fn check_bounded_waiting(
        &mut self,
        now: Cycle,
        tracker: &LockTracker,
        hardware_serves: impl Fn() -> bool,
    ) -> Option<String> {
        for (i, watch) in self.watches.iter_mut().enumerate() {
            let lock = LockId(i as u16);
            let Some((tid, since)) = tracker.oldest_request(lock) else {
                *watch = None;
                continue;
            };
            let acquires = tracker.acquires(lock);
            match watch {
                Some(w) if w.tid == tid && w.since == since => {
                    // Round-robin bound: within one full round (one grant
                    // per core) every raised request must have been served.
                    let flowed = acquires - w.acquires_then;
                    if now.saturating_sub(since) > self.cfg.fairness_window
                        && flowed > self.n_cores
                        && hardware_serves()
                    {
                        return Some(format!(
                            "bounded waiting: thread {tid} has waited {} cycles on lock {i} \
                             while {flowed} grants flowed past it",
                            now - since
                        ));
                    }
                }
                _ => *watch = Some(WaitWatch { tid, since, acquires_then: acquires }),
            }
        }
        None
    }

    /// Publish the checker's own counters (only registered when the
    /// checker ran, so fault-free stats dumps keep their schema).
    pub fn publish_stats(&self) {
        if !gstats::is_enabled() {
            return;
        }
        gstats::set(gstats::counter("checker.checks_run"), self.checks_run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_and_counters() {
        let mut ck = ProtocolChecker::new(
            CheckerConfig { every: 8, fairness_window: 100 },
            1,
            4,
        );
        assert!(ck.due(0) && ck.due(8) && !ck.due(9));
        let tracker = LockTracker::new(1, 4);
        let mem = MemorySystem::new(&glocks_sim_base::CmpConfig::paper_baseline());
        assert_eq!(ck.check(0, &tracker, &mem, &[], &[]), None);
        assert_eq!(ck.checks_run, 1);
    }

    #[test]
    fn bounded_waiting_trips_on_starvation_with_progress() {
        let mut ck = ProtocolChecker::new(
            CheckerConfig { every: 1, fairness_window: 50 },
            1,
            2,
        );
        let mut tracker = LockTracker::new(1, 2);
        let mem = MemorySystem::new(&glocks_sim_base::CmpConfig::paper_baseline());
        // Thread 0 requests at cycle 0 and is never served...
        tracker.on_acquire_start(LockId(0), ThreadId(0), 0);
        assert_eq!(ck.check(1, &tracker, &mem, &[], &[]), None, "first sight arms the watch");
        // ...while thread 1 grabs the lock over and over (3 > n_cores).
        for _ in 0..3 {
            tracker.on_acquire_start(LockId(0), ThreadId(1), 2);
            tracker.on_acquired(LockId(0), ThreadId(1), 3);
            tracker.on_release_start(LockId(0), ThreadId(1), 4);
        }
        assert_eq!(ck.check(10, &tracker, &mem, &[], &[]), None, "within the window");
        let v = ck.check(100, &tracker, &mem, &[], &[]).expect("starvation must trip");
        assert!(v.contains("bounded waiting"), "{v}");
    }

    /// The fail-back invariants: software tenures on a trusted hardware
    /// path, a non-probe grant on an untrusted network, and a hardware
    /// holder during the drain must all trip the checker, while the
    /// probe's own round-trip on the untrusted network must not. The
    /// controller is driven only through its API and the lock driver.
    #[test]
    fn failback_invariants_guard_untrusted_grants_and_double_path() {
        use glocks::Topology;
        use glocks_cpu::Step;
        use glocks_locks::LockAlgorithm;
        use glocks_sim_base::{Addr, Mesh2D};

        fn tick(net: &mut GlockNetwork, ctl: Option<&FailbackCtl>, now: &mut Cycle) {
            net.tick(*now);
            if let Some(ctl) = ctl {
                ctl.tick(*now);
            }
            *now += 1;
            assert!(*now < 1_000_000, "scenario stalled");
        }

        let mut nets = [GlockNetwork::new(&Topology::flat(Mesh2D::new(2, 2)), 1)];
        let regs = nets[0].regs();
        let health = nets[0].health();
        let ctls = [Rc::new(FailbackCtl::new(nets[0].regs(), nets[0].health()))];
        let ctl = &*ctls[0];
        let backend =
            LockAlgorithm::Glock.make_backend(Addr(0x1000), 4, Some(Rc::clone(&ctls[0])), None);
        let tracker = LockTracker::new(1, 4);
        let mem = MemorySystem::new(&glocks_sim_base::CmpConfig::paper_baseline());
        let mut ck = ProtocolChecker::new(CheckerConfig::default(), 1, 4);
        let mut now = 0;

        // Kill while idle; a raw request drives detection. The controller
        // is not ticked, so it misses the verdict and stays in `Hardware`
        // while an acquire fails over: a software tenure on what the
        // controller believes is a trusted hardware path.
        nets[0].schedule_line_kill(10);
        for _ in 0..20 {
            tick(&mut nets[0], None, &mut now);
        }
        regs.set_req(0);
        while !health.is_dead() {
            tick(&mut nets[0], None, &mut now);
        }
        let mut acq = backend.acquire(ThreadId(1));
        assert_eq!(acq.resume(0), Step::Compute(1), "a closed gate fails over");
        assert_eq!((ctl.mode(), ctl.sw_inflight()), (FailbackMode::Hardware, 1));
        let v = ck
            .check(now, &tracker, &mem, &nets, &ctls)
            .expect("software tenures on a trusted hardware path must trip");
        assert!(v.contains("double-path"), "{v}");

        // The controller catches up with the verdict; the repair leaves the
        // network repaired-but-untrusted and the controller probing it.
        tick(&mut nets[0], Some(ctl), &mut now);
        assert_eq!(ctl.mode(), FailbackMode::SoftwareWait);
        nets[0].schedule_repair(now);
        while ctl.mode() != FailbackMode::Probing {
            tick(&mut nets[0], Some(ctl), &mut now);
        }
        assert!(!health.is_dead() && !health.is_trusted());

        // A rogue (non-probe) request sneaks onto the untrusted hardware
        // and is granted before the first probe launches.
        regs.set_req(1);
        while regs.hw_holder().is_none() {
            tick(&mut nets[0], None, &mut now);
        }
        let v = ck
            .check(now, &tracker, &mem, &nets, &ctls)
            .expect("a non-probe grant on an untrusted network must trip");
        assert!(v.contains("untrusted"), "{v}");
        regs.set_rel(1);
        while regs.hw_holder().is_some() {
            tick(&mut nets[0], None, &mut now);
        }

        // The probes' own round-trips are the legitimate untrusted grants.
        // The failed-over tenure never ends, so once the hysteresis is
        // satisfied the controller stays draining.
        let mut probe_grants = 0;
        while ctl.mode() != FailbackMode::Draining {
            tick(&mut nets[0], Some(ctl), &mut now);
            if regs.hw_holder().is_some() {
                probe_grants += 1;
                assert_eq!(ck.check(now, &tracker, &mem, &nets, &ctls), None);
            }
        }
        assert!(probe_grants > 0, "no probe grant was observed");

        // Draining with a hardware holder: no grant may exist mid-drain.
        // (Trust the network first so the drain invariant — which holds
        // regardless of health — is the one that trips.)
        health.mark_trusted();
        regs.set_req(2);
        while regs.hw_holder().is_none() {
            tick(&mut nets[0], None, &mut now);
        }
        let v = ck
            .check(now, &tracker, &mem, &nets, &ctls)
            .expect("a hardware holder during the drain must trip");
        assert!(v.contains("drain"), "{v}");
    }

    #[test]
    fn served_requests_reset_the_watch() {
        let mut ck = ProtocolChecker::new(
            CheckerConfig { every: 1, fairness_window: 10 },
            1,
            2,
        );
        let mut tracker = LockTracker::new(1, 2);
        let mem = MemorySystem::new(&glocks_sim_base::CmpConfig::paper_baseline());
        tracker.on_acquire_start(LockId(0), ThreadId(0), 0);
        assert_eq!(ck.check(1, &tracker, &mem, &[], &[]), None);
        tracker.on_acquired(LockId(0), ThreadId(0), 5);
        tracker.on_release_start(LockId(0), ThreadId(0), 6);
        assert_eq!(ck.check(1000, &tracker, &mem, &[], &[]), None, "no outstanding request");
    }
}
