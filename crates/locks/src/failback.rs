//! Fail-back of a statically-mapped GLock (survivability layer, beyond the
//! paper): repair → probe → drain → re-arm.
//!
//! Every `Glock` lock's driver ([`crate::glock`]) owns one [`FailbackCtl`],
//! ticked by the runner after the G-line networks. On a healthy machine it
//! sits in [`FailbackMode::Hardware`] and never acts: it only watches for a
//! death verdict, so fault-free runs keep the paper's timings exactly.
//! After a death the lock's acquires fail over to software (counted
//! here, as `failovers`), and with intermittent faults the network can be
//! *repaired*: rebooted to a clean image and flagged
//! repaired-but-untrusted. The controller then earns the trust back with
//! hysteresis:
//!
//! 1. **Probing.** The controller exercises the untrusted hardware with
//!    real token round-trips (request → grant → release → consumed) on
//!    rotating cores. Each clean round-trip raises the health score by
//!    one; a slow probe (over [`PROBE_TIMEOUT`]) or a re-death resets it
//!    to zero, so [`PROBES_REQUIRED`] *consecutive* clean probes are
//!    needed — and at least [`MIN_DWELL`] cycles must have passed since
//!    the repair. Intermittent faults therefore cause at most bounded
//!    flapping: each hardware→software→hardware switch costs a full
//!    probe-plus-dwell episode.
//! 2. **Draining.** New acquires park; in-flight software tenures finish
//!    (`sw_inflight` reaches zero). No thread owns either path's lock.
//! 3. **Re-arm.** The health flips back to trusted, parked acquires (and
//!    all later ones) take the hardware fast path again, and
//!    `failbacks` is incremented. Acquire counts are conserved end to
//!    end: every tenure runs on exactly one path.
//!
//! Pool-bound (`DynamicGlock`) networks have no controller: a pool network
//! that died is never bound again, repaired or not
//! ([`glocks::GlockPool::is_trusted`]).

use glocks::network::NetworkHealth;
use glocks::GlockRegisters;
use glocks_sim_base::Cycle;
use std::cell::Cell;
use std::rc::Rc;

/// Consecutive clean probe round-trips required before fail-back.
pub const PROBES_REQUIRED: u32 = 8;
/// Minimum cycles between the repair and trusting the hardware again.
pub const MIN_DWELL: u64 = 4096;
/// A probe slower than this is counted as lost (score reset). The probe
/// itself keeps waiting for its round-trip so no register write is ever
/// abandoned half way.
pub const PROBE_TIMEOUT: u64 = 1024;
/// Gap between consecutive probe launches.
pub const PROBE_GAP: u64 = 32;

/// Where the fail-back state machine currently routes acquires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailbackMode {
    /// Trusted hardware fast path (the initial and the healed state).
    Hardware,
    /// The network is dead (or re-died): everything runs on software.
    SoftwareWait,
    /// Repaired but untrusted: software carries the load while probe
    /// round-trips accumulate the health score.
    Probing,
    /// Hysteresis satisfied: parking new acquires until the software lock
    /// quiesces, then re-arming the hardware path.
    Draining,
}
glocks_sim_base::snap!(enum FailbackMode {
    0 => Hardware,
    1 => SoftwareWait,
    2 => Probing,
    3 => Draining,
});

/// Per-network fail-back state machine (see the module docs). Shared
/// `Rc`-style with the lock driver; ticked by the runner in the device
/// phase, after the G-line networks.
pub struct FailbackCtl {
    regs: Rc<GlockRegisters>,
    health: Rc<NetworkHealth>,
    mode: Cell<FailbackMode>,
    /// Consecutive clean probes since the last loss (hysteresis score).
    score: Cell<u32>,
    /// Cycle this controller first observed the current repair.
    repair_seen_at: Cell<Cycle>,
    /// 0 = between probes, 1 = awaiting grant, 2 = awaiting release
    /// consumption.
    probe_stage: Cell<u8>,
    /// Core whose registers the current/next probe exercises (rotates).
    probe_core: Cell<usize>,
    probe_started: Cell<Cycle>,
    /// False once the current probe overran [`PROBE_TIMEOUT`] — its
    /// eventual completion no longer counts toward the score.
    probe_clean: Cell<bool>,
    next_probe_at: Cell<Cycle>,
    /// Software-path tenures in flight (acquire committed to software,
    /// release not yet completed). Draining waits for zero.
    sw_inflight: Cell<u64>,
    /// Completed software→hardware fail-backs (published as
    /// `sim.failbacks`).
    failbacks: Cell<u64>,
    /// Acquires rerouted to software because the network was not trusted
    /// (published as `sim.failovers`).
    failovers: Cell<u64>,
}
glocks_sim_base::snap!(shared FailbackCtl {
    mode, score, repair_seen_at, probe_stage, probe_core, probe_started, probe_clean,
    next_probe_at, sw_inflight, failbacks, failovers;
    skip regs, health
});

impl FailbackCtl {
    pub fn new(regs: Rc<GlockRegisters>, health: Rc<NetworkHealth>) -> Self {
        FailbackCtl {
            regs,
            health,
            mode: Cell::new(FailbackMode::Hardware),
            score: Cell::new(0),
            repair_seen_at: Cell::new(0),
            probe_stage: Cell::new(0),
            probe_core: Cell::new(0),
            probe_started: Cell::new(0),
            probe_clean: Cell::new(true),
            next_probe_at: Cell::new(0),
            sw_inflight: Cell::new(0),
            failbacks: Cell::new(0),
            failovers: Cell::new(0),
        }
    }

    pub(crate) fn regs(&self) -> &GlockRegisters {
        &self.regs
    }

    pub(crate) fn health(&self) -> &NetworkHealth {
        &self.health
    }

    pub fn mode(&self) -> FailbackMode {
        self.mode.get()
    }

    /// Completed fail-backs (software → hardware re-arms).
    pub fn failbacks(&self) -> u64 {
        self.failbacks.get()
    }

    /// Acquires that abandoned the hardware path.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// Current hysteresis score (consecutive clean probes).
    pub fn score(&self) -> u32 {
        self.score.get()
    }

    /// Software-path tenures currently in flight.
    pub fn sw_inflight(&self) -> u64 {
        self.sw_inflight.get()
    }

    /// The core whose registers an in-flight probe currently owns, if a
    /// probe round-trip is in progress (checker: the only legitimate
    /// holder on an untrusted network).
    pub fn probing_core(&self) -> Option<usize> {
        (self.probe_stage.get() != 0).then(|| self.probe_core.get())
    }

    /// An acquire abandoned the hardware path: count the failover and the
    /// software tenure it starts.
    pub(crate) fn note_failover(&self) {
        self.failovers.set(self.failovers.get() + 1);
        self.sw_inflight.set(self.sw_inflight.get() + 1);
    }

    /// A software-path release completed (tenure over).
    pub(crate) fn sw_end(&self) {
        let v = self.sw_inflight.get();
        debug_assert!(v > 0, "software release without a counted acquire");
        self.sw_inflight.set(v.saturating_sub(1));
    }

    /// Advance the state machine one cycle. Runs in the device phase after
    /// the networks tick, so a death verdict or a repair landing at cycle
    /// `now` is observed at `now` — one core-phase before any script can
    /// react to it.
    pub fn tick(&self, now: Cycle) {
        match self.mode.get() {
            FailbackMode::Hardware => {
                if self.health.is_dead() {
                    self.mode.set(FailbackMode::SoftwareWait);
                }
            }
            FailbackMode::SoftwareWait => {
                if !self.health.is_dead() && !self.health.is_trusted() {
                    // Repair observed: start earning trust back.
                    self.mode.set(FailbackMode::Probing);
                    self.score.set(0);
                    self.repair_seen_at.set(now);
                    self.probe_stage.set(0);
                    self.next_probe_at.set(now + PROBE_GAP);
                }
            }
            FailbackMode::Probing => self.tick_probe(now),
            FailbackMode::Draining => {
                if self.health.is_dead() {
                    // Re-death while draining: parked acquires fall back to
                    // software on their next resume.
                    self.mode.set(FailbackMode::SoftwareWait);
                    self.score.set(0);
                } else if self.sw_inflight.get() == 0 {
                    // Quiescent: no tenure on either path. Re-arm.
                    self.health.mark_trusted();
                    self.failbacks.set(self.failbacks.get() + 1);
                    self.mode.set(FailbackMode::Hardware);
                }
            }
        }
    }

    fn tick_probe(&self, now: Cycle) {
        let core = self.probe_core.get();
        if self.health.is_dead() {
            // Re-death mid-probe. If our probe's grant froze in the
            // register file, write its release ourselves: the probe owns
            // no real critical section, and the release write is the
            // drain signal a future repair waits for.
            if self.probe_stage.get() == 1
                && self.regs.hw_holder() == Some(core)
                && !self.regs.rel_pending(core)
            {
                self.regs.set_rel(core);
            }
            self.probe_stage.set(0);
            self.score.set(0);
            self.mode.set(FailbackMode::SoftwareWait);
            return;
        }
        match self.probe_stage.get() {
            0 => {
                if now >= self.next_probe_at.get() {
                    self.regs.set_req(core);
                    self.probe_started.set(now);
                    self.probe_clean.set(true);
                    self.probe_stage.set(1);
                }
            }
            1 => {
                if self.regs.hw_holder() == Some(core) && !self.regs.req_pending(core) {
                    // Granted: give the token straight back.
                    self.regs.set_rel(core);
                    self.probe_stage.set(2);
                } else if now.saturating_sub(self.probe_started.get()) > PROBE_TIMEOUT {
                    self.probe_clean.set(false);
                    self.score.set(0);
                }
            }
            _ => {
                if self.regs.hw_holder().is_none() && !self.regs.rel_pending(core) {
                    // Round trip complete.
                    if self.probe_clean.get() {
                        self.score.set(self.score.get() + 1);
                    }
                    self.probe_stage.set(0);
                    self.next_probe_at.set(now + PROBE_GAP);
                    self.probe_core.set((core + 1) % self.regs.n_cores());
                    if self.score.get() >= PROBES_REQUIRED
                        && now.saturating_sub(self.repair_seen_at.get()) >= MIN_DWELL
                    {
                        self.mode.set(FailbackMode::Draining);
                    }
                } else if now.saturating_sub(self.probe_started.get()) > PROBE_TIMEOUT {
                    self.probe_clean.set(false);
                    self.score.set(0);
                }
            }
        }
    }

    /// Idle-skip contract. `Hardware` and `SoftwareWait` are inert: their
    /// transitions are triggered by a death verdict or a repair, and the
    /// owning network's `next_event` claims those cycles. Probing and
    /// draining are hot — probe round-trips and the software quiescence
    /// check advance cycle by cycle over a bounded window.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self.mode.get() {
            FailbackMode::Hardware | FailbackMode::SoftwareWait => None,
            FailbackMode::Probing | FailbackMode::Draining => Some(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glock::GlockBackend;
    use glocks::{GlockNetwork, Topology};
    use glocks_cpu::{LockBackend, Step};
    use glocks_sim_base::{Addr, Mesh2D, ThreadId};

    fn controlled_net() -> (GlockNetwork, Rc<FailbackCtl>) {
        let net = GlockNetwork::new(&Topology::flat(Mesh2D::near_square(4)), 1);
        let ctl = Rc::new(FailbackCtl::new(net.regs(), net.health()));
        (net, ctl)
    }

    /// Drive the full failure → repair → probe → drain → re-arm lifecycle
    /// against a real network, twice (flapping), checking the hysteresis
    /// bookkeeping at every stage.
    #[test]
    fn failback_lifecycle_probes_drains_and_rearms_twice() {
        let (mut net, ctl) = controlled_net();
        let b = GlockBackend::pinned(Rc::clone(&ctl), Addr(0x1000), 4);
        let health = net.health();
        let regs = net.regs();

        let mut now: u64 = 0;
        let episode = |net: &mut GlockNetwork, now: &mut u64, req_core: usize| {
            // Kill while idle; a raw register request drives detection.
            net.schedule_line_kill(*now + 10);
            for _ in 0..20 {
                net.tick(*now);
                ctl.tick(*now);
                *now += 1;
            }
            regs.set_req(req_core);
            while !health.is_dead() {
                net.tick(*now);
                ctl.tick(*now);
                *now += 1;
                assert!(*now < 2_000_000, "death verdict never reached");
            }
            assert_eq!(ctl.mode(), FailbackMode::SoftwareWait);
            net.schedule_repair(*now + 5);
            let deadline = *now + 1_000_000;
            while !(ctl.mode() == FailbackMode::Hardware && health.is_trusted()) {
                net.tick(*now);
                ctl.tick(*now);
                *now += 1;
                assert!(
                    *now < deadline,
                    "fail-back never completed ({:?})",
                    ctl.mode()
                );
            }
        };

        episode(&mut net, &mut now, 0);
        assert_eq!(ctl.failbacks(), 1);
        assert_eq!(health.repairs(), 1);
        // The re-armed hardware path grants again.
        let mut s = b.acquire(ThreadId(2));
        let mut steps = 0;
        loop {
            match s.resume(0) {
                Step::Done => break,
                _ => {
                    net.tick(now);
                    ctl.tick(now);
                    now += 1;
                }
            }
            steps += 1;
            assert!(steps < 1_000, "post-failback hardware acquire stalled");
        }
        let mut r = b.release(ThreadId(2));
        while !matches!(r.resume(0), Step::Done) {}
        for _ in 0..50 {
            net.tick(now);
            ctl.tick(now);
            now += 1;
        }

        // Flap: the same network dies and heals a second time.
        episode(&mut net, &mut now, 1);
        assert_eq!(ctl.failbacks(), 2);
        assert_eq!(health.repairs(), 2);
        assert_eq!(
            ctl.failovers(),
            0,
            "no acquire was in flight at either death"
        );
    }

    /// A probe that overruns [`PROBE_TIMEOUT`] resets the hysteresis score
    /// — consecutive clean probes are required, not cumulative ones — and
    /// the machine still fails back once the hardware answers again.
    #[test]
    fn slow_probe_resets_the_hysteresis_score() {
        let (mut net, ctl) = controlled_net();
        let health = net.health();
        let regs = net.regs();

        net.schedule_line_kill(10);
        let mut now = 0;
        for _ in 0..20 {
            net.tick(now);
            ctl.tick(now);
            now += 1;
        }
        regs.set_req(0);
        while !health.is_dead() {
            net.tick(now);
            ctl.tick(now);
            now += 1;
            assert!(now < 1_000_000);
        }
        net.schedule_repair(now + 1);
        while ctl.score() < 2 {
            net.tick(now);
            ctl.tick(now);
            now += 1;
            assert!(now < 1_000_000, "probing never accumulated a score");
        }
        assert_eq!(ctl.mode(), FailbackMode::Probing);

        // Stall the hardware (tick only the controller): the next probe's
        // round-trip overruns the timeout and the score collapses.
        for _ in 0..(PROBE_GAP + PROBE_TIMEOUT + 16) {
            ctl.tick(now);
            now += 1;
        }
        assert_eq!(ctl.score(), 0, "a slow probe must reset the score");
        assert_eq!(ctl.mode(), FailbackMode::Probing);

        // Hardware answers again: the stalled probe completes (uncounted)
        // and a fresh consecutive run earns the fail-back.
        let deadline = now + 1_000_000;
        while !health.is_trusted() {
            net.tick(now);
            ctl.tick(now);
            now += 1;
            assert!(now < deadline, "fail-back never completed");
        }
        assert_eq!(ctl.failbacks(), 1);
    }
}
