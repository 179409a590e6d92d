//! G-line signals and their propagation.
//!
//! A G-line carries one bit across one chip dimension in a single cycle
//! (configurable via `gline_latency` for the paper's "longer-latency
//! G-lines" scaling path). The synchronization protocol needs three signal
//! types (Section III-B).
//!
//! Beyond the paper, every `TOKEN`/`REL` carries the delegating arbiter's
//! **epoch** (a per-arbiter monotone delegation counter) so the hardened
//! automata in [`crate::node`] can reject stale and duplicated tokens, and
//! the wires accept an optional [`FaultInjector`] that drops, delays or
//! duplicates transmissions according to a deterministic schedule.

use glocks_sim_base::fault::{FaultDecision, FaultInjector};
use glocks_sim_base::{CoreId, Cycle};

/// The three 1-bit signal types of the GLocks protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sig {
    /// Ask for the lock (controller → manager, manager → parent manager).
    Req,
    /// Grant the lock (manager → controller / child manager).
    Token,
    /// Give the lock back (controller → manager, manager → parent).
    Rel,
}
glocks_sim_base::snap!(enum Sig { 0 => Req, 1 => Token, 2 => Rel });

/// A signal in flight on a G-line.
#[derive(Clone, Copy, Debug)]
pub struct InFlight {
    pub deliver_at: Cycle,
    pub dst: Endpoint,
    pub sig: Sig,
    /// Sender's index within the receiver's child list (for `Req`/`Rel`
    /// to arbiters; ignored for `Token` and leaf deliveries).
    pub child_index: usize,
    /// Delegation epoch: the delegating arbiter's counter value for
    /// `Token`, echoed back on the matching `Rel`; 0 for `Req`.
    pub epoch: u64,
}
glocks_sim_base::snap!(InFlight { deliver_at, dst, sig, child_index, epoch });

/// A signal destination inside one lock's controller tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// An arbiter node (secondary / primary / super-primary manager),
    /// by node index.
    Arb(usize),
    /// A core's local controller.
    Leaf(CoreId),
}
glocks_sim_base::snap!(enum Endpoint { 0 => Arb(node), 1 => Leaf(core) });

/// The set of signals currently on the wires of one lock's network.
#[derive(Debug, Default)]
pub struct Wires {
    in_flight: Vec<InFlight>,
    sent: u64,
    dropped: u64,
    faults: Option<FaultInjector>,
    /// Hard fault: the G-line segments are dead from this cycle on. Every
    /// later transmission is lost and undelivered in-flight signals whose
    /// arrival falls at or past the death cycle never arrive.
    dead_from: Option<Cycle>,
}
glocks_sim_base::snap!(Wires { in_flight, sent, dropped, faults as present, dead_from });

impl Wires {
    pub fn new() -> Self {
        Self::default()
    }

    /// Subject every subsequent transmission to the injector's schedule.
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = Some(faults);
    }

    /// Permanently kill the wires from cycle `at` on (hard fault). Signals
    /// already in flight that would arrive at or after `at` are purged.
    pub fn kill(&mut self, at: Cycle) {
        self.dead_from = Some(at);
        let before = self.in_flight.len();
        self.in_flight.retain(|s| s.deliver_at < at);
        self.dropped += (before - self.in_flight.len()) as u64;
    }

    pub fn is_dead(&self) -> bool {
        self.dead_from.is_some()
    }

    /// Repair: the dead metal is replaced. Leftover in-flight signals (sent
    /// pre-death but never delivered) are scrapped with the old wires; the
    /// cumulative `sent`/`dropped` energy counters survive, as does the
    /// fault injector (its schedule is a pure function of the event index,
    /// so replacement hardware on the same glitchy substrate keeps faulting).
    pub fn revive(&mut self) {
        let before = self.in_flight.len();
        self.in_flight.clear();
        self.dropped += before as u64;
        self.dead_from = None;
    }

    /// Soft-fault totals from the injector, if one is attached.
    pub fn fault_stats(&self) -> Option<glocks_sim_base::fault::FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Put a signal on a G-line at cycle `now`; it is visible to the
    /// receiver's automaton from cycle `now + latency` on — unless the
    /// fault schedule drops, delays or duplicates it.
    pub fn send(
        &mut self,
        now: Cycle,
        latency: u64,
        dst: Endpoint,
        sig: Sig,
        child_index: usize,
        epoch: u64,
    ) {
        self.sent += 1;
        if self.dead_from.is_some_and(|d| now >= d) {
            // Driven onto dead metal: counts as a transmission (the sender
            // spent the energy) but can never arrive.
            self.dropped += 1;
            return;
        }
        let mut deliver_at = now + latency;
        if let Some(f) = self.faults.as_mut() {
            match f.decide() {
                FaultDecision::Deliver => {}
                FaultDecision::Drop => {
                    self.dropped += 1;
                    return;
                }
                FaultDecision::Delay(extra) => deliver_at += extra,
                FaultDecision::Duplicate => {
                    // The glitched copy trails the original by one cycle
                    // and is a real transmission for the energy model.
                    self.sent += 1;
                    self.in_flight.push(InFlight {
                        deliver_at: deliver_at + 1,
                        dst,
                        sig,
                        child_index,
                        epoch,
                    });
                }
            }
        }
        self.in_flight.push(InFlight { deliver_at, dst, sig, child_index, epoch });
    }

    /// Pop all signals due at `now` (in send order).
    pub fn deliver_due(&mut self, now: Cycle, out: &mut Vec<InFlight>) {
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].deliver_at <= now {
                out.push(self.in_flight.remove(i));
            } else {
                i += 1;
            }
        }
    }

    /// Total signal transmissions so far (energy-model input; dropped
    /// signals were still driven onto the wire and count).
    pub fn signals_sent(&self) -> u64 {
        self.sent
    }

    /// Transmissions lost to the fault schedule.
    pub fn signals_dropped(&self) -> u64 {
        self.dropped
    }

    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks_sim_base::fault::{FaultPlan, FaultRates, FaultSite};

    #[test]
    fn delivery_respects_latency_and_order() {
        let mut w = Wires::new();
        w.send(10, 1, Endpoint::Arb(0), Sig::Req, 2, 0);
        w.send(10, 1, Endpoint::Arb(0), Sig::Rel, 3, 7);
        w.send(10, 2, Endpoint::Leaf(CoreId(5)), Sig::Token, 0, 9);
        let mut got = Vec::new();
        w.deliver_due(10, &mut got);
        assert!(got.is_empty());
        w.deliver_due(11, &mut got);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].sig, Sig::Req);
        assert_eq!(got[1].sig, Sig::Rel);
        assert_eq!(got[1].epoch, 7);
        got.clear();
        w.deliver_due(12, &mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].dst, Endpoint::Leaf(CoreId(5)));
        assert_eq!(got[0].epoch, 9);
        assert!(w.is_idle());
        assert_eq!(w.signals_sent(), 3);
        assert_eq!(w.signals_dropped(), 0);
    }

    #[test]
    fn dropped_signals_never_arrive_but_still_count() {
        let mut plan = FaultPlan::seeded(7);
        plan.gline = FaultRates::drops(1_000_000);
        let mut w = Wires::new();
        w.set_faults(plan.injector(FaultSite::Gline, 0));
        for i in 0..20 {
            w.send(i, 1, Endpoint::Arb(0), Sig::Req, 0, 0);
        }
        let mut got = Vec::new();
        w.deliver_due(1_000, &mut got);
        assert!(got.is_empty(), "all transmissions were dropped");
        assert_eq!(w.signals_sent(), 20);
        assert_eq!(w.signals_dropped(), 20);
    }

    #[test]
    fn killed_wires_purge_and_refuse() {
        let mut w = Wires::new();
        w.send(0, 1, Endpoint::Arb(0), Sig::Req, 0, 0); // arrives at 1
        w.send(0, 10, Endpoint::Arb(0), Sig::Rel, 0, 2); // would arrive at 10
        w.kill(5);
        assert!(w.is_dead());
        let mut got = Vec::new();
        w.deliver_due(1, &mut got);
        assert_eq!(got.len(), 1, "pre-death arrival still delivered");
        got.clear();
        w.deliver_due(100, &mut got);
        assert!(got.is_empty(), "post-death arrival was purged");
        w.send(6, 1, Endpoint::Arb(0), Sig::Req, 0, 0);
        w.deliver_due(100, &mut got);
        assert!(got.is_empty(), "sends onto dead wires are lost");
        assert_eq!(w.signals_sent(), 3, "lost sends still drove the wire");
        assert_eq!(w.signals_dropped(), 2);
        assert!(w.is_idle());
    }

    #[test]
    fn duplicated_signals_arrive_twice() {
        let mut plan = FaultPlan::seeded(7);
        plan.gline = FaultRates::duplicates(1_000_000);
        let mut w = Wires::new();
        w.set_faults(plan.injector(FaultSite::Gline, 0));
        w.send(0, 1, Endpoint::Leaf(CoreId(1)), Sig::Token, 0, 3);
        let mut got = Vec::new();
        w.deliver_due(100, &mut got);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|s| s.epoch == 3));
        assert_eq!(w.signals_sent(), 2);
    }
}
