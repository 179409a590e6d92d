//! A G-line barrier network — the authors' companion mechanism (reference
//! \[22\]: Abellán, Fernández & Acacio, "A G-line-based Network for Fast
//! and Efficient Barrier Synchronization in Many-Core CMPs", ICPP 2010),
//! which the GLocks paper builds on.
//!
//! The same controller tree as a GLock is used, but with an
//! arrive/release protocol instead of a token: each core signals ARRIVE
//! up its row's G-line; a controller that has collected every child's
//! arrival forwards ARRIVE to its parent; when the root completes, a
//! RELEASE broadcast walks back down (G-lines broadcast across a whole
//! dimension in one cycle). A full barrier episode therefore costs
//! `2 × depth` cycles after the last arrival — single-digit cycles versus
//! hundreds for a memory-based combining tree.
//!
//! On the wires we reuse the GLock signal vocabulary: `REQ` carries
//! ARRIVE and `TOKEN` carries RELEASE.

use crate::signal::{Endpoint, InFlight, Sig, Wires};
use crate::topology::Topology;
use crate::node::Child;
use glocks_sim_base::Cycle;
use std::cell::Cell;
use std::rc::Rc;

/// Per-core barrier interface: the core raises `arrive` and busy-waits on
/// it; the network resets it when the barrier opens.
#[derive(Debug)]
pub struct BarrierRegs {
    arrive: Vec<Cell<bool>>,
}
glocks_sim_base::snap!(shared BarrierRegs { arrive as fixed });

impl BarrierRegs {
    fn new(n_cores: usize) -> Rc<Self> {
        Rc::new(BarrierRegs { arrive: (0..n_cores).map(|_| Cell::new(false)).collect() })
    }

    /// Core side: signal arrival (`mov 1, barrier_arrive`).
    pub fn set_arrive(&self, core: usize) {
        self.arrive[core].set(true);
    }

    /// Core side: busy-wait test — still waiting while true.
    pub fn waiting(&self, core: usize) -> bool {
        self.arrive[core].get()
    }

    fn release(&self, core: usize) {
        self.arrive[core].set(false);
    }

    fn raised(&self, core: usize) -> bool {
        self.arrive[core].get()
    }
}

/// The assembled G-line barrier network.
pub struct GBarrierNetwork {
    latency: u64,
    parents: Vec<Option<(usize, usize)>>,
    children: Vec<Vec<Child>>,
    leaf_parent: Vec<(usize, usize)>,
    /// Arrivals collected this episode, per controller.
    counts: Vec<u32>,
    expected: Vec<u32>,
    /// Controller forwarded its ARRIVE and awaits the release.
    forwarded: Vec<bool>,
    /// Leaf already signalled the current episode.
    leaf_sent: Vec<bool>,
    regs: Rc<BarrierRegs>,
    wires: Wires,
    buf: Vec<InFlight>,
    episodes: u64,
}
glocks_sim_base::snap!(GBarrierNetwork mark "gbarrier" {
    counts as fixed, forwarded as fixed, leaf_sent as fixed, regs, wires, episodes;
    skip latency, parents, children, leaf_parent, expected, buf
});

impl GBarrierNetwork {
    pub fn new(topo: &Topology, gline_latency: u64) -> Self {
        assert!(gline_latency >= 1);
        let expected = topo.arbiters.iter().map(|(_, c)| c.len() as u32).collect::<Vec<_>>();
        GBarrierNetwork {
            latency: gline_latency,
            parents: topo.arbiters.iter().map(|(p, _)| *p).collect(),
            children: topo.arbiters.iter().map(|(_, c)| c.clone()).collect(),
            leaf_parent: topo.leaf_parent.clone(),
            counts: vec![0; topo.n_arbiters()],
            expected,
            forwarded: vec![false; topo.n_arbiters()],
            leaf_sent: vec![false; topo.n_cores],
            regs: BarrierRegs::new(topo.n_cores),
            wires: Wires::new(),
            buf: Vec::new(),
            episodes: 0,
        }
    }

    pub fn regs(&self) -> Rc<BarrierRegs> {
        Rc::clone(&self.regs)
    }

    /// Completed barrier episodes.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// 1-bit signal transmissions so far.
    pub fn signals(&self) -> u64 {
        self.wires.signals_sent()
    }

    fn broadcast_release(&mut self, node: usize, now: Cycle) {
        // A G-line broadcast reaches every child in one line crossing.
        self.counts[node] = 0;
        self.forwarded[node] = false;
        let children = self.children[node].clone();
        for c in children {
            match c {
                Child::Arb(a) => self.wires.send(now, self.latency, Endpoint::Arb(a), Sig::Token, 0, 0),
                Child::Leaf(core) => {
                    self.wires.send(now, self.latency, Endpoint::Leaf(core), Sig::Token, 0, 0)
                }
            }
        }
    }

    /// Advance the barrier network one cycle.
    pub fn tick(&mut self, now: Cycle) {
        // Deliver due signals.
        self.buf.clear();
        self.wires.deliver_due(now, &mut self.buf);
        for i in 0..self.buf.len() {
            let s = self.buf[i];
            match (s.dst, s.sig) {
                (Endpoint::Arb(a), Sig::Req) => {
                    self.counts[a] += 1;
                    debug_assert!(
                        self.counts[a] <= self.expected[a],
                        "controller {a} over-counted arrivals"
                    );
                }
                (Endpoint::Arb(a), Sig::Token) => self.broadcast_release(a, now),
                (Endpoint::Leaf(c), Sig::Token) => {
                    self.regs.release(c.index());
                    self.leaf_sent[c.index()] = false;
                }
                other => unreachable!("unexpected barrier signal {other:?}"),
            }
        }
        // Leaves: signal fresh arrivals.
        for c in 0..self.leaf_sent.len() {
            if !self.leaf_sent[c] && self.regs.raised(c) {
                let (p, ci) = self.leaf_parent[c];
                self.wires.send(now, self.latency, Endpoint::Arb(p), Sig::Req, ci, 0);
                self.leaf_sent[c] = true;
            }
        }
        // Controllers: forward completed sub-barriers / open the barrier.
        for a in 0..self.counts.len() {
            if self.counts[a] == self.expected[a] && !self.forwarded[a] {
                match self.parents[a] {
                    Some((p, ci)) => {
                        self.wires.send(now, self.latency, Endpoint::Arb(p), Sig::Req, ci, 0);
                        self.forwarded[a] = true;
                    }
                    None => {
                        // Root complete: the barrier opens.
                        self.episodes += 1;
                        self.broadcast_release(a, now);
                    }
                }
            }
        }
    }

    /// Nothing in flight and no arrivals pending.
    pub fn is_idle(&self) -> bool {
        self.wires.is_idle()
            && self.counts.iter().all(|&c| c == 0)
            && self.leaf_sent.iter().all(|&s| !s)
    }

    /// The earliest cycle ≥ `now` at which ticking this network could do
    /// anything, or `None` if it is inert until a core raises `arrive`.
    ///
    /// The barrier automaton has no timers, so the only wake sources are
    /// in-flight signals, an unsignalled fresh arrival, and a completed
    /// sub-barrier not yet forwarded — all of which demand a dense tick
    /// right away. A partially-collected barrier waiting on stragglers is
    /// inert: nothing happens until another core arrives.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.wires.is_idle() {
            return Some(now);
        }
        if (0..self.leaf_sent.len()).any(|c| !self.leaf_sent[c] && self.regs.raised(c)) {
            return Some(now);
        }
        if (0..self.counts.len()).any(|a| self.counts[a] == self.expected[a] && !self.forwarded[a])
        {
            return Some(now);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks_sim_base::Mesh2D;

    fn net(n: usize) -> GBarrierNetwork {
        GBarrierNetwork::new(&Topology::flat(Mesh2D::near_square(n)), 1)
    }

    /// All cores arrive at cycle 0; returns the cycle the last core is
    /// released.
    fn episode(net: &mut GBarrierNetwork, n: usize, start: Cycle) -> Cycle {
        let regs = net.regs();
        for c in 0..n {
            regs.set_arrive(c);
        }
        for now in start..start + 1000 {
            net.tick(now);
            if (0..n).all(|c| !regs.waiting(c)) {
                return now;
            }
        }
        panic!("barrier never opened");
    }

    #[test]
    fn nine_core_barrier_costs_two_times_depth() {
        let mut b = net(9);
        let done = episode(&mut b, 9, 0);
        // ARRIVE leaf→row (1), row→root (1), RELEASE root→row (1),
        // row→leaf (1): released at cycle 4.
        assert_eq!(done, 4);
        assert_eq!(b.episodes(), 1);
        for t in 5..20 {
            b.tick(t);
        }
        assert!(b.is_idle());
    }

    #[test]
    fn repeated_episodes_work() {
        let mut b = net(16);
        let mut t = 0;
        for e in 1..=5 {
            t = episode(&mut b, 16, t) + 1;
            assert_eq!(b.episodes(), e);
        }
    }

    #[test]
    fn straggler_holds_the_barrier() {
        let mut b = net(4);
        let regs = b.regs();
        for c in 0..3 {
            regs.set_arrive(c);
        }
        for now in 0..50 {
            b.tick(now);
        }
        assert!(regs.waiting(0), "must wait for the straggler");
        assert_eq!(b.episodes(), 0);
        regs.set_arrive(3);
        for now in 50..60 {
            b.tick(now);
            if (0..4).all(|c| !regs.waiting(c)) {
                assert_eq!(b.episodes(), 1);
                return;
            }
        }
        panic!("barrier stuck after straggler arrived");
    }

    #[test]
    fn hierarchical_barrier_on_64_cores() {
        let topo = Topology::hierarchical(Mesh2D::near_square(64), 7);
        let mut b = GBarrierNetwork::new(&topo, 1);
        let done = episode(&mut b, 64, 0);
        // one extra level: 2 × 3 = 6 cycles
        assert_eq!(done, 2 * topo.depth() as u64);
    }

    #[test]
    fn signal_count_is_linear_in_cores() {
        let mut b = net(9);
        episode(&mut b, 9, 0);
        // 9 leaf ARRIVEs + 3 row ARRIVEs... the root's row also forwards;
        // releases: root broadcasts to 3 rows + rows to 9 leaves.
        assert_eq!(b.signals(), 9 + 3 + 3 + 9);
    }
}
