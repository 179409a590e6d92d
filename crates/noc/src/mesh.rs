//! The assembled mesh fabric: routers wired by the floor plan, a cycle
//! `tick`, packet injection and per-tile delivery.

use crate::packet::{Packet, TrafficClass};
use crate::router::{Queued, Router, N_PORTS, P_EAST, P_LOCAL, P_NORTH, P_SOUTH, P_WEST};
use crate::traffic::TrafficStats;
use glocks_sim_base::fault::{FaultDecision, FaultInjector};
use glocks_sim_base::{config::NocConfig, ActivitySet, Cycle, Mesh2D, TileId};
use glocks_stats as gstats;
use std::collections::VecDeque;

/// The 2D-mesh data network.
pub struct MeshNoc<T> {
    mesh: Mesh2D,
    cfg: NocConfig,
    routers: Vec<Router<T>>,
    /// Activity set, one bit per router: a clear bit means the router's
    /// five input queues are empty. Every enqueue sets the bit, `tick`
    /// clears it when it finds the router empty, and a new fabric starts
    /// all-set (so a machine rebuilt to resume a checkpoint re-derives it
    /// on its first tick instead of saving it).
    active: ActivitySet,
    /// Packets ejected at each tile, eligible once `ready_at` is reached.
    delivered: Vec<VecDeque<(Cycle, Packet<T>)>>,
    stats: TrafficStats,
    in_flight: usize,
    faults: Option<FaultInjector>,
    dropped: u64,
    /// Permanent router faults: cycle at which each router died, if ever.
    /// A dead router drops everything — its queued packets are purged at
    /// the kill, injections at its tile vanish, and neighbors trying to
    /// forward through it lose the packet (counted in `dropped`).
    dead_at: Vec<Option<Cycle>>,
    /// Router kills not yet applied, as `(cycle, tile index)`.
    scheduled_kills: Vec<(Cycle, usize)>,
    /// Per-class end-to-end latency histograms (`noc.lat.{class}`). All
    /// free `NONE` ids when stats are off.
    lat_hists: [gstats::HistId; TrafficClass::ALL.len()],
    /// Per-router input-queue occupancy gauges
    /// (`noc.router.{x}_{y}.queue_depth`), sampled every stats period.
    queue_series: Vec<gstats::SeriesId>,
}
glocks_sim_base::snap!(MeshNoc<T> mark "noc" {
    routers as fixed, delivered as each, stats, in_flight, faults as present, dropped,
    dead_at as fixed, scheduled_kills;
    skip mesh, cfg, active, lat_hists, queue_series
});

fn class_name(c: TrafficClass) -> &'static str {
    match c {
        TrafficClass::Request => "request",
        TrafficClass::Reply => "reply",
        TrafficClass::Coherence => "coherence",
    }
}

impl<T> MeshNoc<T> {
    pub fn new(mesh: Mesh2D, cfg: NocConfig) -> Self {
        let lat_hists = TrafficClass::ALL
            .map(|c| gstats::hist(&format!("noc.lat.{}", class_name(c))));
        let queue_series = (0..mesh.len())
            .map(|t| {
                let c = mesh.coord(TileId::from(t));
                gstats::series(&format!("noc.router.{}_{}.queue_depth", c.x, c.y))
            })
            .collect();
        MeshNoc {
            mesh,
            cfg,
            routers: (0..mesh.len()).map(|_| Router::new()).collect(),
            active: ActivitySet::full(mesh.len()),
            delivered: (0..mesh.len()).map(|_| VecDeque::new()).collect(),
            stats: TrafficStats::default(),
            in_flight: 0,
            faults: None,
            dropped: 0,
            dead_at: vec![None; mesh.len()],
            scheduled_kills: Vec::new(),
            lat_hists,
            queue_series,
        }
    }

    /// Subject fabric-crossing packets to a deterministic drop/delay
    /// schedule. The coherence protocol has no retransmission layer, so a
    /// dropped packet usually wedges its transaction — the runner's
    /// watchdog turns that into a diagnosable `SimError`. Duplication is
    /// not meaningful for coherence messages and must not be requested.
    pub fn set_faults(&mut self, faults: FaultInjector) {
        assert_eq!(
            faults.rates().duplicate_ppm,
            0,
            "NoC fault plans cannot duplicate packets"
        );
        self.faults = Some(faults);
    }

    /// Packets lost to the fault schedule (transient drops, router deaths).
    pub fn packets_dropped(&self) -> u64 {
        self.dropped
    }

    /// Soft-fault totals from the injector, if one is attached.
    pub fn fault_stats(&self) -> Option<glocks_sim_base::fault::FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Schedule a permanent router fault: from cycle `at` the router at
    /// `tile` drops every packet it would have carried.
    pub fn schedule_router_kill(&mut self, tile: TileId, at: Cycle) {
        self.scheduled_kills.push((at, tile.index()));
    }

    /// Cycle at which the router at `tile` died, if a kill has fired.
    pub fn router_dead_at(&self, tile: TileId) -> Option<Cycle> {
        self.dead_at[tile.index()]
    }

    fn router_is_dead(&self, tile: usize) -> bool {
        self.dead_at[tile].is_some()
    }

    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Number of packets currently inside the fabric (not yet drained).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Serialization time of a packet on one link.
    fn ser_cycles(&self, bytes: u32) -> u64 {
        bytes.div_ceil(self.cfg.link_bytes) as u64
    }

    /// Inject a packet at its source tile at cycle `now`.
    ///
    /// A packet whose destination equals its source bypasses the fabric (a
    /// local L2-slice access does not use the network) and is delivered
    /// after the router-pipeline latency with no byte accounting.
    pub fn inject(&mut self, pkt: Packet<T>, now: Cycle) {
        // Local bypasses never touch the wires, so only fabric-crossing
        // packets are subject to the fault schedule.
        if self.router_is_dead(pkt.src.index()) {
            // The tile's network interface is gone: even local bypasses
            // ride the router pipeline, so everything vanishes.
            self.dropped += 1;
            return;
        }
        let mut extra = 0;
        if pkt.src != pkt.dst {
            if let Some(f) = self.faults.as_mut() {
                match f.decide() {
                    FaultDecision::Deliver => {}
                    FaultDecision::Drop => {
                        self.dropped += 1;
                        return;
                    }
                    FaultDecision::Delay(d) => extra = d,
                    FaultDecision::Duplicate => {
                        unreachable!("duplication is rejected for NoC fault plans")
                    }
                }
            }
        }
        self.in_flight += 1;
        self.stats.on_inject(pkt.class);
        if pkt.src == pkt.dst {
            let at = now + self.cfg.router_latency;
            self.delivered[pkt.dst.index()].push_back((at, pkt));
            return;
        }
        let ready = now + self.cfg.router_latency + extra;
        let r = pkt.src.index();
        self.routers[r].in_q[P_LOCAL].push_back(Queued { pkt, ready_at: ready });
        self.active.insert(r);
    }

    /// Output port at router `at` for a packet heading to `dst`.
    fn out_port(&self, at: TileId, dst: TileId) -> usize {
        match self.mesh.xy_next_hop(at, dst) {
            None => P_LOCAL,
            Some(next) => {
                let a = self.mesh.coord(at);
                let n = self.mesh.coord(next);
                if n.x > a.x {
                    P_EAST
                } else if n.x < a.x {
                    P_WEST
                } else if n.y > a.y {
                    P_SOUTH
                } else {
                    P_NORTH
                }
            }
        }
    }

    /// Input port at the neighboring router reached through `out` —
    /// a packet leaving east arrives on the neighbor's west port.
    fn opposite(out: usize) -> usize {
        match out {
            P_EAST => P_WEST,
            P_WEST => P_EAST,
            P_NORTH => P_SOUTH,
            P_SOUTH => P_NORTH,
            _ => unreachable!("local port has no opposite"),
        }
    }

    /// Advance the whole fabric by one cycle.
    #[allow(clippy::needless_range_loop)]
    pub fn tick(&mut self, now: Cycle) {
        // Apply any router kills that are due: the router dies in place and
        // its queued packets are lost.
        if !self.scheduled_kills.is_empty() {
            let mut i = 0;
            while i < self.scheduled_kills.len() {
                let (at, r) = self.scheduled_kills[i];
                if at <= now {
                    self.scheduled_kills.swap_remove(i);
                    self.dead_at[r].get_or_insert(at);
                    for p in 0..N_PORTS {
                        let purged = self.routers[r].in_q[p].len();
                        self.routers[r].in_q[p].clear();
                        self.dropped += purged as u64;
                        self.in_flight -= purged;
                    }
                } else {
                    i += 1;
                }
            }
        }
        // Congestion gauges (one thread-local flag read when stats are off).
        if gstats::should_sample(now) {
            for (r, &sid) in self.queue_series.iter().enumerate() {
                gstats::push(sid, self.routers[r].occupancy() as f64);
            }
        }
        // Per router in the activity set, in ascending index (the order of
        // a walk over every router, so arbitration and round-robin pointers
        // evolve the same): arbitrate each output port among ready head
        // packets. A forwarded packet is ready one cycle later at the
        // earliest, so a router that joins the set during the walk has
        // nothing to send until the next cycle.
        let mut from = 0;
        while let Some(r) = self.active.next(from) {
            from = r + 1;
            // A dead router was purged at its kill and receives nothing.
            if self.routers[r].occupancy() == 0 || self.router_is_dead(r) {
                self.active.remove(r);
                continue;
            }
            let tile = TileId::from(r);
            // What does each input-queue head want?
            let mut wants: [Option<usize>; N_PORTS] = [None; N_PORTS];
            for p in 0..N_PORTS {
                if let Some(q) = self.routers[r].in_q[p].front() {
                    if q.ready_at <= now {
                        wants[p] = Some(self.out_port(tile, q.pkt.dst));
                    }
                }
            }
            // An arbitration with no contender changes no state.
            if wants == [None; N_PORTS] {
                continue;
            }
            for out in 0..N_PORTS {
                if self.routers[r].out_free_at[out] > now {
                    continue;
                }
                let Some(winner) = self.routers[r].arbitrate(out, &wants) else {
                    continue;
                };
                wants[winner] = None; // an input port sends one packet/cycle
                let q = self.routers[r].in_q[winner].pop_front().expect("head exists");
                let ser = self.ser_cycles(q.pkt.bytes);
                self.routers[r].out_free_at[out] = now + ser;
                if out == P_LOCAL {
                    // Ejection to the tile: available after serialization.
                    self.delivered[r].push_back((now + ser, q.pkt));
                } else {
                    self.stats.on_link_traversal(q.pkt.class, q.pkt.bytes);
                    let next = self
                        .mesh
                        .xy_next_hop(tile, q.pkt.dst)
                        .expect("non-local output implies a next hop");
                    if self.router_is_dead(next.index()) {
                        // Forwarded into a dead router: the packet is lost
                        // on the link (XY routing has no detour).
                        self.dropped += 1;
                        self.in_flight -= 1;
                        continue;
                    }
                    let arrive =
                        now + ser + self.cfg.link_latency + self.cfg.router_latency;
                    self.routers[next.index()].in_q[Self::opposite(out)]
                        .push_back(Queued { pkt: q.pkt, ready_at: arrive });
                    self.active.insert(next.index());
                }
            }
        }
    }

    /// Mark every router active, so the next tick re-derives the set (a
    /// load restores the queues but not the set).
    pub fn wake_routers(&mut self) {
        self.active.fill();
    }

    /// The first router whose bit is clear yet holds a packet, if any:
    /// a breach of the activity set's invariant (debug builds check it
    /// after every memory-system tick).
    pub fn idle_router_with_packets(&self) -> Option<TileId> {
        (0..self.routers.len())
            .find(|&r| !self.active.contains(r) && self.routers[r].occupancy() > 0)
            .map(TileId::from)
    }

    /// Does `tile`'s delivery buffer hold a packet, ready or not?
    pub fn has_deliveries(&self, tile: TileId) -> bool {
        !self.delivered[tile.index()].is_empty()
    }

    /// Pop all packets delivered at `tile` that are ready at `now`.
    pub fn drain(&mut self, tile: TileId, now: Cycle, out: &mut Vec<Packet<T>>) {
        let q = &mut self.delivered[tile.index()];
        let mut i = 0;
        while i < q.len() {
            if q[i].0 <= now {
                let (_, pkt) = q.remove(i).expect("index in range");
                self.in_flight -= 1;
                let lat = now.saturating_sub(pkt.injected_at);
                gstats::hist_record(self.lat_hists[pkt.class.index()], lat);
                out.push(pkt);
            } else {
                i += 1;
            }
        }
    }

    /// Publish end-of-run traffic totals into the stats registry (no-op
    /// when stats are off; latency histograms record live in [`Self::drain`]).
    pub fn publish_stats(&self) {
        if !gstats::is_enabled() {
            return;
        }
        for c in TrafficClass::ALL {
            let n = class_name(c);
            gstats::set(gstats::counter(&format!("noc.{n}.bytes")), self.stats.bytes(c));
            gstats::set(
                gstats::counter(&format!("noc.{n}.messages")),
                self.stats.messages(c),
            );
            gstats::set(gstats::counter(&format!("noc.{n}.hops")), self.stats.hops(c));
        }
        gstats::set(gstats::counter("noc.packets_dropped"), self.dropped);
    }

    /// True when no packet is anywhere in the fabric or delivery buffers.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0
    }

    /// The earliest cycle ≥ `now` at which a scheduled router kill fires,
    /// if any are pending. An otherwise-idle fabric still mutates state on
    /// that cycle (the router dies in place), so the idle-skip scheduler
    /// must land on it densely.
    pub fn next_scheduled_kill(&self, now: Cycle) -> Option<Cycle> {
        self.scheduled_kills.iter().map(|&(at, _)| at.max(now)).min()
    }

    /// Total number of packets sitting in router input queues (congestion
    /// diagnostics; excludes delivery buffers).
    pub fn queued_packets(&self) -> usize {
        self.routers.iter().map(|r| r.occupancy()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TrafficClass;
    use glocks_sim_base::CmpConfig;

    fn noc() -> MeshNoc<u32> {
        let cfg = CmpConfig::paper_baseline();
        MeshNoc::new(Mesh2D::new(4, 4), cfg.noc)
    }

    fn pkt(src: u16, dst: u16, bytes: u32, tag: u32) -> Packet<u32> {
        Packet {
            src: TileId(src),
            dst: TileId(dst),
            bytes,
            class: TrafficClass::Request,
            injected_at: 0,
            payload: tag,
        }
    }

    /// Run the fabric until `tile` delivers `n` packets; returns (cycle, packets).
    fn run_until(noc: &mut MeshNoc<u32>, tile: TileId, n: usize) -> (Cycle, Vec<Packet<u32>>) {
        let mut got = Vec::new();
        for now in 0..100_000 {
            noc.tick(now);
            noc.drain(tile, now, &mut got);
            if got.len() >= n {
                return (now, got);
            }
        }
        panic!("packets never arrived (got {} of {n})", got.len());
    }

    #[test]
    fn delivers_across_the_mesh() {
        let mut n = noc();
        n.inject(pkt(0, 15, 8, 7), 0);
        let (at, got) = run_until(&mut n, TileId(15), 1);
        assert_eq!(got[0].payload, 7);
        // 6 hops: per hop 1 ser + 1 link + 3 router, plus initial pipeline
        // and final ejection serialization — latency is deterministic.
        assert_eq!(at, 3 + 6 * (1 + 1 + 3) + 1);
        assert!(n.is_idle());
    }

    #[test]
    fn local_delivery_bypasses_fabric() {
        let mut n = noc();
        n.inject(pkt(5, 5, 72, 1), 10);
        let mut got = Vec::new();
        n.drain(TileId(5), 10 + 3, &mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(n.stats().total_bytes(), 0, "no link traversal for local");
        assert!(n.is_idle());
    }

    #[test]
    fn bytes_counted_per_hop() {
        let mut n = noc();
        n.inject(pkt(0, 3, 8, 0), 0); // 3 hops east
        run_until(&mut n, TileId(3), 1);
        assert_eq!(n.stats().bytes(TrafficClass::Request), 3 * 8);
        assert_eq!(n.stats().hops(TrafficClass::Request), 3);
        assert_eq!(n.stats().messages(TrafficClass::Request), 1);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        // Two packets from tile 0 to tile 1 inject the same cycle; the
        // second must wait for the first's link slot.
        let mut n = noc();
        n.inject(pkt(0, 1, 75, 1), 0); // exactly one link-cycle
        n.inject(pkt(0, 1, 75, 2), 0);
        let (_, got) = run_until(&mut n, TileId(1), 2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, 1, "FIFO order preserved");
        assert_eq!(got[1].payload, 2);
    }

    #[test]
    fn big_packets_serialize_longer() {
        // 150-byte packet on 75-byte links: 2 cycles per link.
        let mut n = noc();
        n.inject(pkt(0, 1, 150, 1), 0);
        n.inject(pkt(0, 1, 8, 2), 1);
        let (_, got) = run_until(&mut n, TileId(1), 2);
        // first packet leaves first; the small one is behind it in the
        // same FIFO input queue.
        assert_eq!(got[0].payload, 1);
    }

    #[test]
    fn cross_traffic_all_arrives() {
        let mut n = noc();
        // all-to-one hotspot: 15 tiles send to tile 0
        for s in 1..16u16 {
            n.inject(pkt(s, 0, 72, s as u32), 0);
        }
        let (_, got) = run_until(&mut n, TileId(0), 15);
        let mut tags: Vec<u32> = got.iter().map(|p| p.payload).collect();
        tags.sort_unstable();
        assert_eq!(tags, (1..16).collect::<Vec<_>>());
        assert!(n.is_idle());
    }

    #[test]
    fn dropped_packets_vanish_and_are_counted() {
        use glocks_sim_base::{FaultPlan, FaultRates, FaultSite};
        let mut n = noc();
        let mut plan = FaultPlan::seeded(5);
        plan.noc = FaultRates::drops(1_000_000);
        n.set_faults(plan.injector(FaultSite::Noc, 0));
        n.inject(pkt(0, 15, 8, 1), 0);
        assert_eq!(n.in_flight(), 0, "dropped at injection");
        assert_eq!(n.packets_dropped(), 1);
        assert!(n.is_idle());
        // Local bypasses are immune: they never cross a link.
        n.inject(pkt(5, 5, 8, 2), 0);
        assert_eq!(n.in_flight(), 1);
    }

    #[test]
    fn delayed_packets_arrive_late_but_intact() {
        use glocks_sim_base::{FaultPlan, FaultRates, FaultSite};
        let mut fast = noc();
        let mut slow = noc();
        let mut plan = FaultPlan::seeded(6);
        plan.noc = FaultRates::delays(1_000_000, 40);
        slow.set_faults(plan.injector(FaultSite::Noc, 0));
        fast.inject(pkt(0, 15, 8, 7), 0);
        slow.inject(pkt(0, 15, 8, 7), 0);
        let (at_fast, _) = run_until(&mut fast, TileId(15), 1);
        let (at_slow, got) = run_until(&mut slow, TileId(15), 1);
        assert_eq!(got[0].payload, 7);
        assert!(at_slow > at_fast, "delay fault must add latency");
        assert!(at_slow <= at_fast + 40);
    }

    #[test]
    fn dead_router_swallows_traffic() {
        let mut n = noc();
        // Kill tile 1's router (on the XY path 0→3) before any traffic.
        n.schedule_router_kill(TileId(1), 0);
        n.tick(0);
        assert_eq!(n.router_dead_at(TileId(1)), Some(0));
        // Injection at the dead tile vanishes immediately.
        n.inject(pkt(1, 2, 8, 9), 1);
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.packets_dropped(), 1);
        // A packet routed through the dead router is lost on the link and
        // the fabric drains back to idle.
        n.inject(pkt(0, 3, 8, 5), 1);
        for now in 1..10_000 {
            n.tick(now);
        }
        assert!(n.is_idle(), "lost packet must not linger in flight");
        assert_eq!(n.packets_dropped(), 2);
    }

    #[test]
    fn router_kill_purges_queued_packets() {
        let mut n = noc();
        n.inject(pkt(0, 3, 8, 1), 0);
        assert_eq!(n.in_flight(), 1);
        // Kill the source router while the packet still sits in its queue.
        n.schedule_router_kill(TileId(0), 1);
        n.tick(1);
        assert!(n.is_idle(), "queued packet purged with the router");
        assert_eq!(n.packets_dropped(), 1);
    }

    #[test]
    fn in_flight_tracks_population() {
        let mut n = noc();
        assert!(n.is_idle());
        n.inject(pkt(0, 2, 8, 0), 0);
        assert_eq!(n.in_flight(), 1);
        run_until(&mut n, TileId(2), 1);
        assert_eq!(n.in_flight(), 0);
    }
}
