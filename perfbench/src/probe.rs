//! Layer probes: each drives one layer alone through its public functions
//! and is timed from outside, so a change to that layer's host cost shows
//! without the rest of the machine around it.

use crate::run::CORES;
use crate::util::median;
use glocks::{GlockNetwork, Topology};
use glocks_mem::{MemOp, MemorySystem, RmwKind};
use glocks_noc::{MeshNoc, Packet, TrafficClass};
use glocks_sim_base::{Addr, CmpConfig, CoreId, Mesh2D, SplitMix64, TileId};
use std::time::Instant;

/// Rounds per probe; each reports the median round.
const ROUNDS: usize = 5;
const GRANTS: u64 = 20_000;
const RMWS: u64 = 2_000;
const PACKETS: u64 = 20_000;

#[derive(Clone, Debug, Default)]
pub struct Probes {
    pub ns_per_grant: f64,
    pub ns_per_op: f64,
    pub ns_per_hop: f64,
}

pub fn run(seed: u64) -> Result<Probes, String> {
    Ok(Probes {
        ns_per_grant: median_round(|_| glock_handoff())?,
        ns_per_op: median_round(|_| rmw_storm())?,
        ns_per_hop: median_round(|r| uniform_packets(seed.wrapping_add(r)))?,
    })
}

fn median_round(round: impl FnMut(u64) -> Result<f64, String>) -> Result<f64, String> {
    let xs = (0..ROUNDS as u64)
        .map(round)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(median(&xs))
}

fn ns_per(t: Instant, n: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// `glocks::GlockNetwork` saturated: every core requests, and each new
/// holder releases and requests again at once. Nanoseconds per grant.
fn glock_handoff() -> Result<f64, String> {
    let topo = Topology::flat(Mesh2D::near_square(CORES));
    let mut net = GlockNetwork::new(&topo, CmpConfig::paper_baseline().glocks.gline_latency);
    let regs = net.regs();
    for c in 0..CORES {
        regs.set_req(c);
    }
    let mut grants = vec![0u64; CORES];
    let t = Instant::now();
    let mut now = 0;
    while grants.iter().sum::<u64>() < GRANTS {
        net.tick(now);
        // A holder whose release is still pending was counted already.
        if let Some(h) = net
            .holder()
            .map(|h| h.index())
            .filter(|&h| !regs.rel_pending(h))
        {
            grants[h] += 1;
            regs.set_rel(h);
            regs.set_req(h);
        }
        now += 1;
        if now > GRANTS * 100 {
            return Err("glock probe: the network stopped granting".into());
        }
    }
    let ns = ns_per(t, GRANTS);
    // Round-robin handoff: nobody is starved.
    let (lo, hi) = (grants.iter().min(), grants.iter().max());
    match (lo, hi) {
        (Some(&lo), Some(&hi)) if hi - lo <= 1 => Ok(ns),
        _ => Err(format!("glock probe: unfair grants {lo:?}..{hi:?}")),
    }
}

/// `mem::MemorySystem` under a one-line RMW storm: every core keeps one
/// fetch&add on the same word in flight. Nanoseconds per operation.
fn rmw_storm() -> Result<f64, String> {
    let cfg = CmpConfig::paper_baseline().with_cores(CORES);
    let mut sys = MemorySystem::new(&cfg);
    let word = Addr(0x0200_0000);
    let op = MemOp::Rmw(word, RmwKind::FetchAdd(1));
    let mut old_seen = vec![false; RMWS as usize];
    let mut ready = [true; CORES];
    let (mut issued, mut done, mut now) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    while done < RMWS {
        for (c, r) in ready.iter_mut().enumerate() {
            if *r && issued < RMWS {
                sys.submit(CoreId(c as u16), op, now);
                issued += 1;
                *r = false;
            }
        }
        sys.tick(now);
        for (c, r) in ready.iter_mut().enumerate() {
            if let Some(res) = sys.take_result(CoreId(c as u16)) {
                // Atomic increments hand out every old value exactly once.
                match old_seen.get_mut(res.value as usize) {
                    Some(seen) if !*seen => *seen = true,
                    _ => return Err(format!("mem probe: fetch&add returned {}", res.value)),
                }
                done += 1;
                *r = true;
            }
        }
        now += 1;
        if now > RMWS * 10_000 {
            return Err("mem probe: the storm stopped completing".into());
        }
    }
    Ok(ns_per(t, RMWS))
}

/// `noc::MeshNoc` under uniform random traffic: two packets a cycle
/// between seeded random tiles, control and data sizes mixed.
/// Nanoseconds per router hop.
fn uniform_packets(seed: u64) -> Result<f64, String> {
    let mesh = Mesh2D::near_square(CORES);
    let mut noc: MeshNoc<u64> = MeshNoc::new(mesh, CmpConfig::paper_baseline().noc);
    let mut rng = SplitMix64::new(seed);
    let tiles = mesh.len() as u64;
    let mut delivered = vec![false; PACKETS as usize];
    let (mut injected, mut arrived, mut now) = (0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    let t = Instant::now();
    while arrived < PACKETS {
        for _ in 0..2 {
            if injected < PACKETS {
                let src = TileId(rng.next_below(tiles) as u16);
                let dst = TileId(rng.next_below(tiles) as u16);
                let bytes = if rng.next_below(2) == 0 { 8 } else { 72 };
                let class = TrafficClass::Request;
                noc.inject(
                    Packet {
                        src,
                        dst,
                        bytes,
                        class,
                        injected_at: now,
                        payload: injected,
                    },
                    now,
                );
                injected += 1;
            }
        }
        noc.tick(now);
        for tile in 0..tiles {
            buf.clear();
            noc.drain(TileId(tile as u16), now, &mut buf);
            for p in &buf {
                match delivered.get_mut(p.payload as usize) {
                    Some(d) if !*d && p.dst.0 as u64 == tile => *d = true,
                    _ => return Err(format!("noc probe: packet {} misdelivered", p.payload)),
                }
                arrived += 1;
            }
        }
        now += 1;
        if now > PACKETS * 1_000 {
            return Err("noc probe: packets stopped arriving".into());
        }
    }
    Ok(ns_per(t, noc.stats().total_hops()))
}
