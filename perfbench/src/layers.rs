//! Per-layer metrics, each tagged with the end-to-end metric it should
//! move and the workloads where it should (and should not) move it.
//! Values come from three sources: the simulator's own stats dump, the
//! layer probes, and the traced run's spans.

use crate::probe::Probes;
use crate::run::SimOut;
use crate::span::SelfTime;
use crate::util::{median, tail_q};
use glocks_stats::StatsDump;
use std::collections::BTreeMap;

pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub layer: &'static str,
    /// End-to-end metric(s) this should move.
    pub moves: &'static str,
    /// Where it should move them, and where it should stay flat.
    pub on: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Row {
    Row {
        name,
        unit,
        layer,
        moves,
        on,
    }
}

const SCTR: &str = "sctr-*";
const ALL: &str = "all";
const CHAOS_ONLY: &str = "chaos-glock-32 only";
const GLOCK: &str = "sctr-glock-32; absent on sctr-mcs-32";
const MEM: &str = "sctr-mcs-32; small on sctr-glock-32";
const NOC: &str = "sctr-mcs-32; flat on sctr-glock-32";
const FAILOVER: &str = "chaos-glock-32; absent elsewhere";
const STATS: &str = "service-glock-32, chaos-glock-32; zero on sctr-* (stats off)";

#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    row("workloads.build_s", "s", "workloads", "setup_s", ALL),
    row("sim.new_s", "s", "sim", "setup_s", ALL),
    row("sim.step_s", "s", "sim", "wall_ref, sim_cycles_per_ref", ALL),
    row("sim.step_calls", "count", "sim", "wall_ref", ALL),
    row("sim.ns_per_call", "ns", "sim", "wall_ref, sim_cycles_per_ref", "sctr-* (dense every cycle)"),
    row("sim.cycles_per_call", "cycles", "sim", "sim_cycles_per_ref", "service-glock-32; flat on sctr-* (1.00)"),
    row("sim.finish_s", "s", "sim", "wall_ref", ALL),
    row("workloads.verify_s", "s", "workloads", "wall_ref", ALL),
    row("cpu.instructions", "count", "cpu", "sim_cycles", ALL),
    row("cpu.busy_cycles", "cycles", "cpu", "sim_cycles", ALL),
    row("cpu.memory_cycles", "cycles", "cpu", "sim_cycles", ALL),
    row("cpu.lock_cycles", "cycles", "cpu", "sim_cycles", ALL),
    row("cpu.barrier_cycles", "cycles", "cpu", "sim_cycles", ALL),
    row("cpu.idle_cycles", "cycles", "cpu", "sim_cycles", ALL),
    row("lock.acquires", "count", "locks", "acq_wait_mean_cyc, sim_cycles", SCTR),
    row("lock.wait_p50_cyc", "cycles", "locks", "acq_wait_mean_cyc, sim_cycles", SCTR),
    row("lock.wait_p99_cyc", "cycles", "locks", "acq_wait_mean_cyc, sim_cycles", SCTR),
    row("lock.handoff_p50_cyc", "cycles", "locks", "acq_wait_mean_cyc, sim_cycles", SCTR),
    row("lock.hold_p50_cyc", "cycles", "locks", "acq_wait_mean_cyc, sim_cycles", SCTR),
    row("sim.failovers", "count", "locks::failover", "sim_cycles, wall_ref", FAILOVER),
    row("sim.repairs", "count", "locks::failover", "sim_cycles, wall_ref", FAILOVER),
    row("sim.failbacks", "count", "locks::failover", "sim_cycles, wall_ref", FAILOVER),
    row("glock.signals", "count", "glocks", "acq_wait_mean_cyc, sim_cycles", GLOCK),
    row("glock.grants", "count", "glocks", "acq_wait_mean_cyc, sim_cycles", GLOCK),
    row("glock.retransmits", "count", "glocks", "acq_wait_mean_cyc, sim_cycles", GLOCK),
    row("glock.grant_gap_p50_cyc", "cycles", "glocks", "acq_wait_mean_cyc, sim_cycles", GLOCK),
    row("glocks.probe_ns_per_grant", "ns", "glocks", "wall_ref", "probe (G-line network alone)"),
    row("mem.l1_access", "count", "mem", "sim_cycles, noc_bytes, ed2p", MEM),
    row("mem.l1_miss", "count", "mem", "sim_cycles, noc_bytes, ed2p", MEM),
    row("mem.l1_hit_ratio", "ratio", "mem", "sim_cycles, noc_bytes, ed2p", MEM),
    row("mem.dir_txn", "count", "mem", "sim_cycles, noc_bytes, ed2p", MEM),
    row("mem.dir_inv_sent", "count", "mem", "sim_cycles, noc_bytes, ed2p", MEM),
    row("mem.dir_c2c", "count", "mem", "sim_cycles, noc_bytes, ed2p", MEM),
    row("mem.l2_miss", "count", "mem", "sim_cycles, noc_bytes, ed2p", MEM),
    row("mem.l1_miss_lat_p50_cyc", "cycles", "mem", "sim_cycles", MEM),
    row("mem.l1_miss_lat_p99_cyc", "cycles", "mem", "sim_cycles", MEM),
    row("mem.probe_ns_per_op", "ns", "mem", "wall_ref", "probe (one-line RMW storm)"),
    row("noc.messages", "count", "noc", "noc_bytes, ed2p", NOC),
    row("noc.hops", "count", "noc", "noc_bytes, ed2p", NOC),
    row("noc.request_bytes", "bytes", "noc", "noc_bytes, ed2p", NOC),
    row("noc.reply_bytes", "bytes", "noc", "noc_bytes, ed2p", NOC),
    row("noc.coherence_bytes", "bytes", "noc", "noc_bytes, ed2p", NOC),
    row("noc.lat_p50_cyc", "cycles", "noc", "sim_cycles", NOC),
    row("noc.lat_p99_cyc", "cycles", "noc", "sim_cycles", NOC),
    row("noc.probe_ns_per_hop", "ns", "noc", "wall_ref", "probe (uniform packets)"),
    row("energy.total", "pJ", "energy", "ed2p", ALL),
    row("service.queue_wait_p50_cyc", "cycles", "arrivals", "req_p50_cyc", "service-glock-32"),
    row("service.queue_wait_p99_cyc", "cycles", "arrivals", "req_p99_cyc", "service-glock-32"),
    row("service.acquire_wait_p99_cyc", "cycles", "arrivals", "req_p99_cyc", "service-glock-32"),
    row("service.completed", "count", "arrivals", "failed_frac", "service-glock-32"),
    row("service.dropped", "count", "arrivals", "failed_frac", "service-glock-32"),
    row("stats.dump_s", "s", "stats", "wall_ref", STATS),
    row("stats.dump_bytes", "bytes", "stats", "wall_ref", STATS),
    row("snap.checkpoint_ms", "ms", "sim-base snap", "wall_ref", CHAOS_ONLY),
    row("snap.bytes", "bytes", "sim-base snap", "wall_ref", CHAOS_ONLY),
    row("snap.resume_s", "s", "sim-base snap", "wall_ref", CHAOS_ONLY),
    row("checker.checks_run", "count", "sim checker", "wall_ref", CHAOS_ONLY),
    row("host.wall_s", "s", "host", "wall_ref (numerator)", "untraced reps, host seconds"),
    row("host.ref_s", "s", "host", "wall_ref (divisor)", "reference kernel: moves with the host, never the program"),
    row("trace.overhead_s", "s", "perfbench", "-", "traced minus untraced host.wall_s"),
];

pub struct Sources<'a> {
    /// Self times per span name, one map per traced rep.
    pub traced: &'a [BTreeMap<&'static str, SelfTime>],
    /// A traced rep's outcome.
    pub out: &'a SimOut,
    /// A stats-on dump of the same workload and seed.
    pub dump: &'a StatsDump,
    pub probes: &'a Probes,
    /// Untraced reps' median host seconds, and the reference kernel's.
    pub wall_s: f64,
    pub ref_s: f64,
    pub overhead_s: f64,
}

/// Values in [`ROWS`] order.
pub fn values(src: &Sources) -> Vec<f64> {
    ROWS.iter().map(|r| value(r.name, src)).collect()
}

/// Median over traced reps of `f` applied to one span name's self time.
pub fn per_rep(
    traced: &[BTreeMap<&'static str, SelfTime>],
    span: &str,
    f: impl Fn(&SelfTime) -> f64,
) -> f64 {
    let xs: Vec<f64> = traced.iter().map(|m| m.get(span).map_or(0.0, &f)).collect();
    median(&xs)
}

fn value(name: &str, src: &Sources) -> f64 {
    let d = src.dump;
    let c = |k: &str| d.counters.get(k).copied().unwrap_or(0) as f64;
    let sum = |pre: &str, suf: &str| -> f64 {
        d.counters
            .iter()
            .filter(|(k, _)| k.starts_with(pre) && k.ends_with(suf))
            .map(|(_, &v)| v as f64)
            .fold(0.0, |a, v| a + v)
    };
    let q = |pre: &str, suf: &str, q: Option<f64>| merged_quantile(d, pre, suf, q);
    let self_s = |span: &str| per_rep(src.traced, span, |s| s.self_s);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    match name {
        "workloads.build_s" => self_s("workloads.build"),
        "sim.new_s" => self_s("sim.new"),
        "sim.step_s" => self_s("sim.step_fast"),
        "sim.step_calls" => per_rep(src.traced, "sim.step_fast", |s| s.calls as f64),
        "sim.ns_per_call" => per_rep(src.traced, "sim.step_fast", |s| {
            ratio(s.self_s * 1e9, s.calls as f64)
        }),
        "sim.cycles_per_call" => per_rep(src.traced, "sim.step_fast", |s| {
            ratio(s.cycles as f64, s.calls as f64)
        }),
        "sim.finish_s" => self_s("sim.finish"),
        "workloads.verify_s" => self_s("workloads.verify"),
        "cpu.instructions" => sum("cpu.core", ".instructions"),
        "cpu.busy_cycles" => sum("cpu.core", ".busy_cycles"),
        "cpu.memory_cycles" => sum("cpu.core", ".memory_cycles"),
        "cpu.lock_cycles" => sum("cpu.core", ".lock_cycles"),
        "cpu.barrier_cycles" => sum("cpu.core", ".barrier_cycles"),
        "cpu.idle_cycles" => sum("cpu.core", ".idle_cycles"),
        "lock.acquires" => c("lock.0.acquires"),
        "lock.wait_p50_cyc" => q("lock.0.acquire_wait_cycles", "", Some(0.5)),
        "lock.wait_p99_cyc" => q("lock.0.acquire_wait_cycles", "", None),
        "lock.handoff_p50_cyc" => q("lock.0.handoff_cycles", "", Some(0.5)),
        "lock.hold_p50_cyc" => q("lock.0.hold_cycles", "", Some(0.5)),
        "sim.failovers" => c("sim.failovers"),
        "sim.repairs" => c("sim.repairs"),
        "sim.failbacks" => c("sim.failbacks"),
        "glock.signals" => sum("glock.", ".signals"),
        "glock.grants" => sum("glock.", ".grants"),
        "glock.retransmits" => sum("glock.", ".retransmits"),
        "glock.grant_gap_p50_cyc" => q("glock.0.grant_gap_cycles", "", Some(0.5)),
        "glocks.probe_ns_per_grant" => src.probes.ns_per_grant,
        "mem.l1_access" => c("mem.total.l1_access"),
        "mem.l1_miss" => c("mem.total.l1_miss"),
        "mem.l1_hit_ratio" => ratio(c("mem.total.l1_hit"), c("mem.total.l1_access")),
        "mem.dir_txn" => c("mem.total.dir_txn"),
        "mem.dir_inv_sent" => c("mem.total.dir_inv_sent"),
        "mem.dir_c2c" => c("mem.total.dir_c2c"),
        "mem.l2_miss" => c("mem.total.l2_miss"),
        "mem.l1_miss_lat_p50_cyc" => q("mem.l1.", ".miss_latency", Some(0.5)),
        "mem.l1_miss_lat_p99_cyc" => q("mem.l1.", ".miss_latency", None),
        "mem.probe_ns_per_op" => src.probes.ns_per_op,
        "noc.messages" => sum("noc.", ".messages"),
        "noc.hops" => sum("noc.", ".hops"),
        "noc.request_bytes" => c("noc.request.bytes"),
        "noc.reply_bytes" => c("noc.reply.bytes"),
        "noc.coherence_bytes" => c("noc.coherence.bytes"),
        "noc.lat_p50_cyc" => q("noc.lat.", "", Some(0.5)),
        "noc.lat_p99_cyc" => q("noc.lat.", "", None),
        "noc.probe_ns_per_hop" => src.probes.ns_per_hop,
        "energy.total" => src.out.report.energy.total_pj(),
        "service.queue_wait_p50_cyc" => q("service.queue_wait_cycles", "", Some(0.5)),
        "service.queue_wait_p99_cyc" => q("service.queue_wait_cycles", "", None),
        "service.acquire_wait_p99_cyc" => q("service.acquire_wait_cycles", "", None),
        "service.completed" => c("service.completed"),
        "service.dropped" => c("service.dropped"),
        "stats.dump_s" => self_s("stats.to_json"),
        "stats.dump_bytes" => src.out.dump_bytes as f64,
        "snap.checkpoint_ms" => per_rep(src.traced, "snap.checkpoint", |s| {
            ratio(s.self_s * 1e3, s.count as f64)
        }),
        "snap.bytes" => src.out.snap_bytes as f64,
        "snap.resume_s" => self_s("snap.resume"),
        "checker.checks_run" => c("checker.checks_run"),
        "host.wall_s" => src.wall_s,
        "host.ref_s" => src.ref_s,
        "trace.overhead_s" => src.overhead_s,
        _ => unreachable!("no source for per-layer metric {name}"),
    }
}

/// Quantile `q` (`None`: the p99 tail rule) of the histograms whose names
/// start with `pre` and end with `suf`, merged bucket by bucket and
/// interpolated the way the simulator's own SLO report does.
fn merged_quantile(d: &StatsDump, pre: &str, suf: &str, q: Option<f64>) -> f64 {
    let mut buckets = [0u64; 65];
    let (mut count, mut min, mut max) = (0u64, u64::MAX, 0u64);
    for (_, h) in d
        .hists
        .iter()
        .filter(|(k, _)| k.starts_with(pre) && k.ends_with(suf))
    {
        for &(i, c) in &h.buckets {
            buckets[i as usize] += c;
        }
        if h.count > 0 {
            count += h.count;
            min = min.min(h.min);
            max = max.max(h.max);
        }
    }
    let q = q.unwrap_or_else(|| tail_q(count));
    let dense = buckets.iter().enumerate().map(|(i, &c)| (i, c));
    glocks_stats::interpolated_quantile(dense, count, min, max, q) as f64
}
