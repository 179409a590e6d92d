//! The four workloads, and one rep of each: build the inputs, construct
//! the simulation, run the `step_fast` loop, finish, and check every
//! output. The call chain is the simulator's public API only:
//! `BenchConfig::build` / `mix_workloads` → `Simulation::new` →
//! `step_fast` → `finish` → the workload's verifier.

use crate::refk::Meter;
use crate::span::Tracer;
use crate::util::{rank_quantile, tail_q};
use glocks_arrivals::tenant::{mix_init, mix_workloads};
use glocks_arrivals::{ArrivalProcess, TenantSpec};
use glocks_cpu::{Action, Workload};
use glocks_locks::LockAlgorithm;
use glocks_mem::MemorySystem;
use glocks_sim::{
    CheckerConfig, LockMapping, SimError, SimReport, Simulation, SimulationOptions, Snapshot,
};
use glocks_sim_base::fault::FaultPlan;
use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};
use glocks_sim_base::{Addr, CmpConfig, Cycle, Fingerprint, LockId};
use glocks_stats::StatsDump;
use glocks_workloads::{BenchConfig, BenchKind, Verifier};
use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::time::Instant;

/// Arrival seed of the published service sweep: input set `j` of a run
/// with `--seed s` uses this plus `INPUT_SETS * s + j`.
pub const ARRIVAL_SEED: u64 = 0x5E0C;
/// Fault-plan seed of the published chaos sweep, offset the same way.
pub const FAULT_SEED: u64 = 0xC4A0;
/// Input sets (arrival schedules, fault plans) one run covers, so that a
/// run's simulated figures are a mean over several seeded inputs.
pub const INPUT_SETS: usize = 3;
/// Table II machine size.
pub const CORES: usize = 32;
/// Open-loop load: per-core mean inter-arrival gap, far below GLock's knee.
const SERVICE_GAP: u64 = 65_536;
const SERVICE_REQUESTS: u64 = 300;
const SERVICE_DATA: Addr = Addr(0x0200_0000);
/// The chaos sweep's intermittent row: every G-line network dies at a
/// seeded cycle in this window and is repaired this long after.
const KILL_WINDOW: (u64, u64) = (1_000, 5_000);
const REPAIR_DELAY: u64 = 40_000;
/// In-memory checkpoint cadence of chaos-glock-32, in cycles.
const CHECKPOINT_EVERY: u64 = 32_768;
/// Simulated cycles aggregated into one traced `step_fast` span.
const STEP_WINDOW: u64 = 65_536;
/// `step_fast` calls between two polls of the host-time meter.
const POLL_EVERY: u64 = 4_096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    SctrMcs,
    SctrGlock,
    Service,
    Chaos,
}

impl Bench {
    pub const ALL: [Bench; 4] = [
        Bench::SctrMcs,
        Bench::SctrGlock,
        Bench::Service,
        Bench::Chaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Bench::SctrMcs => "sctr-mcs-32",
            Bench::SctrGlock => "sctr-glock-32",
            Bench::Service => "service-glock-32",
            Bench::Chaos => "chaos-glock-32",
        }
    }

    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }

    fn algo(self) -> LockAlgorithm {
        match self {
            Bench::SctrMcs => LockAlgorithm::Mcs,
            _ => LockAlgorithm::Glock,
        }
    }

    fn closed_loop(self) -> bool {
        self != Bench::Service
    }

    /// Operations one rep attempts: SCTR's iterations, or the requests the
    /// service streams generate.
    fn nominal_ops(self) -> u64 {
        if self.closed_loop() {
            BenchConfig::paper(BenchKind::Sctr, CORES).scale
        } else {
            CORES as u64 * SERVICE_REQUESTS
        }
    }
}

/// One workload with the inputs a seed selects.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub bench: Bench,
    pub arrival_seed: u64,
    pub fault_seed: u64,
    /// Stats registry on: always for service and chaos (their checks read
    /// it); for SCTR only in the run that harvests layer counters.
    pub stats: bool,
}

/// What a rep needs after construction to check its outputs.
struct Built {
    verify: Option<Verifier>,
    /// Closed-loop request latencies, filled by [`Timed`].
    latencies: Rc<RefCell<Vec<u64>>>,
}

/// A completed, verified rep.
pub struct SimOut {
    pub report: SimReport,
    pub req_p50: u64,
    pub req_p99: u64,
    pub requests: u64,
    pub dump_bytes: usize,
    pub dump_hash: u64,
    /// Size of the mid-run checkpoint image resumed from (chaos only).
    pub snap_bytes: usize,
}

impl SimOut {
    pub fn dump(&self) -> Option<&StatsDump> {
        self.report.stats.as_ref()
    }

    /// Every simulated figure the rep produced; equal across reps of one
    /// spec, or the simulator is not deterministic.
    pub fn signature(&self) -> String {
        let r = &self.report;
        format!(
            "cycles={} bytes={} ed2p={:e} wait={:?} acquires={:?} p50={} p99={} dump={:x}",
            r.cycles,
            r.traffic.total_bytes(),
            r.ed2p,
            r.mean_wait,
            r.acquires,
            self.req_p50,
            self.req_p99,
            self.dump_hash
        )
    }
}

pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// `wall_s` in reference-kernel units (0 when the meter was off).
    pub wall_ref: f64,
    pub ops: u64,
    pub failed: u64,
    pub out: Result<SimOut, String>,
}

impl Spec {
    /// Input set `set` (below [`INPUT_SETS`]) of the run seeded `seed`.
    pub fn new(bench: Bench, seed: u64, set: usize) -> Self {
        let offset = seed
            .wrapping_mul(INPUT_SETS as u64)
            .wrapping_add(set as u64);
        Spec {
            bench,
            arrival_seed: ARRIVAL_SEED.wrapping_add(offset),
            fault_seed: FAULT_SEED.wrapping_add(offset),
            stats: bench == Bench::Service || bench == Bench::Chaos,
        }
    }

    fn tenant() -> TenantSpec {
        TenantSpec {
            process: ArrivalProcess::Poisson {
                mean_gap: SERVICE_GAP,
            },
            lock: LockId(0),
            data: SERVICE_DATA,
            requests_per_core: SERVICE_REQUESTS,
            cs_instructions: 16,
            queue_cap: 64,
        }
    }

    fn options(&self) -> SimulationOptions {
        if self.bench != Bench::Chaos {
            return SimulationOptions::default();
        }
        let mut plan = FaultPlan::seeded(self.fault_seed);
        plan.blink_all_glock_networks(1, KILL_WINDOW.0, KILL_WINDOW.1, REPAIR_DELAY);
        SimulationOptions {
            fault_plan: Some(plan),
            checker: Some(CheckerConfig::default()),
            ..Default::default()
        }
    }

    /// Build the inputs and construct the machine (the set-up `setup_s`
    /// times). With `snapshot`, resume from it instead of starting at
    /// cycle 0.
    fn construct(
        &self,
        tr: &mut Tracer,
        snapshot: Option<&Snapshot>,
    ) -> Result<(Simulation, Built), String> {
        if self.stats {
            // Before any constructor: components register their stats
            // there.
            tr.enter("stats.enable");
            glocks_stats::enable(glocks_stats::StatsConfig::default());
            tr.exit();
        } else {
            glocks_stats::disable();
        }
        tr.enter("workloads.build");
        let latencies = Rc::new(RefCell::new(Vec::new()));
        let (workloads, init, verify) = if self.bench.closed_loop() {
            let inst = BenchConfig::paper(BenchKind::Sctr, CORES).build();
            let timed = inst
                .workloads
                .into_iter()
                .map(|w| Box::new(Timed::new(w, Rc::clone(&latencies))) as Box<dyn Workload>)
                .collect();
            (timed, inst.init, Some(inst.verify))
        } else {
            let tenants = [Self::tenant()];
            (
                mix_workloads(self.arrival_seed, &tenants, CORES),
                mix_init(&tenants),
                None,
            )
        };
        let cfg = CmpConfig::paper_baseline().with_cores(CORES);
        let mapping = LockMapping::uniform(self.bench.algo(), 1);
        let options = self.options();
        tr.exit();
        let built = Built { verify, latencies };
        match snapshot {
            None => {
                tr.enter("sim.new");
                let sim = Simulation::new(&cfg, &mapping, workloads, &init, options);
                tr.exit();
                Ok((sim, built))
            }
            Some(snap) => {
                tr.enter("snap.resume");
                let sim = Simulation::resume(&cfg, &mapping, workloads, &init, options, snap);
                tr.exit();
                sim.map(|s| (s, built))
                    .map_err(|e| format!("resume failed: {e}"))
            }
        }
    }

    /// Set up only, for more `setup_s` samples; returns seconds.
    pub fn setup_only(&self) -> f64 {
        let t = Instant::now();
        let built = self.construct(&mut Tracer::new(false), None);
        let s = t.elapsed().as_secs_f64();
        drop(built);
        glocks_stats::disable();
        s
    }

    /// One full rep: set-up, then the run to a verified finish, timed by
    /// `meter`.
    pub fn run_rep(&self, tr: &mut Tracer, meter: &mut Meter) -> Rep {
        tr.next_run();
        let depth = tr.depth();
        tr.enter("rep");
        let t0 = Instant::now();
        // A panic inside the simulator fails this rep, not the whole run.
        let attempt =
            std::panic::catch_unwind(AssertUnwindSafe(|| match self.construct(tr, None) {
                Err(e) => (Err(e), t0.elapsed().as_secs_f64(), (0.0, 0.0)),
                Ok((sim, built)) => {
                    let setup_s = t0.elapsed().as_secs_f64();
                    meter.begin();
                    let out = self.complete(sim, built, tr, meter);
                    (out, setup_s, meter.end())
                }
            }));
        let (out, setup_s, (wall_s, wall_ref)) =
            attempt.unwrap_or_else(|_| (Err("the simulator panicked".into()), 0.0, (0.0, 0.0)));
        tr.unwind(depth);
        glocks_stats::disable();
        let nominal = self.bench.nominal_ops();
        let (ops, failed) = match &out {
            Ok(o) if self.bench == Bench::Service => {
                let c = |k: &str| {
                    o.dump()
                        .and_then(|d| d.counters.get(k).copied())
                        .unwrap_or(0)
                };
                (c("service.arrivals").max(1), c("service.dropped"))
            }
            Ok(_) => (nominal, 0),
            Err(_) => (nominal, nominal),
        };
        Rep {
            setup_s,
            wall_s,
            wall_ref,
            ops,
            failed,
            out,
        }
    }

    /// From the first `step_fast` to a verified finish (plus the stats
    /// dump, and for chaos the resume check).
    fn complete(
        &self,
        mut sim: Simulation,
        built: Built,
        tr: &mut Tracer,
        meter: &mut Meter,
    ) -> Result<SimOut, String> {
        let chaos = self.bench == Bench::Chaos;
        let mut snaps = Vec::new();
        let cadence = if chaos { CHECKPOINT_EVERY } else { 0 };
        drive(&mut sim, cadence, chaos.then_some(&mut snaps), tr, meter)?;
        let (report, mem) = finish(sim, tr)?;
        tr.enter("workloads.verify");
        let checked = self.verify(&built, &report, &mem);
        tr.exit();
        checked?;
        let json = report.stats.as_ref().map(|d| to_json(d, tr));
        let (req_p50, req_p99, requests) = self.request_latency(&built, &report)?;
        let snap_bytes = if chaos {
            let mid = snaps
                .get(snaps.len() / 2)
                .ok_or("no checkpoint was taken")?;
            let original = json.as_deref().ok_or("chaos runs need the stats dump")?;
            self.resume_check(mid, original, tr, meter)?;
            mid.as_bytes().len()
        } else {
            0
        };
        Ok(SimOut {
            req_p50,
            req_p99,
            requests,
            dump_bytes: json.as_ref().map_or(0, String::len),
            dump_hash: json.as_ref().map_or(0, |j| {
                let mut fp = Fingerprint::new();
                fp.mix_str(j);
                fp.value()
            }),
            snap_bytes,
            report,
        })
    }

    fn verify(&self, built: &Built, report: &SimReport, mem: &MemorySystem) -> Result<(), String> {
        if let Some(verify) = &built.verify {
            verify(mem.store()).map_err(|e| format!("SCTR counter wrong: {e}"))?;
            let want = self.bench.nominal_ops();
            if report.acquires.first() != Some(&want) {
                return Err(format!(
                    "acquires {:?}, fault-free count {want}",
                    report.acquires
                ));
            }
        }
        let counter = |k: &str| {
            report
                .stats
                .as_ref()
                .and_then(|d| d.counters.get(k).copied())
        };
        match self.bench {
            Bench::Service => {
                let word = mem.store().load(SERVICE_DATA);
                if counter("service.completed") != Some(word) {
                    return Err(format!(
                        "service word {word} != service.completed {:?}",
                        counter("service.completed")
                    ));
                }
            }
            Bench::Chaos => {
                for key in ["sim.repairs", "sim.failbacks", "checker.checks_run"] {
                    if counter(key).unwrap_or(0) < 1 {
                        return Err(format!("{key} = {:?}, want >= 1", counter(key)));
                    }
                }
            }
            Bench::SctrMcs | Bench::SctrGlock => {}
        }
        Ok(())
    }

    /// Request latency from due cycle to completion: per critical section
    /// for the closed loops (exact, from [`Timed`]), per request for the
    /// service (its own latency histogram, interpolated).
    fn request_latency(
        &self,
        built: &Built,
        report: &SimReport,
    ) -> Result<(u64, u64, u64), String> {
        if self.bench.closed_loop() {
            let mut v = built.latencies.borrow().clone();
            if v.is_empty() {
                return Err("no request completed".into());
            }
            v.sort_unstable();
            let n = v.len() as u64;
            return Ok((rank_quantile(&v, 0.5), rank_quantile(&v, tail_q(n)), n));
        }
        let h = report
            .stats
            .as_ref()
            .and_then(|d| d.hists.get("service.total_latency_cycles"))
            .ok_or("service latency histogram missing")?;
        Ok((h.quantile(0.5), h.quantile(tail_q(h.count)), h.count))
    }

    /// Resume from a mid-run checkpoint, run to the end, and require a
    /// byte-identical stats dump.
    fn resume_check(
        &self,
        snap: &Snapshot,
        original: &str,
        tr: &mut Tracer,
        meter: &mut Meter,
    ) -> Result<(), String> {
        let (mut sim, built) = self.construct(tr, Some(snap))?;
        drive(&mut sim, 0, None, tr, meter)?;
        let (report, mem) = finish(sim, tr)?;
        self.verify(&built, &report, &mem)?;
        let dump = report.stats.as_ref().ok_or("resumed run lost its stats")?;
        if to_json(dump, tr) != original {
            return Err(format!(
                "resume from cycle {} changed the stats dump",
                snap.cycle()
            ));
        }
        Ok(())
    }
}

fn describe(e: &SimError) -> String {
    format!("simulation failed: {}", e.kind())
}

/// The `step_fast` loop. With `snaps`, take an in-memory checkpoint at
/// every multiple of `cadence`. When tracing, one span covers each window
/// of [`STEP_WINDOW`] simulated cycles and counts its calls.
fn drive(
    sim: &mut Simulation,
    cadence: u64,
    mut snaps: Option<&mut Vec<Snapshot>>,
    tr: &mut Tracer,
    meter: &mut Meter,
) -> Result<(), String> {
    let mut polled = 0u64;
    let mut calls = 0u64;
    let mut from = sim.now();
    let mut window_end = from - from % STEP_WINDOW + STEP_WINDOW;
    tr.enter("sim.step_fast");
    loop {
        let done = sim.step_fast(cadence).map_err(|e| describe(&e))?;
        calls += 1;
        if done {
            break;
        }
        polled += 1;
        if polled.is_multiple_of(POLL_EVERY) {
            meter.poll();
        }
        let now = sim.now();
        if let Some(snaps) = snaps.as_deref_mut() {
            if now.is_multiple_of(cadence) {
                tr.exit_counted(calls, now - from);
                tr.enter("snap.checkpoint");
                let snap = sim
                    .checkpoint()
                    .map_err(|e| format!("checkpoint failed: {e}"))?;
                tr.exit();
                snaps.push(snap);
                (calls, from) = (0, now);
                tr.enter("sim.step_fast");
            }
        }
        if tr.is_on() && now >= window_end {
            tr.exit_counted(calls, now - from);
            (calls, from) = (0, now);
            window_end = now - now % STEP_WINDOW + STEP_WINDOW;
            tr.enter("sim.step_fast");
        }
    }
    tr.exit_counted(calls, sim.now() - from);
    Ok(())
}

fn finish(sim: Simulation, tr: &mut Tracer) -> Result<(SimReport, MemorySystem), String> {
    tr.enter("sim.finish");
    let fin = sim.finish();
    tr.exit();
    fin.map_err(|e| describe(&e))
}

fn to_json(dump: &StatsDump, tr: &mut Tracer) -> String {
    tr.enter("stats.to_json");
    let json = dump.to_json();
    tr.exit();
    json
}

/// A closed-loop thread program with its critical sections timed. Around
/// each acquire and after each release it reads the clock with
/// `WaitUntil(0)`, which costs no simulated cycle, so the machine's
/// trajectory is unchanged while each request's latency (acquire issued →
/// release done) is recorded without the stats registry.
struct Timed {
    inner: Box<dyn Workload>,
    phase: Phase,
    due: Cycle,
    sink: Rc<RefCell<Vec<u64>>>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Forwarding the inner program outside a critical section.
    Outside,
    /// Reading the clock before issuing this acquire.
    Due(LockId),
    /// Inside the critical section.
    Inside,
    /// The release was issued; read the clock once it is done.
    Released,
    /// Reading the completion clock.
    Done,
}

impl Timed {
    fn new(inner: Box<dyn Workload>, sink: Rc<RefCell<Vec<u64>>>) -> Self {
        Timed {
            inner,
            phase: Phase::Outside,
            due: 0,
            sink,
        }
    }

    fn forward(&mut self, last: u64) -> Action {
        match self.inner.next(last) {
            Action::Acquire(l) => {
                self.phase = Phase::Due(l);
                Action::WaitUntil(0)
            }
            Action::Release(l) => {
                self.phase = Phase::Released;
                Action::Release(l)
            }
            a => a,
        }
    }
}

impl Workload for Timed {
    fn next(&mut self, last: u64) -> Action {
        match self.phase {
            Phase::Outside | Phase::Inside => self.forward(last),
            Phase::Due(l) => {
                self.due = last;
                self.phase = Phase::Inside;
                Action::Acquire(l)
            }
            Phase::Released => {
                self.phase = Phase::Done;
                Action::WaitUntil(0)
            }
            Phase::Done => {
                self.sink.borrow_mut().push(last - self.due);
                self.phase = Phase::Outside;
                // The inner program's release completed with value 0.
                self.forward(0)
            }
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.inner.save_state(w)?;
        let (tag, lock) = match self.phase {
            Phase::Outside => (0, 0),
            Phase::Due(l) => (1, l.0),
            Phase::Inside => (2, 0),
            Phase::Released => (3, 0),
            Phase::Done => (4, 0),
        };
        w.u8(tag);
        w.u16(lock);
        w.u64(self.due);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)?;
        let (tag, lock) = (r.u8()?, r.u16()?);
        self.phase = match tag {
            0 => Phase::Outside,
            1 => Phase::Due(LockId(lock)),
            2 => Phase::Inside,
            3 => Phase::Released,
            4 => Phase::Done,
            t => {
                return Err(SnapError::BadTag {
                    what: "timed phase",
                    tag: u64::from(t),
                })
            }
        };
        self.due = r.u64()?;
        Ok(())
    }

    fn publish_stats(&self) {
        self.inner.publish_stats();
    }
}
