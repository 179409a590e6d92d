//! The cycle loop tying all subsystems together.

use crate::checker::{CheckerConfig, ProtocolChecker};
use crate::error::{CoreDiag, DiagnosticSnapshot, GlockDiag, LockDiag, SimError};
use crate::mapping::LockMapping;
use crate::report::{SimReport, TrafficSnapshot};
use crate::snapshot::Snapshot;
use glocks::{GBarrierNetwork, GlockNetwork, GlockPool, Topology};
use glocks_cpu::{
    snap_methods, Backends, BarrierBackend, Core, LockBackend, LockTracker, Script, Workload,
};
use glocks_sim_base::fault::{FaultPlan, FaultSite, HardFaultTarget};
use glocks_sim_base::snap::{
    fixed, present, Decode, Fingerprint, Snap, SnapError, SnapReader, SnapShared, SnapWriter,
    SNAP_MAGIC, SNAP_VERSION,
};
use glocks_sim_base::ThreadId;
use glocks_energy::{EnergyInputs, EnergyModel};
use glocks_locks::barrier::TreeBarrier;
use glocks_locks::failback::FailbackCtl;
use glocks_locks::glock::GlockBackend;
use glocks_locks::LockAlgorithm;
use glocks_mem::MemorySystem;
use glocks_sim_base::{Addr, CmpConfig, CoreId, Cycle, LockId, TileId};
use std::rc::Rc;
use std::time::Instant;

/// A barrier backend that gives each consecutive core group its own
/// private combining tree — the multiprogramming substrate of Section V's
/// future work (independent workloads must not synchronize with each
/// other).
pub struct PartitionedBarrier {
    /// `(first_tid, group_barrier)` per partition, in tid order.
    groups: Vec<(usize, TreeBarrier)>,
}

impl PartitionedBarrier {
    /// `sizes` are consecutive group sizes summing to the core count.
    pub fn new(base: Addr, sizes: &[usize], n_cores: usize) -> Self {
        assert_eq!(sizes.iter().sum::<usize>(), n_cores, "partitions must cover all cores");
        let mut groups = Vec::new();
        let mut first = 0usize;
        for (i, &sz) in sizes.iter().enumerate() {
            assert!(sz > 0, "empty barrier partition");
            let gbase = Addr(base.0 + i as u64 * 0x4000);
            groups.push((first, TreeBarrier::new(gbase, sz)));
            first += sz;
        }
        PartitionedBarrier { groups }
    }
}

/// Hand-written: each partition's barrier in turn, without a count (the
/// partitions are structure).
impl Snap for PartitionedBarrier {
    fn save(&self, w: &mut SnapWriter) {
        self.groups.iter().for_each(|(_, barrier)| barrier.save(w));
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.load_shared(r)
    }
}

impl SnapShared for PartitionedBarrier {
    fn load_shared(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.groups.iter().try_for_each(|(_, barrier)| barrier.load_shared(r))
    }
}

impl PartitionedBarrier {
    fn group_of(&self, tid: ThreadId) -> (usize, &TreeBarrier) {
        let t = tid.index();
        let (first, barrier) = self
            .groups
            .iter()
            .rev()
            .find(|(f, _)| *f <= t)
            .expect("tid below every partition");
        (*first, barrier)
    }
}

impl BarrierBackend for PartitionedBarrier {
    fn wait(&self, tid: ThreadId) -> Box<dyn Script> {
        let (first, barrier) = self.group_of(tid);
        barrier.wait(ThreadId((tid.index() - first) as u16))
    }

    snap_methods!(backend);

    fn load_wait_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        let (first, barrier) = self.group_of(tid);
        barrier.load_wait_script(ThreadId((tid.index() - first) as u16), r)
    }
}

/// Simulated-memory layout owned by the runner.
const LOCK_REGION_BASE: u64 = 0x0010_0000;
const LOCK_REGION_STRIDE: u64 = 0x8000;
const BARRIER_REGION: u64 = 0x00F0_0000;

/// Knobs beyond the architectural configuration.
#[derive(Clone, Debug)]
pub struct SimulationOptions {
    /// Abort if the run exceeds this many cycles.
    pub max_cycles: u64,
    /// Use a hierarchical GLock topology even when a flat one would fit.
    pub force_hierarchical_glocks: bool,
    /// Barrier partitions for multiprogrammed runs: consecutive core
    /// groups, each with its own private barrier (must sum to the core
    /// count). `None` = one global barrier.
    pub barrier_partitions: Option<Vec<usize>>,
    /// Use the G-line hardware barrier network (reference \[22\]) instead
    /// of the software combining tree. Incompatible with
    /// `barrier_partitions`.
    pub hardware_barrier: bool,
    /// Seeded fault schedule injected into G-lines, the NoC, and the
    /// directories. `None` = a perfectly reliable machine (the paper's
    /// assumption).
    pub fault_plan: Option<FaultPlan>,
    /// Declare the run wedged if no core makes workload-level progress for
    /// this many consecutive cycles (0 = watchdog off). Spin loops do not
    /// count as progress, so a lost-token livelock trips this long before
    /// `max_cycles`.
    pub watchdog_cycles: u64,
    /// Runtime protocol invariant checker (see [`crate::checker`]).
    /// `None` (the default) costs nothing: the cycle loop never consults
    /// it, so paper runs stay bit-identical.
    pub checker: Option<CheckerConfig>,
    /// Abort with [`SimError::WallClockExceeded`] if the run takes longer
    /// than this many host milliseconds (`None` = no budget). Checked every
    /// 4096 simulated cycles; the clock starts at construction, so a
    /// resumed attempt gets a fresh budget. Host-dependent and therefore
    /// **excluded** from the configuration fingerprint: raising the budget
    /// on retry must not orphan existing checkpoints.
    pub wall_clock_limit_ms: Option<u64>,
    /// Event-driven idle skip: after each dense cycle, ask every component
    /// for its next wake cycle and advance `now` directly to the earliest
    /// one, replicating the provably-inert cycles in between (idle/compute
    /// charging, grAC sampling) in O(1). The machine marches through
    /// exactly the dense loop's state trajectory — checkpoints, stats
    /// dumps, and error cycles are byte-identical — so this is a host
    /// execution strategy like `wall_clock_limit_ms` and is likewise
    /// **excluded** from the configuration fingerprint: snapshots
    /// interoperate freely between dense and event-driven runs.
    pub idle_skip: bool,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            max_cycles: 2_000_000_000,
            force_hierarchical_glocks: false,
            barrier_partitions: None,
            hardware_barrier: false,
            fault_plan: None,
            watchdog_cycles: 2_000_000,
            checker: None,
            wall_clock_limit_ms: None,
            idle_skip: true,
        }
    }
}

/// Digest everything that shapes the machine or its trajectory: the codec
/// version, the architectural configuration, the per-lock algorithm
/// assignment, and every deterministic [`SimulationOptions`] knob. Two
/// simulations with equal fingerprints built from the same workloads march
/// through identical states, so a snapshot from one loads into the other.
///
/// `wall_clock_limit_ms` and `idle_skip` are deliberately left out (host
/// policy, not machine spec); the workloads cannot be digested here (they are opaque
/// boxed programs) — the caller must supply the same ones, and the
/// per-component section marks plus shape checks during the load catch
/// most mismatches that slip through.
fn config_fingerprint(cfg: &CmpConfig, mapping: &LockMapping, options: &SimulationOptions) -> u64 {
    let mut fp = Fingerprint::new();
    fp.mix_u64(u64::from(SNAP_VERSION));
    // `CmpConfig` is a flat `Copy + Debug + Eq` tree of integers; its debug
    // form is a canonical encoding of every field.
    fp.mix_str(&format!("{cfg:?}"));
    fp.mix_u64(mapping.n_locks() as u64);
    for i in 0..mapping.n_locks() {
        fp.mix_str(mapping.algo(LockId(i as u16)).name());
    }
    fp.mix_u64(options.max_cycles);
    // Every run accounts with the paper's model; it stays in the digest so
    // existing checkpoints keep their fingerprints.
    fp.mix_str(&format!("{:?}", EnergyModel::paper_baseline()));
    fp.mix_u64(u64::from(options.force_hierarchical_glocks));
    match &options.barrier_partitions {
        None => fp.mix_u64(0),
        Some(sizes) => {
            fp.mix_u64(1 + sizes.len() as u64);
            for &s in sizes {
                fp.mix_u64(s as u64);
            }
        }
    }
    fp.mix_u64(u64::from(options.hardware_barrier));
    match &options.fault_plan {
        None => fp.mix_u64(0),
        Some(plan) => {
            fp.mix_u64(1);
            fp.mix_str(&format!("{plan:?}"));
        }
    }
    fp.mix_u64(options.watchdog_cycles);
    match &options.checker {
        None => fp.mix_u64(0),
        Some(c) => {
            fp.mix_u64(1);
            fp.mix_u64(c.every);
            fp.mix_u64(c.fairness_window);
        }
    }
    fp.value()
}

/// One configured run of the simulated CMP.
pub struct Simulation {
    cfg: CmpConfig,
    options: SimulationOptions,
    mem: MemorySystem,
    cores: Vec<Core>,
    locks: Vec<Box<dyn LockBackend>>,
    barrier: Box<dyn BarrierBackend>,
    tracker: LockTracker,
    glock_nets: Vec<GlockNetwork>,
    gbarrier: Option<GBarrierNetwork>,
    pool: Option<Rc<GlockPool>>,
    checker: Option<ProtocolChecker>,
    /// Fail-back controllers of the statically mapped GLocks,
    /// index-aligned with `glock_nets` (empty under dynamic sharing: pool
    /// networks never fail back). Dormant until a death verdict; they
    /// drive the repair → probe → drain → re-arm lifecycle.
    failback_ctls: Vec<Rc<FailbackCtl>>,
    now: Cycle,
    /// Watchdog memory: highest progress-event sum seen and when.
    progress_mark: (u64, Cycle),
    /// Digest of the machine specification; gates snapshot restores.
    fingerprint: u64,
    /// Start of this attempt's wall-clock budget.
    started: Instant,
    /// Idle-skip throttle (host-side wall-clock heuristic, never
    /// serialized): dense cycles to burn before the next fast-forward
    /// attempt, and the exponentially-growing penalty a failed attempt
    /// re-arms it with. Saturated phases thus pay the full component scan
    /// only every few cycles, while a single successful skip resets the
    /// throttle to "attempt every cycle". Skip decisions never change the
    /// machine trajectory (the byte-identity contract), so when to *try*
    /// is free policy.
    skip_cooldown: u64,
    skip_penalty: u64,
}

impl Simulation {
    /// Build a run: one workload per core, a lock mapping over the
    /// workload's locks, and an initial memory image (address, value)
    /// written before the first cycle.
    pub fn new(
        cfg: &CmpConfig,
        mapping: &LockMapping,
        workloads: Vec<Box<dyn Workload>>,
        init: &[(Addr, u64)],
        options: SimulationOptions,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            workloads.len(),
            cfg.num_cores,
            "one workload thread per core"
        );
        let n_locks = mapping.n_locks();
        let mut mem = MemorySystem::new(cfg);
        for &(a, v) in init {
            mem.store_mut().store(a, v);
            // The initialization phase is untimed but leaves its data in
            // the (home) L2 slices, like the real applications' init code.
            mem.prewarm(a.line(cfg.line_bytes));
        }
        // Hardware GLock networks: one per lock mapped to GLock, or the
        // full hardware complement when dynamic sharing is requested.
        let glock_ids = mapping.glock_ids();
        let dynamic = (0..n_locks)
            .any(|i| mapping.algo(LockId(i as u16)) == LockAlgorithm::DynamicGlock);
        assert!(
            !dynamic || glock_ids.is_empty(),
            "static GLock and dynamic GLock mappings cannot be mixed"
        );
        assert!(
            glock_ids.len() <= cfg.glocks.num_hw_locks,
            "{} locks mapped to GLocks but only {} provided in hardware",
            glock_ids.len(),
            cfg.glocks.num_hw_locks
        );
        let mesh = cfg.mesh();
        let topo = if options.force_hierarchical_glocks || mesh.len() > 49 {
            Topology::hierarchical(mesh, 1 + cfg.glocks.max_transmitters_per_line as usize)
        } else {
            Topology::flat(mesh)
        };
        let n_nets = if dynamic { cfg.glocks.num_hw_locks } else { glock_ids.len() };
        let mut glock_nets: Vec<GlockNetwork> = (0..n_nets)
            .map(|_| GlockNetwork::new(&topo, cfg.glocks.gline_latency))
            .collect();
        if let Some(plan) = &options.fault_plan {
            if let Err(e) = plan.validate() {
                panic!("{e}");
            }
            mem.apply_fault_plan(plan);
            if plan.gline.is_active() {
                for (k, net) in glock_nets.iter_mut().enumerate() {
                    net.set_faults(plan.injector(FaultSite::Gline, k as u64));
                }
            }
            for hf in &plan.hard {
                // Intermittent faults: the repair crew arrives at
                // `repair_at` (validation already rejected repairs on
                // unrepairable targets).
                if let Some(repair_at) = hf.repair_at {
                    match hf.target {
                        HardFaultTarget::GlockLine { net }
                        | HardFaultTarget::GlockManager { net, .. }
                        | HardFaultTarget::GlockLeaf { net, .. } => {
                            glock_nets[net].schedule_repair(repair_at);
                        }
                        HardFaultTarget::NocRouter { .. } | HardFaultTarget::Tile { .. } => {
                            unreachable!("validated plan cannot repair a router or tile")
                        }
                    }
                }
                match hf.target {
                    HardFaultTarget::GlockLine { net } => {
                        glock_nets[net].schedule_line_kill(hf.at_cycle);
                    }
                    HardFaultTarget::GlockManager { net, node } => {
                        glock_nets[net].schedule_manager_kill(hf.at_cycle, node);
                    }
                    HardFaultTarget::GlockLeaf { net, core } => {
                        glock_nets[net].schedule_leaf_kill(hf.at_cycle, core);
                    }
                    HardFaultTarget::NocRouter { tile } => {
                        mem.schedule_router_kill(TileId(tile as u16), hf.at_cycle);
                    }
                    // Tile death is a wedge, not a failover scope: the
                    // halted core's work is gone, the watchdog diagnoses
                    // it. Its router dies with it.
                    HardFaultTarget::Tile { core } => {
                        mem.schedule_router_kill(TileId(core as u16), hf.at_cycle);
                    }
                }
            }
        }
        let pool = dynamic
            .then(|| GlockPool::new(glock_nets.iter().map(|n| n.regs()).collect()));
        if let Some(p) = &pool {
            // Let the binding table see network health, so dead physical
            // locks are quarantined out of future bindings.
            p.attach_healths(glock_nets.iter().map(|n| n.health()).collect());
        }
        let failback_ctls: Vec<Rc<FailbackCtl>> = if dynamic {
            Vec::new()
        } else {
            glock_nets.iter().map(|n| Rc::new(FailbackCtl::new(n.regs(), n.health()))).collect()
        };
        // Lock backends in LockId order; the k-th lock mapped to GLock
        // drives network k.
        let mut glock_ctls = failback_ctls.iter();
        let locks: Vec<Box<dyn LockBackend>> = (0..n_locks)
            .map(|i| {
                let algo = mapping.algo(LockId(i as u16));
                let base = Addr(LOCK_REGION_BASE + i as u64 * LOCK_REGION_STRIDE);
                if algo == LockAlgorithm::DynamicGlock {
                    let pool = Rc::clone(pool.as_ref().expect("dynamic pool"));
                    return Box::new(GlockBackend::pooled(pool, i as u16, base, cfg.num_cores))
                        as Box<dyn LockBackend>;
                }
                let ctl = (algo == LockAlgorithm::Glock)
                    .then(|| Rc::clone(glock_ctls.next().expect("one network per GLock")));
                let mp = matches!(algo, LockAlgorithm::MpLock | LockAlgorithm::SyncBuf)
                    .then(|| (mem.mp_fabric(), i as u16));
                if algo == LockAlgorithm::SyncBuf {
                    mem.set_mp_latency(i as u16, glocks_mem::mplock::SYNC_BUF_LATENCY);
                }
                algo.make_backend(base, cfg.num_cores, ctl, mp)
            })
            .collect();
        let mut gbarrier = None;
        let barrier: Box<dyn BarrierBackend> = match (&options.barrier_partitions, options.hardware_barrier) {
            (Some(_), true) => panic!("hardware barrier cannot be partitioned"),
            (Some(sizes), false) => Box::new(PartitionedBarrier::new(
                Addr(BARRIER_REGION),
                sizes,
                cfg.num_cores,
            )),
            (None, true) => {
                let net = GBarrierNetwork::new(&topo, cfg.glocks.gline_latency);
                let backend = glocks_locks::gbarrier_backend::GBarrierBackend::new(net.regs());
                gbarrier = Some(net);
                Box::new(backend)
            }
            (None, false) => Box::new(TreeBarrier::new(Addr(BARRIER_REGION), cfg.num_cores)),
        };
        let tracker = LockTracker::new(n_locks, cfg.num_cores);
        let mut cores: Vec<Core> = workloads
            .into_iter()
            .enumerate()
            .map(|(i, w)| Core::new(CoreId(i as u16), cfg.issue_width, w))
            .collect();
        if let Some(plan) = &options.fault_plan {
            for hf in &plan.hard {
                if let HardFaultTarget::Tile { core } = hf.target {
                    cores[core].schedule_halt(hf.at_cycle);
                }
            }
        }
        let checker = options
            .checker
            .map(|c| ProtocolChecker::new(c, n_locks, cfg.num_cores));
        let fingerprint = config_fingerprint(cfg, mapping, &options);
        Simulation {
            cfg: *cfg,
            options,
            mem,
            cores,
            locks,
            barrier,
            tracker,
            glock_nets,
            gbarrier,
            pool,
            checker,
            failback_ctls,
            now: 0,
            progress_mark: (0, 0),
            fingerprint,
            started: Instant::now(),
            skip_cooldown: 0,
            skip_penalty: 0,
        }
    }

    /// Rebuild the machine from `cfg`/`mapping`/`workloads`/`options`
    /// (which must match what the snapshot was taken under — the
    /// fingerprint enforces the parts it can see) and load `snapshot`'s
    /// state into it. The returned simulation continues exactly where the
    /// checkpointed one stood; stepping it produces the same states and,
    /// at the end, a byte-identical stats dump.
    pub fn resume(
        cfg: &CmpConfig,
        mapping: &LockMapping,
        workloads: Vec<Box<dyn Workload>>,
        init: &[(Addr, u64)],
        options: SimulationOptions,
        snapshot: &Snapshot,
    ) -> Result<Self, SnapError> {
        let mut sim = Simulation::new(cfg, mapping, workloads, init, options);
        sim.load_snapshot(snapshot)?;
        Ok(sim)
    }

    /// The cycle boundary the machine currently sits at.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Digest of the specification this machine was built from (what a
    /// snapshot's header must carry to be loadable here).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Advance every non-core device (memory system, GLock networks,
    /// hardware barrier) by the current cycle — shared between the main
    /// loop and the post-run drain.
    fn tick_devices(&mut self) {
        self.mem.tick(self.now);
        for net in &mut self.glock_nets {
            net.tick(self.now);
        }
        // Fail-back controllers tick after their networks so they observe
        // death verdicts and repairs in the same device phase.
        for ctl in &self.failback_ctls {
            ctl.tick(self.now);
        }
        if let Some(b) = self.gbarrier.as_mut() {
            b.tick(self.now);
        }
    }

    /// Capture the full diagnostic picture for a [`SimError`].
    fn snapshot(&self) -> Box<DiagnosticSnapshot> {
        let cores = self
            .cores
            .iter()
            .map(|c| CoreDiag {
                id: c.id(),
                activity: c.activity(),
                progress_events: c.progress_events(),
            })
            .collect();
        let locks = (0..self.tracker.n_locks())
            .map(|i| {
                let l = LockId(i as u16);
                LockDiag {
                    lock: l,
                    holder: self.tracker.holder(l),
                    acquires: self.tracker.acquires(l),
                }
            })
            .collect();
        let glocks = self
            .glock_nets
            .iter()
            .enumerate()
            .map(|(index, net)| GlockDiag {
                index,
                holder: net.holder(),
                waiting: net.n_waiting(),
                stats: net.stats(),
            })
            .collect();
        Box::new(DiagnosticSnapshot {
            cycle: self.now,
            cores,
            locks,
            glocks,
            mem: self.mem.diag(),
        })
    }

    /// Advance the machine by one cycle of the parallel phase. Returns
    /// `Ok(true)` once every core has finished (call [`Simulation::finish`]
    /// next), `Ok(false)` while work remains, or the same structured errors
    /// [`Simulation::run`] would surface. After an `Ok(false)` the machine
    /// sits at a cycle boundary and [`Simulation::checkpoint`] may be
    /// taken.
    pub fn step(&mut self) -> Result<bool, SimError> {
        // Already complete (e.g. resumed from a checkpoint taken at the
        // finish boundary): devices already ticked this cycle, so ticking
        // again would let the drain diverge from the uninterrupted run.
        if self.cores.iter().all(Core::is_finished) {
            return Ok(true);
        }
        let mut all_done = true;
        let mut progress_sum = 0u64;
        {
            let backends = Backends { locks: &self.locks, barrier: self.barrier.as_ref() };
            for core in &mut self.cores {
                core.tick(self.now, &mut self.mem, &backends, &mut self.tracker);
                all_done &= core.is_finished();
                progress_sum += core.progress_events();
            }
        }
        self.tick_devices();
        self.tracker.sample();
        let violation = match self.checker.as_mut() {
            Some(ck) if ck.due(self.now) => {
                ck.check(self.now, &self.tracker, &self.mem, &self.glock_nets, &self.failback_ctls)
            }
            _ => None,
        };
        if let Some(detail) = violation {
            return Err(SimError::InvariantViolation {
                detail,
                snapshot: self.snapshot(),
            });
        }
        if all_done {
            return Ok(true);
        }
        if progress_sum > self.progress_mark.0 {
            self.progress_mark = (progress_sum, self.now);
        } else if self
            .cores
            .iter()
            .all(|c| c.is_finished() || c.sleeping_until(self.now).is_some())
        {
            // Open-loop lull: every unfinished core is deliberately asleep
            // waiting for its next arrival (`Action::WaitUntil`). Time
            // passing toward a known wake cycle is progress, not a wedge.
            self.progress_mark.1 = self.now;
        } else if self.options.watchdog_cycles > 0
            && self.now - self.progress_mark.1 >= self.options.watchdog_cycles
        {
            return Err(SimError::NoForwardProgress {
                window: self.options.watchdog_cycles,
                snapshot: self.snapshot(),
            });
        }
        self.now += 1;
        if self.now >= self.options.max_cycles {
            return Err(SimError::MaxCyclesExceeded {
                limit: self.options.max_cycles,
                snapshot: self.snapshot(),
            });
        }
        // The wall-clock budget is sampled coarsely: `Instant::now` every
        // cycle would dominate the loop.
        if let Some(limit_ms) = self.options.wall_clock_limit_ms {
            if self.now & 0xFFF == 0 && self.started.elapsed().as_millis() as u64 >= limit_ms {
                return Err(SimError::WallClockExceeded {
                    limit_ms,
                    snapshot: self.snapshot(),
                });
            }
        }
        Ok(false)
    }

    /// One dense cycle plus, when `idle_skip` is enabled, an event-driven
    /// fast-forward: advance `now` directly to the earliest cycle at which
    /// any component can act, replicating the provably-inert cycles in
    /// between. `checkpoint_cadence` (0 = none) keeps the skip from jumping
    /// over a cycle boundary the caller wants to checkpoint at.
    ///
    /// The skipped span is never observable: every cycle a component
    /// reported it could act on — and every cycle with a scheduled side
    /// effect (checker visit, stats sample, watchdog deadline, checkpoint
    /// boundary, cycle limit) — is executed densely by [`Simulation::step`],
    /// so the machine marches through exactly the dense loop's state
    /// trajectory.
    pub fn step_fast(&mut self, checkpoint_cadence: u64) -> Result<bool, SimError> {
        let done = self.step()?;
        if !done && self.options.idle_skip {
            if self.skip_cooldown > 0 {
                // A recent attempt found a hot component; don't pay the
                // full scan again just yet. Pure wall-clock policy — the
                // cycles in between run densely either way.
                self.skip_cooldown -= 1;
            } else if self.fast_forward(checkpoint_cadence)? {
                self.skip_penalty = 0;
            } else {
                self.skip_penalty = (self.skip_penalty * 2).clamp(1, 32);
                self.skip_cooldown = self.skip_penalty;
            }
        }
        Ok(done)
    }

    /// The event-driven half of [`Simulation::step_fast`]: compute the
    /// earliest pending wake over all components, clamp it to the nearest
    /// scheduled side effect, and jump there — charging the cores'
    /// activity breakdowns and the tracker's grAC samples for the skipped
    /// cycles in one batch, exactly as the dense loop would have.
    fn fast_forward(&mut self, checkpoint_cadence: u64) -> Result<bool, SimError> {
        let now = self.now;
        // Earliest component wake. `Some(t <= now)` means hot — tick
        // densely, no skip. `None` means inert until some *other*
        // component acts; if everything is inert only the scheduled side
        // effects below bound the jump.
        let mut wake: Option<Cycle> = None;
        macro_rules! fold {
            ($ev:expr) => {
                match $ev {
                    Some(t) if t <= now => return Ok(false),
                    Some(t) => wake = Some(wake.map_or(t, |w: Cycle| w.min(t))),
                    None => {}
                }
            };
        }
        for core in &self.cores {
            fold!(core.next_event(now));
        }
        fold!(self.mem.next_event(now));
        for net in &self.glock_nets {
            fold!(net.next_event(now));
        }
        for ctl in &self.failback_ctls {
            fold!(ctl.next_event(now));
        }
        if let Some(b) = &self.gbarrier {
            fold!(b.next_event(now));
        }
        // Scheduled side effects: cycles the dense loop does something on
        // besides ticking components. Each must be *executed*, so the jump
        // lands on (not past) the nearest one.
        let mut target = wake.unwrap_or(Cycle::MAX);
        if let Some(ck) = &self.options.checker {
            target = target.min(now.next_multiple_of(ck.every));
        }
        if let Some(sample_at) = glocks_stats::next_sample_cycle(now) {
            // Typed-stats time series (e.g. per-router queue depths) are
            // appended inside device ticks on sample cycles.
            target = target.min(sample_at);
        }
        let all_sleeping = self
            .cores
            .iter()
            .all(|c| c.is_finished() || c.sleeping_until(now).is_some());
        if !all_sleeping && self.options.watchdog_cycles > 0 {
            // Land densely on the watchdog's deadline so NoForwardProgress
            // surfaces at the identical cycle it would under the dense
            // loop. (When every unfinished core is deliberately asleep the
            // dense loop re-arms the watchdog each cycle instead — that is
            // replicated after the jump below.)
            target = target.min(self.progress_mark.1 + self.options.watchdog_cycles);
        }
        // `step` raises MaxCyclesExceeded *after* executing the cycle that
        // reaches the limit, so that cycle must run densely.
        target = target.min(self.options.max_cycles.saturating_sub(1));
        if checkpoint_cadence > 0 {
            target = target.min(now.next_multiple_of(checkpoint_cadence));
        }
        if target <= now {
            return Ok(false);
        }
        let k = target - now;
        // Replicate the `k` skipped cycles' observable effects in O(1):
        // per-core activity charges (and compute countdowns), and one grAC
        // sample per cycle. Nothing else mutates on an inert cycle — that
        // is the quiescence contract each `next_event` implements.
        for core in &mut self.cores {
            core.skip_ahead(now, k);
        }
        self.tracker.sample_n(k);
        if all_sleeping {
            // The dense loop re-arms the watchdog on every all-sleeping
            // cycle; the last skipped cycle is `target - 1`.
            self.progress_mark.1 = target - 1;
        }
        self.now = target;
        // The dense loop samples the wall clock every 4096 cycles; check
        // once if the jump crossed any such boundary.
        if let Some(limit_ms) = self.options.wall_clock_limit_ms {
            if (target >> 12) > (now >> 12)
                && self.started.elapsed().as_millis() as u64 >= limit_ms
            {
                return Err(SimError::WallClockExceeded {
                    limit_ms,
                    snapshot: self.snapshot(),
                });
            }
        }
        Ok(true)
    }

    /// Run the parallel phase to completion and produce the report, or a
    /// structured error with a diagnostic snapshot if the run wedges.
    pub fn run(mut self) -> Result<(SimReport, MemorySystem), SimError> {
        while !self.step_fast(0)? {}
        self.finish()
    }

    /// [`Simulation::run`] with a periodic auto-checkpoint: every `every`
    /// cycles (`0` = never) the machine image is handed to `sink` — the
    /// caller decides where it goes (typically an atomically-renamed file).
    /// A component refusing to serialize surfaces as
    /// [`SimError::CheckpointFailed`] rather than silently skipping the
    /// checkpoint: a crash-safety net that is not actually there must not
    /// look like one that is.
    pub fn run_with_checkpoints(
        mut self,
        every: u64,
        sink: &mut dyn FnMut(Snapshot),
    ) -> Result<(SimReport, MemorySystem), SimError> {
        while !self.step_fast(every)? {
            if every > 0 && self.now.is_multiple_of(every) {
                match self.checkpoint() {
                    Ok(snap) => sink(snap),
                    Err(e) => {
                        return Err(SimError::CheckpointFailed {
                            detail: e.to_string(),
                            snapshot: self.snapshot(),
                        })
                    }
                }
            }
        }
        self.finish()
    }

    /// Serialize the complete machine state at the current cycle boundary:
    /// header (magic, codec version, fingerprint, cycle), then every
    /// subsystem in a fixed walk order. Fails with
    /// [`SnapError::Unsupported`] if any component (an exotic workload, a
    /// backend without snapshot support) has not opted into checkpointing.
    pub fn checkpoint(&self) -> Result<Snapshot, SnapError> {
        let mut w = SnapWriter::new();
        w.u32(SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w.u64(self.fingerprint);
        w.u64(self.now);
        w.mark("sim");
        self.progress_mark.save(&mut w);
        w.usize(self.cores.len());
        for core in &self.cores {
            core.save_state(&mut w)?;
        }
        self.tracker.save(&mut w);
        self.mem.save(&mut w);
        fixed::save(&self.glock_nets, &mut w);
        present::save(&self.gbarrier, &mut w);
        present::save(&self.pool, &mut w);
        w.usize(self.locks.len());
        for backend in &self.locks {
            backend.save_state(&mut w)?;
        }
        self.barrier.save_state(&mut w)?;
        present::save(&self.checker, &mut w);
        // The typed-stats registry records live histograms during the run;
        // without it a resumed dump would be missing every pre-checkpoint
        // sample.
        let stats_on = glocks_stats::is_enabled();
        w.bool(stats_on);
        if stats_on {
            glocks_stats::save_registry(&mut w);
        }
        w.mark("sim-end");
        Ok(Snapshot::from_trusted(w.into_bytes()))
    }

    /// Load a [`Snapshot`] into this freshly constructed machine (the
    /// inverse walk of [`Simulation::checkpoint`]). The snapshot's
    /// fingerprint must match this machine's; shape checks and section
    /// marks guard the rest.
    pub fn load_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), SnapError> {
        if snapshot.fingerprint() != self.fingerprint {
            return Err(SnapError::FingerprintMismatch {
                found: snapshot.fingerprint(),
                expected: self.fingerprint,
            });
        }
        let mut r = snapshot.body();
        r.expect("sim")?;
        let progress_mark = Decode::decode(&mut r)?;
        if r.usize()? != self.cores.len() {
            return Err(SnapError::Corrupt { what: "core count" });
        }
        let backends = Backends { locks: &self.locks, barrier: self.barrier.as_ref() };
        for core in &mut self.cores {
            core.load_state(&mut r, &backends)?;
        }
        self.tracker.load(&mut r)?;
        self.mem.load(&mut r)?;
        fixed::load(&mut self.glock_nets, &mut r)?;
        present::load(&mut self.gbarrier, &mut r)?;
        present::load(&mut self.pool, &mut r)?;
        if r.usize()? != self.locks.len() {
            return Err(SnapError::Corrupt { what: "lock backend count" });
        }
        for backend in &self.locks {
            backend.load_state(&mut r)?;
        }
        self.barrier.load_state(&mut r)?;
        present::load(&mut self.checker, &mut r)?;
        let stats_on = r.bool()?;
        if stats_on != glocks_stats::is_enabled() {
            return Err(SnapError::Corrupt { what: "stats enablement mismatch" });
        }
        if stats_on {
            glocks_stats::restore_registry(&mut r)?;
        }
        r.expect("sim-end")?;
        if r.remaining() != 0 {
            return Err(SnapError::Corrupt { what: "trailing snapshot bytes" });
        }
        self.now = snapshot.cycle();
        self.progress_mark = progress_mark;
        Ok(())
    }

    /// Post-run epilogue: drain in-flight traffic, verify quiescence, and
    /// assemble the report. Call after [`Simulation::step`] returned
    /// `Ok(true)`.
    pub fn finish(mut self) -> Result<(SimReport, MemorySystem), SimError> {
        let finish_at = self.now;
        // Drain in-flight writebacks so the traffic/energy totals settle.
        // The G-line networks only tick while they report pending work, so
        // the per-iteration cost is O(active components) — a long memory
        // drain does not keep re-walking idle lock/barrier automata.
        const DRAIN_CAP: u64 = 1_000_000;
        let mut drain = 0;
        while !self.mem.is_quiescent() && drain < DRAIN_CAP {
            self.now += 1;
            drain += 1;
            self.mem.tick(self.now);
            for net in &mut self.glock_nets {
                if net.next_event(self.now).is_some_and(|t| t <= self.now) {
                    net.tick(self.now);
                }
            }
            // Controller ticks are O(1) Cell reads when nothing is
            // happening, so the drain ticks them unconditionally — a
            // repair installing mid-drain must still be observed.
            for ctl in &self.failback_ctls {
                ctl.tick(self.now);
            }
            if let Some(b) = self.gbarrier.as_mut() {
                if b.next_event(self.now).is_some() {
                    b.tick(self.now);
                }
            }
        }
        if !self.mem.is_quiescent() {
            return Err(SimError::DrainStalled { waited: drain, snapshot: self.snapshot() });
        }
        if !self.tracker.all_quiet() {
            return Err(SimError::ResidualLockState {
                detail: "locks still held after the run".into(),
                snapshot: self.snapshot(),
            });
        }
        if let Some(p) = &self.pool {
            if !p.is_quiescent() {
                return Err(SimError::ResidualLockState {
                    detail: "dynamic GLock bindings leaked".into(),
                    snapshot: self.snapshot(),
                });
            }
        }

        let n_locks = self.tracker.n_locks();
        let breakdowns: Vec<_> = self.cores.iter().map(|c| *c.breakdown()).collect();
        let traffic = TrafficSnapshot::from_stats(self.mem.traffic());
        let instructions = breakdowns.iter().map(|b| b.instructions).sum();
        let live_core_cycles = self
            .cores
            .iter()
            .map(|c| c.finished_at().unwrap_or(finish_at))
            .sum();
        let glocks: Vec<_> = self.glock_nets.iter().map(|n| n.stats()).collect();
        // The hardware barrier rides the same G-line technology: its
        // signals and controllers join the energy accounting.
        let gbarrier_signals = self.gbarrier.as_ref().map(|b| b.signals()).unwrap_or(0);
        let gline_networks = self.glock_nets.len() + usize::from(self.gbarrier.is_some());
        let glock_controllers =
            gline_networks.saturating_mul(2 * self.cfg.num_cores) as u64; // leaves + managers bound
        let inputs = EnergyInputs {
            cycles: finish_at,
            n_tiles: self.cfg.num_cores,
            instructions,
            live_core_cycles,
            mem_counters: self.mem.counters(),
            noc_hops: traffic.total_hops,
            noc_byte_hops: traffic.total_bytes(),
            gline_signals: glocks.iter().map(|g| g.signals).sum::<u64>() + gbarrier_signals,
            glock_controllers,
        };
        let energy = EnergyModel::paper_baseline().account(&inputs);
        let finished_at_vec = self
            .cores
            .iter()
            .map(|c| c.finished_at().unwrap_or(finish_at))
            .collect();
        // End-of-run stats publication: totals the components already track
        // are copied into the typed-stats registry so the snapshot is
        // self-contained. Live histograms were recorded during the run.
        let stats = if glocks_stats::is_enabled() {
            for core in &self.cores {
                core.publish_stats();
            }
            self.tracker.publish_stats();
            self.mem.publish_stats();
            for net in &self.glock_nets {
                net.publish_stats();
            }
            glocks_stats::set(glocks_stats::counter("sim.cycles"), finish_at);
            glocks_stats::set(glocks_stats::counter("sim.instructions"), instructions);
            glocks_stats::set(
                glocks_stats::counter("sim.gbarrier.signals"),
                gbarrier_signals,
            );
            // Survivability keys exist only under a hard-fault plan,
            // repair/fail-back keys only when the plan schedules a repair,
            // and per-site soft-fault keys only when that site's rates are
            // active — fault-free dumps keep their golden schema.
            let plan = self.options.fault_plan.as_ref();
            if plan.is_some_and(|p| p.has_hard_faults()) {
                let failovers = self.failback_ctls.iter().map(|c| c.failovers()).sum::<u64>()
                    + self.pool.as_ref().map_or(0, |p| p.stats().failovers);
                glocks_stats::set(glocks_stats::counter("sim.failovers"), failovers);
            }
            if plan.is_some_and(|p| p.has_repairs()) {
                let repairs = self.glock_nets.iter().map(|n| n.health().repairs()).sum::<u64>();
                let failbacks = self.failback_ctls.iter().map(|c| c.failbacks()).sum::<u64>();
                glocks_stats::set(glocks_stats::counter("sim.repairs"), repairs);
                glocks_stats::set(glocks_stats::counter("sim.failbacks"), failbacks);
            }
            let publish_site = |site: &str, stats: glocks_sim_base::fault::FaultStats| {
                glocks_stats::set(
                    glocks_stats::counter(&format!("faults.{site}.drops")),
                    stats.dropped,
                );
                glocks_stats::set(
                    glocks_stats::counter(&format!("faults.{site}.delays")),
                    stats.delayed,
                );
                glocks_stats::set(
                    glocks_stats::counter(&format!("faults.{site}.dups")),
                    stats.duplicated,
                );
            };
            if plan.is_some_and(|p| p.gline.is_active()) {
                let mut total = glocks_sim_base::fault::FaultStats::default();
                for s in self.glock_nets.iter().filter_map(|n| n.fault_stats()) {
                    total.decided += s.decided;
                    total.dropped += s.dropped;
                    total.delayed += s.delayed;
                    total.duplicated += s.duplicated;
                }
                publish_site("gline", total);
            }
            if plan.is_some_and(|p| p.noc.is_active()) {
                publish_site("noc", self.mem.noc_fault_stats().unwrap_or_default());
            }
            if plan.is_some_and(|p| p.dir.is_active()) {
                publish_site("dir", self.mem.dir_fault_stats().unwrap_or_default());
            }
            if let Some(ck) = &self.checker {
                ck.publish_stats();
            }
            // Open-loop SLO report: adds `slo.*` keys only when a service
            // workload registered `service.*` histograms, so closed-loop
            // dumps keep their golden schema.
            glocks_arrivals::slo::publish();
            Some(glocks_stats::snapshot())
        } else {
            None
        };
        let report = SimReport {
            cycles: finish_at,
            breakdowns,
            traffic,
            energy,
            ed2p: energy.ed2p(finish_at),
            lcr: self.tracker.lcr(),
            acquires: (0..n_locks)
                .map(|i| self.tracker.acquires(LockId(i as u16)))
                .collect(),
            mean_wait: (0..n_locks)
                .map(|i| self.tracker.mean_wait(LockId(i as u16)))
                .collect(),
            glocks,
            finished_at: finished_at_vec,
            pool: self.pool.as_ref().map(|p| p.stats()),
            stats,
        };
        Ok((report, self.mem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks_cpu::Action;
    use glocks_mem::MemOp;

    /// Minimal SCTR-style workload for runner tests.
    struct MiniCounter {
        iters: u64,
        counter: Addr,
        phase: u8,
        seen: u64,
    }

    impl Workload for MiniCounter {
        fn next(&mut self, last: u64) -> Action {
            match self.phase {
                0 => {
                    if self.iters == 0 {
                        return Action::Done;
                    }
                    self.phase = 1;
                    Action::Acquire(LockId(0))
                }
                1 => {
                    self.phase = 2;
                    Action::Mem(MemOp::Load(self.counter))
                }
                2 => {
                    self.seen = last;
                    self.phase = 3;
                    Action::Mem(MemOp::Store(self.counter, self.seen + 1))
                }
                3 => {
                    self.iters -= 1;
                    self.phase = 4;
                    Action::Release(LockId(0))
                }
                _ => {
                    self.phase = 0;
                    Action::Barrier
                }
            }
        }
    }

    fn mini_workloads(cfg: &CmpConfig, iters: u64) -> Vec<Box<dyn Workload>> {
        (0..cfg.num_cores)
            .map(|_| {
                Box::new(MiniCounter { iters, counter: Addr(0x200_0000), phase: 0, seen: 0 })
                    as Box<dyn Workload>
            })
            .collect()
    }

    fn run_with(algo: LockAlgorithm, cores: usize, iters: u64) -> (SimReport, MemorySystem) {
        let cfg = CmpConfig::paper_baseline().with_cores(cores);
        let mapping = LockMapping::uniform(algo, 1);
        let opts = SimulationOptions {
            checker: Some(CheckerConfig { every: 5000, ..Default::default() }),
            ..Default::default()
        };
        let sim = Simulation::new(&cfg, &mapping, mini_workloads(&cfg, iters), &[], opts);
        sim.run().expect("fault-free run must complete")
    }

    fn run_partitioned(partitions: Option<Vec<usize>>, cores: usize, iters: u64) -> (SimReport, MemorySystem) {
        let cfg = CmpConfig::paper_baseline().with_cores(cores);
        let mapping = LockMapping::uniform(LockAlgorithm::Mcs, 1);
        let opts = SimulationOptions { barrier_partitions: partitions, ..Default::default() };
        let sim = Simulation::new(&cfg, &mapping, mini_workloads(&cfg, iters), &[], opts);
        sim.run().expect("fault-free run must complete")
    }

    #[test]
    fn full_stack_mcs_run_is_correct() {
        let (report, mem) = run_with(LockAlgorithm::Mcs, 8, 4);
        assert_eq!(mem.store().load(Addr(0x200_0000)), 32);
        assert_eq!(report.acquires[0], 32);
        assert!(report.cycles > 0);
        let f = report.avg_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(f[2] > 0.2, "contended MCS should show lock time, got {f:?}");
    }

    #[test]
    fn full_stack_glock_run_is_correct_and_faster() {
        let (gl, mem) = run_with(LockAlgorithm::Glock, 8, 4);
        assert_eq!(mem.store().load(Addr(0x200_0000)), 32);
        let (mcs, _) = run_with(LockAlgorithm::Mcs, 8, 4);
        assert!(
            gl.cycles < mcs.cycles,
            "GLock {} !< MCS {}",
            gl.cycles,
            mcs.cycles
        );
        assert!(gl.traffic.total_bytes() < mcs.traffic.total_bytes());
        assert!(gl.ed2p < mcs.ed2p, "ED²P must improve too");
        assert_eq!(gl.glocks.len(), 1);
        assert_eq!(gl.glocks[0].grants, 32);
    }

    #[test]
    fn lcr_sums_to_one_when_contended() {
        let (report, _) = run_with(LockAlgorithm::Mcs, 8, 4);
        let total: f64 = report.lcr.iter().flatten().sum();
        assert!((total - 1.0).abs() < 1e-9, "Eq. 2 violated: {total}");
    }

    #[test]
    fn init_image_is_applied() {
        let cfg = CmpConfig::paper_baseline().with_cores(4);
        let mapping = LockMapping::uniform(LockAlgorithm::Tatas, 1);
        let init = [(Addr(0x200_0000), 100u64)];
        let sim = Simulation::new(
            &cfg,
            &mapping,
            mini_workloads(&cfg, 1),
            &init,
            SimulationOptions::default(),
        );
        let (_, mem) = sim.run().expect("fault-free run must complete");
        assert_eq!(mem.store().load(Addr(0x200_0000)), 104);
    }

    #[test]
    fn single_partition_behaves_like_global_barrier() {
        let (global, gmem) = run_partitioned(None, 8, 2);
        let (single, smem) = run_partitioned(Some(vec![8]), 8, 2);
        assert_eq!(gmem.store().load(Addr(0x200_0000)), 16);
        assert_eq!(smem.store().load(Addr(0x200_0000)), 16);
        assert_eq!(
            global.cycles, single.cycles,
            "one partition covering every core is exactly the global barrier"
        );
    }

    #[test]
    fn uneven_partitions_complete_correctly() {
        // Groups of 3 and 5 share the lock but synchronize independently.
        let (report, mem) = run_partitioned(Some(vec![3, 5]), 8, 3);
        assert_eq!(mem.store().load(Addr(0x200_0000)), 24);
        assert_eq!(report.acquires[0], 24);
    }

    #[test]
    #[should_panic(expected = "partitions must cover all cores")]
    fn non_covering_partitions_rejected() {
        let _ = run_partitioned(Some(vec![3, 3]), 8, 1);
    }

    #[test]
    fn glock_network_death_fails_over_and_completes() {
        use glocks_sim_base::FaultPlan;
        let cfg = CmpConfig::paper_baseline().with_cores(8);
        let mapping = LockMapping::uniform(LockAlgorithm::Glock, 1);
        // Baseline: the fault-free acquire count.
        let sim = Simulation::new(
            &cfg,
            &mapping,
            mini_workloads(&cfg, 4),
            &[],
            SimulationOptions::default(),
        );
        let (clean, _) = sim.run().expect("fault-free run");
        // Kill the lock network mid-run; the checker rides along.
        let mut plan = FaultPlan::seeded(11);
        plan.kill_all_glock_networks(1, 500, 2_000);
        let opts = SimulationOptions {
            fault_plan: Some(plan),
            checker: Some(CheckerConfig::default()),
            ..Default::default()
        };
        let sim = Simulation::new(&cfg, &mapping, mini_workloads(&cfg, 4), &[], opts);
        let (report, mem) = sim.run().expect("survivable run must complete");
        assert_eq!(mem.store().load(Addr(0x200_0000)), 32, "no lost increments");
        assert_eq!(
            report.acquires[0], clean.acquires[0],
            "failover must preserve the acquire count"
        );
        assert!(
            report.glocks[0].grants < clean.glocks[0].grants,
            "the dead network cannot have served every tenure"
        );
    }

    #[test]
    fn intermittent_flapping_is_bounded_by_hysteresis() {
        use glocks_sim_base::fault::{HardFault, HardFaultTarget};
        use glocks_sim_base::FaultPlan;
        let cfg = CmpConfig::paper_baseline().with_cores(8);
        let mapping = LockMapping::uniform(LockAlgorithm::Glock, 1);
        let iters = 200;
        let sim = Simulation::new(
            &cfg,
            &mapping,
            mini_workloads(&cfg, iters),
            &[],
            SimulationOptions::default(),
        );
        let (clean, _) = sim.run().expect("fault-free run");
        // Two blink episodes on the same network: kill, repair, re-kill
        // after the first fail-back, repair again. The hysteresis (probe
        // score + dwell) must promote the rebooted hardware exactly once
        // per episode — bounded flapping, not thrash. Detection takes
        // ~47k cycles of retransmission backoff from each kill, so the
        // second episode starts well after the first fail-back (~52k).
        let mut plan = FaultPlan::seeded(5);
        plan.hard.push(HardFault::intermittent(
            1_000,
            40_000,
            HardFaultTarget::GlockLine { net: 0 },
        ));
        plan.hard.push(HardFault::intermittent(
            60_000,
            110_000,
            HardFaultTarget::GlockLine { net: 0 },
        ));
        let opts = SimulationOptions {
            fault_plan: Some(plan),
            checker: Some(CheckerConfig::default()),
            ..Default::default()
        };
        glocks_stats::enable(glocks_stats::StatsConfig::default());
        let sim = Simulation::new(&cfg, &mapping, mini_workloads(&cfg, iters), &[], opts);
        let (report, mem) = sim.run().expect("intermittent faults must be survived");
        glocks_stats::disable();
        assert_eq!(
            mem.store().load(Addr(0x200_0000)),
            8 * iters,
            "no lost increments across two repair round trips"
        );
        assert_eq!(
            report.acquires[0], clean.acquires[0],
            "repair and fail-back must preserve the acquire count"
        );
        let dump = report.stats.as_ref().expect("stats session not open");
        let counter = |k: &str| dump.counters.get(k).copied().unwrap_or(0);
        assert_eq!(counter("sim.repairs"), 2, "each blink installs one repair");
        assert_eq!(
            counter("sim.failbacks"),
            2,
            "hysteresis bounds flapping to one fail-back per episode"
        );
    }

    #[test]
    fn tile_death_is_diagnosed_not_survived() {
        use glocks_sim_base::fault::{HardFault, HardFaultTarget};
        use glocks_sim_base::FaultPlan;
        let cfg = CmpConfig::paper_baseline().with_cores(4);
        let mapping = LockMapping::uniform(LockAlgorithm::Tatas, 1);
        let mut plan = FaultPlan::seeded(3);
        plan.hard.push(HardFault::permanent(1_000, HardFaultTarget::Tile { core: 2 }));
        let opts = SimulationOptions {
            fault_plan: Some(plan),
            watchdog_cycles: 50_000,
            ..Default::default()
        };
        let sim = Simulation::new(&cfg, &mapping, mini_workloads(&cfg, 50), &[], opts);
        let err = match sim.run() {
            Ok(_) => panic!("a dead tile must wedge the run"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), "no-forward-progress");
        // The snapshot names the frozen core.
        let snap = err.snapshot();
        assert!(snap.cores.iter().any(|c| c.id == CoreId(2)
            && c.activity != glocks_cpu::CoreActivity::Finished));
    }

    #[test]
    fn checker_is_silent_on_healthy_runs() {
        let cfg = CmpConfig::paper_baseline().with_cores(8);
        let mapping = LockMapping::uniform(LockAlgorithm::Mcs, 1);
        let opts = SimulationOptions {
            checker: Some(CheckerConfig { every: 64, fairness_window: 100_000 }),
            ..Default::default()
        };
        let sim = Simulation::new(&cfg, &mapping, mini_workloads(&cfg, 4), &[], opts);
        let (report, _) = sim.run().expect("checker must not trip on a clean run");
        assert_eq!(report.acquires[0], 32);
    }

    #[test]
    #[should_panic(expected = "fault rates exceed 100%")]
    fn invalid_fault_plan_is_rejected_at_construction() {
        use glocks_sim_base::{FaultPlan, FaultRates};
        let cfg = CmpConfig::paper_baseline().with_cores(4);
        let mapping = LockMapping::uniform(LockAlgorithm::Tatas, 1);
        let mut plan = FaultPlan::seeded(1);
        plan.noc = FaultRates { drop_ppm: 900_000, delay_ppm: 200_000, ..Default::default() };
        plan.noc.max_delay = 4;
        let opts = SimulationOptions { fault_plan: Some(plan), ..Default::default() };
        let _ = Simulation::new(&cfg, &mapping, mini_workloads(&cfg, 1), &[], opts);
    }

    #[test]
    #[should_panic(expected = "only 2 provided")]
    fn too_many_glocks_rejected() {
        let cfg = CmpConfig::paper_baseline().with_cores(4);
        let mapping = LockMapping::uniform(LockAlgorithm::Glock, 3);
        let _ = Simulation::new(
            &cfg,
            &mapping,
            mini_workloads(&cfg, 1),
            &[],
            SimulationOptions::default(),
        );
    }
}
