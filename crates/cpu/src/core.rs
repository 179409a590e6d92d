//! The per-core driver: runs one thread program, expands lock/barrier
//! actions into backend scripts, and attributes every cycle.

use crate::breakdown::{Breakdown, Category};
use crate::program::{Action, BarrierBackend, LockBackend, Script, Spin, Step, Workload};
use crate::tracker::LockTracker;
use glocks_mem::{MemOp, MemorySystem, Park};
use glocks_sim_base::snap::{Decode, Snap, SnapError, SnapReader, SnapWriter};
use glocks_sim_base::trace::TraceMask;
use glocks_sim_base::{trace_event, Addr, CoreId, Cycle, LockId, ThreadId};

/// Lock and barrier implementations available to the cores.
pub struct Backends<'a> {
    /// Indexed by `LockId`.
    pub locks: &'a [Box<dyn LockBackend>],
    pub barrier: &'a dyn BarrierBackend,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SubKind {
    Acquire(LockId),
    Release(LockId),
    Barrier,
}
glocks_sim_base::snap!(enum SubKind { 0 => Acquire(lock), 1 => Release(lock), 2 => Barrier });

struct Sub {
    script: Box<dyn Script>,
    kind: SubKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Needs the next step pulled.
    Ready,
    /// Busy computing for this many more cycles.
    Computing(u64),
    /// Waiting for the memory system.
    WaitingMem,
    /// Thread completed.
    Finished,
    /// Sleeping until this absolute cycle (`Action::WaitUntil`).
    WaitingUntil(Cycle),
}
glocks_sim_base::snap!(enum State {
    0 => Ready,
    1 => Computing(left),
    2 => WaitingMem,
    3 => Finished,
    4 => WaitingUntil(at),
});

/// What a core is doing right now, at sub-script granularity — the unit of
/// the runner's wedge diagnostics. A core spinning inside a lock acquire
/// reports `Acquiring`, not `Computing`, because the spin itself retires
/// instructions every cycle and would otherwise look healthy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreActivity {
    /// Between steps.
    Ready,
    /// Retiring plain compute.
    Computing,
    /// Blocked on the memory system.
    WaitingMem,
    /// Inside a lock-acquire script.
    Acquiring(LockId),
    /// Inside a lock-release script.
    Releasing(LockId),
    /// Inside a barrier-wait script.
    InBarrier,
    /// Sleeping until a scheduled arrival (open-loop workloads).
    Idle,
    /// Thread done.
    Finished,
}

/// One in-order core running one thread.
pub struct Core {
    id: CoreId,
    tid: ThreadId,
    issue_width: u64,
    state: State,
    workload: Box<dyn Workload>,
    sub: Option<Sub>,
    last_value: u64,
    breakdown: Breakdown,
    finished_at: Option<Cycle>,
    progress_events: u64,
    /// Permanent tile fault: from this cycle on the core is frozen — it
    /// retires nothing and makes no progress. A halted core that still had
    /// work wedges the run, and the watchdog escalates the wedge into a
    /// structured diagnosis (failover applies to lock networks, not to the
    /// computation a dead tile was carrying).
    halt_at: Option<Cycle>,
    /// Whether local spins may park (the event-driven runner's choice).
    parking: bool,
    /// Polls settled in bulk so far (host-side, never saved).
    parked_polls: u64,
}

impl Core {
    pub fn new(id: CoreId, issue_width: u64, workload: Box<dyn Workload>) -> Self {
        assert!(issue_width >= 1);
        Core {
            id,
            tid: ThreadId(id.0),
            issue_width,
            state: State::Ready,
            workload,
            sub: None,
            last_value: 0,
            breakdown: Breakdown::default(),
            finished_at: None,
            progress_events: 0,
            halt_at: None,
            parking: false,
            parked_polls: 0,
        }
    }

    /// Let this core park its local spins (see [`Core::tick`]).
    pub fn enable_parking(&mut self) {
        self.parking = true;
    }

    /// Polls replayed in bulk by settled parks: a host-side count that no
    /// checkpoint or dump carries.
    pub fn parked_polls(&self) -> u64 {
        self.parked_polls
    }

    /// Schedule a permanent tile fault: the core freezes at cycle `at`.
    pub fn schedule_halt(&mut self, at: Cycle) {
        self.halt_at = Some(self.halt_at.map_or(at, |h| h.min(at)));
    }

    /// True once a scheduled tile fault has frozen this core.
    pub fn is_halted_at(&self, now: Cycle) -> bool {
        self.halt_at.is_some_and(|h| now >= h)
    }

    pub fn id(&self) -> CoreId {
        self.id
    }

    pub fn is_finished(&self) -> bool {
        matches!(self.state, State::Finished)
    }

    /// Cycle at which this thread returned `Action::Done`.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    pub fn breakdown(&self) -> &Breakdown {
        &self.breakdown
    }

    /// Publish this core's end-of-run stall breakdown into the stats
    /// registry under `cpu.core{N}.*` (no-op when stats are off).
    pub fn publish_stats(&self) {
        if !glocks_stats::is_enabled() {
            return;
        }
        let n = self.id.0;
        let b = &self.breakdown;
        for (field, v) in [
            ("busy_cycles", b.busy),
            ("memory_cycles", b.memory),
            ("lock_cycles", b.lock),
            ("barrier_cycles", b.barrier),
            ("instructions", b.instructions),
        ] {
            glocks_stats::set(glocks_stats::counter(&format!("cpu.core{n}.{field}")), v);
        }
        // Only open-loop workloads ever accumulate idle sleep; publishing
        // the key conditionally keeps closed-loop dumps (and the committed
        // golden) byte-identical.
        if b.idle > 0 {
            glocks_stats::set(glocks_stats::counter(&format!("cpu.core{n}.idle_cycles")), b.idle);
        }
        if let Some(at) = self.finished_at {
            glocks_stats::set(glocks_stats::counter(&format!("cpu.core{n}.finished_at")), at);
        }
        self.workload.publish_stats();
    }

    /// Monotone count of workload-level progress: top-level actions pulled
    /// and lock/barrier sub-scripts completed. A core livelocked in a spin
    /// loop retires instructions but never bumps this, which is exactly
    /// what the runner's watchdog needs to see.
    pub fn progress_events(&self) -> u64 {
        self.progress_events
    }

    /// Current activity for wedge diagnostics.
    pub fn activity(&self) -> CoreActivity {
        if let Some(sub) = &self.sub {
            return match sub.kind {
                SubKind::Acquire(l) => CoreActivity::Acquiring(l),
                SubKind::Release(l) => CoreActivity::Releasing(l),
                SubKind::Barrier => CoreActivity::InBarrier,
            };
        }
        match self.state {
            State::Ready => CoreActivity::Ready,
            State::Computing(_) => CoreActivity::Computing,
            State::WaitingMem => CoreActivity::WaitingMem,
            State::Finished => CoreActivity::Finished,
            State::WaitingUntil(_) => CoreActivity::Idle,
        }
    }

    /// If this core is asleep in `Action::WaitUntil` past `now`, the cycle
    /// it will wake at. The runner's watchdog treats a fully-sleeping
    /// machine as healthy (progress resumes at the earliest wake), unlike a
    /// spinning or wedged one.
    pub fn sleeping_until(&self, now: Cycle) -> Option<Cycle> {
        match self.state {
            State::WaitingUntil(t) if t > now => Some(t),
            _ => None,
        }
    }

    /// How the running sub-script, if any, waits.
    fn spin(&self) -> Spin {
        self.sub.as_ref().map_or(Spin::Hot, |s| s.script.spin())
    }

    fn category(&self) -> Category {
        match &self.sub {
            Some(s) => match s.kind {
                SubKind::Acquire(_) | SubKind::Release(_) => Category::Lock,
                SubKind::Barrier => Category::Barrier,
            },
            None => match self.state {
                State::WaitingMem => Category::Memory,
                State::WaitingUntil(_) => Category::Idle,
                _ => Category::Busy,
            },
        }
    }

    /// Serialize this core's dynamic state; a parked spin must be settled
    /// first ([`Core::settle`]). The workload and any in-progress
    /// lock/barrier sub-script save through their traits, so this fails
    /// with [`SnapError::Unsupported`] unless every piece has opted into
    /// checkpointing. Hand-written, like [`Core::load_state`] beside it,
    /// because a sub-script is rebuilt by the backend that made it.
    pub fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        let Core {
            id: _,
            tid: _,
            issue_width: _,
            state,
            workload,
            sub,
            last_value,
            breakdown,
            finished_at,
            progress_events,
            halt_at,
            parking: _,
            parked_polls: _,
        } = self;
        w.mark("core");
        state.save(w);
        workload.save_state(w)?;
        w.bool(sub.is_some());
        if let Some(sub) = sub {
            sub.kind.save(w);
            sub.script.save_state(w)?;
        }
        last_value.save(w);
        breakdown.save(w);
        finished_at.save(w);
        progress_events.save(w);
        halt_at.save(w);
        Ok(())
    }

    /// Restore state saved by [`Core::save_state`]. In-progress sub-scripts
    /// are rebuilt through the backends' `load_*_script` constructors —
    /// never through `acquire`/`release`/`wait`, whose side effects already
    /// happened before the checkpoint.
    pub fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
        backends: &Backends<'_>,
    ) -> Result<(), SnapError> {
        let Core {
            id: _,
            tid,
            issue_width: _,
            state,
            workload,
            sub,
            last_value,
            breakdown,
            finished_at,
            progress_events,
            halt_at,
            parking: _,
            parked_polls: _,
        } = self;
        r.expect("core")?;
        state.load(r)?;
        workload.load_state(r)?;
        *sub = if r.bool()? {
            let kind = SubKind::decode(r)?;
            let lock = |l: LockId| {
                let what = "core sub-script lock id";
                backends.locks.get(l.index()).ok_or(SnapError::Corrupt { what })
            };
            let script = match kind {
                SubKind::Acquire(l) => lock(l)?.load_acquire_script(*tid, r)?,
                SubKind::Release(l) => lock(l)?.load_release_script(*tid, r)?,
                SubKind::Barrier => backends.barrier.load_wait_script(*tid, r)?,
            };
            Some(Sub { script, kind })
        } else {
            None
        };
        last_value.load(r)?;
        breakdown.load(r)?;
        finished_at.load(r)?;
        progress_events.load(r)?;
        halt_at.load(r)
    }

    /// The earliest future cycle at which ticking this core could do
    /// anything observable, given the state it is in *after* the tick of
    /// cycle `now`, or `None` if it is quiescent forever.
    ///
    /// This is the core's half of the idle-skip contract: for every cycle
    /// `c` in `now+1 .. next_event(now)`, `tick(c)` would only re-charge
    /// the same breakdown category (replicated exactly by
    /// [`Core::skip_ahead`]) and, for `Computing`, decrement the counter —
    /// it pulls no step, touches no backend, and submits nothing to the
    /// memory system. States whose wake depends on another component
    /// (`Ready`, `WaitingMem`) report `Some(now)`, i.e. "hot, tick me
    /// densely".
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if matches!(self.state, State::Finished) {
            return None;
        }
        if self.is_halted_at(now) {
            // A dead tile never acts again; it is quiescent even if it
            // still "had work".
            return None;
        }
        let fence = |t: Cycle| Some(self.halt_at.map_or(t, |h| t.min(h)));
        match self.state {
            // A declared register-poll spin (`bnz lock_req, loop`) is
            // inert: each cycle retires exactly one poll instruction until
            // a device — whose own `next_event` the runner consults —
            // flips the register. A scheduled tile death still fences the
            // poll charges, so it stays observable.
            State::Ready if self.spin() == Spin::Register => self.halt_at,
            // Otherwise a pull could run scripts / submit memory ops —
            // unpredictable from here.
            State::Ready | State::WaitingMem => Some(now),
            // Wakes exactly when the countdown hits zero (or the tile
            // fault freezes it first — the fence keeps the halt cycle
            // observable for the watchdog).
            State::Computing(left) => fence(now + left),
            State::WaitingUntil(t) => fence(t),
            State::Finished => unreachable!("handled above"),
        }
    }

    /// Replicate `k` dense [`Core::tick`] calls for cycles
    /// `now .. now + k`, valid only when the runner proved (via
    /// [`Core::next_event`] on the previous cycle) that none of those ticks
    /// would pull a step. Charges the same category each skipped cycle and
    /// advances a `Computing` countdown; everything else is untouched.
    pub fn skip_ahead(&mut self, now: Cycle, k: u64) {
        if matches!(self.state, State::Finished) || self.is_halted_at(now) {
            return;
        }
        if matches!(self.state, State::Ready) {
            // Only reachable for a declared register-poll spin (see
            // `next_event`): each skipped cycle retires exactly the one
            // poll instruction and charges the same category the dense
            // loop would have.
            debug_assert!(
                self.spin() == Spin::Register,
                "core {}: skipped while hot",
                self.id
            );
            self.breakdown.instructions += k;
            self.breakdown.charge(self.category(), k);
            return;
        }
        debug_assert!(
            !matches!(self.state, State::WaitingMem),
            "core {}: skipped while hot",
            self.id
        );
        if let State::WaitingUntil(t) = self.state {
            debug_assert!(now + k <= t, "core {}: skipped past its wake cycle", self.id);
        }
        self.breakdown.charge(self.category(), k);
        if let State::Computing(ref mut left) = self.state {
            debug_assert!(*left >= k, "core {}: skipped past compute end", self.id);
            *left -= k;
            if *left == 0 {
                self.state = State::Ready;
            }
        }
    }

    /// Settle this core's side of its parked spin `p` through its tick of
    /// cycle `through`, as the dense poll loop charges it: one instruction
    /// per poll, and every cycle charged to the spinning script's
    /// category.
    pub fn settle(&mut self, p: &Park, through: Cycle) {
        let polls = p.polls(through);
        self.breakdown.instructions += polls;
        self.breakdown.charge(self.category(), p.cycles(through));
        self.parked_polls += polls;
    }

    /// Advance this core by one cycle.
    ///
    /// A local spin parks when parking is enabled and no halt is
    /// scheduled: a `Load(a)` poll hit the L1, the script declared
    /// [`Spin::Load`] before it was resumed with the loaded value, and it
    /// polled `Load(a)` again. From then on neither this core nor its L1
    /// is visited ([`MemorySystem::is_parked`]) until a coherence message
    /// reaches the L1, which settles both sides through that cycle
    /// ([`MemorySystem::drain_woken`]).
    pub fn tick(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        backends: &Backends<'_>,
        tracker: &mut LockTracker,
    ) {
        if matches!(self.state, State::Finished) {
            return;
        }
        if self.is_halted_at(now) {
            // Dead tile: nothing retires, nothing is charged, and
            // `progress_events` stops — exactly what the watchdog samples.
            return;
        }
        debug_assert!(!mem.is_parked(self.id), "core {}: ticked while parked", self.id);
        // The word a declared memory spin just read in its L1, if this
        // core may park on it.
        let mut repoll = None;
        if matches!(self.state, State::WaitingMem) {
            if let Some(r) = mem.take_result(self.id) {
                self.last_value = r.value;
                self.state = State::Ready;
                if let MemOp::Load(a) = r.op {
                    let may_park = self.parking && self.halt_at.is_none() && r.l1_hit;
                    if may_park && self.spin() == Spin::Load {
                        repoll = Some(a);
                    }
                }
            }
        }
        if let State::WaitingUntil(t) = self.state {
            if now >= t {
                // Wake: the workload is resumed with the current cycle so
                // open-loop generators can timestamp the request.
                self.last_value = now;
                self.state = State::Ready;
            }
        }
        if matches!(self.state, State::Ready) {
            self.pull(now, mem, backends, tracker, repoll);
            if matches!(self.state, State::Finished) {
                return;
            }
        }
        self.breakdown.charge(self.category(), 1);
        if let State::Computing(ref mut left) = self.state {
            *left -= 1;
            if *left == 0 {
                self.state = State::Ready;
            }
        }
    }

    /// Pull steps until one that consumes time is started. `repoll` is the
    /// word the first resume's value came from, if the core may park when
    /// the script polls it again.
    fn pull(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        backends: &Backends<'_>,
        tracker: &mut LockTracker,
        mut repoll: Option<Addr>,
    ) {
        // A zero-cycle-step cap: catches scripts that never make progress.
        for _ in 0..10_000 {
            // Only the first resume sees the polled value.
            let polled = repoll.take();
            let step = if let Some(sub) = self.sub.as_mut() {
                let s = sub.script.resume(self.last_value);
                if let Step::Done = s {
                    self.progress_events += 1;
                    if let SubKind::Acquire(l) = sub.kind {
                        trace_event!(
                            TraceMask::LOCK,
                            now,
                            "core {}: acquired lock {l}",
                            self.id
                        );
                        tracker.on_acquired(l, self.tid, now);
                    }
                    self.sub = None;
                    self.last_value = 0;
                    continue;
                }
                s
            } else {
                self.progress_events += 1;
                match self.workload.next(self.last_value) {
                    Action::Compute(n) => Step::Compute(n),
                    Action::Mem(op) => Step::Mem(op),
                    Action::Acquire(l) => {
                        trace_event!(
                            TraceMask::LOCK,
                            now,
                            "core {}: acquire lock {l} start",
                            self.id
                        );
                        tracker.on_acquire_start(l, self.tid, now);
                        self.sub = Some(Sub {
                            script: backends.locks[l.index()].acquire(self.tid),
                            kind: SubKind::Acquire(l),
                        });
                        self.last_value = 0;
                        continue;
                    }
                    Action::Release(l) => {
                        // The critical section ends when the release begins.
                        tracker.on_release_start(l, self.tid, now);
                        self.sub = Some(Sub {
                            script: backends.locks[l.index()].release(self.tid),
                            kind: SubKind::Release(l),
                        });
                        self.last_value = 0;
                        continue;
                    }
                    Action::Barrier => {
                        self.sub = Some(Sub {
                            script: backends.barrier.wait(self.tid),
                            kind: SubKind::Barrier,
                        });
                        self.last_value = 0;
                        continue;
                    }
                    Action::WaitUntil(t) => {
                        if t <= now {
                            // Already due: a zero-cost clock read.
                            self.last_value = now;
                            continue;
                        }
                        self.state = State::WaitingUntil(t);
                        return;
                    }
                    Action::Done => {
                        self.state = State::Finished;
                        self.finished_at = Some(now);
                        return;
                    }
                }
            };
            match step {
                Step::Compute(0) => {
                    self.last_value = 0;
                    continue;
                }
                Step::Compute(n) => {
                    self.breakdown.instructions += n;
                    self.state = State::Computing(n.div_ceil(self.issue_width));
                    self.last_value = 0;
                    return;
                }
                Step::Mem(op) => {
                    self.breakdown.instructions += 1;
                    mem.submit(self.id, op, now);
                    self.state = State::WaitingMem;
                    if polled.is_some_and(|a| op == MemOp::Load(a)) {
                        mem.park(self.id, op.addr(), self.last_value, now);
                    }
                    return;
                }
                Step::Done => unreachable!("handled above"),
            }
        }
        panic!(
            "core {}: script made no progress for 10k zero-cycle steps",
            self.id
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::FixedScript;
    use glocks_mem::MemOp;
    use glocks_sim_base::{Addr, CmpConfig};

    /// A scripted workload from a fixed action list.
    struct Scripted {
        actions: Vec<Action>,
        i: usize,
        pub seen_values: Vec<u64>,
    }

    impl Scripted {
        fn new(actions: Vec<Action>) -> Self {
            Scripted { actions, i: 0, seen_values: Vec::new() }
        }
    }

    impl Workload for Scripted {
        fn next(&mut self, last: u64) -> Action {
            self.seen_values.push(last);
            let a = self.actions.get(self.i).copied().unwrap_or(Action::Done);
            self.i += 1;
            a
        }
    }

    /// Lock backend whose acquire/release cost a fixed instruction count.
    struct FixedLock(u64);

    impl LockBackend for FixedLock {
        fn acquire(&self, _tid: ThreadId) -> Box<dyn Script> {
            Box::new(FixedScript::new(self.0))
        }
        fn release(&self, _tid: ThreadId) -> Box<dyn Script> {
            Box::new(FixedScript::new(self.0))
        }
    }

    struct FixedBarrier(u64);

    impl BarrierBackend for FixedBarrier {
        fn wait(&self, _tid: ThreadId) -> Box<dyn Script> {
            Box::new(FixedScript::new(self.0))
        }
    }

    fn run(actions: Vec<Action>, cores: usize) -> (Core, Cycle) {
        let cfg = CmpConfig::paper_baseline().with_cores(cores);
        let mut mem = MemorySystem::new(&cfg);
        let locks: Vec<Box<dyn LockBackend>> = vec![Box::new(FixedLock(4))];
        let barrier = FixedBarrier(6);
        let backends = Backends { locks: &locks, barrier: &barrier };
        let mut tracker = LockTracker::new(1, cores);
        let mut core = Core::new(CoreId(0), cfg.issue_width, Box::new(Scripted::new(actions)));
        for now in 0..1_000_000 {
            core.tick(now, &mut mem, &backends, &mut tracker);
            mem.tick(now);
            tracker.sample();
            if core.is_finished() {
                return (core, now);
            }
        }
        panic!("workload never finished");
    }

    #[test]
    fn compute_uses_issue_width() {
        // 10 instructions on a 2-way core = 5 cycles of Busy.
        let (core, _) = run(vec![Action::Compute(10)], 4);
        assert_eq!(core.breakdown().busy, 5);
        assert_eq!(core.breakdown().memory, 0);
        assert_eq!(core.breakdown().instructions, 10);
    }

    #[test]
    fn memory_wait_attributed_to_memory() {
        let (core, _) = run(vec![Action::Mem(MemOp::Load(Addr(0x100)))], 4);
        assert!(core.breakdown().memory > 100, "cold miss should dominate");
        assert_eq!(core.breakdown().busy, 0);
        assert_eq!(core.breakdown().instructions, 1);
    }

    #[test]
    fn lock_and_barrier_categories() {
        let (core, _) = run(
            vec![
                Action::Acquire(LockId(0)),
                Action::Compute(8),
                Action::Release(LockId(0)),
                Action::Barrier,
            ],
            4,
        );
        // acquire 4 instr + release 4 instr @ 2-wide = 4 cycles of Lock
        assert_eq!(core.breakdown().lock, 4);
        assert_eq!(core.breakdown().barrier, 3);
        assert_eq!(core.breakdown().busy, 4);
    }

    #[test]
    fn mem_value_reaches_workload() {
        let a = Addr(0x200);
        let (core, _) = run(
            vec![
                Action::Mem(MemOp::Store(a, 42)),
                Action::Mem(MemOp::Load(a)),
                Action::Compute(2),
            ],
            4,
        );
        // `seen_values` isn't reachable after the move; verify via the
        // breakdown instead: 2 mem instructions + 2 compute.
        assert_eq!(core.breakdown().instructions, 4);
    }

    #[test]
    fn wait_until_sleeps_and_charges_idle() {
        // Compute 2 instr (1 cycle busy), sleep until cycle 100, compute 2.
        let (core, at) = run(
            vec![Action::Compute(2), Action::WaitUntil(100), Action::Compute(2)],
            4,
        );
        assert_eq!(core.breakdown().busy, 2);
        assert_eq!(core.breakdown().idle, 99, "cycles 1..=99 sleep");
        assert_eq!(core.breakdown().lock, 0);
        assert_eq!(at, 101, "wakes at 100, computes, finishes at 101");
        assert_eq!(core.breakdown().fractions(), [1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn wait_until_in_past_is_free_clock_read() {
        let (core, at) = run(vec![Action::WaitUntil(0), Action::Compute(2)], 4);
        assert_eq!(core.breakdown().idle, 0);
        assert_eq!(core.breakdown().busy, 1);
        let (plain, plain_at) = run(vec![Action::Compute(2)], 4);
        assert_eq!(at, plain_at, "an already-due wait costs nothing");
        assert_eq!(core.breakdown().total(), plain.breakdown().total());
    }

    #[test]
    fn sleeping_core_reports_wake_cycle() {
        let cfg = CmpConfig::paper_baseline().with_cores(2);
        let mut mem = MemorySystem::new(&cfg);
        let locks: Vec<Box<dyn LockBackend>> = vec![Box::new(FixedLock(4))];
        let barrier = FixedBarrier(1);
        let backends = Backends { locks: &locks, barrier: &barrier };
        let mut tracker = LockTracker::new(1, 2);
        let mut core = Core::new(
            CoreId(0),
            2,
            Box::new(Scripted::new(vec![Action::WaitUntil(500)])),
        );
        for now in 0..10 {
            core.tick(now, &mut mem, &backends, &mut tracker);
            mem.tick(now);
        }
        assert_eq!(core.sleeping_until(9), Some(500));
        assert_eq!(core.activity(), CoreActivity::Idle);
        assert_eq!(core.sleeping_until(500), None, "due means not sleeping");
    }

    #[test]
    fn finishes_and_reports_cycle() {
        let (core, at) = run(vec![Action::Compute(2)], 4);
        assert!(core.is_finished());
        assert_eq!(core.finished_at(), Some(at));
        // total attributed cycles never exceed wall cycles
        assert!(core.breakdown().total() <= at + 1);
    }

    /// A lock script that never makes progress (always zero-cost compute).
    struct StuckLock;

    impl LockBackend for StuckLock {
        fn acquire(&self, _tid: ThreadId) -> Box<dyn Script> {
            struct Spin;
            impl Script for Spin {
                fn resume(&mut self, _last: u64) -> Step {
                    Step::Compute(0)
                }
            }
            Box::new(Spin)
        }
        fn release(&self, _tid: ThreadId) -> Box<dyn Script> {
            Box::new(FixedScript::new(1))
        }
    }

    #[test]
    #[should_panic(expected = "no progress")]
    fn runaway_zero_cost_script_is_detected() {
        let cfg = CmpConfig::paper_baseline().with_cores(2);
        let mut mem = MemorySystem::new(&cfg);
        let locks: Vec<Box<dyn LockBackend>> = vec![Box::new(StuckLock)];
        let barrier = FixedBarrier(1);
        let backends = Backends { locks: &locks, barrier: &barrier };
        let mut tracker = LockTracker::new(1, 2);
        let mut core = Core::new(
            CoreId(0),
            2,
            Box::new(Scripted::new(vec![Action::Acquire(LockId(0))])),
        );
        for now in 0..100 {
            core.tick(now, &mut mem, &backends, &mut tracker);
        }
    }

    #[test]
    fn halted_core_freezes_and_stops_progress() {
        let cfg = CmpConfig::paper_baseline().with_cores(2);
        let mut mem = MemorySystem::new(&cfg);
        let locks: Vec<Box<dyn LockBackend>> = vec![Box::new(FixedLock(4))];
        let barrier = FixedBarrier(1);
        let backends = Backends { locks: &locks, barrier: &barrier };
        let mut tracker = LockTracker::new(1, 2);
        let mut core = Core::new(
            CoreId(0),
            2,
            Box::new(Scripted::new(vec![Action::Compute(10_000)])),
        );
        core.schedule_halt(50);
        for now in 0..200 {
            core.tick(now, &mut mem, &backends, &mut tracker);
            mem.tick(now);
        }
        assert!(core.is_halted_at(200));
        assert!(!core.is_finished(), "a dead tile never completes its work");
        let frozen = core.progress_events();
        let cycles = core.breakdown().total();
        for now in 200..400 {
            core.tick(now, &mut mem, &backends, &mut tracker);
            mem.tick(now);
        }
        assert_eq!(core.progress_events(), frozen, "no progress after death");
        assert_eq!(core.breakdown().total(), cycles, "no cycles attributed");
    }

    #[test]
    fn tracker_sees_acquire_release() {
        let cfg = CmpConfig::paper_baseline().with_cores(4);
        let mut mem = MemorySystem::new(&cfg);
        let locks: Vec<Box<dyn LockBackend>> = vec![Box::new(FixedLock(2))];
        let barrier = FixedBarrier(2);
        let backends = Backends { locks: &locks, barrier: &barrier };
        let mut tracker = LockTracker::new(1, 4);
        let mut core = Core::new(
            CoreId(0),
            2,
            Box::new(Scripted::new(vec![
                Action::Acquire(LockId(0)),
                Action::Release(LockId(0)),
            ])),
        );
        for now in 0..1000 {
            core.tick(now, &mut mem, &backends, &mut tracker);
            mem.tick(now);
            if core.is_finished() {
                break;
            }
        }
        assert!(core.is_finished());
        assert_eq!(tracker.acquires(LockId(0)), 1);
        assert!(tracker.all_quiet());
    }
}
