//! The core-side driver of a hardware GLock — one driver for every `Glock`
//! and `DynamicGlock` lock. On trusted hardware it runs Figure 5 of the
//! paper:
//!
//! ```text
//! GL_Lock()  { mov 1, lock_req ; loop: bnz lock_req, loop }
//! GL_Unlock(){ mov 1, lock_rel }
//! ```
//!
//! The scripts only touch the per-core register pair; all synchronization
//! happens in the dedicated G-line network, which the simulator ticks as a
//! hardware device. No memory operation is ever issued, so lock
//! synchronization contributes **zero** traffic to the main data network.
//!
//! A driver finds its network in one of two ways:
//!
//! * **pinned** ([`GlockBackend::pinned`], `Glock`): one network for the
//!   whole run, guarded by the lock's own [`FailbackCtl`];
//! * **pool-bound** ([`GlockBackend::pooled`], `DynamicGlock` — Section V
//!   future work): each acquire first consults the binding table
//!   ([`glocks::GlockPool`]) and runs on the physical network its logical
//!   lock is bound to, or on the software fallback when every physical
//!   lock is busy; each release hands the use back (`end_release`).
//!   Highly-contended locks end up capturing the physical GLocks
//!   automatically — no programmer annotation of "which locks are hot".
//!
//! # Failover (survivability, beyond the paper)
//!
//! One gate decides whether an acquire may raise REQ: the network must be
//! trusted — neither dead nor repaired-but-untrusted — and a pinned lock's
//! controller must be in `Hardware` mode (while it drains for a fail-back
//! the acquire parks instead). A closed gate, or a death verdict while
//! spinning, sends the acquire to a TATAS fallback word in the lock's
//! private memory region:
//!
//! 1. **Quarantine.** A dead network never delivers another signal, so the
//!    grant state frozen in the register file at the verdict cycle is
//!    final: a spinning thread whose `lock_req` is still set will *never*
//!    be granted; one whose flag was reset *was* granted and owns the
//!    critical section.
//! 2. **Drain.** Threads abandoning the hardware path wait until
//!    [`GlockRegisters::hw_drained`]: the pre-death grantee (if any) has
//!    written `lock_rel`, i.e. left its critical section. The controller
//!    of a dead network will never consume that release — the register
//!    write itself is the drain signal.
//! 3. **Replay.** Each abandoned mid-acquire is replayed on the software
//!    path *inside the same acquire script*, so the core's lock tracker
//!    observes exactly one successful acquire per critical section — no
//!    lost and no double-granted acquires.
//!
//! Mutual exclusion across the transition: the software lock starts free
//! and is only entered after `hw_drained()`, and the hardware path can no
//! longer grant anyone (quarantine), so no thread on the dead hardware
//! path can ever hold the lock concurrently with a software-path holder.
//! After a repair the gate keeps every production acquire off the
//! untrusted network: a pinned lock's [`FailbackCtl`] probes it and re-arms
//! the hardware path at quiescence, while a pool network is simply never
//! bound again ([`glocks::GlockPool::is_trusted`]).
//!
//! On healthy hardware none of this costs a step: the gate is a register
//! read, and the TATAS replay is only built when an acquire fails over
//! (or a pool-bound acquire spills).

use crate::failback::{FailbackCtl, FailbackMode};
use crate::tatas::{TatasAcquire, TatasLock, TatasRelease};
use glocks::pool::{GlockPool, PoolDecision};
use glocks::GlockRegisters;
use glocks_cpu::{load_script, snap_methods, LockBackend, Script, Spin, Step};
use glocks_sim_base::snap::{Snap, SnapError, SnapReader, SnapShared, SnapWriter};
use glocks_sim_base::{Addr, ThreadId};
use std::cell::Cell;
use std::rc::Rc;

/// Cycles to consult the binding table at the lock unit.
const POOL_CONSULT_INSTRS: u64 = 4;

/// Where a driver finds its G-line network.
enum Site {
    /// Statically mapped: one network (index 0), guarded by the lock's
    /// fail-back controller.
    Pinned(Rc<FailbackCtl>),
    /// Dynamically shared: logical lock `logical` of the binding table.
    Pooled { pool: Rc<GlockPool>, logical: u16 },
}

/// What the gate lets an acquire do with the hardware path right now.
enum Gate {
    Open,
    /// A fail-back drain is in progress: wait for the re-armed hardware.
    Park,
    Closed,
}

impl Site {
    fn regs(&self, k: usize) -> &GlockRegisters {
        match self {
            Site::Pinned(ctl) => ctl.regs(),
            Site::Pooled { pool, .. } => pool.regs(k),
        }
    }

    fn is_dead(&self, k: usize) -> bool {
        match self {
            Site::Pinned(ctl) => ctl.health().is_dead(),
            Site::Pooled { pool, .. } => pool.is_dead(k),
        }
    }

    fn is_trusted(&self, k: usize) -> bool {
        match self {
            Site::Pinned(ctl) => ctl.health().is_trusted(),
            Site::Pooled { pool, .. } => pool.is_trusted(k),
        }
    }

    fn gate(&self, k: usize) -> Gate {
        match self {
            Site::Pinned(ctl) => match ctl.mode() {
                FailbackMode::Hardware if ctl.health().is_trusted() => Gate::Open,
                FailbackMode::Draining => Gate::Park,
                _ => Gate::Closed,
            },
            Site::Pooled { pool, .. } if pool.is_trusted(k) => Gate::Open,
            Site::Pooled { .. } => Gate::Closed,
        }
    }

    fn note_failover(&self) {
        match self {
            Site::Pinned(ctl) => ctl.note_failover(),
            Site::Pooled { pool, .. } => pool.note_failover(),
        }
    }

    /// A release completed: a pinned software tenure is over; a pool-bound
    /// use goes back to the binding table.
    fn end_release(&self, software: bool) {
        match self {
            Site::Pinned(ctl) if software => ctl.sw_end(),
            Site::Pinned(_) => {}
            Site::Pooled { pool, logical } => pool.end_release(*logical),
        }
    }
}

/// The path a thread's current tenure holds: recorded when its acquire
/// completes, consumed by its release.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    /// Granted by network `k`.
    Hardware(usize),
    Software,
}

/// State shared by a lock's backend and its in-flight scripts.
struct Driver {
    site: Site,
    fallback: TatasLock,
    path: Vec<Cell<Option<Path>>>,
}

/// Hand-written: a tenure path is one tag (0 = none, 1 = granted by
/// network `k`, 2 = software), and only a pinned lock owns the fail-back
/// controller it saves. Register files, network health and the pool's
/// binding table are shared structure saved by their owners.
impl Snap for Driver {
    fn save(&self, w: &mut SnapWriter) {
        let Driver { site, fallback: _, path } = self;
        w.usize(path.len());
        for cell in path {
            match cell.get() {
                None => w.u8(0),
                Some(Path::Hardware(k)) => {
                    w.u8(1);
                    k.save(w);
                }
                Some(Path::Software) => w.u8(2),
            }
        }
        if let Site::Pinned(ctl) = site {
            ctl.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.load_shared(r)
    }
}

impl SnapShared for Driver {
    fn load_shared(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Driver { site, fallback: _, path } = self;
        if r.usize()? != path.len() {
            return Err(SnapError::Corrupt { what: "glock lock thread count" });
        }
        for cell in path {
            cell.set(match r.u8()? {
                0 => None,
                1 => Some(Path::Hardware(r.usize()?)),
                2 => Some(Path::Software),
                tag => {
                    let what = "glock tenure path";
                    return Err(SnapError::BadTag { what, tag: u64::from(tag) });
                }
            });
        }
        if let Site::Pinned(ctl) = site {
            ctl.load_shared(r)?;
        }
        Ok(())
    }
}

/// The GLock driver (see the module docs).
pub struct GlockBackend(Rc<Driver>);

impl GlockBackend {
    /// A statically-mapped lock on the network `ctl` guards. `base` is the
    /// lock's private memory region (hosts the TATAS fallback word).
    pub fn pinned(ctl: Rc<FailbackCtl>, base: Addr, n_threads: usize) -> Self {
        Self::new(Site::Pinned(ctl), base, n_threads)
    }

    /// Logical lock `logical` of a dynamically-shared pool.
    pub fn pooled(pool: Rc<GlockPool>, logical: u16, base: Addr, n_threads: usize) -> Self {
        Self::new(Site::Pooled { pool, logical }, base, n_threads)
    }

    fn new(site: Site, base: Addr, n_threads: usize) -> Self {
        GlockBackend(Rc::new(Driver {
            site,
            fallback: TatasLock::tatas(base),
            path: (0..n_threads).map(|_| Cell::new(None)).collect(),
        }))
    }
}

enum AcqPhase {
    /// Pool-bound: consult the binding table.
    Consult,
    /// `mov 1, lock_req` on network `k`, if the gate is open.
    SetReq(usize),
    /// `bnz lock_req, loop`.
    Spin(usize),
    /// Network `k` failed: wait for its hardware path to drain.
    DrainWait(usize),
    /// Arrived during a fail-back drain: wait for the re-armed hardware
    /// path (or for the drain to abort on re-death).
    FailbackPark,
    /// The software fallback's acquire.
    Fallback(TatasAcquire),
}

struct GlockAcquire {
    driver: Rc<Driver>,
    tid: ThreadId,
    phase: AcqPhase,
}

/// Hand-written: the fallback phase's TATAS script is rebuilt around the
/// driver's fallback lock.
impl Snap for GlockAcquire {
    fn save(&self, w: &mut SnapWriter) {
        match &self.phase {
            AcqPhase::Consult => w.u8(0),
            AcqPhase::SetReq(k) => {
                w.u8(1);
                k.save(w);
            }
            AcqPhase::Spin(k) => {
                w.u8(2);
                k.save(w);
            }
            AcqPhase::DrainWait(k) => {
                w.u8(3);
                k.save(w);
            }
            AcqPhase::FailbackPark => w.u8(4),
            AcqPhase::Fallback(inner) => {
                w.u8(5);
                inner.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.phase = match r.u8()? {
            0 => AcqPhase::Consult,
            1 => AcqPhase::SetReq(r.usize()?),
            2 => AcqPhase::Spin(r.usize()?),
            3 => AcqPhase::DrainWait(r.usize()?),
            4 => AcqPhase::FailbackPark,
            5 => {
                let mut inner = self.driver.fallback.acquire_script();
                inner.load(r)?;
                AcqPhase::Fallback(inner)
            }
            tag => {
                let what = "glock acquire phase";
                return Err(SnapError::BadTag { what, tag: u64::from(tag) });
            }
        };
        Ok(())
    }
}

impl GlockAcquire {
    fn fail_over(&mut self, k: usize) -> Step {
        self.driver.site.note_failover();
        self.phase = AcqPhase::DrainWait(k);
        // Observing the failure costs the same branch the spin did.
        Step::Compute(1)
    }

    fn holds(&self, path: Path) -> Step {
        self.driver.path[self.tid.index()].set(Some(path));
        Step::Done
    }
}

impl Script for GlockAcquire {
    fn resume(&mut self, last: u64) -> Step {
        let site = &self.driver.site;
        let core = self.tid.index();
        match self.phase {
            AcqPhase::Consult => {
                let Site::Pooled { pool, logical } = site else {
                    unreachable!("only pool-bound acquires consult the binding table")
                };
                self.phase = match pool.begin_acquire(*logical) {
                    PoolDecision::Hardware(k) => AcqPhase::SetReq(k),
                    PoolDecision::Software => {
                        AcqPhase::Fallback(self.driver.fallback.acquire_script())
                    }
                };
                Step::Compute(POOL_CONSULT_INSTRS)
            }
            AcqPhase::SetReq(k) => match site.gate(k) {
                Gate::Open => {
                    site.regs(k).set_req(core);
                    self.phase = AcqPhase::Spin(k);
                    // mov 1, lock_req
                    Step::Compute(1)
                }
                Gate::Park => {
                    self.phase = AcqPhase::FailbackPark;
                    Step::Compute(1)
                }
                Gate::Closed => self.fail_over(k),
            },
            AcqPhase::Spin(k) => {
                if !site.regs(k).req_pending(core) {
                    if site.is_dead(k) || site.is_trusted(k) {
                        // Granted — also when the grant landed in the same
                        // cycle as the death verdict: quarantine freezes
                        // register state, so a reset flag is a real grant.
                        return self.holds(Path::Hardware(k));
                    }
                    // Untrusted: a repair wiped the register file while the
                    // request was pending — never a grant. (Unreachable
                    // under the runner's phase ordering — spinners observe
                    // the death verdict one core-phase before the earliest
                    // repair — but safe either way.)
                    return self.fail_over(k);
                }
                if site.is_dead(k) {
                    // Our REQ can never be answered: abandon and replay.
                    return self.fail_over(k);
                }
                // bnz lock_req, loop
                Step::Compute(1)
            }
            AcqPhase::DrainWait(k) => {
                if !site.regs(k).hw_drained() {
                    return Step::Compute(1);
                }
                self.phase = AcqPhase::Fallback(self.driver.fallback.acquire_script());
                self.resume(last)
            }
            AcqPhase::FailbackPark => match site.gate(0) {
                Gate::Open => {
                    // Fail-back committed: restart on the hardware path.
                    self.phase = AcqPhase::SetReq(0);
                    Step::Compute(1)
                }
                Gate::Park => Step::Compute(1),
                Gate::Closed => self.fail_over(0),
            },
            AcqPhase::Fallback(ref mut inner) => match inner.resume(last) {
                Step::Done => self.holds(Path::Software),
                step => step,
            },
        }
    }

    snap_methods!(script);

    /// The busy-wait loop is inert while the REQ is still raised *and* the
    /// network is alive: both the grant (register reset) and the death
    /// verdict are produced by the GLock network, whose `next_event`
    /// covers them. The software fallback spins as its TATAS script does.
    /// Every other phase stays hot — its wake conditions involve other
    /// cores' progress or the fail-back controller.
    fn spin(&self) -> Spin {
        let site = &self.driver.site;
        match self.phase {
            AcqPhase::Spin(k)
                if site.regs(k).req_pending(self.tid.index()) && !site.is_dead(k) =>
            {
                Spin::Register
            }
            AcqPhase::Fallback(ref inner) => inner.spin(),
            _ => Spin::Hot,
        }
    }
}

enum RelPhase {
    /// `mov 1, lock_rel` on network `k`. On a dead network the controller
    /// never consumes the flag, but the write itself is the drain signal
    /// the failed-over waiters are watching.
    WriteRel(usize),
    Written,
    /// The software fallback's release.
    Fallback(TatasRelease),
}

struct GlockRelease {
    driver: Rc<Driver>,
    core: usize,
    phase: RelPhase,
}

/// Hand-written for the same reason as [`GlockAcquire`]'s.
impl Snap for GlockRelease {
    fn save(&self, w: &mut SnapWriter) {
        match &self.phase {
            RelPhase::WriteRel(k) => {
                w.u8(0);
                k.save(w);
            }
            RelPhase::Written => w.u8(1),
            RelPhase::Fallback(inner) => {
                w.u8(2);
                inner.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.phase = match r.u8()? {
            0 => RelPhase::WriteRel(r.usize()?),
            1 => RelPhase::Written,
            2 => {
                let mut inner = self.driver.fallback.release_script();
                inner.load(r)?;
                RelPhase::Fallback(inner)
            }
            tag => {
                let what = "glock release phase";
                return Err(SnapError::BadTag { what, tag: u64::from(tag) });
            }
        };
        Ok(())
    }
}

impl Script for GlockRelease {
    fn resume(&mut self, last: u64) -> Step {
        let step = match self.phase {
            RelPhase::WriteRel(k) => {
                self.driver.site.regs(k).set_rel(self.core);
                self.phase = RelPhase::Written;
                // mov 1, lock_rel
                return Step::Compute(1);
            }
            RelPhase::Written => Step::Done,
            RelPhase::Fallback(ref mut inner) => inner.resume(last),
        };
        if matches!(step, Step::Done) {
            let software = matches!(self.phase, RelPhase::Fallback(_));
            self.driver.site.end_release(software);
        }
        step
    }

    snap_methods!(script);
}

impl LockBackend for GlockBackend {
    fn acquire(&self, tid: ThreadId) -> Box<dyn Script> {
        let phase = match self.0.site {
            Site::Pinned(_) => AcqPhase::SetReq(0),
            Site::Pooled { .. } => AcqPhase::Consult,
        };
        Box::new(GlockAcquire {
            driver: Rc::clone(&self.0),
            tid,
            phase,
        })
    }

    fn release(&self, tid: ThreadId) -> Box<dyn Script> {
        let path = self.0.path[tid.index()]
            .take()
            .expect("release without a recorded acquire path");
        let phase = match path {
            Path::Hardware(k) => RelPhase::WriteRel(k),
            Path::Software => RelPhase::Fallback(self.0.fallback.release_script()),
        };
        Box::new(GlockRelease {
            driver: Rc::clone(&self.0),
            core: tid.index(),
            phase,
        })
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.0.save(w);
        Ok(())
    }

    fn load_state(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.load_shared(r)
    }

    fn load_acquire_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        load_script(GlockAcquire { driver: Rc::clone(&self.0), tid, phase: AcqPhase::Consult }, r)
    }

    fn load_release_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        let driver = Rc::clone(&self.0);
        load_script(GlockRelease { driver, core: tid.index(), phase: RelPhase::Written }, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{run_counter_bench_with_nets, BenchOutcome};
    use glocks::{GlockNetwork, Topology};
    use glocks_sim_base::Mesh2D;

    fn ctl_of(net: &GlockNetwork) -> Rc<FailbackCtl> {
        Rc::new(FailbackCtl::new(net.regs(), net.health()))
    }

    /// The counter bench on one pinned GLock, whose network dies at
    /// `kill_at` (if any).
    fn run_pinned(
        threads: usize,
        iters: u64,
        kill_at: Option<u64>,
    ) -> (BenchOutcome, GlockNetwork) {
        let mut net = GlockNetwork::new(&Topology::flat(Mesh2D::near_square(threads)), 1);
        if let Some(at) = kill_at {
            net.schedule_line_kill(at);
        }
        let ctl = ctl_of(&net);
        let mut nets = [net];
        let out = run_counter_bench_with_nets(
            move |base, n| Box::new(GlockBackend::pinned(ctl, base, n)) as _,
            threads,
            iters,
            &mut nets,
        );
        let [net] = nets;
        (out, net)
    }

    fn run(threads: usize, iters: u64) -> BenchOutcome {
        let (out, net) = run_pinned(threads, iters, None);
        assert!(net.is_idle(), "G-line network must drain");
        assert_eq!(net.stats().grants, threads as u64 * iters);
        out
    }

    #[test]
    fn glock_is_correct_under_full_contention() {
        let out = run(32, 3);
        assert_eq!(out.counter_value, 96);
    }

    #[test]
    fn glock_is_round_robin_fair() {
        let out = run(8, 3);
        // Under saturation every round grants each core exactly once.
        for r in 0..3 {
            let mut round: Vec<u16> = out.grant_order[r * 8..(r + 1) * 8]
                .iter()
                .map(|t| t.0)
                .collect();
            round.sort_unstable();
            assert_eq!(round, (0..8).collect::<Vec<_>>(), "round {r} unfair");
        }
    }

    #[test]
    fn glock_beats_mcs_on_lock_time() {
        let glock = run(8, 4);
        let mcs = run_counter_bench_with_nets(
            |base, n| Box::new(crate::mcs::McsLock::new(base, n)) as _,
            8,
            4,
            &mut [],
        );
        assert!(
            glock.lock_cycles_total < mcs.lock_cycles_total / 2,
            "GLock lock cycles {} should be well under MCS's {}",
            glock.lock_cycles_total,
            mcs.lock_cycles_total
        );
        assert!(
            glock.cycles < mcs.cycles,
            "GLock run ({} cy) should beat MCS ({} cy)",
            glock.cycles,
            mcs.cycles
        );
    }

    #[test]
    fn glock_generates_no_lock_traffic() {
        let glock = run(8, 4);
        let mcs = run_counter_bench_with_nets(
            |base, n| Box::new(crate::mcs::McsLock::new(base, n)) as _,
            8,
            4,
            &mut [],
        );
        // Only the shared counter's migration remains on the data network.
        assert!(
            glock.total_bytes < mcs.total_bytes / 2,
            "GLock bytes {} !< half of MCS bytes {}",
            glock.total_bytes,
            mcs.total_bytes
        );
    }

    #[test]
    fn mid_run_line_kill_fails_over_with_no_lost_acquires() {
        let (threads, iters) = (8, 6);
        // Die early, mid-contention: some threads hold, others spin.
        let (out, net) = run_pinned(threads, iters, Some(40));
        // Every critical section executed exactly once despite the death.
        assert_eq!(out.counter_value, threads as u64 * iters);
        assert!(net.health().is_dead(), "the kill must have been detected");
        // The dead network granted only pre-death tenures.
        assert!(net.stats().grants < threads as u64 * iters);
        assert!(net.token_invariant_violation().is_none());
    }

    #[test]
    fn kill_before_first_acquire_runs_entirely_on_software() {
        let (out, net) = run_pinned(4, 3, Some(0));
        assert_eq!(out.counter_value, 12);
        assert!(net.stats().grants < 12, "hardware cannot serve all tenures");
    }

    /// Drive a real mid-failover state — one thread holding through the
    /// hardware path, another parked in `DrainWait` after the line died —
    /// and round-trip both the backend and the in-flight acquire through
    /// the snapshot codec. The restored script must re-encode to the exact
    /// same bytes and behave identically: keep draining while the pre-death
    /// holder is inside its critical section, then replay on the software
    /// path the moment the drain signal lands.
    #[test]
    fn drain_wait_acquire_round_trips_through_a_snapshot() {
        let mut net = GlockNetwork::new(&Topology::flat(Mesh2D::near_square(4)), 1);
        let ctl = ctl_of(&net);
        let b = GlockBackend::pinned(Rc::clone(&ctl), Addr(0x1000), 4);

        // Thread 0 acquires through the healthy hardware path.
        let mut s0 = b.acquire(ThreadId(0));
        let mut now = 0;
        while !matches!(s0.resume(0), Step::Done) {
            net.tick(now);
            now += 1;
            assert!(now < 1_000, "healthy grant never arrived");
        }
        // Thread 1 requests while the token is out, then the line dies;
        // failure detection must escalate to the death verdict.
        let mut s1 = b.acquire(ThreadId(1));
        assert!(matches!(s1.resume(0), Step::Compute(1))); // SetReq → Spin
        net.schedule_line_kill(now);
        while !net.health().is_dead() {
            net.tick(now);
            now += 1;
            assert!(now < 100_000, "death verdict never reached");
        }
        assert!(matches!(s1.resume(0), Step::Compute(1))); // Spin → DrainWait
        assert!(matches!(s1.resume(0), Step::Compute(1))); // still draining
        assert_eq!(ctl.failovers(), 1);

        // Snapshot the backend and the mid-drain script. The script's
        // first byte is its phase tag — it must be DrainWait (3).
        let mut w = SnapWriter::new();
        b.save_state(&mut w).unwrap();
        let backend_len = w.len();
        s1.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes[backend_len], 3, "phase tag must be DrainWait");

        // Restore into a freshly built twin sharing the same hardware
        // (regs/health are network state, restored by the network's own
        // snapshot path in a full-machine resume).
        let ctl2 = ctl_of(&net);
        let b2 = GlockBackend::pinned(Rc::clone(&ctl2), Addr(0x1000), 4);
        let mut r = SnapReader::new(&bytes);
        b2.load_state(&mut r).unwrap();
        let mut s1r = b2.load_acquire_script(ThreadId(1), &mut r).unwrap();
        assert_eq!(
            r.remaining(),
            0,
            "decode must consume exactly what encode wrote"
        );
        assert_eq!((ctl2.failovers(), ctl2.sw_inflight()), (1, 1));
        assert_eq!(b2.0.path[0].get(), Some(Path::Hardware(0)));

        // Re-encoding the restored state is byte-identical.
        let mut w2 = SnapWriter::new();
        b2.save_state(&mut w2).unwrap();
        s1r.save_state(&mut w2).unwrap();
        assert_eq!(
            w2.into_bytes(),
            bytes,
            "restored state must re-encode identically"
        );

        // Behavior parity: both keep draining while thread 0 holds...
        assert_eq!(s1r.resume(0), Step::Compute(1));
        assert_eq!(s1.resume(0), Step::Compute(1));
        // ...and the register write of thread 0's release is the drain
        // signal that lets the restored script replay on TATAS.
        let mut rel = b.release(ThreadId(0));
        while !matches!(rel.resume(0), Step::Done) {}
        assert!(net.regs().hw_drained());
        let step = s1r.resume(0);
        assert_eq!(step, s1.resume(0), "restored script must step in lockstep");
        assert!(
            matches!(step, Step::Mem(_)),
            "drained: replay starts on the software path"
        );
    }

    #[test]
    fn release_without_acquire_panics() {
        let net = GlockNetwork::new(&Topology::flat(Mesh2D::new(2, 2)), 1);
        let b = GlockBackend::pinned(ctl_of(&net), Addr(0x1000), 4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.release(ThreadId(0))));
        assert!(r.is_err());
    }

    #[test]
    fn pooled_backend_is_correct_with_one_physical_lock() {
        let net = GlockNetwork::new(&Topology::flat(Mesh2D::near_square(8)), 1);
        let pool = GlockPool::new(vec![net.regs()]);
        let p2 = Rc::clone(&pool);
        let mut nets = [net];
        let out = run_counter_bench_with_nets(
            move |base, n| Box::new(GlockBackend::pooled(p2, 0, base, n)) as _,
            8,
            5,
            &mut nets,
        );
        assert_eq!(out.counter_value, 40);
        assert!(pool.is_quiescent());
        // the single hot lock must have run on hardware
        let s = pool.stats();
        assert!(s.hw_acquires > 0, "no hardware acquires: {s:?}");
        assert_eq!(s.spills, 0, "sole lock should never spill: {s:?}");
    }

    /// A repaired pool network is untrusted and carries no fail-back
    /// probes, so an acquire joining the episode still pinned to it must
    /// fail over instead of raising REQ next to a software holder.
    #[test]
    fn pooled_acquire_never_requests_on_an_untrusted_network() {
        let mut net = GlockNetwork::new(&Topology::flat(Mesh2D::near_square(4)), 1);
        let regs = net.regs();
        let pool = GlockPool::new(vec![net.regs()]);
        pool.attach_healths(vec![net.health()]);
        let b = GlockBackend::pooled(Rc::clone(&pool), 0, Addr(0x1000), 4);

        // Thread 0 pins the binding and spins on its REQ; the line dies.
        let mut s0 = b.acquire(ThreadId(0));
        assert_eq!(s0.resume(0), Step::Compute(POOL_CONSULT_INSTRS));
        net.schedule_line_kill(0);
        assert_eq!(s0.resume(0), Step::Compute(1)); // SetReq → Spin
        let mut now = 0;
        while !net.health().is_dead() {
            net.tick(now);
            now += 1;
            assert!(now < 100_000, "death verdict never reached");
        }
        assert_eq!(s0.resume(0), Step::Compute(1)); // Spin → DrainWait
                                                    // Nobody holds the hardware, so the replacement installs.
        net.schedule_repair(now);
        net.tick(now);
        assert!(!net.health().is_dead() && !net.health().is_trusted());

        // Thread 1 joins the still-pinned episode on the repaired network.
        let mut s1 = b.acquire(ThreadId(1));
        assert_eq!(s1.resume(0), Step::Compute(POOL_CONSULT_INSTRS));
        assert_eq!(pool.binding_of(0), Some(0), "the episode is still pinned");
        assert_eq!(s1.resume(0), Step::Compute(1));
        assert!(!regs.req_pending(1), "REQ raised on an untrusted network");
        assert_eq!(pool.stats().failovers, 2);
    }
}
