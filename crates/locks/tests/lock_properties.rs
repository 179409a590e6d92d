//! Property tests over every lock implementation: random critical-section
//! and think-time distributions on the full simulated stack must preserve
//! mutual exclusion (tracker-enforced) and lose no counter updates.

use glocks_cpu::{Action, Backends, BarrierBackend, Core, FixedScript, LockBackend, LockTracker, Script, Workload};
use glocks_locks::failback::FailbackCtl;
use glocks_locks::LockAlgorithm;
use glocks_mem::{MemOp, MemorySystem};
use glocks_sim_base::{Addr, CmpConfig, CoreId, LockId, SplitMix64, ThreadId};
use glocks::{GlockNetwork, Topology};
use proptest::prelude::*;
use std::rc::Rc;

struct NullBarrier;

impl BarrierBackend for NullBarrier {
    fn wait(&self, _tid: ThreadId) -> Box<dyn Script> {
        Box::new(FixedScript::new(0))
    }
}

enum Phase {
    Enter,
    Load,
    Think,
    Store,
    Exit,
    Rest,
}

/// Random-duration critical sections around a non-atomic increment.
struct JitterLoop {
    counter: Addr,
    iters: u64,
    rng: SplitMix64,
    phase: Phase,
    seen: u64,
}

impl Workload for JitterLoop {
    fn next(&mut self, last: u64) -> Action {
        match self.phase {
            Phase::Enter => {
                if self.iters == 0 {
                    return Action::Done;
                }
                self.phase = Phase::Load;
                Action::Acquire(LockId(0))
            }
            Phase::Load => {
                self.phase = Phase::Think;
                Action::Mem(MemOp::Load(self.counter))
            }
            Phase::Think => {
                self.seen = last;
                self.phase = Phase::Store;
                Action::Compute(self.rng.next_below(24) + 1)
            }
            Phase::Store => {
                self.phase = Phase::Exit;
                Action::Mem(MemOp::Store(self.counter, self.seen + 1))
            }
            Phase::Exit => {
                self.iters -= 1;
                self.phase = Phase::Rest;
                Action::Release(LockId(0))
            }
            Phase::Rest => {
                self.phase = Phase::Enter;
                Action::Compute(self.rng.next_below(64) + 1)
            }
        }
    }
}

fn run_property(algo: LockAlgorithm, threads: usize, iters: u64, seed: u64) -> u64 {
    let cfg = CmpConfig::paper_baseline().with_cores(threads);
    let mut mem = MemorySystem::new(&cfg);
    let counter = Addr(0x90_000);
    let mesh = cfg.mesh();
    let mut glock_net = (algo == LockAlgorithm::Glock)
        .then(|| GlockNetwork::new(&Topology::flat(mesh), 1));
    let ctl = glock_net.as_ref().map(|n| Rc::new(FailbackCtl::new(n.regs(), n.health())));
    let mp = matches!(algo, LockAlgorithm::MpLock | LockAlgorithm::SyncBuf)
        .then(|| (mem.mp_fabric(), 0u16));
    let backend = algo.make_backend(Addr(0x10_000), threads, ctl, mp);
    let locks: Vec<Box<dyn LockBackend>> = vec![backend];
    let barrier = NullBarrier;
    let backends = Backends { locks: &locks, barrier: &barrier };
    let mut tracker = LockTracker::new(1, threads);
    let mut root = SplitMix64::new(seed);
    let mut cores: Vec<Core> = (0..threads)
        .map(|i| {
            Core::new(
                CoreId(i as u16),
                cfg.issue_width,
                Box::new(JitterLoop {
                    counter,
                    iters,
                    rng: root.split(),
                    phase: Phase::Enter,
                    seen: 0,
                }),
            )
        })
        .collect();
    let mut now = 0u64;
    loop {
        let mut all_done = true;
        for c in &mut cores {
            c.tick(now, &mut mem, &backends, &mut tracker);
            all_done &= c.is_finished();
        }
        mem.tick(now);
        if let Some(net) = glock_net.as_mut() {
            net.tick(now);
            net.assert_token_invariants();
        }
        tracker.sample();
        if all_done {
            break;
        }
        now += 1;
        assert!(now < 100_000_000, "{algo:?} hung");
    }
    assert!(tracker.all_quiet());
    mem.store().load(counter)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn no_lost_updates_under_any_algorithm(
        seed in any::<u64>(),
        threads in 2usize..9,
        iters in 1u64..5,
    ) {
        for algo in [
            LockAlgorithm::Simple,
            LockAlgorithm::Tatas,
            LockAlgorithm::TatasBackoff,
            LockAlgorithm::Ticket,
            LockAlgorithm::Anderson,
            LockAlgorithm::Mcs,
            LockAlgorithm::Reactive,
            LockAlgorithm::Glock,
            LockAlgorithm::MpLock,
            LockAlgorithm::SyncBuf,
            LockAlgorithm::Ideal,
        ] {
            let v = run_property(algo, threads, iters, seed);
            prop_assert_eq!(
                v,
                threads as u64 * iters,
                "{:?} lost updates with {} threads x {} iters",
                algo, threads, iters
            );
        }
    }
}
