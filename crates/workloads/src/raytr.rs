//! RAYTR: a Raytrace-style task-parallel renderer kernel.
//!
//! SPLASH-2 Raytrace (teapot) has 34 locks of which only 2 are highly
//! contended (Table III), both with SCTR-like access patterns: the global
//! ray-task queue lock and the ray-ID counter lock. This kernel reproduces
//! that structure: threads repeatedly grab the next ray from a shared task
//! counter under lock 0, render it (compute + private scratch memory),
//! bump the ray-ID counter under lock 1 for every second ray, and touch
//! one of 32 low-contention statistics locks for every eighth ray. A final
//! barrier closes the parallel phase.
//!
//! Knob calibration targets the paper's measured profile: under MCS at 32
//! cores, lock operations take roughly a third of the execution time
//! (Figures 1 and 8), with Busy/Memory dominating.

use crate::{BenchConfig, BenchInstance, DATA_BASE};
use glocks_cpu::{snap_methods, Action, Workload};
use glocks_mem::MemOp;
use glocks_sim_base::{snap, Addr, LockId, SplitMix64};

/// Average per-ray render cost in instructions (plus jitter below).
const RENDER_BASE: u64 = 20000;
const RENDER_JITTER: u64 = 10000;
/// Scratch memory touches per ray (private loads/stores).
const SCRATCH_OPS: u64 = 6;

fn task_ctr() -> Addr {
    DATA_BASE
}

fn rayid_ctr() -> Addr {
    Addr(DATA_BASE.0 + 64)
}

fn stat_word(i: u64) -> Addr {
    Addr(DATA_BASE.0 + 0x1_0000 + i * 64)
}

fn scratch(tid: usize, k: u64) -> Addr {
    Addr(DATA_BASE.0 + 0x2_0000 + tid as u64 * 512 + (k % 4) * 64)
}

/// Deterministic per-ray hash for render-time jitter.
fn ray_hash(task: u64, seed: u64) -> u64 {
    SplitMix64::new(seed ^ task.wrapping_mul(0x9E37_79B9)).next_u64()
}

enum Phase {
    GrabEnter,
    GrabLoad,
    GrabStore,
    GrabExit { task: u64 },
    Render { task: u64 },
    Scratch { task: u64, k: u64 },
    RayIdLoad { task: u64 },
    RayIdStore { task: u64 },
    RayIdExit { task: u64 },
    StatEnter { task: u64 },
    StatLoad { task: u64 },
    StatStore { task: u64 },
    StatExit { task: u64 },
    FinalBarrier,
    Finished,
}
snap!(enum Phase {
    0 => GrabEnter,
    1 => GrabLoad,
    2 => GrabStore,
    3 => GrabExit { task },
    4 => Render { task },
    5 => Scratch { task, k },
    6 => RayIdLoad { task },
    7 => RayIdStore { task },
    8 => RayIdExit { task },
    9 => StatEnter { task },
    10 => StatLoad { task },
    11 => StatStore { task },
    12 => StatExit { task },
    13 => FinalBarrier,
    14 => Finished,
});

struct RaytrThread {
    tid: usize,
    n_rays: u64,
    seed: u64,
    phase: Phase,
    seen: u64,
}
snap!(RaytrThread { phase, seen; skip tid, n_rays, seed });

impl RaytrThread {
    fn stat_lock_of(task: u64) -> LockId {
        LockId(2 + ((task / 8) % 32) as u16)
    }

    /// Next step after a ray's side work is done.
    fn after_ray(&mut self, task: u64) -> Action {
        if task.is_multiple_of(8) {
            self.phase = Phase::StatLoad { task };
            Action::Acquire(Self::stat_lock_of(task))
        } else {
            self.phase = Phase::GrabEnter;
            Action::Compute(64)
        }
    }
}

impl Workload for RaytrThread {
    fn next(&mut self, last: u64) -> Action {
        match self.phase {
            Phase::GrabEnter => {
                self.phase = Phase::GrabLoad;
                Action::Acquire(LockId(0))
            }
            Phase::GrabLoad => {
                self.phase = Phase::GrabStore;
                Action::Mem(MemOp::Load(task_ctr()))
            }
            Phase::GrabStore => {
                self.seen = last;
                self.phase = Phase::GrabExit { task: self.seen };
                Action::Mem(MemOp::Store(task_ctr(), self.seen + 1))
            }
            Phase::GrabExit { task } => {
                self.phase = if task >= self.n_rays {
                    Phase::FinalBarrier
                } else {
                    Phase::Render { task }
                };
                Action::Release(LockId(0))
            }
            Phase::Render { task } => {
                let h = ray_hash(task, self.seed);
                self.phase = Phase::Scratch { task, k: 0 };
                Action::Compute(RENDER_BASE + h % RENDER_JITTER)
            }
            Phase::Scratch { task, k } => {
                if k < SCRATCH_OPS {
                    self.phase = Phase::Scratch { task, k: k + 1 };
                    let a = scratch(self.tid, k);
                    return if k % 2 == 0 {
                        Action::Mem(MemOp::Load(a))
                    } else {
                        Action::Mem(MemOp::Store(a, task))
                    };
                }
                if task % 2 == 0 {
                    self.phase = Phase::RayIdLoad { task };
                    Action::Acquire(LockId(1))
                } else {
                    self.phase = Phase::RayIdExit { task };
                    // skip the ray-ID CS for odd rays
                    self.next(0)
                }
            }
            Phase::RayIdLoad { task } => {
                self.phase = Phase::RayIdStore { task };
                Action::Mem(MemOp::Load(rayid_ctr()))
            }
            Phase::RayIdStore { task } => {
                self.seen = last;
                self.phase = Phase::RayIdExit { task };
                Action::Mem(MemOp::Store(rayid_ctr(), self.seen + 1))
            }
            Phase::RayIdExit { task } => {
                if task % 2 == 0 {
                    self.phase = Phase::StatEnter { task };
                    Action::Release(LockId(1))
                } else {
                    self.after_ray(task)
                }
            }
            Phase::StatEnter { task } => self.after_ray(task),
            Phase::StatLoad { task } => {
                self.phase = Phase::StatStore { task };
                Action::Mem(MemOp::Load(stat_word((task / 8) % 32)))
            }
            Phase::StatStore { task } => {
                self.seen = last;
                self.phase = Phase::StatExit { task };
                Action::Mem(MemOp::Store(stat_word((task / 8) % 32), self.seen + 1))
            }
            Phase::StatExit { task } => {
                self.phase = Phase::GrabEnter;
                Action::Release(Self::stat_lock_of(task))
            }
            Phase::FinalBarrier => {
                self.phase = Phase::Finished;
                Action::Barrier
            }
            Phase::Finished => Action::Done,
        }
    }

    snap_methods!(workload);
}

/// Build RAYTR with `scale` rays.
pub fn build(cfg: &BenchConfig) -> BenchInstance {
    let n_rays = cfg.scale;
    let seed = cfg.seed;
    let workloads = (0..cfg.threads)
        .map(|t| {
            Box::new(RaytrThread {
                tid: t,
                n_rays,
                seed,
                phase: Phase::GrabEnter,
                seen: 0,
            }) as Box<dyn Workload>
        })
        .collect();
    let threads = cfg.threads as u64;
    BenchInstance {
        workloads,
        init: vec![],
        verify: Box::new(move |store| {
            // Each of rays 0..n_rays executed exactly once; each thread
            // overshoots by at most one grab.
            let tasks = store.load(task_ctr());
            if tasks < n_rays || tasks > n_rays + threads {
                return Err(format!(
                    "task counter = {tasks}, expected in [{n_rays}, {}]",
                    n_rays + threads
                ));
            }
            // Ray-ID bumps: one per even ray.
            let rayids = store.load(rayid_ctr());
            let expect = n_rays.div_ceil(2);
            if rayids != expect {
                return Err(format!("ray-id counter = {rayids}, expected {expect}"));
            }
            // Statistics: ray 8k bumps stat word (k mod 32).
            for w in 0..32u64 {
                let got = store.load(stat_word(w));
                let expect = (0..n_rays).filter(|t| t % 8 == 0 && (t / 8) % 32 == w).count() as u64;
                if got != expect {
                    return Err(format!("stat[{w}] = {got}, expected {expect}"));
                }
            }
            Ok(())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchKind;

    #[test]
    fn builds() {
        let inst = BenchConfig::smoke(BenchKind::Raytr, 4).build();
        assert_eq!(inst.workloads.len(), 4);
    }

    #[test]
    fn ray_hash_is_deterministic() {
        assert_eq!(ray_hash(5, 1), ray_hash(5, 1));
        assert_ne!(ray_hash(5, 1), ray_hash(6, 1));
    }
}
