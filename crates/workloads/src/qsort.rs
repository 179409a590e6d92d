//! QSORT: parallel quicksort of `scale` integers over a shared work stack
//! protected by a single lock.
//!
//! The work stack holds `(lo, hi)` subarray tasks; threads pop a task
//! under the lock, partition the subarray in simulated memory, push the
//! two halves back under the lock, and sort small segments locally. Idle
//! threads poll the stack under the lock — exactly the PRCO-like waiting
//! pattern Table III attributes to QSort, and the reason its contention
//! stays high (Figure 7) and its speedup saturates (Table IV).
//!
//! A `pending` task counter (also under the lock) distinguishes "stack
//! momentarily empty" from "sorting finished".

use crate::{BenchConfig, BenchInstance, DATA_BASE};
use glocks_cpu::{snap_methods, Action, Workload};
use glocks_mem::MemOp;
use glocks_sim_base::{snap, Addr, LockId, SplitMix64};

/// Segments at or below this length are sorted locally.
const GRAIN: u64 = 128;
/// Work-stack capacity (entries).
const STACK_CAP: u64 = 1024;
/// Idle-poll exponential backoff bounds (instructions) for the lockless
/// emptiness guard.
const MIN_BACKOFF: u64 = 128;
const MAX_BACKOFF: u64 = 2048;

fn sp_addr() -> Addr {
    DATA_BASE
}

fn pending_addr() -> Addr {
    Addr(DATA_BASE.0 + 64)
}

fn stack_slot(i: u64) -> Addr {
    Addr(DATA_BASE.0 + 128 + (i % STACK_CAP) * 64)
}

fn arr(i: u64) -> Addr {
    Addr(DATA_BASE.0 + 0x10_0000 + i * 8)
}

fn pack(lo: u64, hi: u64) -> u64 {
    (lo << 32) | hi
}

fn unpack(task: u64) -> (u64, u64) {
    (task >> 32, task & 0xFFFF_FFFF)
}

enum Phase {
    /// Lockless guard: peek at the stack pointer without the lock
    /// (test-and-test&set style), acquiring only when work seems present.
    PeekSp,
    PeekPending,
    PopEnter,
    PopSp,
    PopPending,
    PopRead { sp: u64 },
    PopCommit { task: u64 },
    PopExit { task: u64 },
    Backoff,
    // --- leaf: load segment, locally sort, store back ---
    LeafLoad { lo: u64, hi: u64, i: u64 },
    LeafStore { lo: u64, hi: u64, i: u64 },
    // --- partition (Hoare, pivot = a[(lo+hi)/2]): every element is
    //     loaded exactly once per pass and swap values stay in registers,
    //     like a register-allocated textbook implementation ---
    PivotIssue { lo: u64, hi: u64 },
    PivotWait { lo: u64, hi: u64 },
    UpWait { lo: u64, hi: u64, pivot: u64, i: u64, j: u64 },
    DownWait { lo: u64, hi: u64, pivot: u64, i: u64, j: u64, vi: u64 },
    StoreJWait { lo: u64, hi: u64, pivot: u64, i: u64, j: u64, vi: u64 },
    PostSwap { lo: u64, hi: u64, pivot: u64, i: u64, j: u64 },
    // --- push results ---
    PushEnter { t1: Option<u64>, t2: Option<u64> },
    PushSp { t1: Option<u64>, t2: Option<u64> },
    PushSlot1 { t1: u64, t2: Option<u64> },
    PushSlot2 { t2: u64, sp: u64 },
    PushBumpSp { sp: u64, pushed: u64 },
    AdjPendingLoad { delta: i64 },
    AdjPendingStore { delta: i64 },
    PushExit,
    Finished,
}
snap!(enum Phase {
    0 => PeekSp,
    1 => PeekPending,
    2 => PopEnter,
    3 => PopSp,
    4 => PopPending,
    5 => PopRead { sp },
    6 => PopCommit { task },
    7 => PopExit { task },
    8 => Backoff,
    9 => LeafLoad { lo, hi, i },
    10 => LeafStore { lo, hi, i },
    11 => PivotIssue { lo, hi },
    12 => PivotWait { lo, hi },
    13 => UpWait { lo, hi, pivot, i, j },
    14 => DownWait { lo, hi, pivot, i, j, vi },
    15 => StoreJWait { lo, hi, pivot, i, j, vi },
    16 => PostSwap { lo, hi, pivot, i, j },
    17 => PushEnter { t1, t2 },
    18 => PushSp { t1, t2 },
    19 => PushSlot1 { t1, t2 },
    20 => PushSlot2 { t2, sp },
    21 => PushBumpSp { sp, pushed },
    22 => AdjPendingLoad { delta },
    23 => AdjPendingStore { delta },
    24 => PushExit,
    25 => Finished,
});

struct QsortThread {
    phase: Phase,
    /// Leaf buffer: values loaded from the current small segment.
    buf: Vec<u64>,
    /// Exponential idle-poll backoff (reset on a successful pop).
    backoff: u64,
}
snap!(QsortThread { phase, buf, backoff });

impl Workload for QsortThread {
    fn next(&mut self, last: u64) -> Action {
        match std::mem::replace(&mut self.phase, Phase::Finished) {
            Phase::PeekSp => {
                self.phase = Phase::PeekPending;
                Action::Mem(MemOp::Load(sp_addr()))
            }
            Phase::PeekPending => {
                let sp = last;
                if sp > 0 {
                    // Work seems available: take the lock and re-check.
                    self.phase = Phase::PopEnter;
                    return self.next(0);
                }
                self.phase = Phase::Backoff;
                Action::Mem(MemOp::Load(pending_addr()))
            }
            Phase::Backoff => {
                // `last` is the pending count from the lockless peek.
                if last == 0 {
                    self.phase = Phase::Finished;
                    return Action::Done;
                }
                let d = self.backoff;
                self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
                self.phase = Phase::PeekSp;
                Action::Compute(d)
            }
            Phase::PopEnter => {
                self.phase = Phase::PopSp;
                Action::Acquire(LockId(0))
            }
            Phase::PopSp => {
                self.phase = Phase::PopPending;
                Action::Mem(MemOp::Load(sp_addr()))
            }
            Phase::PopPending => {
                let sp = last;
                if sp == 0 {
                    self.phase = Phase::PopRead { sp: u64::MAX };
                    return Action::Mem(MemOp::Load(pending_addr()));
                }
                self.phase = Phase::PopRead { sp };
                Action::Mem(MemOp::Load(stack_slot(sp - 1)))
            }
            Phase::PopRead { sp } => {
                if sp == u64::MAX {
                    // Raced: the stack emptied between peek and lock.
                    // `last` is the pending count.
                    if last == 0 {
                        self.phase = Phase::Finished;
                        return Action::Release(LockId(0));
                    }
                    self.phase = Phase::PeekSp;
                    return Action::Release(LockId(0));
                }
                let task = last;
                self.phase = Phase::PopCommit { task };
                Action::Mem(MemOp::Store(sp_addr(), sp - 1))
            }
            Phase::PopCommit { task } => {
                self.backoff = MIN_BACKOFF;
                self.phase = Phase::PopExit { task };
                Action::Release(LockId(0))
            }
            Phase::PopExit { task } => {
                let (lo, hi) = unpack(task);
                if hi - lo < GRAIN {
                    self.buf.clear();
                    self.phase = Phase::LeafLoad { lo, hi, i: lo };
                    Action::Compute(32)
                } else {
                    self.phase = Phase::PivotIssue { lo, hi };
                    Action::Compute(16)
                }
            }
            // ---- leaf ----
            Phase::LeafLoad { lo, hi, i } => {
                if i > lo {
                    self.buf.push(last);
                }
                if i <= hi {
                    self.phase = Phase::LeafLoad { lo, hi, i: i + 1 };
                    return Action::Mem(MemOp::Load(arr(i)));
                }
                // All loaded: sort locally (modeled as n·log n work).
                self.buf.sort_unstable();
                let n = hi - lo + 1;
                self.phase = Phase::LeafStore { lo, hi, i: lo };
                Action::Compute(224 * n)
            }
            Phase::LeafStore { lo, hi, i } => {
                if i <= hi {
                    let v = self.buf[(i - lo) as usize];
                    self.phase = Phase::LeafStore { lo, hi, i: i + 1 };
                    return Action::Mem(MemOp::Store(arr(i), v));
                }
                self.phase = Phase::AdjPendingLoad { delta: -1 };
                Action::Acquire(LockId(0))
            }
            // ---- partition ----
            Phase::PivotIssue { lo, hi } => {
                let mid = lo + (hi - lo) / 2;
                self.phase = Phase::PivotWait { lo, hi };
                Action::Mem(MemOp::Load(arr(mid)))
            }
            Phase::PivotWait { lo, hi } => {
                let pivot = last;
                self.phase = Phase::UpWait { lo, hi, pivot, i: lo, j: hi };
                Action::Mem(MemOp::Load(arr(lo)))
            }
            Phase::UpWait { lo, hi, pivot, i, j } => {
                let vi = last;
                if vi < pivot {
                    // repeat i++ until a[i] >= pivot (the pivot's own
                    // position bounds the scan)
                    self.phase = Phase::UpWait { lo, hi, pivot, i: i + 1, j };
                    return Action::Mem(MemOp::Load(arr(i + 1)));
                }
                self.phase = Phase::DownWait { lo, hi, pivot, i, j, vi };
                Action::Mem(MemOp::Load(arr(j)))
            }
            Phase::DownWait { lo, hi, pivot, i, j, vi } => {
                let vj = last;
                if vj > pivot {
                    self.phase = Phase::DownWait { lo, hi, pivot, i, j: j - 1, vi };
                    return Action::Mem(MemOp::Load(arr(j - 1)));
                }
                if i >= j {
                    // Crossed at split point j ∈ [lo, hi-1]: spawn both
                    // halves (Hoare's invariants keep them non-empty).
                    let t1 = Some(pack(lo, j));
                    let t2 = Some(pack(j + 1, hi));
                    self.phase = Phase::PushEnter { t1, t2 };
                    return Action::Compute(8);
                }
                // swap a[i] <-> a[j]; both values are in registers
                self.phase = Phase::StoreJWait { lo, hi, pivot, i, j, vi };
                Action::Mem(MemOp::Store(arr(i), vj))
            }
            Phase::StoreJWait { lo, hi, pivot, i, j, vi } => {
                self.phase = Phase::PostSwap { lo, hi, pivot, i, j };
                Action::Mem(MemOp::Store(arr(j), vi))
            }
            Phase::PostSwap { lo, hi, pivot, i, j } => {
                self.phase = Phase::UpWait { lo, hi, pivot, i: i + 1, j: j - 1 };
                Action::Mem(MemOp::Load(arr(i + 1)))
            }
            // ---- push ----
            Phase::PushEnter { t1, t2 } => {
                self.phase = Phase::PushSp { t1, t2 };
                Action::Acquire(LockId(0))
            }
            Phase::PushSp { t1, t2 } => {
                match (t1, t2) {
                    (None, None) => {
                        // Both sides trivial: just account the finished task.
                        self.phase = Phase::AdjPendingLoad { delta: -1 };
                        self.next(0)
                    }
                    _ => {
                        self.phase = match t1 {
                            Some(v) => Phase::PushSlot1 { t1: v, t2 },
                            None => Phase::PushSlot1 { t1: t2.expect("one side"), t2: None },
                        };
                        Action::Mem(MemOp::Load(sp_addr()))
                    }
                }
            }
            Phase::PushSlot1 { t1, t2 } => {
                let sp = last;
                assert!(sp < STACK_CAP, "work stack overflow");
                self.phase = match t2 {
                    Some(v) => Phase::PushSlot2 { t2: v, sp },
                    None => Phase::PushBumpSp { sp, pushed: 1 },
                };
                Action::Mem(MemOp::Store(stack_slot(sp), t1))
            }
            Phase::PushSlot2 { t2, sp } => {
                self.phase = Phase::PushBumpSp { sp, pushed: 2 };
                Action::Mem(MemOp::Store(stack_slot(sp + 1), t2))
            }
            Phase::PushBumpSp { sp, pushed } => {
                self.phase = Phase::AdjPendingLoad { delta: pushed as i64 - 1 };
                Action::Mem(MemOp::Store(sp_addr(), sp + pushed))
            }
            Phase::AdjPendingLoad { delta } => {
                self.phase = Phase::AdjPendingStore { delta };
                Action::Mem(MemOp::Load(pending_addr()))
            }
            Phase::AdjPendingStore { delta } => {
                let new = (last as i64 + delta) as u64;
                self.phase = Phase::PushExit;
                Action::Mem(MemOp::Store(pending_addr(), new))
            }
            Phase::PushExit => {
                self.phase = Phase::PeekSp;
                Action::Release(LockId(0))
            }
            Phase::Finished => Action::Done,
        }
    }

    snap_methods!(workload);
}

/// Build QSORT over `scale` pseudo-random integers.
pub fn build(cfg: &BenchConfig) -> BenchInstance {
    let n = cfg.scale;
    assert!(n >= 2);
    let mut rng = SplitMix64::new(cfg.seed);
    let mut init: Vec<(Addr, u64)> = (0..n)
        .map(|i| (arr(i), rng.next_u64() % 1_000_000 + 1))
        .collect();
    let expected_sum: u64 = init.iter().map(|&(_, v)| v).sum();
    let expected_xor: u64 = init.iter().fold(0, |x, &(_, v)| x ^ v);
    init.push((sp_addr(), 1));
    init.push((stack_slot(0), pack(0, n - 1)));
    init.push((pending_addr(), 1));
    let workloads = (0..cfg.threads)
        .map(|_| Box::new(QsortThread { phase: Phase::PeekSp, buf: Vec::new(), backoff: MIN_BACKOFF }) as Box<dyn Workload>)
        .collect();
    BenchInstance {
        workloads,
        init,
        verify: Box::new(move |store| {
            if store.load(pending_addr()) != 0 {
                return Err("pending tasks remain".into());
            }
            let mut sum = 0u64;
            let mut xor = 0u64;
            let mut prev = 0u64;
            for i in 0..n {
                let v = store.load(arr(i));
                if v < prev {
                    return Err(format!("array not sorted at {i}: {prev} > {v}"));
                }
                prev = v;
                sum = sum.wrapping_add(v);
                xor ^= v;
            }
            if sum != expected_sum || xor != expected_xor {
                return Err("array is not a permutation of the input".into());
            }
            Ok(())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips() {
        let t = pack(123, 456_789);
        assert_eq!(unpack(t), (123, 456_789));
    }

    #[test]
    fn initial_image_has_one_task() {
        let inst = BenchConfig {
            kind: crate::BenchKind::Qsort,
            threads: 4,
            scale: 256,
            seed: 7,
        }
        .build();
        assert!(inst.init.iter().any(|&(a, v)| a == sp_addr() && v == 1));
        assert!(inst.init.iter().any(|&(a, v)| a == pending_addr() && v == 1));
    }
}
