//! PRCO: "a shared FIFO (bounded) array, protected by a single lock, that
//! is initially empty. Half the threads enqueue items into the FIFO that
//! are consumed by the other half of threads. Producers have to wait for
//! free slots in the FIFO whereas consumers have to wait for data to
//! consume before iterating the critical section code."
//!
//! A full/empty check failure releases the lock, backs off briefly and
//! retries — the classic lock-based bounded buffer, and the access pattern
//! the paper attributes to QSort's work queue.

use crate::{share, BenchConfig, BenchInstance, DATA_BASE};
use glocks_cpu::{snap_methods, Action, Workload};
use glocks_mem::MemOp;
use glocks_sim_base::{snap, Addr, LockId};

/// FIFO capacity (slots).
pub const CAPACITY: u64 = 8;

fn count_addr() -> Addr {
    DATA_BASE
}

fn head_addr() -> Addr {
    Addr(DATA_BASE.0 + 64)
}

fn tail_addr() -> Addr {
    Addr(DATA_BASE.0 + 128)
}

fn slot_addr(i: u64) -> Addr {
    Addr(DATA_BASE.0 + 192 + (i % CAPACITY) * 64)
}

/// Where consumers accumulate a checksum of consumed items.
fn consumed_sum_addr(tid: usize) -> Addr {
    Addr(DATA_BASE.0 + 192 + CAPACITY * 64 + tid as u64 * 64)
}

enum Phase {
    Enter,
    CheckCount,
    ReadIndex,
    Transfer { count: u64 },
    BumpIndex { count: u64, index: u64, item: u64 },
    WriteCount { count: u64 },
    Exit,
    Backoff,
    Rest,
    SaveSum,
    StoreSum,
}
snap!(enum Phase {
    0 => Enter,
    1 => CheckCount,
    2 => ReadIndex,
    3 => Transfer { count },
    4 => BumpIndex { count, index, item },
    5 => WriteCount { count },
    6 => Exit,
    7 => Backoff,
    8 => Rest,
    9 => SaveSum,
    10 => StoreSum,
});

struct PrcoLoop {
    tid: usize,
    producer: bool,
    quota: u64,
    next_item: u64,
    my_sum: u64,
    phase: Phase,
}
snap!(PrcoLoop { phase, quota, next_item, my_sum; skip tid, producer });

impl Workload for PrcoLoop {
    fn next(&mut self, last: u64) -> Action {
        match self.phase {
            Phase::Enter => {
                if self.quota == 0 {
                    return Action::Done;
                }
                self.phase = Phase::CheckCount;
                Action::Acquire(LockId(0))
            }
            Phase::CheckCount => {
                self.phase = Phase::ReadIndex;
                Action::Mem(MemOp::Load(count_addr()))
            }
            Phase::ReadIndex => {
                let count = last;
                let blocked = if self.producer { count >= CAPACITY } else { count == 0 };
                if blocked {
                    // Full (producer) / empty (consumer): release and retry.
                    self.phase = Phase::Backoff;
                    return Action::Release(LockId(0));
                }
                self.phase = Phase::Transfer { count };
                let idx = if self.producer { tail_addr() } else { head_addr() };
                Action::Mem(MemOp::Load(idx))
            }
            Phase::Transfer { count } => {
                let index = last;
                if self.producer {
                    let item = self.next_item;
                    self.phase = Phase::BumpIndex { count, index, item };
                    Action::Mem(MemOp::Store(slot_addr(index), item))
                } else {
                    self.phase = Phase::BumpIndex { count, index, item: 0 };
                    Action::Mem(MemOp::Load(slot_addr(index)))
                }
            }
            Phase::BumpIndex { count, index, item } => {
                let item = if self.producer { item } else { last };
                self.phase = Phase::WriteCount { count };
                if !self.producer {
                    // remember what we consumed for the checksum
                    self.my_sum += item;
                }
                let idx = if self.producer { tail_addr() } else { head_addr() };
                Action::Mem(MemOp::Store(idx, (index + 1) % CAPACITY))
            }
            Phase::WriteCount { count } => {
                self.phase = Phase::Exit;
                let new = if self.producer { count + 1 } else { count - 1 };
                Action::Mem(MemOp::Store(count_addr(), new))
            }
            Phase::Exit => {
                self.quota -= 1;
                if self.producer {
                    self.next_item += 1;
                    self.phase = Phase::Rest;
                } else {
                    self.phase = Phase::SaveSum;
                }
                Action::Release(LockId(0))
            }
            Phase::Backoff => {
                self.phase = Phase::Enter;
                Action::Compute(48)
            }
            Phase::Rest => {
                self.phase = Phase::Enter;
                Action::Compute(32)
            }
            Phase::SaveSum => {
                // Persist the running checksum (outside the lock).
                self.phase = Phase::StoreSum;
                Action::Mem(MemOp::Store(consumed_sum_addr(self.tid), self.my_sum))
            }
            Phase::StoreSum => {
                self.phase = Phase::Enter;
                Action::Compute(16)
            }
        }
    }

    snap_methods!(workload);
}

/// Build PRCO. Threads with even ids produce; odd ids consume. A single
/// thread alternating is not meaningful, so `threads ≥ 2` is required.
pub fn build(cfg: &BenchConfig) -> BenchInstance {
    assert!(cfg.threads >= 2, "PRCO needs at least one producer and one consumer");
    let threads = cfg.threads;
    let producers: Vec<usize> = (0..threads).filter(|t| t % 2 == 0).collect();
    let consumers: Vec<usize> = (0..threads).filter(|t| t % 2 == 1).collect();
    let total = cfg.scale;
    // item k (0-based) carries value k+1 so absent items are detectable
    let mut produce_start = vec![0u64; threads];
    let mut quota = vec![0u64; threads];
    let mut next = 1u64;
    for (i, &p) in producers.iter().enumerate() {
        let q = share(total, producers.len(), i);
        quota[p] = q;
        produce_start[p] = next;
        next += q;
    }
    for (i, &c) in consumers.iter().enumerate() {
        quota[c] = share(total, consumers.len(), i);
    }
    let consumer_ids = consumers.clone();
    let workloads = (0..threads)
        .map(|t| {
            Box::new(PrcoLoop {
                tid: t,
                producer: t % 2 == 0,
                quota: quota[t],
                next_item: produce_start[t],
                my_sum: 0,
                phase: Phase::Enter,
            }) as Box<dyn Workload>
        })
        .collect();
    // sum of item values 1..=total
    let expect_sum = total * (total + 1) / 2;
    BenchInstance {
        workloads,
        init: vec![],
        verify: Box::new(move |store| {
            let count = store.load(count_addr());
            if count != 0 {
                return Err(format!("FIFO still holds {count} items"));
            }
            let got: u64 = consumer_ids
                .iter()
                .map(|&c| store.load(consumed_sum_addr(c)))
                .sum();
            if got != expect_sum {
                return Err(format!(
                    "consumed checksum {got}, expected {expect_sum} (items lost or duplicated)"
                ));
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
    fn quotas_balance() {
        let cfg = BenchConfig::smoke(BenchKind::Prco, 6);
        let inst = cfg.build();
        assert_eq!(inst.workloads.len(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one producer")]
    fn rejects_single_thread() {
        let cfg = BenchConfig::smoke(BenchKind::Prco, 1);
        let _ = cfg.build();
    }

    #[test]
    fn slot_addresses_wrap() {
        assert_eq!(slot_addr(0), slot_addr(CAPACITY));
        assert_ne!(slot_addr(0), slot_addr(1));
    }
}
