//! DBLL: "a doubly-linked list, protected by a single lock, where threads
//! dequeue elements from the head of the list and enqueue them into the
//! tail of the list afterwards".
//!
//! The list lives entirely in simulated memory: node `i` has a `next` word
//! and a `prev` word in separate cache lines; a head and a tail sentinel
//! bracket the chain. Each iteration dequeues one node at the head (under
//! the lock), "uses" it, then enqueues it at the tail (under the lock).

use crate::{share, BenchConfig, BenchInstance, DATA_BASE};
use glocks_cpu::{snap_methods, Action, Workload};
use glocks_mem::store::WordStore;
use glocks_mem::MemOp;
use glocks_sim_base::{snap, Addr, LockId};

/// Bytes per node record (next and prev words in separate lines).
const NODE_STRIDE: u64 = 128;
/// Extra free nodes beyond one per thread.
const SPARE_NODES: u64 = 4;

fn node_base(i: u64) -> Addr {
    Addr(DATA_BASE.0 + i * NODE_STRIDE)
}

fn next_of(node: Addr) -> Addr {
    node
}

fn prev_of(node: Addr) -> Addr {
    Addr(node.0 + 64)
}

enum Phase {
    EnterDeq,
    ReadHeadNext,
    ReadVictimNext,
    Unlink { victim: u64 },
    UnlinkBack { victim: u64, after: u64 },
    ExitDeq { victim: u64 },
    Use { victim: u64 },
    EnterEnq { victim: u64 },
    ReadTailPrev { victim: u64 },
    LinkPrev { victim: u64 },
    LinkNext { victim: u64, old_last: u64 },
    LinkTailPrev { victim: u64 },
    LinkNodeNext { victim: u64 },
    ExitEnq,
    Rest,
}
snap!(enum Phase {
    0 => EnterDeq,
    1 => ReadHeadNext,
    2 => ReadVictimNext,
    3 => Unlink { victim },
    4 => UnlinkBack { victim, after },
    5 => ExitDeq { victim },
    6 => Use { victim },
    7 => EnterEnq { victim },
    8 => ReadTailPrev { victim },
    9 => LinkPrev { victim },
    10 => LinkNext { victim, old_last },
    11 => LinkTailPrev { victim },
    12 => LinkNodeNext { victim },
    13 => ExitEnq,
    14 => Rest,
});

struct DbllLoop {
    head: Addr,
    tail: Addr,
    iters: u64,
    phase: Phase,
}
snap!(DbllLoop { phase, iters; skip head, tail });

impl Workload for DbllLoop {
    fn next(&mut self, last: u64) -> Action {
        match self.phase {
            Phase::EnterDeq => {
                if self.iters == 0 {
                    return Action::Done;
                }
                self.phase = Phase::ReadHeadNext;
                Action::Acquire(LockId(0))
            }
            Phase::ReadHeadNext => {
                self.phase = Phase::ReadVictimNext;
                Action::Mem(MemOp::Load(next_of(self.head)))
            }
            Phase::ReadVictimNext => {
                let victim = last;
                if victim == self.tail.0 {
                    // Empty list (another thread holds every node): retry.
                    self.phase = Phase::EnterDeq;
                    return Action::Release(LockId(0));
                }
                self.phase = Phase::Unlink { victim };
                Action::Mem(MemOp::Load(next_of(Addr(victim))))
            }
            Phase::Unlink { victim } => {
                let after = last;
                self.phase = Phase::UnlinkBack { victim, after };
                Action::Mem(MemOp::Store(next_of(self.head), after))
            }
            Phase::UnlinkBack { victim, after } => {
                self.phase = Phase::ExitDeq { victim };
                Action::Mem(MemOp::Store(prev_of(Addr(after)), self.head.0))
            }
            Phase::ExitDeq { victim } => {
                self.phase = Phase::Use { victim };
                Action::Release(LockId(0))
            }
            Phase::Use { victim } => {
                self.phase = Phase::EnterEnq { victim };
                Action::Compute(16)
            }
            Phase::EnterEnq { victim } => {
                self.phase = Phase::ReadTailPrev { victim };
                Action::Acquire(LockId(0))
            }
            Phase::ReadTailPrev { victim } => {
                self.phase = Phase::LinkPrev { victim };
                Action::Mem(MemOp::Load(prev_of(self.tail)))
            }
            Phase::LinkPrev { victim } => {
                let old_last = last;
                self.phase = Phase::LinkNext { victim, old_last };
                Action::Mem(MemOp::Store(prev_of(Addr(victim)), old_last))
            }
            Phase::LinkNext { victim, old_last } => {
                self.phase = Phase::LinkTailPrev { victim };
                Action::Mem(MemOp::Store(next_of(Addr(old_last)), victim))
            }
            Phase::LinkTailPrev { victim } => {
                self.phase = Phase::LinkNodeNext { victim };
                Action::Mem(MemOp::Store(prev_of(self.tail), victim))
            }
            Phase::LinkNodeNext { victim } => {
                self.phase = Phase::ExitEnq;
                Action::Mem(MemOp::Store(next_of(Addr(victim)), self.tail.0))
            }
            Phase::ExitEnq => {
                self.iters -= 1;
                self.phase = Phase::Rest;
                Action::Release(LockId(0))
            }
            Phase::Rest => {
                self.phase = Phase::EnterDeq;
                Action::Compute(24)
            }
        }
    }

    snap_methods!(workload);
}

/// Build DBLL: sentinels at nodes 0 (head) and 1 (tail); payload nodes
/// 2..2+k chained between them.
pub fn build(cfg: &BenchConfig) -> BenchInstance {
    let head = node_base(0);
    let tail = node_base(1);
    let k = cfg.threads as u64 + SPARE_NODES;
    let mut init = Vec::new();
    // chain: head -> 2 -> 3 -> ... -> (k+1) -> tail
    let chain: Vec<u64> = std::iter::once(head.0)
        .chain((2..2 + k).map(|i| node_base(i).0))
        .chain(std::iter::once(tail.0))
        .collect();
    for w in chain.windows(2) {
        init.push((next_of(Addr(w[0])), w[1]));
        init.push((prev_of(Addr(w[1])), w[0]));
    }
    let total = cfg.scale;
    let threads = cfg.threads;
    let workloads = (0..threads)
        .map(|t| {
            Box::new(DbllLoop {
                head,
                tail,
                iters: share(total, threads, t),
                phase: Phase::EnterDeq,
            }) as Box<dyn Workload>
        })
        .collect();
    BenchInstance {
        workloads,
        init,
        verify: Box::new(move |store| verify_list(store, head, tail, k)),
    }
}

/// Walk the list both ways and check structural integrity and node count.
fn verify_list(store: &WordStore, head: Addr, tail: Addr, k: u64) -> Result<(), String> {
    let mut count = 0u64;
    let mut cur = head.0;
    let mut hops = 0;
    while cur != tail.0 {
        let next = store.load(next_of(Addr(cur)));
        if next == 0 {
            return Err(format!("broken next chain at {cur:#x}"));
        }
        let back = store.load(prev_of(Addr(next)));
        if back != cur {
            return Err(format!(
                "prev({next:#x}) = {back:#x}, expected {cur:#x}"
            ));
        }
        if cur != head.0 {
            count += 1;
        }
        cur = next;
        hops += 1;
        if hops > 10_000 {
            return Err("next chain does not terminate".into());
        }
    }
    if count != k {
        return Err(format!("list holds {count} nodes, expected {k}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchKind;
    use glocks_mem::store::WordStore;

    #[test]
    fn initial_image_is_a_valid_list() {
        let cfg = BenchConfig::smoke(BenchKind::Dbll, 4);
        let inst = cfg.build();
        let mut store = WordStore::new();
        for &(a, v) in &inst.init {
            store.store(a, v);
        }
        assert!((inst.verify)(&store).is_ok());
    }

    #[test]
    fn verifier_rejects_corruption() {
        let cfg = BenchConfig::smoke(BenchKind::Dbll, 4);
        let inst = cfg.build();
        let mut store = WordStore::new();
        for &(a, v) in &inst.init {
            store.store(a, v);
        }
        // chop a node out of the next chain without fixing prev
        let second = store.load(next_of(node_base(0)));
        let third = store.load(next_of(Addr(second)));
        store.store(next_of(node_base(0)), third);
        assert!((inst.verify)(&store).is_err());
    }
}
