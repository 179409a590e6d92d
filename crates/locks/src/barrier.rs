//! A sense-versioned combining-tree barrier over simulated memory.
//!
//! The paper's applications' library provides "an efficient tree barrier
//! implementation (up to two threads requesting every lock)", so barriers
//! are never highly contended and are *not* accelerated by GLocks. This
//! arity-2 combining tree reproduces that behavior: at most two threads
//! meet at any tree node, each node's arrival counter and release word live
//! in their own cache lines, and releases propagate down the winner paths.
//!
//! Instead of a boolean sense that must be reset between episodes, each
//! node's release word stores the *episode number* it was last opened for;
//! a waiter spins until `release ≥ episode`, which is wraparound-free for
//! any realistic run length.

use crate::layout::slot;
use glocks_cpu::{load_script, snap_methods, BarrierBackend, Script, Spin, Step};
use glocks_mem::{MemOp, RmwKind};
use glocks_sim_base::snap::{SnapError, SnapReader};
use glocks_sim_base::{snap, Addr, ThreadId};
use std::cell::Cell;
use std::rc::Rc;

/// Geometry of the combining tree.
#[derive(Debug)]
struct TreeShape {
    n: usize,
    /// Flat node-id offset of each level.
    level_offsets: Vec<usize>,
}

impl TreeShape {
    fn new(n: usize) -> Self {
        assert!(n >= 1);
        let mut level_offsets = vec![0usize];
        let mut l = 0usize;
        while Self::nodes_at_level(n, l) > 1 {
            let off = level_offsets[l] + Self::nodes_at_level(n, l);
            level_offsets.push(off);
            l += 1;
        }
        TreeShape { n, level_offsets }
    }

    /// Number of nodes at level `l` (groups of `2^(l+1)` threads).
    fn nodes_at_level(n: usize, l: usize) -> usize {
        let group = 1usize << (l + 1);
        n.div_ceil(group)
    }

    fn levels(&self) -> usize {
        self.level_offsets.len()
    }

    fn node_id(&self, level: usize, g: usize) -> usize {
        self.level_offsets[level] + g
    }

    fn total_nodes(&self) -> usize {
        let last = self.levels() - 1;
        self.level_offsets[last] + Self::nodes_at_level(self.n, last)
    }

    /// How many arrivals node `(level, g)` expects: one per existing child
    /// subtree (1 or 2).
    fn participants(&self, level: usize, g: usize) -> u64 {
        let child_group = 1usize << level; // threads per child subtree
        let first_child = 2 * g;
        (0..2)
            .filter(|k| (first_child + k) * child_group < self.n)
            .count() as u64
    }

    fn is_root_level(&self, level: usize) -> bool {
        Self::nodes_at_level(self.n, level) == 1
    }
}

/// The tree barrier backend.
pub struct TreeBarrier {
    base: Addr,
    shape: Rc<TreeShape>,
    episodes: Vec<Cell<u64>>,
}
snap!(shared TreeBarrier { episodes as fixed; skip base, shape });

impl TreeBarrier {
    pub fn new(base: Addr, n_threads: usize) -> Self {
        TreeBarrier {
            base,
            shape: Rc::new(TreeShape::new(n_threads)),
            episodes: (0..n_threads).map(|_| Cell::new(0)).collect(),
        }
    }

    /// Simulated-memory footprint in bytes (for region planning).
    pub fn region_bytes(n_threads: usize) -> u64 {
        crate::layout::region_bytes(2 * TreeShape::new(n_threads).total_nodes() as u64)
    }
}

fn count_addr(base: Addr, node_id: usize) -> Addr {
    slot(base, 2 * node_id as u64)
}

fn release_addr(base: Addr, node_id: usize) -> Addr {
    slot(base, 2 * node_id as u64 + 1)
}

enum Phase {
    Start,
    /// `fetch&add` on the current node's counter issued.
    Arrived,
    /// Spinning on the current node's release word.
    Spinning(usize),
    /// Walking `owned` top-down: reset the counter...
    ReleaseCount,
    /// ...then open the release word.
    ReleaseSense,
    Finish,
}
snap!(enum Phase {
    0 => Start,
    1 => Arrived,
    2 => Spinning(node),
    3 => ReleaseCount,
    4 => ReleaseSense,
    5 => Finish,
});

struct TreeWait {
    shape: Rc<TreeShape>,
    base: Addr,
    tid: usize,
    episode: u64,
    level: usize,
    group: usize,
    /// Nodes this thread was the last arriver of (bottom-up order).
    owned: Vec<usize>,
    rel_pos: usize,
    phase: Phase,
}
snap!(TreeWait { episode, level, group, owned, rel_pos, phase; skip shape, base, tid });

impl Script for TreeWait {
    fn resume(&mut self, last: u64) -> Step {
        loop {
            match self.phase {
                Phase::Start => {
                    if self.shape.n == 1 {
                        self.phase = Phase::Finish;
                        return Step::Done;
                    }
                    self.level = 0;
                    self.group = self.tid / 2;
                    self.phase = Phase::Arrived;
                    let node = self.shape.node_id(0, self.group);
                    return Step::Mem(MemOp::Rmw(count_addr(self.base, node), RmwKind::FetchAdd(1)));
                }
                Phase::Arrived => {
                    let required = self.shape.participants(self.level, self.group);
                    let node = self.shape.node_id(self.level, self.group);
                    if last == required - 1 {
                        // Winner: continue climbing (or begin the release).
                        self.owned.push(node);
                        if self.shape.is_root_level(self.level) {
                            self.rel_pos = self.owned.len();
                            self.phase = Phase::ReleaseCount;
                            continue;
                        }
                        self.level += 1;
                        self.group /= 2;
                        let up = self.shape.node_id(self.level, self.group);
                        return Step::Mem(MemOp::Rmw(
                            count_addr(self.base, up),
                            RmwKind::FetchAdd(1),
                        ));
                    }
                    // Loser: wait to be released at this node.
                    self.phase = Phase::Spinning(node);
                    return Step::Mem(MemOp::Load(release_addr(self.base, node)));
                }
                Phase::Spinning(node) => {
                    if last >= self.episode {
                        self.rel_pos = self.owned.len();
                        self.phase = Phase::ReleaseCount;
                        continue;
                    }
                    return Step::Mem(MemOp::Load(release_addr(self.base, node)));
                }
                Phase::ReleaseCount => {
                    if self.rel_pos == 0 {
                        self.phase = Phase::Finish;
                        return Step::Done;
                    }
                    let node = self.owned[self.rel_pos - 1];
                    self.phase = Phase::ReleaseSense;
                    // Reset before opening so next-episode arrivals start
                    // from a clean counter.
                    return Step::Mem(MemOp::Store(count_addr(self.base, node), 0));
                }
                Phase::ReleaseSense => {
                    let node = self.owned[self.rel_pos - 1];
                    self.rel_pos -= 1;
                    self.phase = Phase::ReleaseCount;
                    return Step::Mem(MemOp::Store(release_addr(self.base, node), self.episode));
                }
                Phase::Finish => return Step::Done,
            }
        }
    }

    snap_methods!(script);

    fn spin(&self) -> Spin {
        match self.phase {
            Phase::Spinning(_) => Spin::Load,
            _ => Spin::Hot,
        }
    }
}

impl TreeBarrier {
    fn wait_script(&self, tid: ThreadId, episode: u64) -> TreeWait {
        TreeWait {
            shape: Rc::clone(&self.shape),
            base: self.base,
            tid: tid.index(),
            episode,
            level: 0,
            group: 0,
            owned: Vec::new(),
            rel_pos: 0,
            phase: Phase::Start,
        }
    }
}

impl BarrierBackend for TreeBarrier {
    fn wait(&self, tid: ThreadId) -> Box<dyn Script> {
        let ep = self.episodes[tid.index()].get() + 1;
        self.episodes[tid.index()].set(ep);
        Box::new(self.wait_script(tid, ep))
    }

    snap_methods!(backend);

    fn load_wait_script(
        &self,
        tid: ThreadId,
        r: &mut SnapReader<'_>,
    ) -> Result<Box<dyn Script>, SnapError> {
        load_script(self.wait_script(tid, 0), r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks_cpu::{Action, Backends, Core, LockBackend, LockTracker, Workload};
    use glocks_mem::MemorySystem;
    use glocks_sim_base::{CmpConfig, CoreId};
    use std::cell::RefCell;

    #[test]
    fn shape_geometry() {
        let s = TreeShape::new(8);
        assert_eq!(s.levels(), 3);
        assert_eq!(TreeShape::nodes_at_level(8, 0), 4);
        assert_eq!(TreeShape::nodes_at_level(8, 1), 2);
        assert_eq!(TreeShape::nodes_at_level(8, 2), 1);
        assert_eq!(s.total_nodes(), 7);
        assert_eq!(s.participants(0, 0), 2);
        assert!(s.is_root_level(2));
        // odd sizes
        let s5 = TreeShape::new(5);
        assert_eq!(TreeShape::nodes_at_level(5, 0), 3);
        assert_eq!(s5.participants(0, 2), 1, "thread 4 arrives alone");
        assert_eq!(s5.participants(1, 1), 1, "node over thread-4 subtree alone");
    }

    /// Each thread alternates: bump its Rust-side epoch, barrier-wait,
    /// then verify every thread reached the same epoch — the defining
    /// property of a barrier.
    struct EpochChecker {
        tid: usize,
        epochs: Rc<RefCell<Vec<u64>>>,
        rounds: u64,
        state: u8, // 0 = about to enter, 1 = just passed
    }

    impl Workload for EpochChecker {
        fn next(&mut self, _last: u64) -> Action {
            match self.state {
                0 => {
                    if self.rounds == 0 {
                        return Action::Done;
                    }
                    self.epochs.borrow_mut()[self.tid] += 1;
                    self.state = 1;
                    Action::Barrier
                }
                _ => {
                    let my = self.epochs.borrow()[self.tid];
                    for (t, &e) in self.epochs.borrow().iter().enumerate() {
                        assert!(
                            e >= my,
                            "thread {t} at epoch {e} while {} passed barrier of epoch {my}",
                            self.tid
                        );
                    }
                    self.rounds -= 1;
                    self.state = 0;
                    Action::Compute(10 + (self.tid as u64 * 7) % 23)
                }
            }
        }
    }

    fn run_barrier_test(threads: usize, rounds: u64) {
        let cfg = CmpConfig::paper_baseline().with_cores(threads.max(2));
        let mut mem = MemorySystem::new(&cfg);
        let barrier = TreeBarrier::new(glocks_sim_base::Addr(0x20_000), threads);
        let locks: Vec<Box<dyn LockBackend>> = Vec::new();
        let backends = Backends { locks: &locks, barrier: &barrier };
        let mut tracker = LockTracker::new(0, threads);
        let epochs = Rc::new(RefCell::new(vec![0u64; threads]));
        let mut cores: Vec<Core> = (0..threads)
            .map(|i| {
                Core::new(
                    CoreId(i as u16),
                    cfg.issue_width,
                    Box::new(EpochChecker {
                        tid: i,
                        epochs: Rc::clone(&epochs),
                        rounds,
                        state: 0,
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
            if all_done {
                break;
            }
            now += 1;
            assert!(now < 50_000_000, "barrier hung");
        }
        assert!(epochs.borrow().iter().all(|&e| e == rounds));
    }

    #[test]
    fn synchronizes_8_threads() {
        run_barrier_test(8, 5);
    }

    #[test]
    fn synchronizes_32_threads() {
        run_barrier_test(32, 3);
    }

    #[test]
    fn synchronizes_odd_thread_counts() {
        run_barrier_test(5, 4);
        run_barrier_test(3, 4);
    }

    #[test]
    fn two_threads_many_rounds() {
        run_barrier_test(2, 20);
    }

    #[test]
    fn single_thread_is_noop() {
        run_barrier_test(1, 3);
    }
}
