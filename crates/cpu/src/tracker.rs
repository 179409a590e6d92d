//! Lock bookkeeping: mutual-exclusion enforcement, grant-order logging
//! (fairness analysis) and the paper's cycle-by-cycle contention sampling.
//!
//! The paper computes every lock's contention rate (LCR, Eqs. 1 and 3) from
//! a post-mortem trace: "Every time a core tries to acquire a lock, we
//! register the number of concurrent requesters (grAC, ranging from 1 to
//! 32) on a cycle-by-cycle basis until the lock is granted". `sample` does
//! exactly that each cycle.

use glocks_sim_base::{Cycle, LockId, ThreadId};
use glocks_stats as gstats;

/// Per-lock live state and accumulated statistics.
#[derive(Clone, Debug)]
struct LockState {
    holder: Option<ThreadId>,
    /// Threads currently between acquire-start and grant.
    requesters: Vec<ThreadId>,
    /// grAC histogram: bin g = cycles with exactly g concurrent requesters
    /// (bin 0 unused; the last bin also takes any larger count).
    grac: Vec<u64>,
    /// Grant order (bounded) for fairness analysis.
    grants: Vec<ThreadId>,
    acquires: u64,
    /// Sum over acquires of (grant − request) cycles.
    wait_cycles: u64,
    /// Request timestamps of in-flight acquires.
    since: Vec<(ThreadId, Cycle)>,
    /// Grant cycle of the current holder (critical-section hold time).
    held_since: Option<Cycle>,
    /// Cycle of the most recent release (owner-to-owner handoff latency).
    last_release: Option<Cycle>,
    /// Latency distributions, recorded live because they cannot be
    /// reconstructed from end-of-run totals. All three are `NONE` (free)
    /// when stats are off. The tracker sits above every lock backend, so
    /// GLock, MCS and TATAS get identical distribution coverage.
    wait_hist: gstats::HistId,
    hold_hist: gstats::HistId,
    handoff_hist: gstats::HistId,
}
glocks_sim_base::snap!(LockState {
    holder as wide, requesters, grac as fixed, grants, acquires, wait_cycles, since,
    held_since, last_release;
    skip wait_hist, hold_hist, handoff_hist
});

const GRANT_LOG_CAP: usize = 200_000;

/// Tracks all workload locks during a simulation.
pub struct LockTracker {
    locks: Vec<LockState>,
}
glocks_sim_base::snap!(LockTracker mark "lock-tracker" { locks as fixed });

impl LockTracker {
    /// `n_locks` workload locks on a CMP with `n_cores` cores (the grAC
    /// axis runs 1..=n_cores).
    pub fn new(n_locks: usize, n_cores: usize) -> Self {
        LockTracker {
            locks: (0..n_locks)
                .map(|i| LockState {
                    holder: None,
                    requesters: Vec::new(),
                    grac: vec![0; n_cores + 1],
                    grants: Vec::new(),
                    acquires: 0,
                    wait_cycles: 0,
                    since: Vec::new(),
                    held_since: None,
                    last_release: None,
                    wait_hist: gstats::hist(&format!("lock.{i}.acquire_wait_cycles")),
                    hold_hist: gstats::hist(&format!("lock.{i}.hold_cycles")),
                    handoff_hist: gstats::hist(&format!("lock.{i}.handoff_cycles")),
                })
                .collect(),
        }
    }

    pub fn n_locks(&self) -> usize {
        self.locks.len()
    }

    /// A thread began an acquire.
    pub fn on_acquire_start(&mut self, lock: LockId, tid: ThreadId, now: Cycle) {
        let l = &mut self.locks[lock.index()];
        debug_assert!(!l.requesters.contains(&tid), "{tid:?} double-requests {lock:?}");
        l.requesters.push(tid);
        l.since.push((tid, now));
    }

    /// A thread's acquire completed: it now owns the lock.
    ///
    /// Panics if mutual exclusion would be violated — this is the
    /// simulation-wide safety check for every lock implementation.
    pub fn on_acquired(&mut self, lock: LockId, tid: ThreadId, now: Cycle) {
        let l = &mut self.locks[lock.index()];
        assert!(
            l.holder.is_none(),
            "MUTUAL EXCLUSION VIOLATED: {tid:?} acquired {lock:?} held by {:?}",
            l.holder
        );
        l.holder = Some(tid);
        l.held_since = Some(now);
        if let Some(at) = l.last_release {
            // Handoff: release of the previous owner to grant of the next.
            gstats::hist_record(l.handoff_hist, now.saturating_sub(at));
            l.last_release = None;
        }
        if let Some(i) = l.requesters.iter().position(|&t| t == tid) {
            l.requesters.swap_remove(i);
        }
        if let Some(i) = l.since.iter().position(|&(t, _)| t == tid) {
            let (_, at) = l.since.swap_remove(i);
            l.wait_cycles += now.saturating_sub(at);
            gstats::hist_record(l.wait_hist, now.saturating_sub(at));
        }
        l.acquires += 1;
        if l.grants.len() < GRANT_LOG_CAP {
            l.grants.push(tid);
        }
    }

    /// A thread began its release: the critical section is over.
    pub fn on_release_start(&mut self, lock: LockId, tid: ThreadId, now: Cycle) {
        let l = &mut self.locks[lock.index()];
        assert_eq!(
            l.holder,
            Some(tid),
            "{tid:?} released {lock:?} it does not hold"
        );
        l.holder = None;
        if let Some(at) = l.held_since.take() {
            gstats::hist_record(l.hold_hist, now.saturating_sub(at));
        }
        l.last_release = Some(now);
    }

    /// Sample the grAC histograms — call once per simulated cycle.
    pub fn sample(&mut self) {
        for l in &mut self.locks {
            let n = l.requesters.len();
            if n > 0 {
                let g = n.min(l.grac.len() - 1);
                l.grac[g] += 1;
            }
        }
    }

    /// Record `k` consecutive cycles' worth of grAC samples at once.
    /// Equivalent to calling [`LockTracker::sample`] `k` times, valid
    /// whenever the requester sets are known not to change across those
    /// cycles (the idle-skip fast-forward: requester sets only mutate from
    /// core pulls, and no core pulls during a skip).
    pub fn sample_n(&mut self, k: u64) {
        for l in &mut self.locks {
            let n = l.requesters.len();
            if n > 0 {
                let g = n.min(l.grac.len() - 1);
                l.grac[g] += k;
            }
        }
    }

    /// The grAC histogram of one lock (bin g = cycles with g requesters).
    pub fn grac_histogram(&self, lock: LockId) -> &[u64] {
        &self.locks[lock.index()].grac
    }

    /// Total acquires granted on a lock.
    pub fn acquires(&self, lock: LockId) -> u64 {
        self.locks[lock.index()].acquires
    }

    /// Mean acquire wait in cycles.
    pub fn mean_wait(&self, lock: LockId) -> f64 {
        let l = &self.locks[lock.index()];
        if l.acquires == 0 {
            0.0
        } else {
            l.wait_cycles as f64 / l.acquires as f64
        }
    }

    /// Grant order (bounded log) for fairness analysis.
    pub fn grant_log(&self, lock: LockId) -> &[ThreadId] {
        &self.locks[lock.index()].grants
    }

    /// Current holder (tests).
    pub fn holder(&self, lock: LockId) -> Option<ThreadId> {
        self.locks[lock.index()].holder
    }

    /// Oldest outstanding acquire on a lock, as `(thread, request cycle)` —
    /// the runtime checker's raw material for bounded-waiting analysis.
    pub fn oldest_request(&self, lock: LockId) -> Option<(ThreadId, Cycle)> {
        self.locks[lock.index()]
            .since
            .iter()
            .copied()
            .min_by_key(|&(_, at)| at)
    }

    /// Non-panicking mutual-exclusion consistency scan for the runtime
    /// protocol checker; the tracker's own asserts fire first for bugs in
    /// this crate's bookkeeping, so a hit here means a lock backend
    /// confused the holder/requester picture.
    pub fn find_violation(&self) -> Option<String> {
        for (i, l) in self.locks.iter().enumerate() {
            if let Some(h) = l.holder {
                if l.requesters.contains(&h) {
                    return Some(format!(
                        "lock {i}: holder {h:?} still listed as a requester"
                    ));
                }
            }
            if l.requesters.len() != l.since.len() {
                return Some(format!(
                    "lock {i}: {} requesters but {} request timestamps",
                    l.requesters.len(),
                    l.since.len()
                ));
            }
        }
        None
    }

    /// Publish end-of-run per-lock totals into the stats registry (cheap
    /// no-op when stats are off; the live histograms record on the fly).
    pub fn publish_stats(&self) {
        if !gstats::is_enabled() {
            return;
        }
        for (i, l) in self.locks.iter().enumerate() {
            gstats::set(gstats::counter(&format!("lock.{i}.acquires")), l.acquires);
            gstats::set(
                gstats::counter(&format!("lock.{i}.wait_cycles_total")),
                l.wait_cycles,
            );
        }
    }

    /// No thread holds or requests any lock (end-of-run sanity).
    pub fn all_quiet(&self) -> bool {
        self.locks
            .iter()
            .all(|l| l.holder.is_none() && l.requesters.is_empty())
    }

    /// Eq. 3 of the paper: each lock's per-grAC contention rate normalized
    /// by the cycles of *all* locks, so the whole benchmark sums to 1
    /// (Eq. 2). Returns `lcr[lock][grac]`, `grac ∈ 0..=n_cores` with bin 0
    /// always zero.
    pub fn lcr(&self) -> Vec<Vec<f64>> {
        let total: u64 = self.locks.iter().flat_map(|l| &l.grac).sum();
        self.locks
            .iter()
            .map(|l| {
                l.grac
                    .iter()
                    .map(|&b| if total == 0 { 0.0 } else { b as f64 / total as f64 })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_holder_and_requesters() {
        let mut t = LockTracker::new(1, 4);
        let l = LockId(0);
        t.on_acquire_start(l, ThreadId(0), 0);
        t.on_acquire_start(l, ThreadId(1), 0);
        t.sample(); // 2 requesters
        t.on_acquired(l, ThreadId(0), 5);
        t.sample(); // 1 requester (thread 1)
        assert_eq!(t.holder(l), Some(ThreadId(0)));
        assert_eq!(t.grac_histogram(l)[2], 1);
        assert_eq!(t.grac_histogram(l)[1], 1);
        t.on_release_start(l, ThreadId(0), 10);
        t.on_acquired(l, ThreadId(1), 11);
        t.on_release_start(l, ThreadId(1), 12);
        assert!(t.all_quiet());
        assert_eq!(t.acquires(l), 2);
        assert_eq!(t.grant_log(l), &[ThreadId(0), ThreadId(1)]);
    }

    #[test]
    #[should_panic(expected = "MUTUAL EXCLUSION VIOLATED")]
    fn detects_double_acquire() {
        let mut t = LockTracker::new(1, 4);
        let l = LockId(0);
        t.on_acquire_start(l, ThreadId(0), 0);
        t.on_acquire_start(l, ThreadId(1), 0);
        t.on_acquired(l, ThreadId(0), 1);
        t.on_acquired(l, ThreadId(1), 2);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn detects_bogus_release() {
        let mut t = LockTracker::new(1, 4);
        t.on_release_start(LockId(0), ThreadId(3), 0);
    }

    #[test]
    fn lcr_sums_to_one_across_locks() {
        let mut t = LockTracker::new(2, 8);
        t.on_acquire_start(LockId(0), ThreadId(0), 0);
        t.on_acquire_start(LockId(1), ThreadId(1), 0);
        t.on_acquire_start(LockId(1), ThreadId(2), 0);
        for _ in 0..10 {
            t.sample();
        }
        let lcr = t.lcr();
        let total: f64 = lcr.iter().flatten().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // lock 0 sampled 10 cycles at grAC=1; lock 1 at grAC=2
        assert!((lcr[0][1] - 0.5).abs() < 1e-12);
        assert!((lcr[1][2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_wait_measures_grant_delay() {
        let mut t = LockTracker::new(1, 4);
        let l = LockId(0);
        t.on_acquire_start(l, ThreadId(0), 100);
        t.on_acquired(l, ThreadId(0), 130);
        assert_eq!(t.mean_wait(l), 30.0);
    }

    #[test]
    fn records_latency_histograms_when_stats_enabled() {
        gstats::enable(gstats::StatsConfig::default());
        let mut t = LockTracker::new(1, 4);
        let l = LockId(0);
        t.on_acquire_start(l, ThreadId(0), 100);
        t.on_acquired(l, ThreadId(0), 130); // wait = 30
        t.on_release_start(l, ThreadId(0), 180); // hold = 50
        t.on_acquire_start(l, ThreadId(1), 150);
        t.on_acquired(l, ThreadId(1), 184); // handoff = 4, wait = 34
        t.on_release_start(l, ThreadId(1), 200);
        t.publish_stats();
        let d = gstats::snapshot();
        gstats::disable();
        assert_eq!(d.hists["lock.0.acquire_wait_cycles"].count, 2);
        assert_eq!(d.hists["lock.0.acquire_wait_cycles"].sum, 64);
        assert_eq!(d.hists["lock.0.hold_cycles"].count, 2);
        assert_eq!(d.hists["lock.0.hold_cycles"].sum, 50 + 16);
        assert_eq!(d.hists["lock.0.handoff_cycles"].count, 1);
        assert_eq!(d.hists["lock.0.handoff_cycles"].sum, 4);
        assert_eq!(d.counters["lock.0.acquires"], 2);
        assert_eq!(d.counters["lock.0.wait_cycles_total"], 64);
    }

    #[test]
    fn empty_lcr_is_zero() {
        let t = LockTracker::new(1, 4);
        assert!(t.lcr()[0].iter().all(|&x| x == 0.0));
        assert_eq!(t.mean_wait(LockId(0)), 0.0);
    }
}
