//! The per-core lock-service workload: an open-loop request server.
//!
//! Requests arrive on a schedule the service does not control (the
//! defining property of open-loop load). Each request's lifecycle is
//!
//! ```text
//! arrival ──queue wait──▶ service start ──acquire wait──▶ grant
//!        ──hold (load, compute, store)──▶ release ──▶ completion
//! ```
//!
//! and three log2 histograms capture it per request: `queue_wait_cycles`
//! (arrival → service start, the open-loop signal closed-loop workloads
//! cannot produce), `acquire_wait_cycles` (lock contention as the backend
//! sees it), and `total_latency_cycles` (arrival → completion, the
//! quantity the `slo.*` report quotes tails of). The backlog is a bounded
//! FIFO: arrivals beyond `queue_cap` are dropped and counted, so a
//! saturated run degrades measurably instead of consuming unbounded
//! memory.

use crate::process::{ArrivalGen, ArrivalProcess};
use glocks_cpu::{Action, Workload};
use glocks_mem::MemOp;
use glocks_sim_base::{Addr, Cycle, LockId};
use std::collections::VecDeque;

/// Static shape of one core's request stream.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Lock guarding this stream's critical section.
    pub lock: LockId,
    /// Shared data word the critical section increments (lets the harness
    /// verify mutual exclusion: final value = completed requests).
    pub data: Addr,
    /// Pure-compute instructions inside the critical section.
    pub cs_instructions: u64,
    /// Requests this core generates before the stream ends (termination
    /// bound; every generated request is either completed or dropped).
    pub requests: u64,
    /// Max requests waiting in the backlog; arrivals beyond it are dropped.
    pub queue_cap: usize,
    /// Arrival process shape and rate.
    pub process: ArrivalProcess,
    /// Tenant index, for per-tenant stats namespaces (`service.t{k}.*`).
    pub tenant: u32,
}

/// Where the state machine is between two `next()` calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Nothing in flight; the next call dispatches (first call, or woken
    /// from an inter-arrival sleep with `last` = now).
    Dispatch,
    /// Issued `Acquire`; next call sees the grant (at unknown cycle).
    Acquiring,
    /// Issued `WaitUntil(0)` to read the grant cycle.
    GrantRead,
    /// Issued the critical-section load.
    CsLoad,
    /// Issued the critical-section store.
    CsStore,
    /// Issued the critical-section compute.
    CsCompute,
    /// Issued `Release`.
    Releasing,
    /// Issued `WaitUntil(0)` to read the completion cycle.
    DoneRead,
    /// All requests completed or dropped; `Done` returned.
    Finished,
}
glocks_sim_base::snap!(enum Phase {
    0 => Dispatch,
    1 => Acquiring,
    2 => GrantRead,
    3 => CsLoad,
    4 => CsStore,
    5 => CsCompute,
    6 => Releasing,
    7 => DoneRead,
    8 => Finished,
});

/// One core's open-loop request server (see module docs).
pub struct ServiceWorkload {
    cfg: ServiceConfig,
    gen: ArrivalGen,
    /// Next scheduled arrival, if any requests remain to generate.
    next_at: Option<Cycle>,
    /// Arrival timestamps admitted but not yet served (FIFO).
    backlog: VecDeque<Cycle>,
    phase: Phase,
    /// Arrival timestamp of the request in service.
    cur_arrival: Cycle,
    /// Cycle the in-service request left the backlog.
    service_start: Cycle,
    generated: u64,
    completed: u64,
    dropped: u64,
    backlog_max: u64,
    /// Stream index (normally the core id), for the RNG stream and the
    /// per-stream stats namespace.
    stream: u64,
    // Stats handles (NONE when stats are off).
    h_queue: glocks_stats::HistId,
    h_acquire: glocks_stats::HistId,
    h_total: glocks_stats::HistId,
    h_tenant_total: glocks_stats::HistId,
    c_arrivals: glocks_stats::CounterId,
    c_completed: glocks_stats::CounterId,
    c_dropped: glocks_stats::CounterId,
    c_tenant_completed: glocks_stats::CounterId,
}
glocks_sim_base::snap!(ServiceWorkload mark "service-workload" {
    gen, next_at, backlog, phase, cur_arrival, service_start, generated, completed, dropped,
    backlog_max;
    skip cfg, stream, h_queue, h_acquire, h_total, h_tenant_total, c_arrivals, c_completed,
        c_dropped, c_tenant_completed
});

impl ServiceWorkload {
    /// Build the server for stream `stream` (normally the core index) of a
    /// run seeded with `seed`. Stats must already be enabled if the run
    /// wants histograms — ids are registered here, deterministically in
    /// construction order, which is what lets a resumed run's registry
    /// restore line up.
    pub fn new(cfg: ServiceConfig, seed: u64, stream: u64) -> Self {
        assert!(cfg.queue_cap >= 1, "service queue_cap must be >= 1");
        let mut gen = ArrivalGen::new(cfg.process, seed, stream);
        let next_at = (cfg.requests > 0).then(|| gen.next_arrival());
        let t = cfg.tenant;
        ServiceWorkload {
            gen,
            next_at,
            backlog: VecDeque::new(),
            phase: Phase::Dispatch,
            cur_arrival: 0,
            service_start: 0,
            generated: 0,
            completed: 0,
            dropped: 0,
            backlog_max: 0,
            stream,
            h_queue: glocks_stats::hist("service.queue_wait_cycles"),
            h_acquire: glocks_stats::hist("service.acquire_wait_cycles"),
            h_total: glocks_stats::hist("service.total_latency_cycles"),
            h_tenant_total: glocks_stats::hist(&format!("service.t{t}.total_latency_cycles")),
            c_arrivals: glocks_stats::counter("service.arrivals"),
            c_completed: glocks_stats::counter("service.completed"),
            c_dropped: glocks_stats::counter("service.dropped"),
            c_tenant_completed: glocks_stats::counter(&format!("service.t{t}.completed")),
            cfg,
        }
    }

    pub fn completed(&self) -> u64 {
        self.completed
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Admit every arrival scheduled at or before `now` into the bounded
    /// backlog (dropping past the cap) and schedule the next one.
    fn admit(&mut self, now: Cycle) {
        while let Some(at) = self.next_at {
            if at > now {
                break;
            }
            self.generated += 1;
            glocks_stats::add(self.c_arrivals, 1);
            if self.backlog.len() < self.cfg.queue_cap {
                self.backlog.push_back(at);
            } else {
                self.dropped += 1;
                glocks_stats::add(self.c_dropped, 1);
            }
            self.backlog_max = self.backlog_max.max(self.backlog.len() as u64);
            self.next_at =
                (self.generated < self.cfg.requests).then(|| self.gen.next_arrival());
        }
    }

    /// Serve the backlog head, sleep until the next arrival, or finish.
    fn dispatch(&mut self, now: Cycle) -> Action {
        self.admit(now);
        if let Some(arrival) = self.backlog.pop_front() {
            glocks_stats::hist_record(self.h_queue, now - arrival);
            self.cur_arrival = arrival;
            self.service_start = now;
            self.phase = Phase::Acquiring;
            return Action::Acquire(self.cfg.lock);
        }
        match self.next_at {
            // `admit` drained everything due, so next_at > now: a real sleep.
            Some(at) => Action::WaitUntil(at),
            None => {
                self.phase = Phase::Finished;
                Action::Done
            }
        }
    }
}

impl Workload for ServiceWorkload {
    fn next(&mut self, last: u64) -> Action {
        match self.phase {
            // After construction `last` is 0 (cycle 0); after a sleep it is
            // the wake cycle — either way it is "now".
            Phase::Dispatch => self.dispatch(last),
            Phase::Acquiring => {
                self.phase = Phase::GrantRead;
                Action::WaitUntil(0)
            }
            Phase::GrantRead => {
                glocks_stats::hist_record(self.h_acquire, last - self.service_start);
                self.phase = Phase::CsLoad;
                Action::Mem(MemOp::Load(self.cfg.data))
            }
            Phase::CsLoad => {
                self.phase = Phase::CsStore;
                Action::Mem(MemOp::Store(self.cfg.data, last + 1))
            }
            Phase::CsStore => {
                self.phase = Phase::CsCompute;
                Action::Compute(self.cfg.cs_instructions)
            }
            Phase::CsCompute => {
                self.phase = Phase::Releasing;
                Action::Release(self.cfg.lock)
            }
            Phase::Releasing => {
                self.phase = Phase::DoneRead;
                Action::WaitUntil(0)
            }
            Phase::DoneRead => {
                let now = last;
                glocks_stats::hist_record(self.h_total, now - self.cur_arrival);
                glocks_stats::hist_record(self.h_tenant_total, now - self.cur_arrival);
                self.completed += 1;
                glocks_stats::add(self.c_completed, 1);
                glocks_stats::add(self.c_tenant_completed, 1);
                self.phase = Phase::Dispatch;
                self.dispatch(now)
            }
            Phase::Finished => Action::Done,
        }
    }

    glocks_cpu::snap_methods!(workload);

    fn publish_stats(&self) {
        if !glocks_stats::is_enabled() {
            return;
        }
        let s = self.stream;
        glocks_stats::set(
            glocks_stats::counter(&format!("service.s{s}.backlog_max")),
            self.backlog_max,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks_sim_base::snap::{SnapReader, SnapWriter};

    fn cfg(requests: u64, mean_gap: u64) -> ServiceConfig {
        ServiceConfig {
            lock: LockId(0),
            data: Addr(0x0200_0000),
            cs_instructions: 16,
            requests,
            queue_cap: 64,
            process: ArrivalProcess::Poisson { mean_gap },
            tenant: 0,
        }
    }

    /// Drive the workload's state machine directly, simulating a core that
    /// completes every action after `step` cycles and honors WaitUntil.
    fn drive(w: &mut ServiceWorkload, step: u64, limit: u64) -> (u64, Cycle) {
        let mut now: Cycle = 0;
        let mut last = 0u64;
        let mut served = 0u64;
        loop {
            match w.next(last) {
                Action::Done => return (served, now),
                Action::WaitUntil(t) => {
                    now = now.max(t);
                    last = now;
                }
                Action::Acquire(_) => {
                    now += step;
                    last = 0;
                }
                Action::Release(_) => {
                    now += step;
                    last = 0;
                    served += 1;
                }
                Action::Mem(_) | Action::Compute(_) => {
                    now += step;
                    last = 0;
                }
                Action::Barrier => unreachable!("service workloads never barrier"),
            }
            assert!(now < limit, "service run exceeded {limit} cycles");
        }
    }

    #[test]
    fn serves_every_request_when_underloaded() {
        let mut w = ServiceWorkload::new(cfg(50, 1_000), 42, 0);
        // Service time ≈ 5 actions × 4 cycles ≪ 1000-cycle mean gap.
        let (served, _) = drive(&mut w, 4, 2_000_000);
        assert_eq!(served, 50);
        assert_eq!(w.completed(), 50);
        assert_eq!(w.dropped(), 0);
    }

    #[test]
    fn overload_drops_beyond_queue_cap() {
        let mut c = cfg(200, 10);
        c.queue_cap = 4;
        let mut w = ServiceWorkload::new(c, 42, 0);
        // Service time ≈ 5 × 100 cycles ≫ 10-cycle mean gap: heavy overload.
        let (served, _) = drive(&mut w, 100, 10_000_000);
        assert!(w.dropped() > 0, "overload must drop");
        assert_eq!(served + w.dropped(), 200, "every request accounted for");
        assert_eq!(w.completed(), served);
    }

    #[test]
    fn state_machine_is_deterministic() {
        let run = || {
            let mut w = ServiceWorkload::new(cfg(30, 100), 7, 2);
            drive(&mut w, 8, 2_000_000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpoint_mid_request_resumes_identically() {
        let c = cfg(40, 50);
        let mut a = ServiceWorkload::new(c, 9, 1);
        // Advance partway through the stream (some requests in flight).
        let mut last = 0u64;
        let mut now = 0u64;
        for _ in 0..37 {
            match a.next(last) {
                Action::WaitUntil(t) => {
                    now = now.max(t);
                    last = now;
                }
                Action::Done => break,
                _ => {
                    now += 12;
                    last = 0;
                }
            }
        }
        let mut w = SnapWriter::new();
        a.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut b = ServiceWorkload::new(c, 9, 1);
        b.load_state(&mut SnapReader::new(&bytes)).unwrap();
        // Identical continuations.
        let mut la = last;
        let mut lb = last;
        for _ in 0..500 {
            let xa = a.next(la);
            let xb = b.next(lb);
            assert_eq!(xa, xb);
            if xa == Action::Done {
                break;
            }
            now += 5;
            la = if matches!(xa, Action::WaitUntil(_)) { now } else { 0 };
            lb = la;
        }
    }
}
