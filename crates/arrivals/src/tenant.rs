//! Multi-tenant service mixes: N independent request streams × M locks.
//!
//! The closed-loop analogue lives in `glocks-workloads::multiprog`
//! (two benchmarks space-shared on disjoint locks and address ranges);
//! here the same idea is applied to open-loop streams. Each
//! [`TenantSpec`] is an independent "app" with its own arrival process,
//! lock, and data word; cores are assigned round-robin so every tenant
//! gets an even share of the machine, and per-tenant latency histograms
//! (`service.t{k}.total_latency_cycles`) let the SLO report show how a
//! bursty neighbor degrades a well-behaved tenant's tail.

use crate::process::ArrivalProcess;
use crate::service::{ServiceConfig, ServiceWorkload};
use glocks_cpu::Workload;
use glocks_sim_base::{Addr, LockId};

/// One tenant ("app") of a multi-tenant service mix.
#[derive(Clone, Copy, Debug)]
pub struct TenantSpec {
    /// Arrival process for each of this tenant's cores.
    pub process: ArrivalProcess,
    /// The lock all of this tenant's cores contend on.
    pub lock: LockId,
    /// The shared data word its critical sections increment. Tenants must
    /// use disjoint words (and disjoint locks) to be independent.
    pub data: Addr,
    /// Requests generated per core of this tenant.
    pub requests_per_core: u64,
    /// Critical-section compute length, in instructions.
    pub cs_instructions: u64,
    /// Per-core backlog bound.
    pub queue_cap: usize,
}

/// Build one [`ServiceWorkload`] per core, assigning cores to tenants
/// round-robin (`core i` → `tenant i % tenants.len()`). The workload for
/// core `i` uses arrival stream `i`, so the schedule is independent of the
/// tenant layout. Returns the per-core workloads in core order.
pub fn mix_workloads(
    seed: u64,
    tenants: &[TenantSpec],
    n_cores: usize,
) -> Vec<Box<dyn Workload>> {
    assert!(!tenants.is_empty(), "a service mix needs at least one tenant");
    (0..n_cores)
        .map(|core| {
            let t = core % tenants.len();
            let spec = &tenants[t];
            let cfg = ServiceConfig {
                lock: spec.lock,
                data: spec.data,
                cs_instructions: spec.cs_instructions,
                requests: spec.requests_per_core,
                queue_cap: spec.queue_cap,
                process: spec.process,
                tenant: t as u32,
            };
            Box::new(ServiceWorkload::new(cfg, seed, core as u64)) as Box<dyn Workload>
        })
        .collect()
}

/// Initial memory image for a mix: every tenant's shared data word starts
/// at 0. The pairs feed straight into `Simulation::new`'s `init` slice.
pub fn mix_init(tenants: &[TenantSpec]) -> Vec<(Addr, u64)> {
    tenants.iter().map(|t| (t.data, 0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_assignment_covers_all_tenants() {
        let tenants = [
            TenantSpec {
                process: ArrivalProcess::Poisson { mean_gap: 500 },
                lock: LockId(0),
                data: Addr(0x0200_0000),
                requests_per_core: 10,
                cs_instructions: 16,
                queue_cap: 32,
            },
            TenantSpec {
                process: ArrivalProcess::Mmpp {
                    calm_gap: 800,
                    burst_gap: 40,
                    calm_dwell: 10_000,
                    burst_dwell: 3_000,
                },
                lock: LockId(1),
                data: Addr(0x1200_0000),
                requests_per_core: 10,
                cs_instructions: 16,
                queue_cap: 32,
            },
        ];
        let ws = mix_workloads(0xB10C, &tenants, 8);
        assert_eq!(ws.len(), 8);
        let init = mix_init(&tenants);
        assert_eq!(init.len(), 2);
        assert_eq!(init[0], (Addr(0x0200_0000), 0));
    }
}
