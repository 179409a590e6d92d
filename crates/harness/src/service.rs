//! Open-loop service sweep — offered load vs latency tails (beyond the
//! paper's closed-loop evaluation).
//!
//! Closed-loop benchmarks can never push a lock past its service capacity:
//! each core waits for its own critical section before issuing the next.
//! This sweep drives each backend as a *service* instead: seeded Poisson
//! arrivals enqueue requests at a configured rate whether or not the lock
//! keeps up, and the row reports the latency distribution a client would
//! see. Walking the per-core inter-arrival gap down produces the classic
//! hockey stick: throughput grows linearly with offered load until the
//! lock saturates, past which p99/p999 grow superlinearly and the backlog
//! (then the drop counter) takes the overload.
//!
//! Two extra studies ride along:
//!
//! * **multi-tenant mix** — a calm Poisson tenant shares the machine with
//!   a bursty MMPP neighbor on a *different* lock; per-tenant p99/p999
//!   show how much tail the calm tenant inherits from shared resources.
//! * **SLO under chaos** — the GLock service absorbs a permanent G-line
//!   network death mid-run ([`crate::chaos`]'s kill schedule) and the row
//!   reports the p999 a client saw *through* the GLock→TATAS failover.

use crate::exp::{self, ExpOptions, RunSpec};
use glocks_arrivals::tenant::{mix_init, mix_workloads};
use glocks_arrivals::{ArrivalProcess, TenantSpec};
use glocks_locks::LockAlgorithm;
use glocks_sim::{LockMapping, SimulationOptions};
use glocks_sim_base::fault::FaultPlan;
use glocks_sim_base::table::TextTable;
use glocks_sim_base::{Addr, CmpConfig, LockId};
use glocks_stats::StatsDump;
use glocks_workloads::BenchInstance;

/// Seed for the published sweep: arrivals derive from it through the
/// `ARRIVAL_DOMAIN` stream split, so rows reproduce bit-exactly.
pub const SERVICE_SEED: u64 = 0x5E0C;

/// The offered-load ladder: per-core mean inter-arrival gaps, heaviest
/// last. The sparse rungs sit well below the lock's capacity — the
/// hockey stick's flat region, where the machine is mostly idle between
/// arrivals (and the event-driven scheduler skips the lulls) — while the
/// dense rungs sit well past every software backend's capacity, so both
/// the flat region and the knee are visible.
pub const GAPS: [u64; 8] = [32768, 8192, 4096, 2048, 1024, 512, 256, 128];

/// Backends the hockey-stick compares: the paper's hardware lock vs its
/// strongest software baseline.
pub const BACKENDS: [LockAlgorithm; 2] = [LockAlgorithm::Glock, LockAlgorithm::Mcs];

fn requests_per_core(opts: &ExpOptions) -> u64 {
    if opts.quick {
        60
    } else {
        300
    }
}

fn single_tenant(gap: u64, opts: &ExpOptions) -> TenantSpec {
    TenantSpec {
        process: ArrivalProcess::Poisson { mean_gap: gap },
        lock: LockId(0),
        data: Addr(0x0200_0000),
        requests_per_core: requests_per_core(opts),
        cs_instructions: 16,
        queue_cap: 64,
    }
}

/// Run one service configuration to completion and return the stats dump
/// (which carries the `slo.*` report) plus total cycles. Returns `None`
/// for a wedged run. Stats are enabled even without `--stats-json`: the
/// quantiles in the table *are* the result, not a side channel.
fn service_run(
    opts: &ExpOptions,
    algo: LockAlgorithm,
    tenants: &[TenantSpec],
    tag: &str,
    scenario: &str,
    plan: Option<FaultPlan>,
) -> Option<(StatsDump, u64)> {
    let threads = opts.threads;
    let n_locks = tenants.iter().map(|t| usize::from(t.lock.0) + 1).max().unwrap();
    let spec = RunSpec {
        tag: format!("{}_{scenario}_{threads}t", algo.name()),
        meta: vec![
            ("lock", algo.name().to_string()),
            ("scenario", scenario.to_string()),
            ("offered", tag.to_string()),
        ],
        cfg: CmpConfig::paper_baseline().with_cores(threads),
        mapping: LockMapping::uniform(algo, n_locks),
        options: SimulationOptions { fault_plan: plan, ..Default::default() },
    };
    // Without `--stats-json`, `exp::run` leaves the registry alone, so
    // the run still records the quantiles it is here for.
    glocks_stats::enable(glocks_stats::StatsConfig::default());
    let finished = exp::try_run(opts, spec, || BenchInstance {
        workloads: mix_workloads(SERVICE_SEED, tenants, threads),
        init: mix_init(tenants),
        // Checked below against the completed counts in the dump.
        verify: Box::new(|_| Ok(())),
    });
    glocks_stats::disable();
    let f = finished?;
    let dump = f.report.stats.clone().expect("stats were enabled");
    // Every experiment doubles as a correctness test: each tenant's shared
    // word counts exactly its completed requests.
    for (k, t) in tenants.iter().enumerate() {
        let done = dump.counters.get(&format!("service.t{k}.completed")).copied();
        assert_eq!(
            Some(f.mem.store().load(t.data)),
            done,
            "mutual exclusion violated for tenant {k} under {}",
            algo.name()
        );
    }
    Some((dump, f.report.cycles))
}

fn slo(dump: &StatsDump, key: &str) -> String {
    dump.counters.get(key).map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// Requests served per 1000 cycles across the whole machine.
fn throughput_per_kcycle(dump: &StatsDump, cycles: u64) -> String {
    let completed = dump.counters.get("service.completed").copied().unwrap_or(0);
    format!("{:.2}", completed as f64 * 1000.0 / cycles.max(1) as f64)
}

/// The saturation sweep: every backend × every rung of [`GAPS`].
pub fn run(opts: &ExpOptions) -> TextTable {
    let mut t = TextTable::new(
        "Service — open-loop saturation sweep (per-core Poisson arrivals, one lock)",
    )
    .header([
        "lock", "gap", "completed", "dropped", "thr/kcyc", "p50", "p99", "p999", "saturated",
    ]);
    for algo in BACKENDS {
        for gap in GAPS {
            let tenant = single_tenant(gap, opts);
            let Some((dump, cycles)) =
                service_run(opts, algo, &[tenant], &format!("gap{gap}"), &format!("{gap}g"), None)
            else {
                t.row([
                    algo.name().to_string(),
                    gap.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
                continue;
            };
            t.row([
                algo.name().to_string(),
                gap.to_string(),
                slo(&dump, "service.completed"),
                slo(&dump, "slo.dropped"),
                throughput_per_kcycle(&dump, cycles),
                slo(&dump, "slo.p50"),
                slo(&dump, "slo.p99"),
                slo(&dump, "slo.p999"),
                slo(&dump, "slo.saturated"),
            ]);
        }
    }
    t
}

/// The companion studies: multi-tenant interference and SLO under chaos.
pub fn run_studies(opts: &ExpOptions) -> TextTable {
    let mut t = TextTable::new("Service — multi-tenant mix and SLO under chaos (GLock)")
        .header(["scenario", "completed", "dropped", "failovers", "p99", "p999", "t0.p999", "t1.p999"]);

    // A calm tenant next to a bursty MMPP neighbor, disjoint locks/words.
    let calm = TenantSpec {
        process: ArrivalProcess::Poisson { mean_gap: 2048 },
        lock: LockId(0),
        data: Addr(0x0200_0000),
        requests_per_core: requests_per_core(opts),
        cs_instructions: 16,
        queue_cap: 64,
    };
    let bursty = TenantSpec {
        process: ArrivalProcess::Mmpp {
            calm_gap: 4096,
            burst_gap: 64,
            calm_dwell: 30_000,
            burst_dwell: 10_000,
        },
        lock: LockId(1),
        data: Addr(0x1200_0000),
        ..calm
    };
    if let Some((dump, _)) =
        service_run(opts, LockAlgorithm::Glock, &[calm, bursty], "mix", "mix2", None)
    {
        t.row([
            "calm+bursty".to_string(),
            slo(&dump, "service.completed"),
            slo(&dump, "slo.dropped"),
            "-".to_string(),
            slo(&dump, "slo.p99"),
            slo(&dump, "slo.p999"),
            slo(&dump, "slo.t0.p999"),
            slo(&dump, "slo.t1.p999"),
        ]);
    }

    // SLO under chaos: every G-line network dies inside the kill window
    // while requests keep arriving; the row's tails include the failover.
    let mut plan = FaultPlan::seeded(crate::chaos::CHAOS_SEED);
    plan.kill_all_glock_networks(1, crate::chaos::EARLIEST_KILL, crate::chaos::LATEST_KILL);
    let loaded = single_tenant(512, opts);
    if let Some((dump, _)) =
        service_run(opts, LockAlgorithm::Glock, &[loaded], "chaos", "chaos", Some(plan))
    {
        t.row([
            "kill-glock-nets".to_string(),
            slo(&dump, "service.completed"),
            slo(&dump, "slo.dropped"),
            slo(&dump, "sim.failovers"),
            slo(&dump, "slo.p99"),
            slo(&dump, "slo.p999"),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(rows: &[Vec<String>], r: usize, c: usize) -> &str {
        &rows[r][c]
    }

    #[test]
    fn sweep_axis_is_monotone_and_shows_the_knee() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let t = run(&opts);
        assert_eq!(t.n_rows(), BACKENDS.len() * GAPS.len());
        let rows: Vec<Vec<String>> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        for (b, algo) in BACKENDS.iter().enumerate() {
            let base = b * GAPS.len();
            // The offered-load axis is monotone: gaps strictly decrease.
            for (i, gap) in GAPS.iter().enumerate() {
                assert_eq!(cell(&rows, base + i, 0), algo.name());
                assert_eq!(cell(&rows, base + i, 1), &gap.to_string());
            }
            // Visible knee: the lightest rung is healthy, the heaviest is
            // saturated, and p99 grows past the knee.
            assert_eq!(cell(&rows, base, 8), "0", "{}: lightest rung saturated", algo.name());
            assert_eq!(
                cell(&rows, base + GAPS.len() - 1, 8),
                "1",
                "{}: heaviest rung must saturate",
                algo.name()
            );
            let p99_light: u64 = cell(&rows, base, 6).parse().unwrap();
            let p99_heavy: u64 = cell(&rows, base + GAPS.len() - 1, 6).parse().unwrap();
            assert!(
                p99_heavy > 2 * p99_light,
                "{}: p99 must grow superlinearly past the knee ({p99_light} -> {p99_heavy})",
                algo.name()
            );
        }
    }

    #[test]
    fn chaos_row_reports_tails_through_the_failover() {
        let opts = ExpOptions { quick: true, threads: 8, ..Default::default() };
        let t = run_studies(&opts);
        assert_eq!(t.n_rows(), 2);
        let rows: Vec<Vec<String>> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        // Multi-tenant row: both tenants report tails.
        assert_eq!(cell(&rows, 0, 0), "calm+bursty");
        assert!(cell(&rows, 0, 6).parse::<u64>().is_ok(), "t0.p999 present");
        assert!(cell(&rows, 0, 7).parse::<u64>().is_ok(), "t1.p999 present");
        // Chaos row: the failover happened and p999 is still reported.
        assert_eq!(cell(&rows, 1, 0), "kill-glock-nets");
        let failovers: u64 = cell(&rows, 1, 3).parse().unwrap();
        assert!(failovers > 0, "G-line death must trigger GLock->TATAS failover");
        assert!(cell(&rows, 1, 5).parse::<u64>().unwrap() > 0, "p999 reported through chaos");
    }
}
