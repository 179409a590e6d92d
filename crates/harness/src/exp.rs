//! Shared experiment plumbing: every harness simulation starts in [`run`].
//!
//! A driver describes each run as a [`RunSpec`] — what differs from run to
//! run — and hands it to [`run`] with the [`ExpOptions`] the command line
//! decided for its experiment, which every run of that experiment obeys.

use crate::journal::RunError;
use glocks_locks::LockAlgorithm;
use glocks_mem::MemorySystem;
use glocks_sim::{LockMapping, SimError, SimReport, Simulation, SimulationOptions};
use glocks_sim_base::{CmpConfig, Mesh2D};
use glocks_stats::{BenchRecord, Stopwatch};
use glocks_workloads::{BenchConfig, BenchInstance, BenchKind, Verifier};
use std::cell::{Cell, RefCell};

/// What the command line decides for one experiment. Build one per
/// experiment: its dump sequence, BENCH records and tolerated errors
/// belong to that experiment alone.
#[derive(Debug)]
pub struct ExpOptions {
    /// `--quick`: reduced input sizes instead of Table III's.
    pub quick: bool,
    /// `--threads N`: cores for the main experiments (the paper's
    /// baseline is 32).
    pub threads: usize,
    /// `--mesh WxH`: the floor plan of every run whose spec does not pin
    /// one. It must hold exactly as many tiles as the run has cores.
    pub mesh: Option<Mesh2D>,
    /// `--dense`: tick every cycle instead of skipping idle ones. Both
    /// loops march through identical machine states.
    pub dense: bool,
    /// `--watchdog-cycles N`: replaces every run's watchdog window
    /// (0 = off).
    pub watchdog_cycles: Option<u64>,
    /// `--timeout-secs N`: every run's wall-clock budget. A run that
    /// overstays ends the experiment's attempt as a transient wedge.
    pub timeout_secs: Option<u64>,
    /// `--stats-json DIR`: where each run's stats dump goes (`None` =
    /// stats off).
    pub stats_dir: Option<String>,
    /// Experiment name: the dump-file prefix and the dump's
    /// `meta.experiment`.
    pub context: String,
    /// What this experiment's runs leave behind; start it empty.
    pub log: ExpLog,
}

/// What one experiment's runs leave behind besides their results.
#[derive(Debug, Default)]
pub struct ExpLog {
    /// Dumps written so far, so repeated configurations get distinct files.
    seq: Cell<u64>,
    /// One self-profile record per run under `--stats-json`.
    records: RefCell<Vec<BenchRecord>>,
    /// Failures of runs the drivers tolerated, for the sweep journal.
    errors: RefCell<Vec<RunError>>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            quick: false,
            threads: 32,
            mesh: None,
            dense: false,
            watchdog_cycles: None,
            timeout_secs: None,
            stats_dir: None,
            context: "run".to_string(),
            log: ExpLog::default(),
        }
    }
}

impl ExpOptions {
    pub fn bench(&self, kind: BenchKind) -> BenchConfig {
        self.bench_on(kind, self.threads)
    }

    pub fn bench_on(&self, kind: BenchKind, threads: usize) -> BenchConfig {
        if self.quick {
            BenchConfig::smoke(kind, threads)
        } else {
            BenchConfig::paper(kind, threads)
        }
    }

    /// Apply the run-wide settings to `spec`: `--mesh` unless the spec
    /// pins a floor plan, `--dense`, `--watchdog-cycles` and
    /// `--timeout-secs`. A `--mesh` that does not fit the run panics
    /// rather than silently simulating a different machine.
    pub fn apply(&self, spec: &mut RunSpec) {
        if let (Some(m), None) = (self.mesh, spec.cfg.mesh_override) {
            assert!(
                m.len() == spec.cfg.num_cores,
                "--mesh {}x{} holds {} tiles but the workload runs {} threads",
                m.cols(),
                m.rows(),
                m.len(),
                spec.cfg.num_cores
            );
            spec.cfg = spec.cfg.with_mesh(m);
        }
        if self.dense {
            spec.options.idle_skip = false;
        }
        if let Some(w) = self.watchdog_cycles {
            spec.options.watchdog_cycles = w;
        }
        if let Some(s) = self.timeout_secs {
            spec.options.wall_clock_limit_ms = Some(s.saturating_mul(1000));
        }
    }

    /// Report a failure to the sweep journal: a tolerated run's
    /// [`SimError`], or one that is not a `SimError` at all (the fuzzer's
    /// findings, a repro that does not parse).
    pub fn report(&self, e: RunError) {
        self.log.errors.borrow_mut().push(e);
    }

    /// Take every error reported so far.
    pub fn take_errors(&self) -> Vec<RunError> {
        self.log.errors.take()
    }

    /// Write the experiment's self-profile, `DIR/BENCH_<context>.json`, if
    /// any run recorded a phase. Returns the file's path.
    pub fn write_bench(&self) -> Option<String> {
        let dir = self.stats_dir.as_ref()?;
        let records = self.log.records.borrow();
        if records.is_empty() {
            return None;
        }
        let path = format!("{dir}/BENCH_{}.json", self.context);
        match std::fs::write(&path, glocks_stats::selfprof::bench_json(&records)) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                None
            }
        }
    }
}

/// Parse a `--mesh` argument of the form `WxH` (e.g. `32x32`) into a mesh.
pub fn parse_mesh(s: &str) -> Result<Mesh2D, String> {
    let (w, h) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("mesh '{s}' is not of the form WxH (e.g. 32x32)"))?;
    let w: u16 = w.trim().parse().map_err(|_| format!("mesh width '{w}' is not a number"))?;
    let h: u16 = h.trim().parse().map_err(|_| format!("mesh height '{h}' is not a number"))?;
    if w == 0 || h == 0 {
        return Err(format!("mesh '{s}' must be non-empty"));
    }
    Ok(Mesh2D::new(w, h))
}

/// Make a label safe for a filename (`MP-Lock` stays, `MCS/32` would not).
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
        .collect()
}

/// What differs from one run to the next. [`run`] applies the run-wide
/// [`ExpOptions`] on top.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Names the run: its dump is `DIR/<experiment>_<tag>_<seq>.json`.
    pub tag: String,
    /// Key/value pairs for the dump's `meta` block.
    pub meta: Vec<(&'static str, String)>,
    /// The machine. A `mesh_override` here pins the floor plan, and
    /// `--mesh` leaves it alone.
    pub cfg: CmpConfig,
    pub mapping: LockMapping,
    pub options: SimulationOptions,
}

impl RunSpec {
    /// `bench` under `mapping` on the paper's baseline machine scaled to
    /// `bench.threads`, tagged `<bench>_<lock>_<threads>t`.
    pub fn bench(bench: &BenchConfig, mapping: LockMapping) -> Self {
        let (kind, lock) = (bench.kind.name(), mapping.label());
        RunSpec {
            tag: format!("{kind}_{lock}_{}t", bench.threads),
            meta: vec![
                ("bench", kind.to_string()),
                ("lock", lock.to_string()),
                ("threads", bench.threads.to_string()),
            ],
            cfg: CmpConfig::paper_baseline().with_cores(bench.threads),
            mapping,
            options: SimulationOptions::default(),
        }
    }
}

/// A run that completed, handed back by [`run`] for the driver to check.
pub struct Finished {
    /// The run's [`RunSpec::tag`].
    pub tag: String,
    pub report: SimReport,
    /// The machine's memory after the run.
    pub mem: MemorySystem,
    /// The workload's check of `mem`'s final image.
    pub verify: Verifier,
}

impl Finished {
    /// The report, once the final memory passed the workload's check. A
    /// wrong answer is always a bug (unlike a wedge under faults), so a
    /// failed check panics: every experiment doubles as a correctness test.
    pub fn verified(self) -> SimReport {
        if let Err(e) = (self.verify)(self.mem.store()) {
            panic!("{} failed verification: {e}", self.tag);
        }
        self.report
    }
}

/// Run one simulation: the only place the harness starts one. In order:
/// apply `opts`' run-wide settings to `spec`, open the stats session
/// (`--stats-json` only), call `build` for the workloads — after the
/// session is open, since components register their stats as they are
/// constructed — run, write the dump and the BENCH record, and close the
/// session.
///
/// A run that wedges deterministically comes back as `Err`, so a sweep
/// can show it as a row. A run that overstays `--timeout-secs` does not
/// come back: it unwinds with its [`RunError`], which the sweep engine
/// records as a transient wedge of the whole experiment.
pub fn run(
    opts: &ExpOptions,
    mut spec: RunSpec,
    build: impl FnOnce() -> BenchInstance,
) -> Result<Finished, SimError> {
    opts.apply(&mut spec);
    let session = opts.stats_dir.as_ref().map(|dir| {
        let label = format!("{}_{}", opts.context, sanitize(&spec.tag));
        glocks_stats::enable(glocks_stats::StatsConfig::default());
        glocks_stats::set_meta("experiment", &opts.context);
        for (k, v) in &spec.meta {
            glocks_stats::set_meta(k, v);
        }
        (format!("{dir}/{label}"), Stopwatch::start(&label))
    });
    let inst = build();
    let sim = Simulation::new(&spec.cfg, &spec.mapping, inst.workloads, &inst.init, spec.options);
    let result = sim.run();
    if let Some((prefix, watch)) = session {
        let mut cycles = 0;
        if let Ok((report, _)) = &result {
            cycles = report.cycles;
            if let Some(dump) = &report.stats {
                let seq = opts.log.seq.replace(opts.log.seq.get() + 1);
                let path = format!("{prefix}_{seq}.json");
                if let Err(e) = std::fs::write(&path, dump.to_json()) {
                    eprintln!("[harness] failed to write stats dump {path}: {e}");
                }
            }
        }
        opts.log.records.borrow_mut().push(watch.stop(cycles));
        glocks_stats::disable();
    }
    match result {
        Ok((report, mem)) => Ok(Finished { tag: spec.tag, report, mem, verify: inst.verify }),
        Err(e) if e.is_transient() => {
            std::panic::resume_unwind(Box::new(RunError::from_sim_error(&e)))
        }
        Err(e) => Err(e),
    }
}

/// [`run`] for a driver that keeps going past a wedged run: the error is
/// logged to stderr, reported to the journal, and the run comes back as
/// `None`.
pub fn try_run(
    opts: &ExpOptions,
    spec: RunSpec,
    build: impl FnOnce() -> BenchInstance,
) -> Option<Finished> {
    let tag = spec.tag.clone();
    match run(opts, spec, build) {
        Ok(f) => Some(f),
        Err(e) => {
            eprintln!("[harness] {tag} wedged ({}); skipping\n{e}", e.kind());
            opts.report(RunError::from_sim_error(&e));
            None
        }
    }
}

/// Run `bench` under `mapping` on the baseline machine and verify it.
pub fn run_bench(
    opts: &ExpOptions,
    bench: &BenchConfig,
    mapping: &LockMapping,
) -> Result<SimReport, SimError> {
    run(opts, RunSpec::bench(bench, mapping.clone()), || bench.build()).map(Finished::verified)
}

/// [`run_bench`] that logs a wedged configuration and returns `None`, so
/// the caller's remaining configurations still run.
pub fn try_run_bench(
    opts: &ExpOptions,
    bench: &BenchConfig,
    mapping: &LockMapping,
) -> Option<SimReport> {
    try_run(opts, RunSpec::bench(bench, mapping.clone()), || bench.build()).map(Finished::verified)
}

/// The paper's two principal configurations for a benchmark.
pub fn mcs_mapping(bench: &BenchConfig) -> LockMapping {
    LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Mcs, bench.n_locks())
}

pub fn glock_mapping(bench: &BenchConfig) -> LockMapping {
    LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Glock, bench.n_locks())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_dir_dumps_schema_versioned_json() {
        let dir = std::env::temp_dir().join(format!("glocks_stats_exp_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ExpOptions {
            quick: true,
            threads: 4,
            stats_dir: dir.to_str().map(str::to_string),
            context: "unit".to_string(),
            ..Default::default()
        };
        let bench = opts.bench(BenchKind::Sctr);
        let r = run_bench(&opts, &bench, &glock_mapping(&bench)).expect("fault-free run");
        let dump = r.stats.as_ref().expect("snapshot attached to report");
        assert_eq!(dump.schema_version, glocks_stats::SCHEMA_VERSION);
        let path = dir.join(format!(
            "unit_{}_{}_4t_0.json",
            bench.kind.name(),
            sanitize(glock_mapping(&bench).label())
        ));
        let text = std::fs::read_to_string(&path).expect("dump file written");
        let parsed = glocks_stats::StatsDump::from_json(&text).expect("dump parses");
        assert_eq!(parsed.meta.get("bench").map(String::as_str), Some(bench.kind.name()));
        assert_eq!(parsed.meta.get("experiment").map(String::as_str), Some("unit"));
        assert!(parsed.counters.contains_key("sim.cycles"));
        assert!(!glocks_stats::is_enabled(), "session closed after the run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_flag_replaces_the_specs_window() {
        let opts =
            ExpOptions { quick: true, threads: 4, watchdog_cycles: Some(50), ..Default::default() };
        let bench = opts.bench(BenchKind::Sctr);
        // A spec that sets its own window, as the fault sweep does.
        let spec = RunSpec {
            options: SimulationOptions { watchdog_cycles: 200_000, ..Default::default() },
            ..RunSpec::bench(&bench, glock_mapping(&bench))
        };
        match run(&opts, spec, || bench.build()) {
            Err(SimError::NoForwardProgress { window, .. }) => assert_eq!(window, 50),
            Err(e) => panic!("expected no-forward-progress, got {}", e.kind()),
            Ok(_) => panic!("a 50-cycle window cannot see the run through"),
        }
    }

    #[test]
    fn mesh_flag_parses_and_rejects_garbage() {
        assert_eq!(parse_mesh("32x32").unwrap(), Mesh2D::new(32, 32));
        assert_eq!(parse_mesh("8X4").unwrap(), Mesh2D::new(8, 4));
        assert!(parse_mesh("32").is_err());
        assert!(parse_mesh("0x4").is_err());
        assert!(parse_mesh("ax4").is_err());
    }

    #[test]
    fn mesh_override_shapes_the_run() {
        let mesh = Some(Mesh2D::new(1, 4));
        let opts = ExpOptions { quick: true, threads: 4, mesh, ..Default::default() };
        let bench = opts.bench(BenchKind::Sctr);
        let r = run_bench(&opts, &bench, &glock_mapping(&bench)).expect("fault-free run");
        assert!(r.cycles > 0);
    }

    #[test]
    #[should_panic(expected = "--mesh 4x4")]
    fn mismatched_mesh_override_panics() {
        let mesh = Some(Mesh2D::new(4, 4));
        let opts = ExpOptions { quick: true, threads: 8, mesh, ..Default::default() };
        let bench = opts.bench(BenchKind::Sctr);
        let _ = run_bench(&opts, &bench, &glock_mapping(&bench));
    }

    #[test]
    fn quick_run_produces_report() {
        let opts = ExpOptions { quick: true, threads: 4, ..Default::default() };
        let bench = opts.bench(BenchKind::Sctr);
        let r = run_bench(&opts, &bench, &mcs_mapping(&bench)).expect("fault-free run");
        assert!(r.cycles > 0);
    }
}
