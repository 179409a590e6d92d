//! Seeded fault-plan fuzzer with a delta-debugging shrinker.
//!
//! The chaos and fault sweeps exercise hand-picked schedules; the fuzzer
//! explores the *survivable envelope* at random. Each seeded case pairs a
//! small SCTR configuration with a generated [`FaultPlan`] combining
//! transient G-line drops/delays/duplicates, NoC and directory stalls, and
//! up to two GLock-layer hard faults (line or leaf deaths), optionally
//! intermittent with a repair window — the full kill → failover → repair →
//! fail-back lifecycle — while the protocol invariant checker rides along
//! at a dense cadence.
//!
//! The generator deliberately stays inside what the architecture promises
//! to survive: NoC and directory faults are delay-only (packet drops wedge
//! by design — there is no packet-level retransmission), hard faults hit
//! only repairable GLock-layer components (router/tile deaths are
//! *diagnosed* wedges, not survivable), and per-site rates stay below the
//! retransmission budget's saturation point. Inside that envelope, every
//! run must complete with the exact expected acquire count and final
//! memory image, so **any** failure — a structured [`SimError`], an
//! invariant violation, or a wrong final counter — is a real bug.
//!
//! A failing case is then *shrunk* by greedy delta debugging: candidate
//! reductions (drop a hard fault, strip a repair window, zero or halve a
//! rate site, step the workload and machine down) are re-run and kept
//! whenever the same failure kind still reproduces, to a fixpoint. The
//! minimal case is written out as a replayable JSON repro that
//! `glocks-experiments fuzz --replay FILE` re-executes verbatim.
//!
//! [`SimError`]: glocks_sim::SimError

use crate::exp::{self, ExpOptions, RunSpec};
use glocks_locks::LockAlgorithm;
use glocks_sim::{CheckerConfig, LockMapping, SimulationOptions};
use glocks_sim_base::fault::{FaultPlan, FaultRates, HardFault, HardFaultTarget};
use glocks_sim_base::rng::SplitMix64;
use glocks_sim_base::table::TextTable;
use glocks_stats::json::{self, Json};
use glocks_workloads::{BenchConfig, BenchKind};
use std::collections::BTreeMap;

/// Schema tag stamped into every repro file; the replay parser refuses
/// anything else rather than guessing at a different layout.
pub const REPRO_SCHEMA: &str = "glocks-fuzz-repro-v1";

/// Workload sizes (total SCTR iterations) the generator draws from and the
/// shrinker steps down through. The floor keeps at least one critical
/// section per core on the largest machine.
pub const SCALE_LADDER: [u64; 4] = [8, 32, 64, 96];

/// Checker cadence for fuzz runs: much denser than the default 1024 so a
/// violation window of a few hundred cycles cannot slip between scans.
const CHECK_EVERY: u64 = 256;

/// Upper bound on shrink re-runs per failing case — a backstop far above
/// what the greedy pass needs (observed: tens), never a silent truncation
/// in practice.
const MAX_SHRINK_EVALS: usize = 128;

/// One fuzz campaign's knobs.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed: the whole campaign (plans *and* their fault schedules)
    /// is a pure function of it.
    pub seed: u64,
    /// Number of generated cases to run.
    pub plans: usize,
    /// Where minimized repro files are written (`None` = not written;
    /// callers get the encoded JSON either way).
    pub out_dir: Option<String>,
    /// Self-test hook: classify every repair-bearing plan as a
    /// `synthetic-bug` failure *before* running it, so the shrinker can be
    /// exercised (and CI can verify the repro pipeline) without a real
    /// protocol bug to find.
    pub synthetic_bug: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { seed: 0xFA57, plans: 16, out_dir: None, synthetic_bug: false }
    }
}

/// One generated (or replayed) fuzz case: a machine size, a workload size,
/// and a fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzCase {
    /// Cores in the simulated CMP.
    pub cores: usize,
    /// Total SCTR iterations (== the expected acquire count).
    pub scale: u64,
    pub plan: FaultPlan,
}

/// How one case failed.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    /// Machine-friendly kind (`SimError::kind()`, `verification-mismatch`,
    /// or `synthetic-bug`); shrinking preserves it.
    pub kind: String,
    pub detail: String,
}

/// One failing case after shrinking, plus its replayable repro.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    pub case_index: usize,
    pub kind: String,
    pub detail: String,
    pub minimized: FuzzCase,
    /// Encoded repro JSON (always present).
    pub repro: String,
    /// Where the repro was written, when `out_dir` was set.
    pub path: Option<String>,
}

/// A finished campaign: the per-case table and every (shrunk) failure.
pub struct FuzzReport {
    pub table: TextTable,
    pub failures: Vec<FuzzFailure>,
}

/// Generate case `index` of the campaign seeded with `seed`. Pure: the
/// same `(seed, index)` always yields the same case.
pub fn gen_case(seed: u64, index: usize) -> FuzzCase {
    let mut rng = SplitMix64::new(
        seed ^ 0x4655_5A5A ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let cores = if rng.next_below(2) == 0 { 4 } else { 8 };
    let scale = SCALE_LADDER[1..][rng.next_below(3) as usize];
    let mut plan = FaultPlan::seeded(rng.next_u64());
    // Transient rates, each site flipped on independently. G-lines take
    // all three fault kinds (the epoch-tagged protocol retransmits through
    // them); NoC and directory faults are delay-only — a dropped packet or
    // directory transaction has no retransmission to ride and wedges by
    // design, which is outside the envelope the fuzzer polices.
    if rng.next_below(2) == 0 {
        plan.gline.drop_ppm = rng.next_range(1_000, 40_000) as u32;
    }
    if rng.next_below(2) == 0 {
        plan.gline.delay_ppm = rng.next_range(1_000, 40_000) as u32;
        plan.gline.max_delay = rng.next_range(1, 48);
    }
    if rng.next_below(2) == 0 {
        plan.gline.duplicate_ppm = rng.next_range(1_000, 40_000) as u32;
    }
    if rng.next_below(2) == 0 {
        plan.noc.delay_ppm = rng.next_range(1_000, 40_000) as u32;
        plan.noc.max_delay = rng.next_range(1, 24);
    }
    if rng.next_below(2) == 0 {
        plan.dir.delay_ppm = rng.next_range(1_000, 40_000) as u32;
        plan.dir.max_delay = rng.next_range(1, 24);
    }
    // Up to two hard faults on repairable GLock-layer targets, spaced into
    // sequential episodes: a repair lands only after the ~47k-cycle death
    // verdict, and the next kill leaves room for the probe + dwell
    // hysteresis to (possibly) fail back in between.
    let n_hard = rng.next_below(3) as usize;
    let mut at = 0u64;
    for _ in 0..n_hard {
        at += rng.next_range(1_000, 5_000);
        let target = if rng.next_below(2) == 0 {
            HardFaultTarget::GlockLine { net: 0 }
        } else {
            HardFaultTarget::GlockLeaf { net: 0, core: rng.next_below(cores as u64) as usize }
        };
        if rng.next_below(2) == 0 {
            let repair_at = at + rng.next_range(35_000, 60_000);
            plan.hard.push(HardFault::intermittent(at, repair_at, target));
            at = repair_at + 60_000;
        } else {
            plan.hard.push(HardFault::permanent(at, target));
            at += 60_000;
        }
    }
    debug_assert!(plan.validate().is_ok(), "generator produced an invalid plan");
    FuzzCase { cores, scale, plan }
}

/// Run one case to completion under the invariant checker and the
/// correctness oracle. `None` = the case survived correctly.
pub fn run_case(opts: &ExpOptions, case: &FuzzCase, synthetic_bug: bool) -> Option<CaseFailure> {
    if synthetic_bug && case.plan.has_repairs() {
        return Some(CaseFailure {
            kind: "synthetic-bug".to_string(),
            detail: "self-test hook: repair-bearing plan classified as failing".to_string(),
        });
    }
    let bench = BenchConfig {
        kind: BenchKind::Sctr,
        threads: case.cores,
        scale: case.scale,
        seed: 0xB10C_5EED,
    };
    let spec = RunSpec {
        options: SimulationOptions {
            fault_plan: Some(case.plan.clone()),
            checker: Some(CheckerConfig { every: CHECK_EVERY, ..Default::default() }),
            ..Default::default()
        },
        ..RunSpec::bench(&bench, LockMapping::uniform(LockAlgorithm::Glock, 1))
    };
    let mismatch = |detail| Some(CaseFailure { kind: "verification-mismatch".to_string(), detail });
    match exp::run(opts, spec, || bench.build()) {
        Ok(f) => {
            if let Err(e) = (f.verify)(f.mem.store()) {
                return mismatch(e);
            }
            if f.report.acquires[0] != case.scale {
                return mismatch(format!(
                    "{} acquires recorded, expected {}",
                    f.report.acquires[0], case.scale
                ));
            }
            None
        }
        Err(e) => Some(CaseFailure { kind: e.kind().to_string(), detail: e.to_string() }),
    }
}

fn site(p: &FaultPlan, i: usize) -> FaultRates {
    match i {
        0 => p.gline,
        1 => p.noc,
        _ => p.dir,
    }
}

fn site_mut(p: &mut FaultPlan, i: usize) -> &mut FaultRates {
    match i {
        0 => &mut p.gline,
        1 => &mut p.noc,
        _ => &mut p.dir,
    }
}

/// One round of candidate reductions, most aggressive first. Every
/// candidate is strictly smaller than `c` along some axis and structurally
/// valid, so the shrink loop terminates.
fn candidates(c: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    // Drop a whole hard fault.
    for i in 0..c.plan.hard.len() {
        let mut n = c.clone();
        n.plan.hard.remove(i);
        out.push(n);
    }
    // Silence a whole rate site.
    for i in 0..3 {
        if site(&c.plan, i).is_active() {
            let mut n = c.clone();
            *site_mut(&mut n.plan, i) = FaultRates::NONE;
            out.push(n);
        }
    }
    // Turn an intermittent fault permanent (drop the repair round trip).
    for i in 0..c.plan.hard.len() {
        if c.plan.hard[i].repair_at.is_some() {
            let mut n = c.clone();
            n.plan.hard[i].repair_at = None;
            out.push(n);
        }
    }
    // Halve individual rate fields.
    for i in 0..3 {
        let r = site(&c.plan, i);
        if r.drop_ppm > 0 {
            let mut n = c.clone();
            site_mut(&mut n.plan, i).drop_ppm /= 2;
            out.push(n);
        }
        if r.duplicate_ppm > 0 {
            let mut n = c.clone();
            site_mut(&mut n.plan, i).duplicate_ppm /= 2;
            out.push(n);
        }
        if r.delay_ppm > 0 {
            let mut n = c.clone();
            let s = site_mut(&mut n.plan, i);
            s.delay_ppm /= 2;
            if s.delay_ppm == 0 {
                s.max_delay = 0;
            }
            out.push(n);
        }
        if r.delay_ppm > 0 && r.max_delay > 1 {
            let mut n = c.clone();
            site_mut(&mut n.plan, i).max_delay = (r.max_delay / 2).max(1);
            out.push(n);
        }
    }
    // Step the workload down the ladder.
    if let Some(&s) = SCALE_LADDER.iter().rev().find(|&&s| s < c.scale) {
        let mut n = c.clone();
        n.scale = s;
        out.push(n);
    }
    // Step the machine down, clamping leaf targets onto the smaller CMP.
    if c.cores > 4 {
        let mut n = c.clone();
        n.cores = 4;
        for hf in &mut n.plan.hard {
            if let HardFaultTarget::GlockLeaf { net, core } = hf.target {
                hf.target = HardFaultTarget::GlockLeaf { net, core: core.min(n.cores - 1) };
            }
        }
        out.push(n);
    }
    out
}

/// Greedy delta debugging: repeatedly take the first candidate reduction
/// that still reproduces failure `kind`, to a fixpoint. Returns the
/// minimal case (possibly `case` itself).
pub fn shrink(opts: &ExpOptions, case: &FuzzCase, kind: &str, synthetic_bug: bool) -> FuzzCase {
    let mut best = case.clone();
    let mut evals = 0usize;
    'outer: loop {
        for cand in candidates(&best) {
            if evals >= MAX_SHRINK_EVALS {
                break 'outer;
            }
            evals += 1;
            debug_assert!(cand.plan.validate().is_ok(), "shrinker produced an invalid plan");
            if run_case(opts, &cand, synthetic_bug).is_some_and(|f| f.kind == kind) {
                best = cand;
                continue 'outer;
            }
        }
        break;
    }
    best
}

fn rates_to_json(r: &FaultRates) -> Json {
    let mut m = BTreeMap::new();
    m.insert("drop_ppm".to_string(), Json::UInt(u64::from(r.drop_ppm)));
    m.insert("delay_ppm".to_string(), Json::UInt(u64::from(r.delay_ppm)));
    m.insert("max_delay".to_string(), Json::UInt(r.max_delay));
    m.insert("duplicate_ppm".to_string(), Json::UInt(u64::from(r.duplicate_ppm)));
    Json::Obj(m)
}

fn target_to_json(t: HardFaultTarget) -> Json {
    let mut m = BTreeMap::new();
    let kind = match t {
        HardFaultTarget::GlockLine { net } => {
            m.insert("net".to_string(), Json::UInt(net as u64));
            "glock-line"
        }
        HardFaultTarget::GlockManager { net, node } => {
            m.insert("net".to_string(), Json::UInt(net as u64));
            m.insert("node".to_string(), Json::UInt(node as u64));
            "glock-manager"
        }
        HardFaultTarget::GlockLeaf { net, core } => {
            m.insert("net".to_string(), Json::UInt(net as u64));
            m.insert("core".to_string(), Json::UInt(core as u64));
            "glock-leaf"
        }
        HardFaultTarget::NocRouter { tile } => {
            m.insert("tile".to_string(), Json::UInt(tile as u64));
            "noc-router"
        }
        HardFaultTarget::Tile { core } => {
            m.insert("core".to_string(), Json::UInt(core as u64));
            "tile"
        }
    };
    m.insert("kind".to_string(), Json::Str(kind.to_string()));
    Json::Obj(m)
}

/// Encode a (minimized) case as a self-contained repro file. Deterministic
/// (sorted keys), so a repro can be golden-tested byte for byte.
pub fn case_to_json(case: &FuzzCase, failure: &str, fuzz_seed: u64, case_index: usize) -> String {
    let mut m = BTreeMap::new();
    m.insert("schema".to_string(), Json::Str(REPRO_SCHEMA.to_string()));
    m.insert("failure".to_string(), Json::Str(failure.to_string()));
    m.insert("fuzz_seed".to_string(), Json::UInt(fuzz_seed));
    m.insert("case_index".to_string(), Json::UInt(case_index as u64));
    m.insert("cores".to_string(), Json::UInt(case.cores as u64));
    m.insert("scale".to_string(), Json::UInt(case.scale));
    m.insert("plan_seed".to_string(), Json::UInt(case.plan.seed));
    m.insert("gline".to_string(), rates_to_json(&case.plan.gline));
    m.insert("noc".to_string(), rates_to_json(&case.plan.noc));
    m.insert("dir".to_string(), rates_to_json(&case.plan.dir));
    let hard = case
        .plan
        .hard
        .iter()
        .map(|hf| {
            let mut h = BTreeMap::new();
            h.insert("at_cycle".to_string(), Json::UInt(hf.at_cycle));
            h.insert("target".to_string(), target_to_json(hf.target));
            h.insert(
                "repair_at".to_string(),
                hf.repair_at.map_or(Json::Null, Json::UInt),
            );
            Json::Obj(h)
        })
        .collect();
    m.insert("hard".to_string(), Json::Arr(hard));
    Json::Obj(m).encode()
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn get_u32(j: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(get_u64(j, key)?).map_err(|_| format!("field '{key}' overflows u32"))
}

fn rates_from_json(j: &Json, key: &str) -> Result<FaultRates, String> {
    let r = j.get(key).ok_or_else(|| format!("missing rate site '{key}'"))?;
    Ok(FaultRates {
        drop_ppm: get_u32(r, "drop_ppm")?,
        delay_ppm: get_u32(r, "delay_ppm")?,
        max_delay: get_u64(r, "max_delay")?,
        duplicate_ppm: get_u32(r, "duplicate_ppm")?,
    })
}

fn target_from_json(j: &Json) -> Result<HardFaultTarget, String> {
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "hard fault target has no 'kind'".to_string())?;
    let idx = |key: &str| get_u64(j, key).map(|v| v as usize);
    match kind {
        "glock-line" => Ok(HardFaultTarget::GlockLine { net: idx("net")? }),
        "glock-manager" => {
            Ok(HardFaultTarget::GlockManager { net: idx("net")?, node: idx("node")? })
        }
        "glock-leaf" => Ok(HardFaultTarget::GlockLeaf { net: idx("net")?, core: idx("core")? }),
        "noc-router" => Ok(HardFaultTarget::NocRouter { tile: idx("tile")? }),
        "tile" => Ok(HardFaultTarget::Tile { core: idx("core")? }),
        other => Err(format!("unknown hard fault target kind '{other}'")),
    }
}

/// Parse a repro file back into a runnable case. Validates the schema tag
/// and the plan structure, so a stale or hand-mangled repro fails loudly.
pub fn case_from_json(text: &str) -> Result<FuzzCase, String> {
    let j = json::parse(text)?;
    let schema = j.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != REPRO_SCHEMA {
        return Err(format!("repro schema '{schema}' is not '{REPRO_SCHEMA}'"));
    }
    let mut plan = FaultPlan::seeded(get_u64(&j, "plan_seed")?);
    plan.gline = rates_from_json(&j, "gline")?;
    plan.noc = rates_from_json(&j, "noc")?;
    plan.dir = rates_from_json(&j, "dir")?;
    for h in j.get("hard").and_then(Json::as_arr).unwrap_or(&[]) {
        let repair_at = match h.get("repair_at") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("non-integer 'repair_at'")?),
        };
        plan.hard.push(HardFault {
            at_cycle: get_u64(h, "at_cycle")?,
            target: target_from_json(
                h.get("target").ok_or("hard fault has no 'target'")?,
            )?,
            repair_at,
        });
    }
    plan.validate().map_err(|e| e.to_string())?;
    let case = FuzzCase {
        cores: get_u64(&j, "cores")? as usize,
        scale: get_u64(&j, "scale")?,
        plan,
    };
    if case.cores == 0 || case.scale == 0 {
        return Err("repro needs at least one core and one iteration".to_string());
    }
    Ok(case)
}

/// Load and re-run a repro file. `Ok(None)` = the case now passes;
/// `Ok(Some(f))` = it still fails (with the live failure kind).
pub fn replay_file(
    opts: &ExpOptions,
    path: &str,
    synthetic_bug: bool,
) -> Result<Option<CaseFailure>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let case = case_from_json(&text)?;
    Ok(run_case(opts, &case, synthetic_bug))
}

fn rates_cell(r: &FaultRates) -> String {
    if !r.is_active() {
        return "-".to_string();
    }
    format!("{}/{}:{}/{}", r.drop_ppm, r.delay_ppm, r.max_delay, r.duplicate_ppm)
}

/// Run a whole campaign: generate, run, shrink failures, and (optionally)
/// write their repro files into `out_dir`.
pub fn run(opts: &ExpOptions, cfg: &FuzzConfig) -> FuzzReport {
    let mut t = TextTable::new(format!(
        "Fault-plan fuzzer — {} seeded cases in the survivable envelope (seed {:#x})",
        cfg.plans, cfg.seed
    ))
    .header([
        "case",
        "cores",
        "iters",
        "gline d/y:max/u (ppm)",
        "noc",
        "dir",
        "hard(repairs)",
        "outcome",
    ]);
    let mut failures = Vec::new();
    for i in 0..cfg.plans {
        let case = gen_case(cfg.seed, i);
        let repairs = case.plan.hard.iter().filter(|h| h.repair_at.is_some()).count();
        let outcome = match run_case(opts, &case, cfg.synthetic_bug) {
            None => "ok".to_string(),
            Some(f) => {
                let minimized = shrink(opts, &case, &f.kind, cfg.synthetic_bug);
                let repro = case_to_json(&minimized, &f.kind, cfg.seed, i);
                let path = cfg.out_dir.as_ref().map(|dir| {
                    let _ = std::fs::create_dir_all(dir);
                    let path = format!("{dir}/repro_case{i}_{}.json", f.kind);
                    if let Err(e) = std::fs::write(&path, &repro) {
                        eprintln!("[fuzz] failed to write repro {path}: {e}");
                    }
                    path
                });
                let kind = f.kind.clone();
                failures.push(FuzzFailure {
                    case_index: i,
                    kind: f.kind,
                    detail: f.detail,
                    minimized,
                    repro,
                    path,
                });
                kind
            }
        };
        t.row([
            i.to_string(),
            case.cores.to_string(),
            case.scale.to_string(),
            rates_cell(&case.plan.gline),
            rates_cell(&case.plan.noc),
            rates_cell(&case.plan.dir),
            format!("{}({repairs})", case.plan.hard.len()),
            outcome,
        ]);
    }
    FuzzReport { table: t, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_stays_in_the_envelope() {
        for i in 0..32 {
            let a = gen_case(0xF00D, i);
            let b = gen_case(0xF00D, i);
            assert_eq!(a, b, "case generation must be a pure function of (seed, index)");
            a.plan.validate().expect("generated plans are structurally valid");
            assert_eq!(a.plan.noc.drop_ppm, 0, "NoC drops wedge by design");
            assert_eq!(a.plan.noc.duplicate_ppm, 0);
            assert_eq!(a.plan.dir.drop_ppm, 0);
            assert_eq!(a.plan.dir.duplicate_ppm, 0);
            assert!(a.plan.hard.len() <= 2);
            for hf in &a.plan.hard {
                assert!(
                    matches!(
                        hf.target,
                        HardFaultTarget::GlockLine { .. } | HardFaultTarget::GlockLeaf { .. }
                    ),
                    "only repairable GLock-layer targets are generated"
                );
            }
        }
    }

    #[test]
    fn small_campaign_survives_the_envelope() {
        let cfg = FuzzConfig { seed: 0xF1E1D, plans: 4, ..Default::default() };
        let rep = run(&ExpOptions::default(), &cfg);
        assert_eq!(rep.table.n_rows(), 4);
        assert!(
            rep.failures.is_empty(),
            "the survivable envelope must be clean, got: {:?}",
            rep.failures.iter().map(|f| (&f.kind, &f.detail)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn synthetic_bug_shrinks_to_a_minimal_replayable_repro() {
        let seed = 0xCAFE;
        let idx = (0..64)
            .find(|&i| gen_case(seed, i).plan.has_repairs())
            .expect("some generated case carries a repair window");
        let case = gen_case(seed, idx);
        let opts = ExpOptions::default();
        let f = run_case(&opts, &case, true).expect("the hook classifies repair plans as failing");
        assert_eq!(f.kind, "synthetic-bug");

        let min = shrink(&opts, &case, &f.kind, true);
        assert_eq!(min.cores, 4, "the machine shrinks to the smallest CMP");
        assert_eq!(min.scale, SCALE_LADDER[0], "the workload shrinks to the ladder floor");
        assert_eq!(min.plan.hard.len(), 1, "a single hard fault suffices");
        assert!(min.plan.hard[0].repair_at.is_some(), "the repair window is the trigger");
        assert!(
            !min.plan.gline.is_active()
                && !min.plan.noc.is_active()
                && !min.plan.dir.is_active(),
            "transient rates are irrelevant to the failure and must be gone"
        );

        let text = case_to_json(&min, &f.kind, seed, idx);
        let back = case_from_json(&text).expect("repro parses back");
        assert_eq!(back, min, "the repro round-trips the exact minimized case");
        let again = run_case(&opts, &back, true).expect("the parsed repro still reproduces");
        assert_eq!(again.kind, "synthetic-bug");
    }

    #[test]
    fn repro_parser_rejects_garbage() {
        assert!(case_from_json("{}").is_err(), "missing schema tag");
        assert!(case_from_json("not json").is_err());
        let min = FuzzCase {
            cores: 4,
            scale: 8,
            plan: FaultPlan::seeded(1),
        };
        let good = case_to_json(&min, "x", 0, 0);
        let bad = good.replace(REPRO_SCHEMA, "glocks-fuzz-repro-v0");
        assert!(case_from_json(&bad).is_err(), "wrong schema version is refused");
    }
}
