//! Run-to-run regression diffing of stats dumps.
//!
//! `diff(old, new, opts)` compares two [`StatsDump`]s and classifies every
//! stat: unchanged, drifted within tolerance, out of tolerance, added, or
//! removed. The report's `failed` flag drives the `glocks-stats diff`
//! binary's exit code and therefore the CI regression gate: any watched
//! counter moving more than `tolerance` (relative) fails the build.
//!
//! Histograms are compared on their summary moments (count, sum, max and
//! p99) rather than bucket-by-bucket — a one-sample shift across a
//! power-of-two edge is not a regression, a fatter tail is. Time series
//! are compared on their point count and mean, which catches sampling
//! regressions without demanding bitwise equality of a 2048-point gauge.

use crate::dump::StatsDump;
use std::collections::BTreeSet;

/// Diff configuration.
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Maximum tolerated relative drift, e.g. `0.01` for ±1%. Absolute
    /// differences on values ≤ `abs_floor` are ignored (a counter moving
    /// 2 → 3 is a 50% relative change but rarely meaningful).
    pub tolerance: f64,
    /// Values whose old and new magnitude both fall at or below this floor
    /// are exempt from the relative check.
    pub abs_floor: f64,
    /// Only stats whose name starts with one of these prefixes can fail
    /// the diff (all stats are still reported). Empty = watch everything.
    pub watch: Vec<String>,
    /// Treat added/removed stats as failures (schema drift).
    pub fail_on_shape_change: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tolerance: 0.01,
            abs_floor: 4.0,
            watch: Vec::new(),
            fail_on_shape_change: true,
        }
    }
}

/// What happened to one stat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKind {
    Unchanged,
    WithinTolerance,
    OutOfTolerance,
    Added,
    Removed,
}

/// One line of the diff report.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffLine {
    pub name: String,
    pub kind: DiffKind,
    pub old: f64,
    pub new: f64,
    /// Relative drift `|new - old| / max(|old|, 1)`.
    pub rel: f64,
    /// Whether this line counted toward failure (watched + out of
    /// tolerance, or a shape change with `fail_on_shape_change`).
    pub failing: bool,
}

/// Full diff result.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    pub lines: Vec<DiffLine>,
    pub failed: bool,
    /// Human-readable reason when the dumps could not be compared at all
    /// (schema version mismatch).
    pub incomparable: Option<String>,
}

impl DiffReport {
    /// Lines that changed at all (for compact rendering).
    pub fn changed(&self) -> impl Iterator<Item = &DiffLine> {
        self.lines.iter().filter(|l| l.kind != DiffKind::Unchanged)
    }

    pub fn failing_lines(&self) -> impl Iterator<Item = &DiffLine> {
        self.lines.iter().filter(|l| l.failing)
    }
}

fn watched(name: &str, opts: &DiffOptions) -> bool {
    opts.watch.is_empty() || opts.watch.iter().any(|p| name.starts_with(p.as_str()))
}

fn classify(name: &str, old: f64, new: f64, opts: &DiffOptions) -> DiffLine {
    let rel = (new - old).abs() / old.abs().max(1.0);
    let kind = if old == new {
        DiffKind::Unchanged
    } else if rel <= opts.tolerance || (old.abs() <= opts.abs_floor && new.abs() <= opts.abs_floor)
    {
        DiffKind::WithinTolerance
    } else {
        DiffKind::OutOfTolerance
    };
    DiffLine {
        name: name.to_string(),
        kind,
        old,
        new,
        rel,
        failing: kind == DiffKind::OutOfTolerance && watched(name, opts),
    }
}

fn shape_line(name: &str, old: Option<f64>, new: Option<f64>, opts: &DiffOptions) -> DiffLine {
    let kind = if old.is_none() { DiffKind::Added } else { DiffKind::Removed };
    DiffLine {
        name: name.to_string(),
        kind,
        old: old.unwrap_or(0.0),
        new: new.unwrap_or(0.0),
        rel: f64::INFINITY,
        failing: opts.fail_on_shape_change && watched(name, opts),
    }
}

/// Compare two dumps. See the module docs for the comparison semantics.
pub fn diff(old: &StatsDump, new: &StatsDump, opts: &DiffOptions) -> DiffReport {
    if old.schema_version != new.schema_version {
        return DiffReport {
            lines: Vec::new(),
            failed: true,
            incomparable: Some(format!(
                "schema version mismatch: old v{} vs new v{}",
                old.schema_version, new.schema_version
            )),
        };
    }

    // Flatten both dumps into comparable scalar metrics.
    let flatten = |d: &StatsDump| -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for (k, v) in &d.counters {
            out.push((k.clone(), *v as f64));
        }
        for (k, h) in &d.hists {
            out.push((format!("{k}.count"), h.count as f64));
            out.push((format!("{k}.sum"), h.sum as f64));
            out.push((format!("{k}.max"), h.max as f64));
            out.push((format!("{k}.p99"), h.percentile(0.99) as f64));
        }
        for (k, s) in &d.series {
            out.push((format!("{k}.n"), s.len() as f64));
            out.push((format!("{k}.mean"), s.mean()));
        }
        out
    };

    let old_flat: std::collections::BTreeMap<String, f64> = flatten(old).into_iter().collect();
    let new_flat: std::collections::BTreeMap<String, f64> = flatten(new).into_iter().collect();

    let names: BTreeSet<&String> = old_flat.keys().chain(new_flat.keys()).collect();
    let mut lines = Vec::with_capacity(names.len());
    for name in names {
        match (old_flat.get(name), new_flat.get(name)) {
            (Some(&o), Some(&n)) => lines.push(classify(name, o, n, opts)),
            (o, n) => lines.push(shape_line(name, o.copied(), n.copied(), opts)),
        }
    }
    let failed = lines.iter().any(|l| l.failing);
    DiffReport { lines, failed, incomparable: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::HistDump;

    fn dump_with(counters: &[(&str, u64)]) -> StatsDump {
        let mut d = StatsDump { schema_version: crate::dump::SCHEMA_VERSION, ..Default::default() };
        for (k, v) in counters {
            d.counters.insert((*k).to_string(), *v);
        }
        d
    }

    #[test]
    fn identical_dumps_pass() {
        let d = dump_with(&[("glock.0.grants", 1000), ("sim.cycles", 50_000)]);
        let r = diff(&d, &d, &DiffOptions::default());
        assert!(!r.failed);
        assert!(r.lines.iter().all(|l| l.kind == DiffKind::Unchanged));
    }

    #[test]
    fn small_drift_passes_large_drift_fails() {
        let old = dump_with(&[("sim.cycles", 100_000)]);
        let within = dump_with(&[("sim.cycles", 100_500)]);
        let beyond = dump_with(&[("sim.cycles", 150_000)]);
        let opts = DiffOptions::default();
        assert!(!diff(&old, &within, &opts).failed, "0.5% < 1% tolerance");
        let r = diff(&old, &beyond, &opts);
        assert!(r.failed, "50% > 1% tolerance");
        let line = r.failing_lines().next().unwrap();
        assert_eq!(line.name, "sim.cycles");
        assert_eq!(line.kind, DiffKind::OutOfTolerance);
    }

    #[test]
    fn tiny_absolute_changes_are_exempt() {
        let old = dump_with(&[("trace.dropped", 2)]);
        let new = dump_with(&[("trace.dropped", 3)]);
        let r = diff(&old, &new, &DiffOptions::default());
        assert!(!r.failed, "2 -> 3 is huge relatively but below abs_floor");
        assert_eq!(r.changed().count(), 1);
    }

    #[test]
    fn watch_prefixes_scope_failures() {
        let old = dump_with(&[("glock.0.grants", 1000), ("noc.flits", 9000)]);
        let new = dump_with(&[("glock.0.grants", 1000), ("noc.flits", 5000)]);
        let scoped = DiffOptions { watch: vec!["glock.".into()], ..Default::default() };
        let r = diff(&old, &new, &scoped);
        assert!(!r.failed, "noc drift is reported but unwatched");
        assert_eq!(r.changed().count(), 1);
        let all = DiffOptions::default();
        assert!(diff(&old, &new, &all).failed);
    }

    #[test]
    fn shape_changes_fail_unless_waived() {
        let old = dump_with(&[("a.x", 10)]);
        let new = dump_with(&[("a.x", 10), ("a.y", 7)]);
        let strict = DiffOptions::default();
        let r = diff(&old, &new, &strict);
        assert!(r.failed);
        assert_eq!(r.failing_lines().next().unwrap().kind, DiffKind::Added);
        let lax = DiffOptions { fail_on_shape_change: false, ..Default::default() };
        assert!(!diff(&old, &new, &lax).failed);
    }

    #[test]
    fn hist_tail_drift_is_caught() {
        let mut h_old = crate::hist::Log2Histogram::new();
        h_old.record_n(3, 100);
        let mut h_new = crate::hist::Log2Histogram::new();
        h_new.record_n(3, 90);
        h_new.record_n(500, 10); // fat tail appears
        let mut old = dump_with(&[]);
        old.hists.insert("lock.0.handoff_cycles".into(), HistDump::from_hist(&h_old));
        let mut new = dump_with(&[]);
        new.hists.insert("lock.0.handoff_cycles".into(), HistDump::from_hist(&h_new));
        let r = diff(&old, &new, &DiffOptions::default());
        assert!(r.failed);
        assert!(r
            .failing_lines()
            .any(|l| l.name == "lock.0.handoff_cycles.p99" || l.name == "lock.0.handoff_cycles.max"));
    }

    #[test]
    fn schema_mismatch_is_incomparable() {
        let old = dump_with(&[("a", 1)]);
        let mut new = dump_with(&[("a", 1)]);
        new.schema_version = 999;
        let r = diff(&old, &new, &DiffOptions::default());
        assert!(r.failed);
        assert!(r.incomparable.unwrap().contains("schema version mismatch"));
    }
}
