//! The thread-local statistics registry.
//!
//! Mirrors the design of `glocks_sim_base::trace`: the simulation is
//! single-threaded, so the registry lives in a thread local and parallel
//! sweeps (one config per thread) share nothing. Components register their
//! stats by hierarchical dotted name at construction time and get back a
//! typed id:
//!
//! ```
//! use glocks_stats as stats;
//!
//! stats::enable(stats::StatsConfig::default());
//! let misses = stats::counter("mem.l1.t0.miss");
//! let handoff = stats::hist("lock.0.handoff_cycles");
//! stats::add(misses, 3);
//! stats::hist_record(handoff, 4);
//! let dump = stats::snapshot();
//! assert_eq!(dump.counters["mem.l1.t0.miss"], 3);
//! stats::disable();
//! ```
//!
//! **Zero-cost-when-off guarantee:** registration while the registry is
//! disabled returns a `NONE` id, and every recording call on a `NONE` id
//! is a single integer compare — no thread-local access, no allocation,
//! no formatting. Components built before `enable()` therefore cost
//! nothing, and a stats-off simulation runs at pre-stats speed.

use crate::dump::{HistDump, SeriesDump, StatsDump, SCHEMA_VERSION};
use crate::hist::Log2Histogram;
use crate::series::TimeSeries;
use glocks_sim_base::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::cell::RefCell;
use std::collections::BTreeMap;

const NONE: u32 = u32::MAX;

/// Handle to a registered counter (`NONE` when stats are off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(u32);

/// Handle to a registered time series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesId(u32);

impl CounterId {
    pub const NONE: CounterId = CounterId(NONE);
}
impl HistId {
    pub const NONE: HistId = HistId(NONE);
}
impl SeriesId {
    pub const NONE: SeriesId = SeriesId(NONE);
}

/// Registry configuration, set at [`enable`] time.
#[derive(Clone, Copy, Debug)]
pub struct StatsConfig {
    /// Cycles between time-series samples ([`should_sample`] cadence).
    pub sample_period: u64,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig { sample_period: 1024 }
    }
}

#[derive(Clone, Copy)]
enum Slot {
    Counter(u32),
    Hist(u32),
    Series(u32),
}

#[derive(Default)]
struct Registry {
    enabled: bool,
    period: u64,
    by_name: BTreeMap<String, Slot>,
    counters: Vec<(String, u64)>,
    hists: Vec<(String, Log2Histogram)>,
    series: Vec<(String, TimeSeries)>,
    instances: BTreeMap<String, u32>,
    meta: BTreeMap<String, String>,
}
glocks_sim_base::snap!(Registry mark "stats-registry" {
    enabled, period, counters, hists, series, instances, meta;
    skip by_name
});

thread_local! {
    static REG: RefCell<Registry> = RefCell::new(Registry::default());
}

/// Start a collection session, clearing any previous state.
pub fn enable(cfg: StatsConfig) {
    assert!(cfg.sample_period >= 1);
    REG.with(|r| {
        let mut r = r.borrow_mut();
        *r = Registry { enabled: true, period: cfg.sample_period, ..Registry::default() };
    });
}

/// Stop collecting and discard all registered stats.
pub fn disable() {
    REG.with(|r| *r.borrow_mut() = Registry::default());
}

/// Is a collection session active?
#[inline]
pub fn is_enabled() -> bool {
    REG.with(|r| r.borrow().enabled)
}

/// Should time-series gauges sample at this cycle? One thread-local read;
/// false whenever stats are off.
#[inline]
pub fn should_sample(now: u64) -> bool {
    REG.with(|r| {
        let r = r.borrow();
        r.enabled && now.is_multiple_of(r.period)
    })
}

/// The next cycle ≥ `now` at which [`should_sample`] will return true, or
/// `None` when stats are off (no component ever samples then). The
/// idle-skip scheduler uses this as a horizon cap so that every sampling
/// cycle is executed densely and series gauges land on exactly the cycles
/// a dense run would record.
pub fn next_sample_cycle(now: u64) -> Option<u64> {
    REG.with(|r| {
        let r = r.borrow();
        if !r.enabled {
            return None;
        }
        Some(now.next_multiple_of(r.period))
    })
}

/// Next per-run instance number for a component kind (used to derive
/// stable hierarchical names when a component does not know its own
/// index, e.g. `glock.{k}`). Deterministic given construction order.
pub fn next_instance(kind: &str) -> u32 {
    REG.with(|r| {
        let mut r = r.borrow_mut();
        let n = r.instances.entry(kind.to_string()).or_insert(0);
        let v = *n;
        *n += 1;
        v
    })
}

/// Attach a `key = value` annotation to the next [`snapshot`].
pub fn set_meta(key: &str, value: &str) {
    REG.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            r.meta.insert(key.to_string(), value.to_string());
        }
    });
}

/// Register (or look up) a counter. Returns [`CounterId::NONE`] when
/// stats are off.
pub fn counter(name: &str) -> CounterId {
    REG.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return CounterId::NONE;
        }
        if let Some(slot) = r.by_name.get(name) {
            match slot {
                Slot::Counter(i) => return CounterId(*i),
                _ => panic!("stat {name:?} already registered with a different type"),
            }
        }
        let i = r.counters.len() as u32;
        r.counters.push((name.to_string(), 0));
        r.by_name.insert(name.to_string(), Slot::Counter(i));
        CounterId(i)
    })
}

/// Register (or look up) a histogram.
pub fn hist(name: &str) -> HistId {
    REG.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return HistId::NONE;
        }
        if let Some(slot) = r.by_name.get(name) {
            match slot {
                Slot::Hist(i) => return HistId(*i),
                _ => panic!("stat {name:?} already registered with a different type"),
            }
        }
        let i = r.hists.len() as u32;
        r.hists.push((name.to_string(), Log2Histogram::new()));
        r.by_name.insert(name.to_string(), Slot::Hist(i));
        HistId(i)
    })
}

/// Register (or look up) a time series at the session's sample period.
pub fn series(name: &str) -> SeriesId {
    REG.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return SeriesId::NONE;
        }
        if let Some(slot) = r.by_name.get(name) {
            match slot {
                Slot::Series(i) => return SeriesId(*i),
                _ => panic!("stat {name:?} already registered with a different type"),
            }
        }
        let i = r.series.len() as u32;
        let period = r.period;
        r.series.push((name.to_string(), TimeSeries::new(period)));
        r.by_name.insert(name.to_string(), Slot::Series(i));
        SeriesId(i)
    })
}

/// Add to a counter. A no-op (one integer compare) on a `NONE` id.
#[inline]
pub fn add(id: CounterId, n: u64) {
    if id.0 == NONE {
        return;
    }
    REG.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            r.counters[id.0 as usize].1 += n;
        }
    });
}

/// Set a counter to an absolute value (end-of-run publication of totals
/// a component already tracks internally).
#[inline]
pub fn set(id: CounterId, v: u64) {
    if id.0 == NONE {
        return;
    }
    REG.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            r.counters[id.0 as usize].1 = v;
        }
    });
}

/// Record a sample into a histogram. A no-op on a `NONE` id.
#[inline]
pub fn hist_record(id: HistId, v: u64) {
    if id.0 == NONE {
        return;
    }
    REG.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            r.hists[id.0 as usize].1.record(v);
        }
    });
}

/// Append a point to a time series (call when [`should_sample`] is true).
#[inline]
pub fn push(id: SeriesId, v: f64) {
    if id.0 == NONE {
        return;
    }
    REG.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            r.series[id.0 as usize].1.push(v);
        }
    });
}

/// Checkpoint the registry's full dynamic state (values, registration
/// order, instance counters, metadata). Together with
/// [`restore_registry`] this makes a resumed run's [`snapshot`] dump
/// byte-identical to an uninterrupted one.
pub fn save_registry(w: &mut SnapWriter) {
    REG.with(|reg| reg.borrow().save(w));
}

/// Restore a registry checkpoint written by [`save_registry`].
///
/// Call **after** the machine has been reconstructed: reconstruction
/// re-registers every stat in the same deterministic order, so the ids
/// components hold match the saved vector indices. Registered names must
/// match the snapshot exactly (same set, same order) — a mismatch means
/// the snapshot belongs to a different configuration and is rejected.
pub fn restore_registry(r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    let mut saved = Registry::default();
    saved.load(r)?;
    REG.with(|reg| {
        let mut reg = reg.borrow_mut();
        if reg.enabled != saved.enabled {
            return Err(SnapError::Corrupt { what: "stats enabled flag mismatch" });
        }
        if !saved.enabled {
            // Stats were off when the checkpoint was taken; there is
            // nothing to restore and the fresh registry is already empty.
            return Ok(());
        }
        fn same_names<A, B>(have: &[(String, A)], want: &[(String, B)]) -> bool {
            have.len() == want.len() && have.iter().zip(want).all(|(a, b)| a.0 == b.0)
        }
        if !same_names(&reg.counters, &saved.counters)
            || !same_names(&reg.hists, &saved.hists)
            || !same_names(&reg.series, &saved.series)
        {
            return Err(SnapError::Corrupt { what: "stats registration order mismatch" });
        }
        let by_name = std::mem::take(&mut reg.by_name);
        *reg = Registry { by_name, ..saved };
        Ok(())
    })
}

/// Freeze the registry into a serializable, deterministically-ordered
/// dump. The registry keeps collecting afterwards; [`disable`] ends the
/// session.
pub fn snapshot() -> StatsDump {
    REG.with(|r| {
        let r = r.borrow();
        StatsDump {
            schema_version: SCHEMA_VERSION,
            meta: r.meta.clone(),
            counters: r.counters.iter().cloned().collect(),
            hists: r
                .hists
                .iter()
                .map(|(n, h)| (n.clone(), HistDump::from_hist(h)))
                .collect(),
            series: r
                .series
                .iter()
                .map(|(n, s)| (n.clone(), SeriesDump::from_series(s)))
                .collect(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registration_returns_none_and_records_nothing() {
        disable();
        let c = counter("x.count");
        let h = hist("x.hist");
        let s = series("x.series");
        assert_eq!(c, CounterId::NONE);
        assert_eq!(h, HistId::NONE);
        assert_eq!(s, SeriesId::NONE);
        add(c, 5);
        hist_record(h, 5);
        push(s, 5.0);
        assert!(!is_enabled());
        assert!(!should_sample(0));
        let d = snapshot();
        assert!(d.counters.is_empty() && d.hists.is_empty() && d.series.is_empty());
    }

    #[test]
    fn enabled_session_collects_and_disable_clears() {
        enable(StatsConfig { sample_period: 10 });
        set_meta("bench", "SCTR");
        let c = counter("a.count");
        add(c, 2);
        add(c, 3);
        let c2 = counter("a.count");
        assert_eq!(c, c2, "registration is idempotent by name");
        add(c2, 1);
        let h = hist("a.lat");
        hist_record(h, 7);
        let s = series("a.q");
        assert!(should_sample(0));
        assert!(!should_sample(5));
        assert!(should_sample(20));
        push(s, 1.5);
        let d = snapshot();
        assert_eq!(d.counters["a.count"], 6);
        assert_eq!(d.hists["a.lat"].count, 1);
        assert_eq!(d.series["a.q"].points().collect::<Vec<_>>(), vec![1.5]);
        assert_eq!(d.meta["bench"], "SCTR");
        disable();
        assert!(snapshot().counters.is_empty());
    }

    #[test]
    fn instances_count_per_kind() {
        enable(StatsConfig::default());
        assert_eq!(next_instance("glock"), 0);
        assert_eq!(next_instance("glock"), 1);
        assert_eq!(next_instance("noc"), 0);
        disable();
    }

    #[test]
    fn set_overwrites() {
        enable(StatsConfig::default());
        let c = counter("b.total");
        add(c, 9);
        set(c, 4);
        assert_eq!(snapshot().counters["b.total"], 4);
        disable();
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_is_rejected() {
        enable(StatsConfig::default());
        let _ = counter("t.x");
        let _ = hist("t.x");
    }
}
