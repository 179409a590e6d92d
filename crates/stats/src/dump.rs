//! Serializable, deterministically-ordered snapshot of a stats session.
//!
//! A [`StatsDump`] is what [`crate::registry::snapshot`] returns, what the
//! harness writes to `--stats-json` directories, and what `glocks-stats
//! diff` consumes. The encoding is intentionally boring: sorted keys,
//! integer counters as integer literals, no wall-clock timestamps — so an
//! identical seed + config produces a byte-identical file and regression
//! diffing reduces to structured comparison instead of fuzzy matching.

use crate::hist::{Log2Histogram, N_BUCKETS};
use crate::json::{self, Json};
use crate::series::TimeSeries;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Bumped whenever the dump layout changes incompatibly. `glocks-stats
/// diff` refuses to compare dumps with different schema versions.
pub const SCHEMA_VERSION: u32 = 1;

/// Exported form of a [`Log2Histogram`]: summary moments plus the sparse
/// set of non-empty buckets (`(bucket_index, count)` pairs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistDump {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Non-empty buckets only, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistDump {
    pub fn from_hist(h: &Log2Histogram) -> Self {
        HistDump {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets: h
                .buckets()
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }

    /// Rebuild the full histogram (for percentile queries on a parsed dump).
    pub fn to_hist(&self) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for &(i, c) in &self.buckets {
            let (lo, _) = Log2Histogram::bucket_bounds(i as usize);
            h.record_n(lo, c);
        }
        h
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Percentile resolved to a bucket upper bound, clamped to the
    /// recorded max (same contract as [`Log2Histogram::percentile`]).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Log2Histogram::bucket_bounds(i as usize).1.min(self.max);
            }
        }
        self.max
    }

    /// Interpolated quantile over the sparse buckets — same contract as
    /// [`Log2Histogram::quantile`] (shared with the SLO report and the
    /// `glocks-stats quantiles` subcommand).
    pub fn quantile(&self, q: f64) -> u64 {
        crate::hist::interpolated_quantile(
            self.buckets.iter().map(|&(i, c)| (i as usize, c)),
            self.count,
            self.min,
            self.max,
            q,
        )
    }
}

/// Exported form of a [`TimeSeries`].
///
/// The points are held as runs of bit-identical neighbours wherever that
/// takes less room than one slot per point. A gauge of an idle component
/// (a router's queue depth between bursts) is mostly long runs of zeros,
/// so a report that keeps its dump holds a few runs for such a series
/// instead of 8 bytes for each of up to [`crate::series::SERIES_CAP`]
/// points. Either way [`SeriesDump::points`] yields the same sequence.
#[derive(Clone, Debug)]
pub struct SeriesDump {
    /// Cycles between consecutive points (after any decimation).
    pub period: u64,
    /// One value per run, or one per point when `repeats` is empty.
    values: Vec<f64>,
    /// How many points each run of `values` stands for.
    repeats: Vec<usize>,
}

impl SeriesDump {
    pub fn from_series(s: &TimeSeries) -> Self {
        Self::new(s.period(), s.points())
    }

    /// The series of `points`, spaced `period` cycles apart.
    pub fn new(period: u64, points: &[f64]) -> Self {
        let runs = || points.chunk_by(|a, b| a.to_bits() == b.to_bits());
        let n = runs().count();
        // A run takes two slots, a point one.
        if 2 * n >= points.len() {
            return SeriesDump { period, values: points.to_vec(), repeats: Vec::new() };
        }
        let (mut values, mut repeats) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for run in runs() {
            values.push(run[0]);
            repeats.push(run.len());
        }
        SeriesDump { period, values, repeats }
    }

    /// The points in order.
    pub fn points(&self) -> impl Iterator<Item = f64> + '_ {
        let repeats = |i: usize| self.repeats.get(i).copied().unwrap_or(1);
        let runs = self.values.iter().enumerate();
        runs.flat_map(move |(i, &v)| std::iter::repeat_n(v, repeats(i)))
    }

    pub fn len(&self) -> usize {
        if self.repeats.is_empty() {
            self.values.len()
        } else {
            self.repeats.iter().sum()
        }
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean of the points, summed in order; 0 for an empty series.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.points().sum::<f64>() / self.len() as f64
        }
    }
}

/// Equal periods and pointwise-equal points, however each side holds them.
impl PartialEq for SeriesDump {
    fn eq(&self, other: &Self) -> bool {
        self.period == other.period && self.points().eq(other.points())
    }
}

/// A complete stats snapshot.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StatsDump {
    pub schema_version: u32,
    /// Free-form annotations (bench name, lock backend, thread count, …).
    /// Deliberately excludes wall-clock time so dumps stay reproducible.
    pub meta: BTreeMap<String, String>,
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, HistDump>,
    pub series: BTreeMap<String, SeriesDump>,
}

impl StatsDump {
    /// Deterministic compact JSON encoding, written straight into the
    /// output: objects in sorted key order, as [`Json::encode`] writes the
    /// same dump parsed back.
    pub fn to_json(&self) -> String {
        fn obj<'a, V: 'a>(
            out: &mut String,
            members: impl IntoIterator<Item = (&'a String, V)>,
            value: impl Fn(&mut String, V),
        ) {
            out.push('{');
            for (i, (k, v)) in members.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(out, k);
                out.push(':');
                value(out, v);
            }
            out.push('}');
        }
        let mut out = String::from("{\"counters\":");
        obj(&mut out, &self.counters, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str(",\"hists\":");
        obj(&mut out, &self.hists, |out, h| {
            out.push_str("{\"buckets\":[");
            for (j, (i, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{i},{c}]");
            }
            let HistDump { count, max, min, sum, .. } = h;
            let _ = write!(out, "],\"count\":{count},\"max\":{max},\"min\":{min},\"sum\":{sum}}}");
        });
        out.push_str(",\"meta\":");
        obj(&mut out, &self.meta, |out, v| json::write_str(out, v));
        let _ = write!(out, ",\"schema_version\":{},\"series\":", self.schema_version);
        obj(&mut out, &self.series, |out, s| {
            let _ = write!(out, "{{\"period\":{},\"points\":[", s.period);
            for (i, p) in s.points().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_f64(out, p);
            }
            out.push_str("]}");
        });
        out.push_str("}\n");
        out
    }

    /// Parse a dump previously written by [`StatsDump::to_json`].
    pub fn from_json(src: &str) -> Result<StatsDump, String> {
        let v = json::parse(src)?;
        let schema_version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")? as u32;
        let mut dump = StatsDump { schema_version, ..StatsDump::default() };
        if let Some(meta) = v.get("meta").and_then(Json::as_obj) {
            for (k, mv) in meta {
                let s = mv.as_str().ok_or_else(|| format!("meta {k:?} not a string"))?;
                dump.meta.insert(k.clone(), s.to_string());
            }
        }
        if let Some(counters) = v.get("counters").and_then(Json::as_obj) {
            for (k, cv) in counters {
                let n = cv
                    .as_u64()
                    .ok_or_else(|| format!("counter {k:?} not a u64"))?;
                dump.counters.insert(k.clone(), n);
            }
        }
        if let Some(hists) = v.get("hists").and_then(Json::as_obj) {
            for (k, hv) in hists {
                let field = |name: &str| -> Result<u64, String> {
                    hv.get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("hist {k:?} missing {name}"))
                };
                let mut buckets = Vec::new();
                for b in hv
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("hist {k:?} missing buckets"))?
                {
                    let pair = b.as_arr().ok_or("bucket entry not a pair")?;
                    let i = pair
                        .first()
                        .and_then(Json::as_u64)
                        .ok_or("bad bucket index")?;
                    let c = pair.get(1).and_then(Json::as_u64).ok_or("bad bucket count")?;
                    if i as usize >= N_BUCKETS {
                        return Err(format!("hist {k:?} bucket index {i} out of range"));
                    }
                    buckets.push((i as u32, c));
                }
                dump.hists.insert(
                    k.clone(),
                    HistDump {
                        count: field("count")?,
                        sum: field("sum")?,
                        min: field("min")?,
                        max: field("max")?,
                        buckets,
                    },
                );
            }
        }
        if let Some(series) = v.get("series").and_then(Json::as_obj) {
            for (k, sv) in series {
                let period = sv
                    .get("period")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("series {k:?} missing period"))?;
                let mut points = Vec::new();
                for p in sv
                    .get("points")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("series {k:?} missing points"))?
                {
                    points.push(p.as_f64().ok_or("series point not a number")?);
                }
                dump.series.insert(k.clone(), SeriesDump::new(period, &points));
            }
        }
        Ok(dump)
    }

    /// Flat CSV view (`kind,name,field,value`) — convenient for spreadsheet
    /// spot checks; the JSON form remains the canonical one.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        for (k, v) in &self.meta {
            out.push_str(&format!("meta,{},value,{}\n", esc(k), esc(v)));
        }
        for (k, v) in &self.counters {
            out.push_str(&format!("counter,{},value,{v}\n", esc(k)));
        }
        for (k, h) in &self.hists {
            let name = esc(k);
            out.push_str(&format!("hist,{name},count,{}\n", h.count));
            out.push_str(&format!("hist,{name},sum,{}\n", h.sum));
            out.push_str(&format!("hist,{name},min,{}\n", h.min));
            out.push_str(&format!("hist,{name},max,{}\n", h.max));
            for &(i, c) in &h.buckets {
                out.push_str(&format!("hist,{name},bucket{i},{c}\n"));
            }
        }
        for (k, s) in &self.series {
            let name = esc(k);
            out.push_str(&format!("series,{name},period,{}\n", s.period));
            for (i, p) in s.points().enumerate() {
                let mut pv = String::new();
                json::write_f64(&mut pv, p);
                out.push_str(&format!("series,{name},p{i},{pv}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dump() -> StatsDump {
        let mut h = Log2Histogram::new();
        h.record_n(3, 90);
        h.record_n(200, 10);
        let mut s = TimeSeries::new(64);
        s.push(1.0);
        s.push(2.5);
        let mut d = StatsDump { schema_version: SCHEMA_VERSION, ..StatsDump::default() };
        d.meta.insert("bench".into(), "SCTR".into());
        d.counters.insert("glock.0.grants".into(), 4096);
        d.counters.insert("sim.cycles".into(), 123_456_789);
        d.hists.insert("lock.0.handoff_cycles".into(), HistDump::from_hist(&h));
        d.series.insert(
            "noc.router.1_1.queue_depth".into(),
            SeriesDump::from_series(&s),
        );
        d
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let d = sample_dump();
        let enc = d.to_json();
        let back = StatsDump::from_json(&enc).expect("parses");
        assert_eq!(back, d);
    }

    #[test]
    fn json_encoding_is_byte_stable() {
        let a = sample_dump().to_json();
        let b = sample_dump().to_json();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.contains("\"schema_version\":1"));
    }

    #[test]
    fn hist_dump_percentiles_match_source() {
        let mut h = Log2Histogram::new();
        h.record_n(3, 90);
        h.record_n(200, 10);
        let d = HistDump::from_hist(&h);
        assert_eq!(d.percentile(0.5), h.percentile(0.5));
        assert_eq!(d.percentile(0.99), h.percentile(0.99));
        assert_eq!(d.quantile(0.5), h.quantile(0.5));
        assert_eq!(d.quantile(0.999), h.quantile(0.999));
        assert_eq!(d.mean(), h.mean());
        let rebuilt = d.to_hist();
        assert_eq!(rebuilt.count(), h.count());
    }

    #[test]
    fn csv_lists_every_stat() {
        let csv = sample_dump().to_csv();
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,glock.0.grants,value,4096\n"));
        assert!(csv.contains("hist,lock.0.handoff_cycles,count,100\n"));
        assert!(csv.contains("series,noc.router.1_1.queue_depth,period,64\n"));
        assert!(csv.contains("meta,bench,value,SCTR\n"));
    }

    /// Heap bytes a series dump holds.
    fn held(s: &SeriesDump) -> usize {
        8 * s.values.capacity() + 8 * s.repeats.capacity()
    }

    #[test]
    fn idle_gauges_are_held_as_runs_and_replay_bit_for_bit() {
        // A decimated queue-depth gauge: zeros with a few short bursts,
        // and a negative zero and a NaN that must keep their own bits.
        let mut points = vec![0.0; crate::series::SERIES_CAP + 1];
        for (i, v) in [(3, 1.0), (4, 1.0), (700, 2.0), (701, -0.0), (1500, f64::NAN)] {
            points[i] = v;
        }
        let s = SeriesDump::new(64, &points);
        assert_eq!(s.len(), points.len());
        let back: Vec<u64> = s.points().map(f64::to_bits).collect();
        assert_eq!(back, points.iter().map(|p| p.to_bits()).collect::<Vec<_>>());
        assert_eq!(s.values.len(), 8, "runs of 0, 1, 0, 2, -0, 0, NaN, 0");
        assert_eq!(held(&s), 16 * 8);
        let sum: f64 = points[..1500].iter().sum();
        assert_eq!(SeriesDump::new(64, &points[..1500]).mean(), sum / 1500.0);
        // It encodes as the same points held one slot each.
        let json = |s: SeriesDump| {
            let mut d = StatsDump { schema_version: SCHEMA_VERSION, ..StatsDump::default() };
            d.series.insert("q".into(), s);
            d.to_json()
        };
        let plain = SeriesDump { period: 64, values: points.clone(), repeats: Vec::new() };
        assert_eq!(json(s), json(plain));
    }

    #[test]
    fn busy_gauges_keep_one_slot_per_point() {
        let points: Vec<f64> = (0..1000).map(|i| f64::from(i / 2)).collect();
        let s = SeriesDump::new(8, &points);
        assert!(s.repeats.is_empty());
        assert_eq!(held(&s), 8 * points.len());
        assert_eq!(s.points().collect::<Vec<_>>(), points);
        assert_eq!(s, SeriesDump::new(8, &points));
        assert_ne!(s, SeriesDump::new(8, &points[1..]));
        assert!(SeriesDump::new(8, &[]).is_empty());
    }

    /// The streamed encoding is the tree encoder's, byte for byte: escaped
    /// keys and values, `NaN` (written `null`), `-0.0` and integral floats.
    #[test]
    fn streamed_json_matches_the_tree_encoder() {
        let mut d = sample_dump();
        d.meta.insert("quote\"back\\slash".into(), "tab\tline\nctl\u{1}é".into());
        d.counters.insert("a\"b".into(), u64::MAX);
        d.hists.insert("empty".into(), HistDump::from_hist(&Log2Histogram::new()));
        let points = [0.0, -0.0, 3.0, 2.5, f64::NAN, 1e300, -7.0, 1e-7];
        d.series.insert("odd\\key".into(), SeriesDump::new(8, &points));
        d.series.insert("none".into(), SeriesDump::new(1, &[]));
        let out = d.to_json();
        assert_eq!(out, format!("{}\n", json::parse(&out).expect("parses").encode()));
        assert!(out.contains("[0.0,-0.0,3.0,2.5,null,"), "{out}");
    }

    #[test]
    fn rejects_out_of_range_bucket() {
        let src = r#"{"schema_version":1,"meta":{},"counters":{},"hists":{"x":{"count":1,"sum":1,"min":1,"max":1,"buckets":[[99,1]]}},"series":{}}"#;
        assert!(StatsDump::from_json(src).is_err());
    }
}
