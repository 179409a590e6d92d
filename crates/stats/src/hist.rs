//! Power-of-two-bucketed histograms for latency distributions.
//!
//! A [`Log2Histogram`] covers the full `u64` range in 65 buckets: bucket 0
//! holds the value 0 and bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
//! That is enough resolution to separate a 2–4-cycle G-line handoff from a
//! coherence-bound MCS handoff (tens to hundreds of cycles) while keeping
//! recording O(1) and the memory footprint constant.

use glocks_sim_base::snap::{Decode, Snap, SnapError, SnapReader};

/// Number of buckets: value 0 plus one bucket per `u64` bit position.
pub const N_BUCKETS: usize = 65;

/// A histogram over `u64` samples with power-of-two bucket edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}
// `min` is saved raw (u64::MAX when empty), so the sentinel round-trips.
glocks_sim_base::snap!(Log2Histogram { buckets as fixed, count, sum, min, max });

/// Registry checkpoints decode histograms fresh.
impl Decode for Log2Histogram {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut h = Self::new();
        h.load(r)?;
        Ok(h)
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        match v {
            0 => 0,
            _ => 64 - v.leading_zeros() as usize,
        }
    }

    /// `[lo, hi]` inclusive value range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < N_BUCKETS, "bucket {i} out of range");
        match i {
            0 => (0, 0),
            64 => (1u64 << 63, u64::MAX),
            _ => (1u64 << (i - 1), (1u64 << i) - 1),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 on an empty histogram).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; N_BUCKETS] {
        &self.buckets
    }

    /// The value below which a fraction `p ∈ [0, 1]` of samples fall,
    /// resolved to the upper bound of the containing bucket (clamped to
    /// the observed max). 0 on an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        // ceil(p * count), at least 1: the rank of the wanted sample.
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Self::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Interpolated quantile: like [`Log2Histogram::percentile`] but
    /// resolved *within* the containing bucket by linear interpolation (see
    /// [`interpolated_quantile`]), so p99/p999 SLO figures do not snap to
    /// power-of-two edges.
    pub fn quantile(&self, q: f64) -> u64 {
        interpolated_quantile(
            self.buckets.iter().enumerate().map(|(i, &c)| (i, c)),
            self.count,
            self.min(),
            self.max,
            q,
        )
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The value below which a fraction `q ∈ [0, 1]` of samples fall, linearly
/// interpolated within the containing log2 bucket: with `seen` samples
/// below bucket `i` (bounds `[lo, hi]`, `c` samples), the quantile resolves
/// to `lo + (q·count − seen)/c · (hi − lo + 1)`, capped at `hi` and clamped
/// to the observed `[min, max]`. This is the shared helper behind the SLO
/// report and `glocks-stats quantiles`; `buckets` is a sparse or dense
/// `(bucket_index, count)` sequence ascending by index. Returns 0 when
/// `count` is 0.
pub fn interpolated_quantile(
    buckets: impl IntoIterator<Item = (usize, u64)>,
    count: u64,
    min: u64,
    max: u64,
    q: f64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = q.clamp(0.0, 1.0) * count as f64;
    let mut seen = 0u64;
    for (i, c) in buckets {
        if c == 0 {
            continue;
        }
        let next = seen + c;
        if next as f64 >= target {
            let (lo, hi) = Log2Histogram::bucket_bounds(i);
            let width = (hi - lo).saturating_add(1);
            let frac = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
            // Saturating f64→u64 cast keeps the top bucket (hi = u64::MAX)
            // well-defined; the final clamp bounds it by observed samples.
            let v = (lo as f64 + frac * width as f64).min(hi as f64) as u64;
            return v.clamp(min, max);
        }
        seen = next;
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_exact_powers_of_two() {
        // Every boundary value lands in the bucket whose lower edge it is.
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(7), 3);
        assert_eq!(Log2Histogram::bucket_index(8), 4);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
        for i in 1..64usize {
            let (lo, hi) = Log2Histogram::bucket_bounds(i);
            assert_eq!(Log2Histogram::bucket_index(lo), i);
            assert_eq!(Log2Histogram::bucket_index(hi), i);
            assert_eq!(Log2Histogram::bucket_index(hi + 1), i + 1);
        }
    }

    #[test]
    fn records_track_count_sum_min_max() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.min(), 0);
        for v in [3u64, 9, 0, 100] {
            h.record(v);
        }
        h.record_n(5, 2);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 3 + 9 + 100 + 10);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 122.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.buckets()[0], 1); // the 0 sample
        assert_eq!(h.buckets()[2], 1); // 3
        assert_eq!(h.buckets()[3], 2); // 5, 5
        assert_eq!(h.buckets()[4], 1); // 9
        assert_eq!(h.buckets()[7], 1); // 100
    }

    #[test]
    fn percentiles_walk_buckets() {
        let mut h = Log2Histogram::new();
        // 90 fast handoffs at 3 cycles, 10 slow at 200.
        h.record_n(3, 90);
        h.record_n(200, 10);
        assert_eq!(h.percentile(0.5), 3, "median is in the [2,4) bucket");
        assert_eq!(h.percentile(0.9), 3);
        // p99 falls in the [128, 256) bucket; clamped to the observed max.
        assert_eq!(h.percentile(0.99), 200);
        assert_eq!(h.percentile(1.0), 200);
        assert_eq!(h.percentile(0.0), 3, "p0 resolves to the first bucket");
        assert_eq!(Log2Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn quantile_interpolates_within_one_bucket() {
        // 4 samples, all in the [8, 16) bucket. The plain percentile snaps
        // to the bucket edge; the quantile spreads the mass evenly across
        // the bucket: p25 → 8+0.25·8 = 10, p50 → 12, p75 → 14.
        let mut h = Log2Histogram::new();
        for v in [8u64, 10, 12, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.25), 10);
        assert_eq!(h.quantile(0.5), 12);
        assert_eq!(h.quantile(0.75), 14);
        assert_eq!(h.quantile(0.0), 8, "p0 is the observed min");
        assert_eq!(h.quantile(1.0), 15, "p100 is the observed max");
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(Log2Histogram::new().quantile(0.5), 0, "empty → 0");
        let mut h = Log2Histogram::new();
        h.record_n(3, 90);
        h.record_n(200, 10);
        // p999 lands among the 10 slow samples in [128, 256), clamped to
        // the observed max.
        assert_eq!(h.quantile(0.999), 200);
        let q50 = h.quantile(0.5);
        assert!((2..=3).contains(&q50), "median stays in the [2,4) bucket, got {q50}");
        // Monotone in q.
        let qs: Vec<u64> = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record_n(2, 5);
        b.record_n(1000, 3);
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count(), 9);
        assert_eq!(a.sum(), 10 + 3000 + 1);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1000);
        let mut empty = Log2Histogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        a.merge(&Log2Histogram::new());
        assert_eq!(empty, a, "merging an empty histogram is a no-op");
    }
}
