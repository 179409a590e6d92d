//! Bounded time series sampled every N cycles.

/// Maximum points kept before the series decimates itself.
pub const SERIES_CAP: usize = 2048;

/// A gauge sampled every `period` cycles. When the buffer would exceed
/// [`SERIES_CAP`] points, every other point is dropped and the effective
/// period doubles — a long run keeps a constant-size, evenly-spaced
/// profile, and the decimation is a pure function of the sample sequence
/// so identical runs produce identical series.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    /// Cycles between consecutive kept points (grows by decimation).
    period: u64,
    points: Vec<f64>,
    /// Samples pushed since the last kept point (for post-decimation
    /// thinning: only every `stride`-th pushed sample is kept).
    stride: u64,
    pending: u64,
}
glocks_sim_base::snap!(TimeSeries { period, stride, pending, points });

impl TimeSeries {
    pub fn new(period: u64) -> Self {
        assert!(period >= 1, "sample period must be at least one cycle");
        TimeSeries { period, points: Vec::new(), stride: 1, pending: 0 }
    }

    /// The cycle distance between consecutive stored points.
    pub fn period(&self) -> u64 {
        self.period
    }

    pub fn points(&self) -> &[f64] {
        &self.points
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Append one sample (call at the registry's base sampling cadence).
    pub fn push(&mut self, v: f64) {
        self.pending += 1;
        if self.pending < self.stride {
            return;
        }
        self.pending = 0;
        if self.points.len() == self.points.capacity() {
            // Grow by doubling, but never past the most decimation keeps.
            let cap = (2 * self.points.len()).clamp(4, SERIES_CAP + 1);
            self.points.reserve_exact(cap - self.points.len());
        }
        self.points.push(v);
        if self.points.len() > SERIES_CAP {
            // Keep even indices: points stay evenly spaced at 2x period.
            let mut i = 0;
            self.points.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
            self.period *= 2;
            self.stride *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_samples_at_base_period() {
        let mut s = TimeSeries::new(100);
        for v in 0..5 {
            s.push(v as f64);
        }
        assert_eq!(s.period(), 100);
        assert_eq!(s.points(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn decimates_beyond_cap_and_doubles_period() {
        let mut s = TimeSeries::new(10);
        let n = SERIES_CAP * 4 + 7;
        for v in 0..n {
            s.push(v as f64);
        }
        assert!(s.len() <= SERIES_CAP + 1, "bounded: {}", s.len());
        // 2049 pushes trigger the first decimation (period 20), 2048 more
        // the second (40), 4096 more the third (80).
        assert_eq!(s.period(), 80);
        // Points remain evenly spaced samples of the original sequence.
        let pts = s.points();
        assert_eq!(pts[0], 0.0);
        assert_eq!(pts[1] - pts[0], 8.0);
        assert_eq!(pts[2] - pts[1], 8.0);
    }

    #[test]
    fn storage_never_outgrows_what_decimation_keeps() {
        let mut s = TimeSeries::new(1);
        for v in 0..(SERIES_CAP * 10) {
            s.push(v as f64);
            assert!(s.points.capacity() <= SERIES_CAP + 1, "capacity {}", s.points.capacity());
        }
        // A series restored at an odd length grows to the same bound.
        let mut restored = TimeSeries::new(1);
        restored.points = vec![0.0; SERIES_CAP - 300];
        restored.points.shrink_to_fit();
        for v in 0..(SERIES_CAP * 2) {
            restored.push(v as f64);
            assert!(restored.points.capacity() <= SERIES_CAP + 1);
        }
    }

    #[test]
    fn decimation_is_deterministic() {
        let run = || {
            let mut s = TimeSeries::new(1);
            for v in 0..(SERIES_CAP * 3) {
                s.push((v % 17) as f64);
            }
            s
        };
        assert_eq!(run(), run());
    }
}
