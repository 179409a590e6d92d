//! Deterministic arrival processes.
//!
//! Open-loop generators must be bit-reproducible across platforms, which
//! rules out the usual `-ln(U) · mean` exponential sampler: `ln` goes
//! through the platform's libm and is not required to round identically
//! everywhere. Instead [`exp_gap`] uses von Neumann's comparison method
//! (Devroye, *Non-Uniform Random Variate Generation*, ch. IX.2), which
//! samples Exp(1) using only `u64` comparisons, and scales to cycles with
//! `u128` integer arithmetic. The price is a variable number of uniforms
//! per sample (≈4 on average); the payoff is an arrival schedule that is a
//! pure function of the seed on every platform.

use glocks_sim_base::{Cycle, SplitMix64};

/// Domain tag for [`SplitMix64::domain_stream`]: "ARRV". Arrival
/// generators derive their streams as `domain_stream(seed, ARRIVAL_DOMAIN,
/// core_index)`, parallel to the fault injector's `(seed, site, stream)`
/// scheme, so reseeding or enabling faults never perturbs arrivals and
/// vice versa.
pub const ARRIVAL_DOMAIN: u64 = 0x4152_5256;

/// Shape of one request stream. All rates are expressed as *mean
/// inter-arrival gaps in cycles* so configs are exact integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: gaps are iid Exp(mean `mean_gap`).
    Poisson { mean_gap: u64 },
    /// Bursty two-state Markov-modulated Poisson process: the stream
    /// alternates between a calm phase (mean gap `calm_gap`) and a burst
    /// phase (mean gap `burst_gap`), with exponentially distributed phase
    /// dwell times (means `calm_dwell` / `burst_dwell` cycles). Phase
    /// changes take effect at arrival generation points — the standard
    /// discrete approximation of an MMPP.
    Mmpp {
        calm_gap: u64,
        burst_gap: u64,
        calm_dwell: u64,
        burst_dwell: u64,
    },
}

impl ArrivalProcess {
    /// Mean inter-arrival gap of the long-run stream, for offered-load
    /// labels: Poisson's `mean_gap`, or the dwell-weighted harmonic mix of
    /// the two MMPP phases.
    pub fn mean_gap(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { mean_gap } => mean_gap as f64,
            ArrivalProcess::Mmpp { calm_gap, burst_gap, calm_dwell, burst_dwell } => {
                // Arrivals per cycle: time-weighted average of phase rates.
                let total = (calm_dwell + burst_dwell) as f64;
                let rate = (calm_dwell as f64 / calm_gap as f64
                    + burst_dwell as f64 / burst_gap as f64)
                    / total;
                1.0 / rate
            }
        }
    }

    fn validate(&self) {
        match *self {
            ArrivalProcess::Poisson { mean_gap } => {
                assert!(mean_gap >= 1, "Poisson mean gap must be >= 1 cycle")
            }
            ArrivalProcess::Mmpp { calm_gap, burst_gap, calm_dwell, burst_dwell } => {
                assert!(
                    calm_gap >= 1 && burst_gap >= 1 && calm_dwell >= 1 && burst_dwell >= 1,
                    "MMPP gaps and dwells must be >= 1 cycle"
                )
            }
        }
    }
}

/// Sample an exponential gap with the given mean, in cycles.
///
/// Von Neumann's algorithm: draw a candidate fractional part `T`, then
/// count the length `n` of the strictly decreasing run it starts
/// (`T ≥ V₁ ≥ …`). An odd run length accepts `j + T` where `j` counts
/// prior rejections; an even one rejects and increments the integer part.
/// The accepted value is Exp(1); scaling by `mean` happens in `u128`
/// fixed-point (`T` is a 0.64 fraction), so the result is exact integer
/// math end to end.
pub fn exp_gap(rng: &mut SplitMix64, mean: u64) -> u64 {
    let mut j: u64 = 0;
    loop {
        let t = rng.next_u64();
        let mut prev = t;
        let mut n: u64 = 1;
        loop {
            let v = rng.next_u64();
            if v > prev {
                break;
            }
            prev = v;
            n += 1;
        }
        if n % 2 == 1 {
            let frac = ((t as u128 * mean as u128) >> 64) as u64;
            return j.saturating_mul(mean).saturating_add(frac);
        }
        j += 1;
    }
}

/// A seeded arrival-timestamp generator for one core's request stream.
/// Yields a nondecreasing sequence of absolute cycles.
#[derive(Clone, Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SplitMix64,
    /// Timestamp of the most recently generated arrival.
    clock: Cycle,
    /// MMPP phase: currently in the burst phase?
    burst: bool,
    /// Cycle at which the current MMPP phase ends.
    phase_until: Cycle,
}
glocks_sim_base::snap!(ArrivalGen mark "arrival-gen" {
    rng, clock, burst, phase_until;
    skip process
});

impl ArrivalGen {
    /// Build the generator for stream `stream` (normally the core index)
    /// of a run with top-level seed `seed`. The RNG comes from the shared
    /// [`SplitMix64::domain_stream`] scheme — see [`ARRIVAL_DOMAIN`].
    pub fn new(process: ArrivalProcess, seed: u64, stream: u64) -> Self {
        process.validate();
        let mut rng = SplitMix64::domain_stream(seed, ARRIVAL_DOMAIN, stream);
        let (burst, phase_until) = match process {
            ArrivalProcess::Poisson { .. } => (false, 0),
            // Every stream starts calm; the first dwell is sampled so
            // streams don't burst in lockstep.
            ArrivalProcess::Mmpp { calm_dwell, .. } => (false, exp_gap(&mut rng, calm_dwell)),
        };
        ArrivalGen { process, rng, clock: 0, burst, phase_until }
    }

    /// The next arrival timestamp (absolute cycle).
    pub fn next_arrival(&mut self) -> Cycle {
        let gap = match self.process {
            ArrivalProcess::Poisson { mean_gap } => exp_gap(&mut self.rng, mean_gap),
            ArrivalProcess::Mmpp { calm_gap, burst_gap, calm_dwell, burst_dwell } => {
                // Advance phases that expired before this generation point.
                while self.clock >= self.phase_until {
                    self.burst = !self.burst;
                    let dwell = if self.burst { burst_dwell } else { calm_dwell };
                    self.phase_until =
                        self.phase_until.saturating_add(exp_gap(&mut self.rng, dwell).max(1));
                }
                let gap = if self.burst { burst_gap } else { calm_gap };
                exp_gap(&mut self.rng, gap)
            }
        };
        self.clock = self.clock.saturating_add(gap);
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glocks_sim_base::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn exp_gap_mean_is_close() {
        let mut rng = SplitMix64::new(7);
        let mean = 1_000u64;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| exp_gap(&mut rng, mean)).sum();
        let avg = sum as f64 / n as f64;
        assert!(
            (avg - mean as f64).abs() < 0.03 * mean as f64,
            "sample mean {avg} too far from {mean}"
        );
    }

    #[test]
    fn exp_gap_is_deterministic() {
        let xs: Vec<u64> = {
            let mut r = SplitMix64::new(99);
            (0..64).map(|_| exp_gap(&mut r, 500)).collect()
        };
        let ys: Vec<u64> = {
            let mut r = SplitMix64::new(99);
            (0..64).map(|_| exp_gap(&mut r, 500)).collect()
        };
        assert_eq!(xs, ys);
    }

    #[test]
    fn exp_gap_tail_is_heavier_than_uniform() {
        // An exponential with mean 100 should produce samples beyond 3×
        // the mean (P ≈ e⁻³ ≈ 5%) — a smoke test that we are not
        // accidentally sampling a bounded distribution.
        let mut rng = SplitMix64::new(3);
        let big = (0..10_000).filter(|_| exp_gap(&mut rng, 100) > 300).count();
        assert!((200..=1200).contains(&big), "tail count {big}");
    }

    #[test]
    fn arrivals_are_nondecreasing_and_reproducible() {
        let gen = |seed, stream| -> Vec<Cycle> {
            let mut g = ArrivalGen::new(ArrivalProcess::Poisson { mean_gap: 200 }, seed, stream);
            (0..100).map(|_| g.next_arrival()).collect()
        };
        let a = gen(42, 0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a, gen(42, 0));
        assert_ne!(a, gen(42, 1), "streams are independent per core");
        assert_ne!(a, gen(43, 0), "and per seed");
    }

    #[test]
    fn mmpp_bursts_change_local_rate() {
        let p = ArrivalProcess::Mmpp {
            calm_gap: 1_000,
            burst_gap: 10,
            calm_dwell: 20_000,
            burst_dwell: 20_000,
        };
        let mut g = ArrivalGen::new(p, 7, 0);
        let ts: Vec<Cycle> = (0..2_000).map(|_| g.next_arrival()).collect();
        let gaps: Vec<u64> = ts.windows(2).map(|w| w[1] - w[0]).collect();
        let short = gaps.iter().filter(|&&g| g < 100).count();
        let long = gaps.iter().filter(|&&g| g >= 100).count();
        assert!(short > 100, "burst phase should yield many short gaps, got {short}");
        assert!(long > 10, "calm phase should yield long gaps, got {long}");
        // Long-run mean-gap label stays finite and between the two rates.
        let m = p.mean_gap();
        assert!(m > 10.0 && m < 1_000.0, "{m}");
    }

    #[test]
    fn generator_checkpoint_roundtrips_mid_stream() {
        let p = ArrivalProcess::Mmpp {
            calm_gap: 300,
            burst_gap: 30,
            calm_dwell: 5_000,
            burst_dwell: 2_000,
        };
        let mut a = ArrivalGen::new(p, 11, 3);
        for _ in 0..57 {
            a.next_arrival();
        }
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut b = ArrivalGen::new(p, 999, 0); // wrong seed: state must fully restore
        let mut r = SnapReader::new(&bytes);
        b.load(&mut r).unwrap();
        for _ in 0..100 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }
}
