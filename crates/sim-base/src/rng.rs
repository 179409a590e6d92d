//! Deterministic pseudo-random numbers for workload generation.
//!
//! The simulator must be bit-reproducible across runs and platforms, so the
//! workloads use this self-contained SplitMix64 generator instead of an
//! external crate. SplitMix64 passes BigCrush and is the canonical seeder
//! for xoshiro-family generators; its statistical quality is far beyond what
//! workload jitter needs.

/// SplitMix64 PRNG (Steele, Lea & Flood, OOPSLA 2014).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}
crate::snap!(SplitMix64 { state });

impl SplitMix64 {
    /// Create a generator from a seed. Distinct seeds give independent
    /// streams for practical purposes.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero. Uses
    /// Lemire's multiply-shift reduction (bias is negligible at 64 bits).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_below(hi - lo + 1)
    }

    /// A fresh generator whose stream is independent of `self`'s
    /// continuation — used to give each simulated thread its own stream.
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }

    /// A named sub-stream of a top-level seed: a pure function of
    /// `(seed, domain tag, stream index)`, mirroring the fault injector's
    /// `(seed, site, stream)` scheme. Subsystems that each consume random
    /// numbers under the same top-level seed (fault plans, arrival
    /// generators, workload jitter) derive their generators through this
    /// so enabling or reseeding one never perturbs another's schedule.
    pub fn domain_stream(seed: u64, domain: u64, stream: u64) -> SplitMix64 {
        let mut h = SplitMix64::new(
            seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ stream.wrapping_mul(0xD605_0B66_4B8B_6E85),
        );
        // One warm-up step so structurally close (seed, domain, stream)
        // triples land on unrelated states.
        let s = h.next_u64();
        SplitMix64::new(s)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vector() {
        // Reference values for seed 0 from the public-domain C reference.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn determinism_across_clones() {
        let mut a = SplitMix64::new(42);
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn bounds_respected() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = r.next_below(13);
            assert!(v < 13);
            let w = r.next_range(5, 9);
            assert!((5..=9).contains(&w));
        }
    }

    #[test]
    fn next_range_single_point() {
        let mut r = SplitMix64::new(1);
        assert_eq!(r.next_range(4, 4), 4);
    }

    #[test]
    fn rough_uniformity() {
        let mut r = SplitMix64::new(99);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[r.next_below(8) as usize] += 1;
        }
        for &b in &buckets {
            // expect 10_000 per bucket; allow ±5%
            assert!((9_500..=10_500).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(3);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "shuffle left input unchanged");
    }

    #[test]
    fn split_streams_diverge() {
        let mut a = SplitMix64::new(5);
        let mut b = a.split();
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn domain_streams_are_independent_and_reproducible() {
        let take = |mut r: SplitMix64| -> Vec<u64> { (0..8).map(|_| r.next_u64()).collect() };
        let a1 = take(SplitMix64::domain_stream(42, 1, 0));
        let a2 = take(SplitMix64::domain_stream(42, 1, 0));
        assert_eq!(a1, a2, "same triple, same stream");
        let b = take(SplitMix64::domain_stream(42, 2, 0));
        let c = take(SplitMix64::domain_stream(42, 1, 1));
        let d = take(SplitMix64::domain_stream(43, 1, 0));
        assert_ne!(a1, b, "domain separates streams");
        assert_ne!(a1, c, "stream index separates streams");
        assert_ne!(a1, d, "seed separates streams");
    }
}
