//! Statistics containers used throughout the simulator.

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// A dense histogram over small integer bins (e.g. the paper's grAC axis,
/// 1..=32 concurrent requesters).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bins: Vec<u64>,
}
crate::snap!(Histogram { bins as fixed });

impl Histogram {
    /// A histogram with bins `0..n_bins`.
    pub fn new(n_bins: usize) -> Self {
        Histogram {
            bins: vec![0; n_bins],
        }
    }

    /// Record `weight` occurrences of `bin`. Out-of-range bins clamp to the
    /// last bin (keeps the grAC histogram total exact under config drift).
    pub fn record(&mut self, bin: usize, weight: u64) {
        let i = bin.min(self.bins.len() - 1);
        self.bins[i] += weight;
    }

    pub fn bin(&self, i: usize) -> u64 {
        self.bins[i]
    }

    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// The bins normalized to fractions of the total (all zeros if empty).
    pub fn normalized(&self) -> Vec<f64> {
        let t = self.total();
        if t == 0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|&b| b as f64 / t as f64).collect()
    }

    /// Merge another histogram of the same shape into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len());
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }
}

/// Running mean/min/max of an f64 series (used for latency summaries).
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}
crate::snap!(Summary { count, sum, min, max });

impl Summary {
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A keyed bundle of counters with stable (sorted) iteration order, used for
/// ad-hoc per-component stats dumps.
///
/// The entries sit in a key-sorted `Vec`. [`CounterSet::add`] looks for its
/// key by address first, so a caller passing a string literal bumps its
/// counter without comparing bytes, and only then by content.
#[derive(Clone, Debug, Default)]
pub struct CounterSet {
    counters: Vec<(&'static str, u64)>,
}

impl CounterSet {
    pub fn add(&mut self, key: &'static str, n: u64) {
        if let Some(e) = self.counters.iter_mut().find(|e| std::ptr::eq(e.0, key)) {
            e.1 += n;
            return;
        }
        match self.find(key) {
            // Equal content at another address, e.g. a key interned by
            // `load`: adopt the caller's so its next add takes the fast path.
            Ok(i) => self.counters[i] = (key, self.counters[i].1 + n),
            Err(i) => self.counters.insert(i, (key, n)),
        }
    }

    pub fn get(&self, key: &str) -> u64 {
        self.find(key).map_or(0, |i| self.counters[i].1)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    pub fn merge(&mut self, other: &CounterSet) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Index of `key`'s entry, or where it would be inserted.
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.counters.binary_search_by(|e| e.0.cmp(key))
    }
}

/// Keys are interned with [`Box::leak`] on load: the set's hot-path API
/// takes `&'static str`, and a restore happens at most a handful of times
/// per process, so the few hundred leaked bytes are an accepted cost of
/// keeping recording allocation-free.
impl Snap for CounterSet {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.counters.len());
        for (k, v) in self.iter() {
            w.str(k);
            w.u64(v);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        self.counters.clear();
        for _ in 0..n {
            let key: &'static str = Box::leak(r.str()?.into_boxed_str());
            let v = r.u64()?;
            match self.find(key) {
                Ok(i) => self.counters[i].1 = v,
                Err(i) => self.counters.insert(i, (key, v)),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_normalizes() {
        let mut h = Histogram::new(4);
        h.record(0, 1);
        h.record(1, 3);
        h.record(9, 4); // clamps to bin 3
        assert_eq!(h.total(), 8);
        assert_eq!(h.bin(3), 4);
        let n = h.normalized();
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((n[1] - 0.375).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_normalizes_to_zeros() {
        let h = Histogram::new(3);
        assert_eq!(h.normalized(), vec![0.0; 3]);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(3);
        let mut b = Histogram::new(3);
        a.record(0, 2);
        b.record(2, 5);
        a.merge(&b);
        assert_eq!(a.bin(0), 2);
        assert_eq!(a.bin(2), 5);
    }

    #[test]
    fn summary_tracks_extremes_and_mean() {
        let mut s = Summary::default();
        for v in [3.0, 1.0, 2.0] {
            s.record(v);
        }
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(Summary::default().mean(), 0.0);
    }

    #[test]
    fn counter_set_merges_sorted() {
        let mut a = CounterSet::default();
        a.add("z", 1);
        a.add("a", 2);
        let mut b = CounterSet::default();
        b.add("z", 3);
        a.merge(&b);
        let keys: Vec<_> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "z"]);
        assert_eq!(a.get("z"), 4);
        assert_eq!(a.get("missing"), 0);
    }

    /// A key equal in content to a literal but at another address, as
    /// `load` interns them, bumps the literal's entry instead of adding a
    /// second one, and a resumed set saves the bytes of one never saved.
    #[test]
    fn counter_set_matches_interned_keys_by_content() {
        let interned: &'static str = Box::leak(String::from("l1_hit").into_boxed_str());
        let mut a = CounterSet::default();
        a.add("l1_miss", 1);
        a.add("l1_hit", 2);
        assert!(!std::ptr::eq(interned, "l1_hit"));
        a.add(interned, 3);
        a.add("l1_access", 1);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            [("l1_access", 1), ("l1_hit", 5), ("l1_miss", 1)]
        );

        let save = |c: &CounterSet| {
            let mut w = SnapWriter::new();
            c.save(&mut w);
            w.into_bytes()
        };
        let mut resumed = CounterSet::default();
        resumed.load(&mut SnapReader::new(&save(&a))).unwrap();
        resumed.add("l1_hit", 1);
        resumed.add("l1_fill", 1);
        a.add("l1_hit", 1);
        a.add("l1_fill", 1);
        assert_eq!(save(&resumed), save(&a));
    }
}
