//! A generic set-associative cache array with true-LRU replacement.
//!
//! Used twice: as the L1 tag/state array (state = MESI state) and as the L2
//! slice's data-presence array (state = `()`, timing only).

use glocks_sim_base::snap::{fixed, Decode, Snap, SnapError, SnapReader, SnapWriter};
use glocks_sim_base::LineAddr;

#[derive(Clone, Debug)]
struct Way<S> {
    line: LineAddr,
    state: S,
    /// Monotone use-stamp; the smallest stamp in a set is the LRU victim.
    stamp: u64,
}
glocks_sim_base::snap!(Way<S> { line, stamp, state });

/// Set-associative, true-LRU cache array.
#[derive(Clone, Debug)]
pub struct CacheArray<S> {
    sets: Vec<Vec<Way<S>>>,
    ways: usize,
    clock: u64,
}

/// Hand-written: a loaded set may not hold more lines than the array has
/// ways.
impl<S: Decode> Snap for CacheArray<S> {
    fn save(&self, w: &mut SnapWriter) {
        let CacheArray { sets, ways: _, clock } = self;
        clock.save(w);
        fixed::save(sets, w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let CacheArray { sets, ways, clock } = self;
        clock.load(r)?;
        fixed::load(sets, r)?;
        if sets.iter().any(|set| set.len() > *ways) {
            return Err(SnapError::Corrupt { what: "cache array way count" });
        }
        Ok(())
    }
}

impl<S> CacheArray<S> {
    pub fn new(n_sets: usize, ways: usize) -> Self {
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways >= 1);
        CacheArray {
            // A set allocates on its first insert: a run touches few of a
            // machine's sets, so its memory follows the working set.
            sets: (0..n_sets).map(|_| Vec::new()).collect(),
            ways,
            clock: 0,
        }
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets.len() - 1)
    }

    /// Look up a line without touching LRU state.
    pub fn peek(&self, line: LineAddr) -> Option<&S> {
        let set = &self.sets[self.set_index(line)];
        set.iter().find(|w| w.line == line).map(|w| &w.state)
    }

    /// Look up a line and mark it most-recently-used.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut S> {
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        set.iter_mut().find(|w| w.line == line).map(|w| {
            w.stamp = clock;
            &mut w.state
        })
    }

    /// `n` back-to-back [`lookup`](Self::lookup)s of a resident line, in
    /// O(1).
    pub fn lookup_n(&mut self, line: LineAddr, n: u64) {
        if n > 0 {
            self.clock += n - 1;
            self.lookup(line).expect("a replayed lookup hits");
        }
    }

    /// Insert a line (must not already be present), evicting the LRU way if
    /// the set is full. Returns the evicted `(line, state)` if any.
    pub fn insert(&mut self, line: LineAddr, state: S) -> Option<(LineAddr, S)> {
        debug_assert!(self.peek(line).is_none(), "inserting a present line");
        self.clock += 1;
        let clock = self.clock;
        let ways = self.ways;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        let evicted = if set.len() == ways {
            let (vi, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .expect("full set is non-empty");
            let v = set.swap_remove(vi);
            Some((v.line, v.state))
        } else {
            None
        };
        set.push(Way { line, state, stamp: clock });
        evicted
    }

    /// Remove a line, returning its state if present.
    pub fn remove(&mut self, line: LineAddr) -> Option<S> {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        set.iter()
            .position(|w| w.line == line)
            .map(|i| set.swap_remove(i).state)
    }

    /// Number of resident lines.
    pub fn population(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Iterate over all resident lines and their states.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &S)> {
        self.sets.iter().flatten().map(|w| (w.line, &w.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> CacheArray<u32> {
        CacheArray::new(4, 2)
    }

    #[test]
    fn insert_and_lookup() {
        let mut a = arr();
        assert!(a.insert(LineAddr(0), 10).is_none());
        assert_eq!(a.lookup(LineAddr(0)), Some(&mut 10));
        assert_eq!(a.lookup(LineAddr(4)), None);
        assert_eq!(a.population(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut a = arr();
        // lines 0, 4, 8 all map to set 0 (4 sets)
        a.insert(LineAddr(0), 1);
        a.insert(LineAddr(4), 2);
        // touch 0 so 4 becomes LRU
        a.lookup(LineAddr(0));
        let ev = a.insert(LineAddr(8), 3);
        assert_eq!(ev, Some((LineAddr(4), 2)));
        assert!(a.peek(LineAddr(0)).is_some());
        assert!(a.peek(LineAddr(8)).is_some());
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut a = arr();
        for i in 0..4 {
            assert!(a.insert(LineAddr(i), i as u32).is_none());
        }
        assert_eq!(a.population(), 4);
    }

    #[test]
    fn remove_returns_state() {
        let mut a = arr();
        a.insert(LineAddr(3), 9);
        assert_eq!(a.remove(LineAddr(3)), Some(9));
        assert_eq!(a.remove(LineAddr(3)), None);
        assert_eq!(a.population(), 0);
    }

    #[test]
    fn lookup_n_equals_repeated_lookups() {
        let mut bulk = arr();
        bulk.insert(LineAddr(0), 1);
        bulk.insert(LineAddr(4), 2);
        let mut one_by_one = bulk.clone();
        bulk.lookup_n(LineAddr(4), 3);
        for _ in 0..3 {
            one_by_one.lookup(LineAddr(4));
        }
        let mut w = (SnapWriter::new(), SnapWriter::new());
        bulk.save(&mut w.0);
        one_by_one.save(&mut w.1);
        assert_eq!(w.0.into_bytes(), w.1.into_bytes());
    }

    #[test]
    fn peek_does_not_perturb_lru() {
        let mut a = arr();
        a.insert(LineAddr(0), 1);
        a.insert(LineAddr(4), 2);
        // peek(0) must NOT protect 0: line 0 stays LRU and is evicted
        assert!(a.peek(LineAddr(0)).is_some());
        let ev = a.insert(LineAddr(8), 3);
        assert_eq!(ev, Some((LineAddr(0), 1)));
    }

    #[test]
    fn iter_sees_all_lines() {
        let mut a = arr();
        a.insert(LineAddr(1), 11);
        a.insert(LineAddr(2), 22);
        let mut got: Vec<_> = a.iter().map(|(l, &s)| (l.0, s)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(1, 11), (2, 22)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = CacheArray::<()>::new(3, 1);
    }
}
