//! Activity sets: one bit per component (router or tile) of a machine.
//!
//! A per-cycle loop that visits only the set bits, in ascending index,
//! visits components in the order a loop over all of them would, so it
//! keeps that loop's trajectory while skipping components that provably
//! have nothing to do. Each owner states its own invariant ("a clear bit
//! means ..."). The sets are host-side bookkeeping: never saved, never
//! fingerprinted.

/// A fixed-size set of component indices `0..len`.
#[derive(Clone, Debug)]
pub struct ActivitySet {
    words: Vec<u64>,
    len: usize,
}

impl ActivitySet {
    /// Every index of `len` set: the first walk visits each component and
    /// clears the ones it finds idle.
    pub fn full(len: usize) -> Self {
        let mut set = Self::empty(len);
        set.fill();
        set
    }

    /// No index of `len` set.
    pub fn empty(len: usize) -> Self {
        ActivitySet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Set every index (after a load, so the next walk re-derives the set).
    pub fn fill(&mut self) {
        let len = self.len;
        for (w, word) in self.words.iter_mut().enumerate() {
            *word = u64::MAX >> (64 * (w + 1)).saturating_sub(len);
        }
    }

    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len, "index {i} outside a set of {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// The first member at or after `from`. Walk a set with
    /// `while let Some(i) = set.next(from) { from = i + 1; .. }`: members
    /// inserted or removed past `i` during the walk are seen as they stand.
    #[inline]
    pub fn next(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(set: &ActivitySet) -> Vec<usize> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(i) = set.next(from) {
            from = i + 1;
            out.push(i);
        }
        out
    }

    #[test]
    fn full_sets_walk_every_index_in_order_and_nothing_past_len() {
        for len in [1, 63, 64, 65, 100, 128, 1024] {
            let set = ActivitySet::full(len);
            assert_eq!(walk(&set), (0..len).collect::<Vec<_>>(), "len {len}");
            assert_eq!(set.next(len), None, "len {len}: padding bits set");
        }
    }

    #[test]
    fn sparse_walks_cross_word_boundaries_in_ascending_order() {
        for len in [64, 100, 1024] {
            let members: Vec<usize> = [0, 1, 62, 63, 64, 65, 99, 127, 128, 511, 512, 1000, 1023]
                .into_iter()
                .filter(|&i| i < len)
                .collect();
            let mut set = ActivitySet::empty(len);
            assert_eq!(walk(&set), Vec::<usize>::new());
            for &i in members.iter().rev() {
                set.insert(i);
            }
            assert_eq!(walk(&set), members, "len {len}");
            for &i in &members {
                assert!(set.contains(i));
                assert_eq!(set.next(i), Some(i));
            }
            set.fill();
            assert_eq!(walk(&set).len(), len);
        }
    }

    #[test]
    fn a_walk_sees_members_changed_ahead_of_it() {
        let mut set = ActivitySet::full(100);
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = set.next(from) {
            from = i + 1;
            seen.push(i);
            match i {
                // Clear the one being visited and two ahead, one of them
                // past the word boundary.
                10 => {
                    set.remove(10);
                    set.remove(11);
                    set.remove(70);
                }
                // Re-insert one behind the walk: the next walk sees it.
                80 => set.insert(11),
                _ => {}
            }
        }
        let expected: Vec<usize> = (0..100).filter(|&i| i != 11 && i != 70).collect();
        assert_eq!(seen, expected);
        assert!(set.contains(11) && !set.contains(10) && !set.contains(70));
    }
}
