//! The authoritative functional value store.
//!
//! Values are word-granular (8 bytes). Cached copies in the protocol
//! simulation are never stale (the protocol is invalidation-based), so
//! reading the store at an operation's commit point yields exactly the
//! value a real coherent machine would return, while all timing comes from
//! the protocol model.

use glocks_sim_base::Addr;
use std::collections::HashMap;

/// Word-addressed backing store; absent words read as zero.
#[derive(Clone, Debug, Default)]
pub struct WordStore {
    words: HashMap<u64, u64>,
}
glocks_sim_base::snap!(WordStore { words });

impl WordStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Read the 8-byte word containing `addr`.
    pub fn load(&self, addr: Addr) -> u64 {
        self.words.get(&addr.word().0).copied().unwrap_or(0)
    }

    /// Write the 8-byte word containing `addr`.
    pub fn store(&mut self, addr: Addr, value: u64) {
        if value == 0 {
            // Keep the map sparse; absent means zero.
            self.words.remove(&addr.word().0);
        } else {
            self.words.insert(addr.word().0, value);
        }
    }

    /// Number of non-zero words (used by tests).
    pub fn population(&self) -> usize {
        self.words.len()
    }

    /// Iterate over all non-zero words as `(word_address, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        self.words.iter().map(|(&a, &v)| (Addr(a), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_by_default() {
        let s = WordStore::new();
        assert_eq!(s.load(Addr(0)), 0);
        assert_eq!(s.load(Addr(123456)), 0);
    }

    #[test]
    fn store_then_load() {
        let mut s = WordStore::new();
        s.store(Addr(64), 7);
        assert_eq!(s.load(Addr(64)), 7);
        // same word through an unaligned address
        assert_eq!(s.load(Addr(67)), 7);
        // different word
        assert_eq!(s.load(Addr(72)), 0);
    }

    #[test]
    fn iter_enumerates_nonzero_words() {
        let mut s = WordStore::new();
        s.store(Addr(8), 1);
        s.store(Addr(64), 2);
        s.store(Addr(128), 0);
        let mut got: Vec<_> = s.iter().map(|(a, v)| (a.0, v)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(8, 1), (64, 2)]);
    }

    #[test]
    fn storing_zero_erases() {
        let mut s = WordStore::new();
        s.store(Addr(8), 5);
        assert_eq!(s.population(), 1);
        s.store(Addr(8), 0);
        assert_eq!(s.population(), 0);
        assert_eq!(s.load(Addr(8)), 0);
    }
}
