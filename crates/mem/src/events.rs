//! A deterministic time-ordered event queue.
//!
//! Ties at the same cycle are broken by insertion order (FIFO), which keeps
//! the whole simulation bit-reproducible.

use glocks_sim_base::snap::{Decode, Snap, SnapError, SnapReader, SnapWriter};
use glocks_sim_base::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

struct Entry<T> {
    at: Cycle,
    seq: u64,
    item: T,
}
glocks_sim_base::snap!(Entry<T> { at, seq, item });

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Min-heap of `(cycle, item)` with FIFO tie-breaking.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }
}

/// Hand-written: the heap is saved in `(at, seq)` order, and a loaded
/// sequence number must lie below `next_seq`.
impl<T: Decode> Snap for EventQueue<T> {
    fn save(&self, w: &mut SnapWriter) {
        let EventQueue { heap, next_seq } = self;
        next_seq.save(w);
        let mut entries: Vec<&Entry<T>> = heap.iter().map(|Reverse(e)| e).collect();
        entries.sort();
        w.usize(entries.len());
        entries.into_iter().for_each(|e| e.save(w));
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let EventQueue { heap, next_seq } = self;
        next_seq.load(r)?;
        let entries = Vec::<Entry<T>>::decode(r)?;
        if entries.iter().any(|e| e.seq >= *next_seq) {
            return Err(SnapError::Corrupt { what: "event queue sequence number" });
        }
        *heap = entries.into_iter().map(Reverse).collect();
        Ok(())
    }
}

impl<T: Decode> Decode for EventQueue<T> {
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut q = Self::new();
        q.load(r)?;
        Ok(q)
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn schedule(&mut self, at: Cycle, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, item }));
    }

    /// Spend the sequence numbers of `n` events scheduled and popped in
    /// bulk elsewhere, so later ties still break as they would have.
    pub fn skip(&mut self, n: u64) {
        self.next_seq += n;
    }

    /// Pop the next event due at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.heap.peek().is_some_and(|Reverse(e)| e.at <= now) {
            let Reverse(e) = self.heap.pop().expect("peeked");
            Some((e.at, e.item))
        } else {
            None
        }
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Cycle of the earliest pending event, if any.
    pub fn next_due(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(10, "b");
        q.schedule(5, "a");
        q.schedule(20, "c");
        assert_eq!(q.pop_due(100), Some((5, "a")));
        assert_eq!(q.pop_due(100), Some((10, "b")));
        assert_eq!(q.pop_due(100), Some((20, "c")));
        assert_eq!(q.pop_due(100), None);
    }

    #[test]
    fn respects_due_time() {
        let mut q = EventQueue::new();
        q.schedule(10, 1);
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.pop_due(10), Some((10, 1)));
    }

    #[test]
    fn fifo_tie_break() {
        let mut q = EventQueue::new();
        q.schedule(7, "first");
        q.schedule(7, "second");
        q.schedule(7, "third");
        assert_eq!(q.pop_due(7).unwrap().1, "first");
        assert_eq!(q.pop_due(7).unwrap().1, "second");
        assert_eq!(q.pop_due(7).unwrap().1, "third");
    }

    #[test]
    fn next_due_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_due(), None);
        q.schedule(3, ());
        q.schedule(1, ());
        assert_eq!(q.next_due(), Some(1));
        assert_eq!(q.len(), 2);
    }
}
