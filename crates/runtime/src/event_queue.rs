//! The `(time, sequence)`-ordered event queue both virtual-time loops
//! ([`crate::des`] and [`crate::engine::DistEngine`]) pop from.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Earliest-first queue of timed events. Ties in time pop in insertion
/// order, which is what makes simultaneous events deterministic; times
/// compare by `total_cmp`, so a pathological time can never panic the
/// loop, and the payload needs no ordering of its own.
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want the earliest event
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    pub(crate) fn push(&mut self, time: f64, event: E) {
        self.seq += 1;
        self.heap.push(Entry { time, seq: self.seq, event });
    }

    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(2.0, 'c');
        q.push(1.0, 'a');
        q.push(1.0, 'b');
        q.push(f64::NAN, 'z'); // total_cmp: NaN sorts last, never panics
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'c', 'z']);
    }
}
