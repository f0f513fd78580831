//! The `(time, sequence)`-ordered event queue both virtual-time loops
//! ([`crate::des`] and [`crate::engine::DistEngine`]) pop from.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Earliest-first queue of timed events. Ties in time pop in insertion
/// order, which is what makes simultaneous events deterministic; times
/// compare by `total_cmp`, so a pathological time can never panic the
/// loop, and the payload needs no ordering of its own.
///
/// Besides its heap the queue holds a fixed number of *ordered streams*:
/// first-in first-out lanes for producers whose events already come in
/// time order, such as a serial resource whose completions only move
/// forward. A stream push is an append, and [`pop`](EventQueue::pop)
/// takes the earliest of the heap's top and the streams' heads, found
/// through a small heap of heads. Every event draws its sequence number
/// from the one counter and every stream's head is its earliest event, so
/// events pop in exactly the order one heap holding all of them would pop
/// them. A stream push that would break its stream's order lands on the
/// heap instead. So a producer may move an event from the heap to a
/// stream — the simulator sends every event of the current instant,
/// zero-duration finishes among them, to one — without changing the pop
/// order.
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    streams: Vec<VecDeque<Entry<E>>>,
    /// The head of every non-empty stream, its payload the stream's index.
    heads: BinaryHeap<Entry<usize>>,
    seq: u64,
}

struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

/// `Less` when `a` pops before `b`.
fn pop_order(a: (f64, u64), b: (f64, u64)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl<E> Entry<E> {
    fn key(&self) -> (f64, u64) {
        (self.time, self.seq)
    }
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
        pop_order(other.key(), self.key())
    }
}

impl<E> EventQueue<E> {
    /// A queue with no streams: every event goes through the heap.
    pub(crate) fn new() -> Self {
        Self::with_streams(0)
    }

    /// A queue with ordered streams `0..streams`.
    pub(crate) fn with_streams(streams: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            streams: (0..streams).map(|_| VecDeque::new()).collect(),
            heads: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub(crate) fn push(&mut self, time: f64, event: E) {
        self.seq += 1;
        self.heap.push(Entry { time, seq: self.seq, event });
    }

    /// Queue an event on stream `s`: appended when it is not earlier than
    /// the stream's last event, pushed on the heap otherwise.
    pub(crate) fn push_to(&mut self, s: usize, time: f64, event: E) {
        self.seq += 1;
        let entry = Entry { time, seq: self.seq, event };
        let stream = &mut self.streams[s];
        match stream.back() {
            Some(last) if last.time.total_cmp(&time).is_gt() => self.heap.push(entry),
            Some(_) => stream.push_back(entry),
            None => {
                self.heads.push(Entry { time, seq: self.seq, event: s });
                stream.push_back(entry);
            }
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        let from_stream = match (self.heap.peek(), self.heads.peek()) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(top), Some(head)) => pop_order(head.key(), top.key()).is_lt(),
        };
        if !from_stream {
            return self.heap.pop().map(|e| (e.time, e.event));
        }
        let mut head = self.heads.peek_mut()?;
        let stream = &mut self.streams[head.event];
        let e = stream.pop_front()?;
        match stream.front() {
            // Not earlier than the head it replaces: `head` sifts down.
            Some(next) => (head.time, head.seq) = next.key(),
            None => drop(PeekMut::pop(head)),
        }
        Some((e.time, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The single-heap queue the streams were added to, verbatim: the
    /// oracle of the merge order.
    mod oracle {
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
    }

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

    #[test]
    fn streams_merge_with_the_heap_by_time_then_insertion_order() {
        let mut q = EventQueue::with_streams(2);
        q.push_to(0, 1.0, 'b');
        q.push(1.0, 'c');
        q.push_to(1, 0.5, 'a');
        q.push_to(0, 3.0, 'f');
        q.push_to(1, 1.0, 'd');
        q.push_to(1, 0.0, 'e'); // earlier than its stream's tail: heap
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['e', 'a', 'b', 'c', 'd', 'f']);
    }

    /// SplitMix64: the op-mix generator of the property below.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A time from a palette small enough that ties are common, with the
    /// values `total_cmp` orders specially.
    fn palette_time(mix: &mut Mix) -> f64 {
        match mix.below(16) {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => f64::NAN,
            3 => -0.0,
            k => (k % 5) as f64,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random mixes of heap pushes, stream pushes and pops — stream
        /// pushes mostly in order (repeating the stream's last time, so
        /// ties across streams and with the heap are common), sometimes
        /// not; streams draining and refilling between pops — pop exactly
        /// the sequence the single-heap queue pops.
        #[test]
        fn merge_order_equals_the_single_heap_queue(
            seed in 0u64..u64::MAX,
            nstreams in 1usize..6,
            nops in 1usize..400,
        ) {
            let mut mix = Mix(seed);
            let mut queue = EventQueue::with_streams(nstreams);
            let mut oracle = oracle::EventQueue::new();
            let mut last = vec![0.0f64; nstreams];
            let (mut popped, mut expected) = (Vec::new(), Vec::new());
            for id in 0..nops {
                match mix.below(8) {
                    0..=2 => {
                        popped.push(queue.pop().map(|(t, e)| (t.to_bits(), e)));
                        expected.push(oracle.pop().map(|(t, e)| (t.to_bits(), e)));
                    }
                    3 | 4 => {
                        let t = palette_time(&mut mix);
                        queue.push(t, id);
                        oracle.push(t, id);
                    }
                    _ => {
                        let s = mix.below(nstreams as u64) as usize;
                        let t = match mix.below(8) {
                            0..=2 => last[s],
                            3..=5 => last[s] + mix.below(3) as f64,
                            _ => palette_time(&mut mix),
                        };
                        last[s] = t;
                        queue.push_to(s, t, id);
                        oracle.push(t, id);
                    }
                }
            }
            let bits = |(t, e): (f64, usize)| Some((t.to_bits(), e));
            popped.extend(std::iter::from_fn(|| queue.pop()).map(bits));
            expected.extend(std::iter::from_fn(|| oracle.pop()).map(bits));
            prop_assert_eq!(popped, expected);
        }
    }
}
