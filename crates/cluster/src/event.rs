//! The deterministic event queue driving the cluster's simulated clock.
//!
//! A classic discrete-event core: events carry an `f64` nanosecond
//! timestamp, the queue pops them in time order, and simultaneous
//! events break ties by insertion sequence — so the pop order is a pure
//! function of the push order, which the scheduler keeps deterministic.
//! Timestamps are always finite (they come from the link/disk/engine
//! models, never from arithmetic that can produce NaN), so the partial
//! float order is total here.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    t_ns: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.t_ns == other.t_ns && self.seq == other.seq
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
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .t_ns
            .partial_cmp(&self.t_ns)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-heap of timestamped events with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `t_ns` on the simulated clock.
    ///
    /// # Panics
    /// Panics if `t_ns` is not finite.
    pub fn push(&mut self, t_ns: f64, event: E) {
        assert!(t_ns.is_finite(), "event time must be finite");
        self.heap.push(Entry {
            t_ns,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event (insertion order among ties).
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.t_ns, e.event))
    }

    /// Events still scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30.0, "c");
        q.push(10.0, "a");
        q.push(20.0, "b");
        assert_eq!(q.pop(), Some((10.0, "a")));
        assert_eq!(q.pop(), Some((20.0, "b")));
        assert_eq!(q.pop(), Some((30.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn interleaved_pushes_keep_ordering() {
        let mut q = EventQueue::new();
        q.push(10.0, 0);
        assert_eq!(q.pop(), Some((10.0, 0)));
        q.push(8.0, 1);
        q.push(12.0, 2);
        assert_eq!(q.pop(), Some((8.0, 1)));
        q.push(11.0, 3);
        assert_eq!(q.pop(), Some((11.0, 3)));
        assert_eq!(q.pop(), Some((12.0, 2)));
        assert!(q.is_empty());
    }
}
