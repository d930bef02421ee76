//! The discrete-event queue: a time-ordered heap of events with FIFO
//! tie-breaking (events scheduled at the same instant fire in scheduling
//! order, which keeps the simulation deterministic).
//!
//! A stream of events already sorted by time (a trace's arrivals) need not
//! enter the heap at all: [`EventQueue::pop_merged`] merges it with the
//! heap, so the heap holds only the events scheduled while draining.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::iter::Peekable;

/// An event scheduled in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Fire time.
    pub at: SimTime,
    /// Monotonic sequence number for stable ordering of ties.
    seq: u64,
    /// The payload.
    pub event: E,
}

impl<E: Eq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap semantics on (time, seq).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E: Eq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event queue.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<E: Eq> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E: Eq> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time (the fire time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — causality violations are always bugs.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at:?} < {:?})",
            self.now
        );
        self.heap.push(Scheduled {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Pops the next event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| {
            self.now = s.at;
            (s.at, s.event)
        })
    }

    /// Pops the earlier of the heap's next event and the head of
    /// `external`, a stream sorted by time, advancing the clock to it.
    ///
    /// On a tie the external event fires first. This is the order the
    /// heap itself gives when the whole stream is scheduled before any
    /// other event: the stream then holds the lowest sequence numbers.
    ///
    /// # Panics
    /// Panics if the stream's head lies in the past (the stream is not
    /// sorted).
    pub fn pop_merged<I>(&mut self, external: &mut Peekable<I>) -> Option<(SimTime, E)>
    where
        I: Iterator<Item = (SimTime, E)>,
    {
        let take_external = match (external.peek(), self.heap.peek()) {
            (Some(&(at, _)), Some(next)) => at <= next.at,
            (head, _) => head.is_some(),
        };
        if !take_external {
            return self.pop();
        }
        let (at, event) = external.next()?;
        assert!(
            at >= self.now,
            "external event in the past ({at:?} < {:?})",
            self.now
        );
        self.now = at;
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), 1);
        q.schedule(SimTime(5), 2);
        q.schedule(SimTime(5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(100));
        // Scheduling relative to now works.
        q.schedule(q.now() + SimDuration::from_secs(1), ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime(1_000_100));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    #[should_panic(expected = "external event in the past")]
    fn unsorted_stream_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut stream = [(SimTime(5), ()), (SimTime(3), ())].into_iter().peekable();
        while q.pop_merged(&mut stream).is_some() {}
    }
}
