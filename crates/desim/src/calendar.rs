//! The event calendar: a priority queue of timestamped events.
//!
//! Events at equal timestamps are delivered in scheduling (FIFO) order.
//! This tie-break is load-bearing: the paper's experiments compare routing
//! strategies under common random numbers, which is only meaningful if the
//! event order is a pure function of the schedule calls.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event popped from the calendar: when it fires and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventEntry<E> {
    /// Time at which the event fires.
    pub time: SimTime,
    /// The user payload.
    pub event: E,
}

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq gives FIFO order among equal timestamps.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic event calendar over user-defined event payloads `E`.
///
/// ```
/// use idpa_desim::{Calendar, SimTime};
///
/// let mut cal = Calendar::new();
/// cal.schedule(SimTime::new(2.0), "later");
/// cal.schedule(SimTime::new(1.0), "sooner");
/// assert_eq!(cal.pop().unwrap().event, "sooner");
/// assert_eq!(cal.pop().unwrap().event, "later");
/// assert!(cal.pop().is_none());
/// ```
pub struct Calendar<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }

    /// Removes and returns the earliest pending event. Returns `None` when
    /// the calendar is exhausted.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        self.heap.pop().map(|entry| EventEntry {
            time: entry.time,
            event: entry.event,
        })
    }

    /// Time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|head| head.time)
    }

    /// The sequence number the next [`Calendar::schedule`] call will use.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Snapshot export: every pending entry as `(time, seq, event)`, sorted
    /// by `(time, seq)` — i.e. in the exact order [`Calendar::pop`] would
    /// deliver them. The sort makes the export a pure function of the
    /// pending set, independent of the heap's internal arrangement.
    #[must_use]
    pub fn snapshot_entries(&self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let mut entries: Vec<(SimTime, u64, E)> = self
            .heap
            .iter()
            .map(|h| (h.time, h.seq, h.event.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        entries
    }

    /// Rebuilds a calendar from a snapshot export: the heap entries with
    /// their original sequence numbers and the next sequence number to hand
    /// out. Pop order and future sequence numbers both match the
    /// snapshotted calendar exactly.
    #[must_use]
    pub fn from_snapshot(entries: Vec<(SimTime, u64, E)>, next_seq: u64) -> Self {
        let mut heap = BinaryHeap::with_capacity(entries.len());
        for (time, seq, event) in entries {
            heap.push(HeapEntry { time, seq, event });
        }
        Calendar { heap, next_seq }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;

    fn t(m: f64) -> SimTime {
        SimTime::new(m)
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(t(3.0), 'c');
        cal.schedule(t(1.0), 'a');
        cal.schedule(t(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| cal.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            cal.schedule(t(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_the_earliest_pending_event() {
        let mut cal = Calendar::new();
        assert_eq!(cal.peek_time(), None);
        cal.schedule(t(2.0), "b");
        cal.schedule(t(1.0), "a");
        assert_eq!(cal.peek_time(), Some(t(1.0)));
        cal.pop();
        assert_eq!(cal.peek_time(), Some(t(2.0)));
    }

    #[test]
    fn len_counts_pending_events() {
        let mut cal = Calendar::new();
        assert!(cal.is_empty());
        cal.schedule(t(1.0), ());
        cal.schedule(t(2.0), ());
        assert_eq!(cal.len(), 2);
        cal.pop();
        assert_eq!(cal.len(), 1);
        assert!(!cal.is_empty());
        cal.pop();
        assert!(cal.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut cal = Calendar::new();
        cal.schedule(t(10.0), 10);
        cal.schedule(t(5.0), 5);
        assert_eq!(cal.pop().unwrap().event, 5);
        cal.schedule(t(7.0), 7);
        assert_eq!(cal.pop().unwrap().event, 7);
        assert_eq!(cal.pop().unwrap().event, 10);
    }
}
