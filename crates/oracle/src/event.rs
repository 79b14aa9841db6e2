//! The seed's binary-heap event queue, kept as the differential oracle for
//! [`EventQueue`]'s pairing heap and as the reference side of the
//! event-loop microbench.
//!
//! [`EventQueue`]: vidur_core::event::EventQueue

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use vidur_core::time::SimTime;

/// An entry in the baseline binary heap. Ordered so the *earliest* time pops
/// first and ties break in insertion order.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so smallest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original `BinaryHeap`-backed event queue, kept as the differential
/// oracle for [`EventQueue`]'s pairing heap and as the reference side of the
/// event-loop microbench. Same `(time, seq)` ordering contract.
///
/// [`EventQueue`]: vidur_core::event::EventQueue
pub struct BaselineQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for BaselineQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for BaselineQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BaselineQueue")
            .field("len", &self.heap.len())
            .finish()
    }
}

impl<E> BaselineQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BaselineQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let entry = Entry {
            time,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.heap.push(entry);
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        Some((entry.time, entry.payload))
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}
