//! Generic discrete-event queue and driver loop.
//!
//! The queue is keyed on `(time, sequence)` where `sequence` is a
//! monotonically increasing insertion counter. Two events scheduled for the
//! same instant therefore pop in insertion (FIFO) order, which makes the
//! whole simulation deterministic — a property the paper's cascading-error
//! analysis (§3) depends on: re-running a configuration must reproduce the
//! exact same batching pattern.
//!
//! Arrivals do not go through the queue. [`run`] reads them from a cursor
//! over the trace, in index order, and merges that stream with the queue:
//! an arrival precedes every same-instant queued event. So the queue holds
//! only in-flight events (wake-ups, completions, the fault schedule), a
//! handful per replica, and a [`BinaryHeap`] serves it well.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::iter::Peekable;

/// A min-heap of payloads ordered by key alone, so the payload needs no
/// `Ord`. Equal keys pop in unspecified order; both queues built on it make
/// every key unique.
pub(crate) struct KeyedHeap<K, E>(BinaryHeap<Entry<K, E>>);

struct Entry<K, E> {
    key: K,
    payload: E,
}

impl<K: Ord, E> Ord for Entry<K, E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap: reverse so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}
impl<K: Ord, E> PartialOrd for Entry<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, E> PartialEq for Entry<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<K: Ord, E> Eq for Entry<K, E> {}

impl<K: Ord, E> KeyedHeap<K, E> {
    pub(crate) fn new() -> Self {
        KeyedHeap(BinaryHeap::new())
    }

    pub(crate) fn push(&mut self, key: K, payload: E) {
        self.0.push(Entry { key, payload });
    }

    pub(crate) fn pop(&mut self) -> Option<(K, E)> {
        self.0.pop().map(|e| (e.key, e.payload))
    }

    pub(crate) fn peek(&self) -> Option<&K> {
        self.0.peek().map(|e| &e.key)
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// Minimal scheduling interface shared by [`EventQueue`] and the sharded
/// per-replica queues, so the engine's hot path can push follow-up events
/// into either without knowing which one is driving it.
pub trait EventPush<E> {
    /// Schedules `payload` to fire at `time`.
    fn push(&mut self, time: SimTime, payload: E);
}

/// A deterministic discrete-event queue.
///
/// # Example
///
/// ```
/// use vidur_core::event::EventQueue;
/// use vidur_core::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(10), "late");
/// q.push(SimTime::from_nanos(5), "early");
/// q.push(SimTime::from_nanos(5), "early-second");
/// assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: KeyedHeap<(SimTime, u64), E>,
    seq: u64,
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("scheduled", &self.seq)
            .finish()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: KeyedHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        self.heap.push((time, self.seq), payload);
        self.seq += 1;
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ((time, _), payload) = self.heap.pop()?;
        Some((time, payload))
    }

    /// The time of the earliest pending event, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&(time, _)| time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.len() == 0
    }
}

impl<E> EventPush<E> for EventQueue<E> {
    fn push(&mut self, time: SimTime, payload: E) {
        EventQueue::push(self, time, payload)
    }
}

/// A simulation driven by an [`EventQueue`].
///
/// Implementors hold all mutable world state; [`run`] pops events in time
/// order and dispatches them to [`Simulation::handle`], which may schedule
/// further events. The driver enforces the no-time-travel invariant: handlers
/// must not schedule events in the past.
pub trait Simulation {
    /// The event payload type.
    type Event;

    /// Handles one event at simulated time `now`, scheduling any follow-up
    /// events on `queue`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// Returns `true` when the simulation should stop even though events
    /// remain (e.g. all tracked requests completed). Default: run to empty.
    fn is_done(&self) -> bool {
        false
    }
}

/// Runs `sim` until both `arrivals` and the queue drain, `sim.is_done()`
/// reports completion, or `max_events` events have been processed.
///
/// `arrivals` is a cursor over time-ordered arrival events, read one at a
/// time and merged with `queue`: at equal times an arrival fires before any
/// queued event, and arrivals fire in stream order. What is left in either
/// after the run stays there, so the caller can tell a finished run from a
/// truncated one.
///
/// Returns the timestamp of the last processed event (or `SimTime::ZERO` when
/// no event fired) and the number of events processed.
///
/// # Panics
///
/// Panics if an event would fire before the one handled last: a handler
/// scheduled into the past or the arrival stream is out of order, either
/// of which would indicate a simulator bug.
pub fn run<S: Simulation, A: Iterator<Item = (SimTime, S::Event)>>(
    sim: &mut S,
    queue: &mut EventQueue<S::Event>,
    arrivals: &mut Peekable<A>,
    max_events: u64,
) -> (SimTime, u64) {
    let mut now = SimTime::ZERO;
    let mut processed = 0u64;
    while processed < max_events {
        if sim.is_done() {
            break;
        }
        let arrival_first = match (arrivals.peek(), queue.peek_time()) {
            (Some(&(arrival, _)), Some(queued)) => arrival <= queued,
            (arrival, _) => arrival.is_some(),
        };
        let next = if arrival_first {
            arrivals.next()
        } else {
            queue.pop()
        };
        let Some((time, event)) = next else {
            break;
        };
        assert!(
            time >= now,
            "event queue produced out-of-order event: {time} < {now}"
        );
        now = time;
        sim.handle(now, event, queue);
        processed += 1;
    }
    (now, processed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[30u64, 10, 20, 5, 25] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn fifo_among_ties_survives_interleaved_pops() {
        // Tie-break order must hold even when pops interleave with pushes,
        // which exercises sequence-number ordering across heap reshuffles.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(9);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(t, 2);
        q.push(t, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(t, 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }

    #[test]
    fn fifo_among_ties_with_mixed_times() {
        // Ties at one timestamp stay FIFO even with other timestamps
        // interleaved between the pushes.
        let mut q = EventQueue::new();
        let tie = SimTime::from_nanos(50);
        q.push(tie, "a");
        q.push(SimTime::from_nanos(10), "early");
        q.push(tie, "b");
        q.push(SimTime::from_nanos(90), "late");
        q.push(tie, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec!["early", "a", "b", "c", "late"]);
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// No arrivals: the driver runs on the queue alone.
    fn no_arrivals<E>() -> Peekable<std::iter::Empty<(SimTime, E)>> {
        std::iter::empty().peekable()
    }

    /// A toy simulation: a counter that re-schedules itself `n` times.
    struct Ticker {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl Simulation for Ticker {
        type Event = ();
        fn handle(&mut self, now: SimTime, _event: (), queue: &mut EventQueue<()>) {
            self.fired_at.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                queue.push(now + SimDuration::from_millis(10), ());
            }
        }
    }

    #[test]
    fn driver_runs_chain() {
        let mut sim = Ticker {
            remaining: 4,
            fired_at: Vec::new(),
        };
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        let (end, processed) = run(&mut sim, &mut q, &mut no_arrivals(), u64::MAX);
        assert_eq!(processed, 5);
        assert_eq!(end, SimTime::from_secs_f64(0.04));
        assert_eq!(sim.fired_at.len(), 5);
        assert!(sim.fired_at.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn driver_respects_max_events() {
        let mut sim = Ticker {
            remaining: u32::MAX,
            fired_at: Vec::new(),
        };
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        let (_, processed) = run(&mut sim, &mut q, &mut no_arrivals(), 17);
        assert_eq!(processed, 17);
    }

    struct DoneAfter(u32);
    impl Simulation for DoneAfter {
        type Event = ();
        fn handle(&mut self, now: SimTime, _e: (), q: &mut EventQueue<()>) {
            self.0 = self.0.saturating_sub(1);
            q.push(now + SimDuration::from_nanos(1), ());
        }
        fn is_done(&self) -> bool {
            self.0 == 0
        }
    }

    #[test]
    fn driver_stops_when_done() {
        let mut sim = DoneAfter(3);
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        let (_, processed) = run(&mut sim, &mut q, &mut no_arrivals(), u64::MAX);
        assert_eq!(processed, 3);
    }

    /// Logs every event and answers each arrival with a same-instant and a
    /// later follow-up.
    #[derive(Default)]
    struct Echo(Vec<(u64, &'static str)>);

    impl Simulation for Echo {
        type Event = &'static str;
        fn handle(&mut self, now: SimTime, event: &'static str, q: &mut EventQueue<&'static str>) {
            self.0.push((now.as_nanos(), event));
            if event.starts_with("arrival") {
                q.push(now, "now");
                q.push(now + SimDuration::from_nanos(5), "later");
            }
        }
    }

    #[test]
    fn arrivals_win_ties_with_queued_events() {
        let mut sim = Echo::default();
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "seeded");
        let arrivals = [(10, "arrival-a"), (10, "arrival-b"), (15, "arrival-c")];
        let mut cursor = arrivals
            .into_iter()
            .map(|(t, e)| (SimTime::from_nanos(t), e))
            .peekable();
        let (end, processed) = run(&mut sim, &mut q, &mut cursor, u64::MAX);
        assert_eq!(
            sim.0,
            vec![
                (10, "arrival-a"),
                (10, "arrival-b"),
                (10, "seeded"),
                (10, "now"),
                (10, "now"),
                (15, "arrival-c"),
                (15, "later"),
                (15, "later"),
                (15, "now"),
                (20, "later"),
            ]
        );
        assert_eq!((end, processed), (SimTime::from_nanos(20), 10));
    }

    #[test]
    fn budget_leaves_unread_arrivals_in_the_cursor() {
        let mut sim = Echo::default();
        let mut q = EventQueue::new();
        let mut cursor = (0..4u64)
            .map(|t| (SimTime::from_nanos(100 * t), "arrival"))
            .peekable();
        let (_, processed) = run(&mut sim, &mut q, &mut cursor, 1);
        assert_eq!(processed, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(cursor.count(), 3);
    }

    #[test]
    #[should_panic(expected = "out-of-order event")]
    fn driver_rejects_out_of_order_arrivals() {
        let mut cursor = [(5, "arrival-a"), (3, "arrival-b")]
            .into_iter()
            .map(|(t, e)| (SimTime::from_nanos(t), e))
            .peekable();
        run(
            &mut Echo::default(),
            &mut EventQueue::new(),
            &mut cursor,
            u64::MAX,
        );
    }

    proptest! {
        /// Interleaved push/pop programs pop the stream of a naive model:
        /// a `Vec` in insertion order that pops the earliest time, the
        /// first-inserted among ties. Times come from a tiny range so
        /// equal-timestamp ties are dense.
        #[test]
        fn matches_naive_queue_model(
            ops in proptest::collection::vec((0u64..16, proptest::bool::ANY), 1..300)
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            let naive_pop = |model: &mut Vec<(SimTime, u64)>| {
                let earliest = model.iter().map(|&(t, _)| t).min()?;
                let first = model.iter().position(|&(t, _)| t == earliest)?;
                Some(model.remove(first))
            };
            for (tag, &(t, is_pop)) in ops.iter().enumerate() {
                if is_pop {
                    prop_assert_eq!(q.pop(), naive_pop(&mut model));
                } else {
                    q.push(SimTime::from_nanos(t), tag as u64);
                    model.push((SimTime::from_nanos(t), tag as u64));
                }
                prop_assert_eq!(q.peek_time(), model.iter().map(|&(t, _)| t).min());
            }
            while let Some(got) = q.pop() {
                prop_assert_eq!(Some(got), naive_pop(&mut model));
            }
            prop_assert!(model.is_empty());
        }

        #[test]
        fn always_nondecreasing(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        #[test]
        fn tie_break_is_fifo(n in 1usize..100) {
            let mut q = EventQueue::new();
            let t = SimTime::from_nanos(42);
            for i in 0..n {
                q.push(t, i);
            }
            for i in 0..n {
                prop_assert_eq!(q.pop().unwrap().1, i);
            }
        }

        #[test]
        fn pop_count_matches_push_count(times in proptest::collection::vec(0u64..1000, 0..64)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.push(SimTime::from_nanos(t), ());
            }
            let mut n = 0;
            while q.pop().is_some() { n += 1; }
            prop_assert_eq!(n, times.len());
        }
    }
}
