//! Generic discrete-event queue and driver loop.
//!
//! The queue is keyed on `(time, sequence)` where `sequence` is a
//! monotonically increasing insertion counter. Two events scheduled for the
//! same instant therefore pop in insertion (FIFO) order, which makes the
//! whole simulation deterministic — a property the paper's cascading-error
//! analysis (§3) depends on: re-running a configuration must reproduce the
//! exact same batching pattern.
//!
//! Internally the queue is a slab-backed **pairing heap**
//! ([`KeyedPairingHeap`]) rather than a binary heap. Discrete-event
//! workloads push near-future events (wakeups, batch completions) into a
//! large pending set; in a binary heap such pushes sift almost all the way
//! to the root (`O(log n)` comparisons on the hot path), while a pairing
//! heap links them in `O(1)` and defers all comparison work to `pop`.
//! Nodes live in a slab `Vec` with an intrusive free list, so steady-state
//! event churn allocates nothing once the peak queue depth has been
//! reached. The previous binary-heap implementation lives on in the
//! dev-only `vidur-oracle` crate — the differential oracle for the pairing
//! heap's ordering and the reference side of the event-loop microbench.

use crate::time::SimTime;
use std::fmt;

const NIL: u32 = u32::MAX;

struct Node<K, E> {
    /// `Some` while the node is live, `None` while parked on the free list.
    slot: Option<(K, E)>,
    /// First child (live) — children form a singly linked sibling list.
    child: u32,
    /// Next sibling (live) or next free node (parked).
    sibling: u32,
}

/// A slab-backed pairing heap keyed on any `Ord` key.
///
/// `push` is `O(1)`: the new node is linked against the root with a single
/// comparison. `pop` performs the classic two-pass pairing of the root's
/// child list (`O(log n)` amortized) using a scratch buffer owned by the
/// heap, so no allocation happens on either path once the slab and scratch
/// have grown to the workload's steady state. Freed slots are recycled
/// through an intrusive free list threaded over the `sibling` links.
///
/// Ties are broken by the key itself — callers that need FIFO ordering at
/// equal times (as [`EventQueue`] does) include an insertion sequence in the
/// key. The merge uses `<=` so equal keys would still favor the
/// earlier-rooted node, but [`EventQueue`] never produces equal keys.
pub struct KeyedPairingHeap<K, E> {
    nodes: Vec<Node<K, E>>,
    root: u32,
    free: u32,
    len: usize,
    /// Reused by `pop` for the first pairing pass.
    scratch: Vec<u32>,
}

impl<K: Ord, E> KeyedPairingHeap<K, E> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        KeyedPairingHeap {
            nodes: Vec::new(),
            root: NIL,
            free: NIL,
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the heap holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrows the minimum key without removing it.
    pub fn peek(&self) -> Option<&K> {
        if self.root == NIL {
            return None;
        }
        self.nodes[self.root as usize].slot.as_ref().map(|(k, _)| k)
    }

    /// Inserts an entry. `O(1)`: one slab write plus one key comparison.
    pub fn push(&mut self, key: K, payload: E) {
        let idx = if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.sibling;
            node.slot = Some((key, payload));
            node.child = NIL;
            node.sibling = NIL;
            idx
        } else {
            assert!(self.nodes.len() < NIL as usize, "event heap slab overflow");
            self.nodes.push(Node {
                slot: Some((key, payload)),
                child: NIL,
                sibling: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        self.root = if self.root == NIL {
            idx
        } else {
            self.merge(self.root, idx)
        };
        self.len += 1;
    }

    /// Removes and returns the minimum entry.
    pub fn pop(&mut self) -> Option<(K, E)> {
        if self.root == NIL {
            return None;
        }
        let popped = self.root;
        let node = &mut self.nodes[popped as usize];
        let (key, payload) = node.slot.take().expect("live root");
        let mut child = node.child;
        // Park the popped node on the free list.
        node.sibling = self.free;
        self.free = popped;

        // Two-pass pairing of the former root's children: merge adjacent
        // pairs left to right, then fold the pairs right to left.
        self.scratch.clear();
        while child != NIL {
            let a = child;
            let a_next = self.nodes[a as usize].sibling;
            if a_next == NIL {
                self.scratch.push(a);
                break;
            }
            let b = a_next;
            child = self.nodes[b as usize].sibling;
            self.nodes[a as usize].sibling = NIL;
            self.nodes[b as usize].sibling = NIL;
            let merged = self.merge(a, b);
            self.scratch.push(merged);
        }
        let mut root = NIL;
        while let Some(sub) = self.scratch.pop() {
            root = if root == NIL {
                sub
            } else {
                self.merge(sub, root)
            };
        }
        self.root = root;
        self.len -= 1;
        Some((key, payload))
    }

    /// Drops all entries and recycles every slot.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.root = NIL;
        self.free = NIL;
        self.len = 0;
    }

    /// Links two heap roots, returning the new root. The loser becomes the
    /// winner's first child. `<=` keeps the earlier-rooted node on top at
    /// equal keys.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        let key_a = self.nodes[a as usize].slot.as_ref().map(|(k, _)| k);
        let key_b = self.nodes[b as usize].slot.as_ref().map(|(k, _)| k);
        debug_assert!(key_a.is_some() && key_b.is_some(), "merge of freed node");
        let (winner, loser) = if key_a <= key_b { (a, b) } else { (b, a) };
        let first = self.nodes[winner as usize].child;
        self.nodes[loser as usize].sibling = first;
        self.nodes[winner as usize].child = loser;
        winner
    }
}

impl<K: Ord, E> Default for KeyedPairingHeap<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, E> fmt::Debug for KeyedPairingHeap<K, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyedPairingHeap")
            .field("len", &self.len)
            .field("slab", &self.nodes.len())
            .finish()
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
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: KeyedPairingHeap<(SimTime, u64), E>,
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
            heap: KeyedPairingHeap::new(),
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

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&(time, _)| time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
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

/// Runs `sim` until the queue drains, `sim.is_done()` reports completion, or
/// `max_events` events have been processed.
///
/// Returns the timestamp of the last processed event (or `SimTime::ZERO` when
/// no event fired) and the number of events processed.
///
/// # Panics
///
/// Panics if a handler scheduled an event earlier than the event being
/// handled (time travel), which would indicate a simulator bug.
pub fn run<S: Simulation>(
    sim: &mut S,
    queue: &mut EventQueue<S::Event>,
    max_events: u64,
) -> (SimTime, u64) {
    let mut now = SimTime::ZERO;
    let mut processed = 0u64;
    while processed < max_events {
        if sim.is_done() {
            break;
        }
        let Some((time, event)) = queue.pop() else {
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
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(3), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn slab_recycles_slots() {
        // Steady-state churn must not grow the slab: pop frees a slot, the
        // next push reuses it.
        let mut q: KeyedPairingHeap<u64, u64> = KeyedPairingHeap::new();
        for i in 0..64 {
            q.push(i, i);
        }
        let slab_high_water = q.nodes.len();
        for i in 64..4096 {
            let (k, v) = q.pop().unwrap();
            assert_eq!(k, v);
            q.push(i, i);
        }
        assert_eq!(q.nodes.len(), slab_high_water);
        assert_eq!(q.len(), 64);
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
        let (end, processed) = run(&mut sim, &mut q, u64::MAX);
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
        let (_, processed) = run(&mut sim, &mut q, 17);
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
        let (_, processed) = run(&mut sim, &mut q, u64::MAX);
        assert_eq!(processed, 3);
    }

    proptest! {
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
