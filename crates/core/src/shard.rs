//! Shard-local event queues with a deterministic global merge order.
//!
//! The sharded simulator gives each shard (a subset of replicas) its own
//! event queue and lets it run its whole simulation independently; the
//! per-event effect logs are then committed in a single global order that is
//! bit-identical to what the sequential [`EventQueue`](crate::event::EventQueue)
//! would have produced. That works because the sequential queue's order is
//! fully determined by `(time, seq)` where `seq` is the global insertion
//! counter, and the sharded run can reconstruct every event's global `seq`
//! after the fact:
//!
//! * **Arrivals** precede every same-instant queued event, in trace order
//!   (the sequential driver merges them from a cursor over the trace) — so
//!   arrival `i` sorts as if its global seq were simply `i`, and every
//!   dynamic event as if its seq were `>= N` (the arrival count). Arrivals
//!   carry that global seq directly ([`ShardQueue::push_arrival`]).
//! * **Dynamic events** (wakeups, completions) get a per-shard local counter
//!   ([`ShardQueue::push`]). Within one shard the local-counter order equals
//!   the global-seq order restricted to that shard: a shard handles its
//!   events in the same relative order the sequential engine would (by
//!   induction over the merged order), and pushes within one handler receive
//!   consecutive global seqs in call order. So `(time, Arrival(i) <
//!   Local(j))` sorts the shard's queue exactly as the sequential queue
//!   sorts that shard's events.
//! * At merge time, [`ShardStamper`] re-derives the actual global seq: when
//!   an entry is committed, its children claim the next global counter
//!   values in push order. A child can only become its shard's head after
//!   its parent committed (the parent precedes it in shard order), so the
//!   stamp is always present when the merge needs to compare heads.
//!
//! The merge itself is then trivial: repeatedly commit the shard head with
//! the lowest `(time, global_seq)`.

use crate::event::{EventPush, KeyedHeap};
use crate::time::SimTime;
use std::collections::HashMap;
use std::fmt;

/// Tie-break key for shard-local ordering at equal timestamps.
///
/// `Arrival` carries the event's *global* sequence number (its trace index);
/// `Local` carries a per-shard push counter. The derived `Ord` puts every
/// `Arrival` before every `Local`, which matches the sequential engine:
/// arrivals precede every same-instant queued event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShardKey {
    /// Routed arrival with its global sequence number (its trace index).
    Arrival(u64),
    /// Dynamic event with its shard-local push counter.
    Local(u64),
}

/// A shard-local event queue ordered by `(time, ShardKey)`, on the same
/// keyed binary heap as the sequential queue.
pub struct ShardQueue<E> {
    heap: KeyedHeap<(SimTime, ShardKey), E>,
    local_pushes: u64,
}

impl<E> Default for ShardQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for ShardQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardQueue")
            .field("len", &self.heap.len())
            .field("local_pushes", &self.local_pushes)
            .finish()
    }
}

impl<E> ShardQueue<E> {
    /// Creates an empty shard queue.
    pub fn new() -> Self {
        ShardQueue {
            heap: KeyedHeap::new(),
            local_pushes: 0,
        }
    }

    /// Pushes a routed arrival carrying its global sequence number (= its
    /// trace index). The shard must not have popped anything ordered after
    /// the arrival yet: the barrier runner pushes each one while its shard
    /// waits at that arrival's barrier.
    pub fn push_arrival(&mut self, time: SimTime, global_seq: u64, payload: E) {
        self.heap
            .push((time, ShardKey::Arrival(global_seq)), payload);
    }

    /// Pushes a dynamic event, assigning the next shard-local id.
    pub fn push(&mut self, time: SimTime, payload: E) {
        self.heap
            .push((time, ShardKey::Local(self.local_pushes)), payload);
        self.local_pushes += 1;
    }

    /// Removes the earliest event together with its shard key.
    pub fn pop(&mut self) -> Option<(SimTime, ShardKey, E)> {
        let ((time, key), payload) = self.heap.pop()?;
        Some((time, key, payload))
    }

    /// Borrows the `(time, key)` of the earliest pending event without
    /// removing it. The barrier runner uses this to stop a shard exactly at
    /// the next arrival barrier.
    pub fn peek(&self) -> Option<(SimTime, ShardKey)> {
        self.heap.peek().copied()
    }

    /// Total number of dynamic pushes so far; the delta across a handler
    /// gives the handler's child count for the merge log.
    pub fn local_pushes(&self) -> u64 {
        self.local_pushes
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

impl<E> EventPush<E> for ShardQueue<E> {
    fn push(&mut self, time: SimTime, payload: E) {
        ShardQueue::push(self, time, payload)
    }
}

/// Reconstructs global sequence numbers for one shard's event stream during
/// the merge.
///
/// The merge drives one stamper per shard: [`resolve`](Self::resolve) turns
/// the shard key of the stream head into the global seq used for cross-shard
/// comparison, and [`claim_children`](Self::claim_children) assigns the next
/// global counter values to the events a committed handler pushed. The stamp
/// table only holds stamps for pushed-but-not-yet-popped dynamic events, so
/// its size is bounded by the shard's queue depth, not by the run length.
#[derive(Debug, Default)]
pub struct ShardStamper {
    stamps: HashMap<u64, u64>,
    next_child: u64,
}

impl ShardStamper {
    /// Creates a stamper with no pending stamps.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the global sequence number for a stream-head key, consuming
    /// the stamp for dynamic events.
    ///
    /// # Panics
    ///
    /// Panics if a dynamic event's parent has not been committed yet — that
    /// would mean the per-shard stream is out of order (a simulator bug).
    pub fn resolve(&mut self, key: ShardKey) -> u64 {
        match key {
            ShardKey::Arrival(seq) => seq,
            ShardKey::Local(pid) => self
                .stamps
                .remove(&pid)
                .expect("shard stream head popped before its parent committed"),
        }
    }

    /// Stamps the `n` children pushed by the handler just committed, drawing
    /// their global seqs from `counter` in push order.
    pub fn claim_children(&mut self, n: u64, counter: &mut u64) {
        for _ in 0..n {
            self.stamps.insert(self.next_child, *counter);
            self.next_child += 1;
            *counter += 1;
        }
    }

    /// Number of outstanding stamps (pushed but not yet resolved).
    pub fn pending(&self) -> usize {
        self.stamps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{run, EventQueue, Simulation};
    use proptest::prelude::*;

    /// Deterministic toy handler: how many children does event `id` at
    /// depth `d` spawn, and with what delays? Zero delays are common so
    /// equal-timestamp ties pile up across shards — exactly the hazard the
    /// merge must get right.
    fn spawn_plan(id: u64, depth: u32) -> Vec<u64> {
        if depth >= 3 {
            return Vec::new();
        }
        let n = ((id ^ (depth as u64)) % 3) as usize;
        (0..n as u64)
            .map(|j| (id.wrapping_mul(31) + j) % 3)
            .collect()
    }

    fn child_id(id: u64, j: u64) -> u64 {
        id.wrapping_mul(1_000_003).wrapping_add(j + 1)
    }

    /// Sequential oracle: one global queue driven by [`run`], with the
    /// arrivals (sorted by time, index order among ties) read from a cursor.
    fn run_sequential(arrivals: &[(u64, usize)]) -> Vec<(SimTime, u64)> {
        struct Log(Vec<(SimTime, u64)>);
        impl Simulation for Log {
            type Event = (u64, u32);
            fn handle(
                &mut self,
                time: SimTime,
                (id, depth): (u64, u32),
                q: &mut EventQueue<(u64, u32)>,
            ) {
                self.0.push((time, id));
                for (j, delay) in spawn_plan(id, depth).into_iter().enumerate() {
                    q.push(
                        time + crate::time::SimDuration::from_nanos(delay),
                        (child_id(id, j as u64), depth + 1),
                    );
                }
            }
        }
        let mut sorted: Vec<(SimTime, (u64, u32))> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &(t, _shard))| (SimTime::from_nanos(t), (i as u64, 0u32)))
            .collect();
        sorted.sort_by_key(|&(t, _)| t);
        let mut log = Log(Vec::new());
        run(
            &mut log,
            &mut EventQueue::new(),
            &mut sorted.into_iter().peekable(),
            u64::MAX,
        );
        log.0
    }

    /// Sharded run: each shard runs its whole stream independently and logs
    /// `(time, key, id, n_children)`; the logs are then merged by
    /// `(time, global_seq)` via `ShardStamper`.
    fn run_sharded(arrivals: &[(u64, usize)], num_shards: usize) -> Vec<(SimTime, u64)> {
        let mut logs: Vec<Vec<(SimTime, ShardKey, u64, u64)>> = vec![Vec::new(); num_shards];
        for (s, log) in logs.iter_mut().enumerate() {
            let mut q: ShardQueue<(u64, u32)> = ShardQueue::new();
            for (i, &(t, shard)) in arrivals.iter().enumerate() {
                if shard == s {
                    q.push_arrival(SimTime::from_nanos(t), i as u64, (i as u64, 0u32));
                }
            }
            while let Some((time, key, (id, depth))) = q.pop() {
                let before = q.local_pushes();
                for (j, delay) in spawn_plan(id, depth).into_iter().enumerate() {
                    q.push(
                        time + crate::time::SimDuration::from_nanos(delay),
                        (child_id(id, j as u64), depth + 1),
                    );
                }
                log.push((time, key, id, q.local_pushes() - before));
            }
        }

        // Merge: commit the lowest (time, global_seq) head until all logs
        // drain, stamping children as their parents commit.
        let mut stampers: Vec<ShardStamper> =
            (0..num_shards).map(|_| ShardStamper::new()).collect();
        let mut cursors = vec![0usize; num_shards];
        let mut heads: Vec<Option<(SimTime, u64)>> = vec![None; num_shards];
        let mut counter = arrivals.len() as u64;
        let mut order = Vec::new();
        loop {
            for s in 0..num_shards {
                if heads[s].is_none() && cursors[s] < logs[s].len() {
                    let (time, key, _, _) = logs[s][cursors[s]];
                    heads[s] = Some((time, stampers[s].resolve(key)));
                }
            }
            let Some(best) = (0..num_shards)
                .filter(|&s| heads[s].is_some())
                .min_by_key(|&s| heads[s].unwrap())
            else {
                break;
            };
            let (time, _seq) = heads[best].take().unwrap();
            let (_, _, id, children) = logs[best][cursors[best]];
            cursors[best] += 1;
            stampers[best].claim_children(children, &mut counter);
            order.push((time, id));
        }
        for s in &stampers {
            assert_eq!(s.pending(), 0, "all stamps consumed");
        }
        order
    }

    #[test]
    fn arrival_sorts_before_local_at_equal_time() {
        let mut q: ShardQueue<&str> = ShardQueue::new();
        let t = SimTime::from_nanos(5);
        q.push(t, "local-0");
        q.push_arrival(t, 999, "arrival");
        q.push(t, "local-1");
        assert_eq!(q.pop().unwrap().2, "arrival");
        assert_eq!(q.pop().unwrap().2, "local-0");
        assert_eq!(q.pop().unwrap().2, "local-1");
    }

    #[test]
    fn stamper_resolves_in_push_order() {
        let mut s = ShardStamper::new();
        let mut counter = 10u64;
        s.claim_children(2, &mut counter);
        assert_eq!(counter, 12);
        assert_eq!(s.resolve(ShardKey::Local(0)), 10);
        assert_eq!(s.resolve(ShardKey::Local(1)), 11);
        assert_eq!(s.resolve(ShardKey::Arrival(3)), 3);
        assert_eq!(s.pending(), 0);
    }

    proptest! {
        /// Satellite: flood the queues with equal-timestamp events spread
        /// across shards and assert the merged pop order matches the
        /// sequential queue exactly — times drawn from 0..4 ns so nearly
        /// everything ties, and handlers spawn zero-delay children that tie
        /// with their parents and with other shards' arrivals.
        #[test]
        fn merged_order_matches_sequential(
            arrivals in proptest::collection::vec((0u64..4, 0usize..5), 1..120),
            num_shards in 1usize..5,
        ) {
            let arrivals: Vec<(u64, usize)> = arrivals
                .into_iter()
                .map(|(t, s)| (t, s % num_shards))
                .collect();
            let sequential = run_sequential(&arrivals);
            let sharded = run_sharded(&arrivals, num_shards);
            prop_assert_eq!(sharded, sequential);
        }

        /// Same property with spread-out timestamps: the merge must also be
        /// exact when shards genuinely interleave in time.
        #[test]
        fn merged_order_matches_sequential_spread(
            arrivals in proptest::collection::vec((0u64..1_000, 0usize..4), 1..80),
            num_shards in 1usize..5,
        ) {
            let arrivals: Vec<(u64, usize)> = arrivals
                .into_iter()
                .map(|(t, s)| (t, s % num_shards))
                .collect();
            let sequential = run_sequential(&arrivals);
            let sharded = run_sharded(&arrivals, num_shards);
            prop_assert_eq!(sharded, sequential);
        }
    }
}
