//! The parallel sharded event loop — bit-exact with the sequential engine.
//!
//! # Shard model
//!
//! Replicas in an aggregated cluster interact only through the routing tier
//! and the shared metrics collector; the per-replica simulation (batch
//! formation, pipeline occupancy, wakeups, completions) is self-contained.
//! Replicas are dealt round-robin onto `k` shards (global replica `r` lives
//! on shard `r % k` at local index `r / k`). Each shard owns its replicas, a
//! [`ShardQueue`] and an [`EngineCore`], and logs
//! the metric and tier effects of the events it handles instead of applying
//! them. The merger — the calling thread — owns the tier and the collector.
//!
//! A replica learns of the others only through a routing decision, and
//! routing happens only at arrival instants, which the trace fixes in
//! advance. So between two routed arrivals no shard can affect another, and
//! every shard may simulate up to the next unrouted arrival without guessing
//! anything. This is conservative parallel discrete-event simulation
//! (Chandy–Misra/Bryant; Fujimoto, CACM 1990) with the arrival stream as the
//! only cross-shard channel.
//!
//! # The round loop
//!
//! `run_barriers` keeps one persistent worker per shard for the whole run
//! inside one rayon scope (the merger simulates shard 0 itself, so at
//! most `shards` threads are ever runnable; idle workers park on their
//! channel) and repeats one round until every shard runs dry:
//!
//! 1. **Route.** The merger routes the next arrivals on the live
//!    [`RoutingTier`] and hands each to the shard owning its target replica.
//!    How many depends on the policy:
//!    * *Stateful* policies (least-outstanding, priority-aware, fair-share,
//!      affinity, KV-aware) read the live load view, so each round routes
//!      one arrival instant, on a tier that holds the exact sequential state
//!      there. Same-instant arrivals route together: a handler's children
//!      sort after every same-instant arrival ([`ShardKey::Local`] after
//!      [`ShardKey::Arrival`]), so no event can come between them.
//!    * *Stateless* policies (round-robin, random) are functions of their
//!      own state and never read the live view, so routing them early draws
//!      the decision (and RNG) sequence the interleaved run would. They
//!      *route ahead*: up to `ROUTE_AHEAD` arrivals per round, which keeps
//!      rounds few while bounding the logs a round holds.
//! 2. **Advance.** Every shard with work before the *barrier* — the
//!    `(time, ShardKey::Arrival)` of the next unrouted arrival, or none in
//!    the last round — simulates up to it, exclusive. A shard whose queue
//!    head is already past the barrier is not woken.
//! 3. **Merge.** The merger walks the round's logs once in exact global
//!    `(time, seq)` order and replays every effect into the tier and the
//!    collector. The tier then holds exactly the sequential state at the
//!    barrier, so the next stateful route *is* the sequential decision.
//!
//! Nothing is guessed, so nothing is checkpointed, cloned, or rolled back.
//! The cost is one synchronization per round.
//!
//! # Determinism argument
//!
//! The sequential engine's event order is exactly `(time, seq)`: arrivals
//! precede every same-instant queued event, in trace order, and queued
//! events follow their global insertion counter. Its report is a fold of
//! metric effects in that order. The sharded run reproduces that fold bit
//! for bit:
//!
//! * Each arrival's global `seq` is its trace index, and every dynamic
//!   event's exceeds them all. Within a shard, events are ordered by
//!   `(time, arrival-seq | local push counter)`, which equals the
//!   sequential order restricted to the shard (see [`vidur_core::shard`]).
//! * The barrier cut is exact: at the barrier's instant every local event
//!   sorts after the arrival, and dynamic global seqs exceed every arrival
//!   seq, so "before the barrier in shard order" equals "before it in global
//!   order". The trace's arrivals are non-decreasing (checked when the
//!   simulator is built), so the barriers advance in trace-index order.
//! * At merge time a [`ShardStamper`] per shard, persisting across rounds,
//!   re-derives true global seqs: a committed handler's children claim the
//!   next counter values in push order. The merger commits the lowest
//!   `(time, seq)` head next, replaying each entry's effects through the
//!   *same* collector and tier methods the sequential engine calls, in the
//!   same order — f64 accumulation order, quantile streams, and per-tenant
//!   bookkeeping included.
//!
//! So the collector sees the call sequence of a sequential run in every
//! [`QuantileMode`](vidur_core::metrics::QuantileMode); in particular a
//! mergeable report is byte-identical for every shard count.
//!
//! The stop conditions fold in too: arrivals past the deadline are never
//! routed, shards stop at the deadline (the sequential run processes every
//! event at `time <= deadline` and drops exactly one later event without
//! effects), and events after global completion are provably effect-free
//! wakeups (no batch can be in flight once every request finished), so
//! draining them is a no-op.
//!
//! Deferred binds are the one thing barriers cannot honor: a deferral parks
//! the request centrally and binds it on a *later* event, possibly on
//! another shard. If a route call defers, the sharded attempt aborts and the
//! caller rebuilds and re-runs sequentially, reporting why in
//! [`RunStats::fallback_reason`](crate::cluster::RunStats).
//!
//! # Fast path and fallback
//!
//! `shards > 1` opts in; the sharded engine runs when the configuration is
//! on its fast path — see `block_reason`: runtimes must be jitter-free
//! (the oracle draws CPU-overhead noise from one engine-wide RNG in launch
//! order, which is inherently serial), late-abort must be off (its stop
//! condition depends on the merged metrics mid-run), the fleet must be
//! fixed (elastic events are globally ordered), the prefix cache must be off
//! (hit publication is cross-replica), and the policy must not be the
//! deferred one. Every other policy runs the one round loop above; only the
//! number of arrivals routed per round differs. Everything else uses the sequential engine, which
//! stays the differential oracle: `tests/engine_regression.rs` pins that
//! every scenario reports identically with shards on and off, and that
//! mergeable-mode reports are invariant across shard counts.

use crate::cluster::{batch_bytes, ClusterSimulator, RunStats, SimEvent};
use crate::config::ClusterConfig;
use crate::engine::{EngineCore, EngineReplica, EngineSink, MAX_EVENTS};
use crate::metrics::MetricsCollector;
use std::collections::VecDeque;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use vidur_core::shard::{ShardKey, ShardQueue, ShardStamper};
use vidur_core::time::SimTime;
use vidur_model::batch::BatchComposition;
use vidur_model::shape::PlanTiming;
use vidur_scheduler::replica::CompletionEvent;
use vidur_scheduler::{GlobalPolicyKind, Request, RouteRequest, RoutingTier};
use vidur_workload::Trace;

/// Arrivals a stateless policy routes per round. On the
/// `multi_tenant_replay` trace at 2 shards (2-vCPU host), 64, 256, 1024,
/// and one round over the whole trace measure within noise of each other;
/// a bound keeps a round's logs small without adding much synchronization.
const ROUTE_AHEAD: usize = 256;
/// Abort reason when a stateful policy defers: deferred binds happen on
/// later events and may cross shards, which no shard-local replay can honor.
const DEFER_ABORT: &str = "stateful policy deferred a request mid-run";

/// One measured effect, mirroring a [`MetricsCollector`] (or tier) call the
/// sequential engine would have made. Replayed at commit time in exact
/// sequential order.
enum Effect {
    /// `metrics.on_arrival` for a trace request.
    Arrival {
        id: u64,
        decode_tokens: u64,
        tenant: u32,
    },
    /// `metrics.on_op_secs` from a batch's cached plan timing.
    OpSecs {
        replica: u32,
        timing: Arc<PlanTiming>,
    },
    /// `metrics.on_gpu_busy`.
    GpuBusy { replica: u32, gpu_secs: f64 },
    /// `metrics.on_batch_work` + `mark_first_scheduled` for the next
    /// `first_n` ids in the log's id stream.
    BatchWork {
        tokens: u64,
        requests: u64,
        flops: f64,
        bytes: f64,
        first_n: u32,
    },
    /// `metrics.on_kv_sample` for a replica.
    KvSample { replica: u32, utilization: f64 },
    /// `tier.on_finished` per finished event + `metrics.on_batch_complete`
    /// over the next `n_events` events in the log's event stream.
    Retire { replica: u32, n_events: u32 },
    /// `tier.set_free_kv_blocks` after a retire.
    FreeKv { replica: u32, free_blocks: u64 },
}

/// One handled event in a shard's log: when it fired, its shard key (for
/// global-seq reconstruction), how many follow-up events its handler pushed,
/// and how many effects it logged.
#[derive(Clone, Copy)]
struct EntryRec {
    time: SimTime,
    key: ShardKey,
    n_children: u32,
    n_effects: u32,
}

/// One shard's effect log for a round: the handled entries with their
/// flattened effect/event/id streams. An [`EngineSink`] that appends
/// effects instead of touching the collector; cleared after every merge,
/// so steady-state logging does not allocate.
#[derive(Default)]
struct EffectLog {
    entries: Vec<EntryRec>,
    effects: Vec<Effect>,
    events: Vec<CompletionEvent>,
    ids: Vec<u64>,
}

impl EffectLog {
    fn reset(&mut self) {
        self.entries.clear();
        self.effects.clear();
        self.events.clear();
        self.ids.clear();
    }
}

impl EngineSink for EffectLog {
    fn on_batch_timed(&mut self, replica: usize, timing: &Arc<PlanTiming>) {
        self.effects.push(Effect::OpSecs {
            replica: replica as u32,
            timing: Arc::clone(timing),
        });
    }
    fn on_gpu_busy(&mut self, replica: usize, gpu_secs: f64) {
        self.effects.push(Effect::GpuBusy {
            replica: replica as u32,
            gpu_secs,
        });
    }
    fn on_batch_scheduled(
        &mut self,
        _replica: usize,
        _now: SimTime,
        batch: &BatchComposition,
        flops: f64,
        bytes: f64,
    ) {
        let mut first_n = 0u32;
        for slice in batch.slices() {
            // Same fast-path filter as `MetricsCollector::on_batch_scheduled`;
            // the record-based single authority still decides at replay time.
            if slice.is_prefill && slice.cached_tokens == 0 {
                self.ids.push(slice.request_id);
                first_n += 1;
            }
        }
        self.effects.push(Effect::BatchWork {
            tokens: batch.total_query_tokens(),
            requests: batch.num_requests() as u64,
            flops,
            bytes,
            first_n,
        });
    }
    fn on_kv_sample(&mut self, replica: usize, _now: SimTime, utilization: f64) {
        self.effects.push(Effect::KvSample {
            replica: replica as u32,
            utilization,
        });
    }
    fn on_batch_complete(&mut self, replica: usize, _now: SimTime, events: &[CompletionEvent]) {
        self.events.extend_from_slice(events);
        self.effects.push(Effect::Retire {
            replica: replica as u32,
            n_events: events.len() as u32,
        });
    }
}

/// Why `config` cannot run sharded, or `None` when it is on the fast path.
/// (Assumes the caller already clamped and checked `shards > 1`.) The
/// reason surfaces verbatim in
/// [`RunStats::fallback_reason`](crate::cluster::RunStats).
pub(crate) fn block_reason(config: &ClusterConfig, jitters: bool) -> Option<&'static str> {
    if jitters {
        return Some("jittered runtimes draw from one engine-wide rng stream");
    }
    if config.late_abort.is_some() {
        return Some("late-abort guardrail is armed");
    }
    if config.elastic() {
        return Some("elastic fleet (faults or autoscaler) is armed");
    }
    if config.prefix_cache.is_some() {
        return Some("prefix cache is armed");
    }
    if matches!(config.global_policy, GlobalPolicyKind::Deferred { .. }) {
        return Some("deferred policy holds requests centrally");
    }
    None
}

/// Routes trace request `idx` on the live `tier`. Errs when the policy
/// defers (see [`DEFER_ABORT`]).
fn route(tier: &mut RoutingTier, trace: &Trace, idx: u32) -> Result<usize, &'static str> {
    let tr = trace.requests[idx as usize];
    tier.route(RouteRequest {
        key: idx as u64,
        tenant: tr.tenant,
        priority: tr.priority,
        tokens: tr.prefill_tokens + tr.decode_tokens,
    })
    .ok_or(DEFER_ABORT)
}

/// Runs `sim`'s event loop sharded `num_shards` ways. On `Ok` the metrics
/// collector, tier, and replicas are in the exact state a sequential
/// `engine::drive` run would have left them in, in every quantile mode,
/// with the run's [`RunStats`]. On `Err` a stateful policy deferred a
/// request mid-run: the simulator is torn (the caller rebuilds from its
/// construction seed and re-runs sequentially) and the reason belongs in
/// [`RunStats::fallback_reason`].
pub(crate) fn run_sharded(
    sim: &mut ClusterSimulator,
    num_shards: usize,
) -> Result<RunStats, &'static str> {
    let ClusterSimulator {
        ref config,
        ref trace,
        ref mut engine,
        ref mut replicas,
        ref mut tier,
        // Elastic runs never reach the sharded path (`block_reason` rejects
        // them), so the elastic state stays untouched here.
        elastic: _,
        prefix_hits: _,
        seed,
    } = *sim;

    let timer = engine.timer().clone();
    let mut shards: Vec<BarrierShard> = (0..num_shards)
        .map(|_| BarrierShard {
            num_shards,
            core: EngineCore::with_timer(config, timer.clone(), seed),
            replicas: Vec::new(),
            queue: ShardQueue::new(),
            targets: VecDeque::new(),
            processed: 0,
        })
        .collect();
    for (r, replica) in std::mem::take(replicas).into_iter().enumerate() {
        shards[r % num_shards].replicas.push(replica);
    }
    let stats = run_barriers(config, trace, &mut engine.metrics, tier, &mut shards)?;
    // Put the replicas back in global order (global replica `r` was dealt
    // to shard `r % k` at local index `r / k`).
    let mut slots: Vec<Option<EngineReplica>> = (0..config.num_replicas).map(|_| None).collect();
    for (s, shard) in shards.into_iter().enumerate() {
        for (local, replica) in shard.replicas.into_iter().enumerate() {
            slots[s + local * num_shards] = Some(replica);
        }
    }
    *replicas = slots
        .into_iter()
        .map(|r| r.expect("every replica returned"))
        .collect();
    Ok(stats)
}

/// Read cursor over one [`EffectLog`]: the next entry and the offsets into
/// the log's flattened effect/event/id streams.
#[derive(Default)]
struct LogCursor {
    entry: usize,
    effect: usize,
    event: usize,
    id: usize,
    /// Resolved `(time, global_seq)` of the next uncommitted entry.
    head: Option<(SimTime, u64)>,
}

impl LogCursor {
    /// Resolves the next entry of `log` into [`LogCursor::head`], if the
    /// log has one left. Returns the head.
    fn resolve(&mut self, log: &EffectLog, stamper: &mut ShardStamper) -> Option<(SimTime, u64)> {
        if self.head.is_none() && self.entry < log.entries.len() {
            let e = log.entries[self.entry];
            self.head = Some((e.time, stamper.resolve(e.key)));
        }
        self.head
    }
}

/// Commits the entry at `cur`'s resolved head: claims its children's global
/// seqs and replays its effects into the collector/tier, in logged (=
/// sequential call) order. Returns the number of effects replayed.
fn commit(
    log: &EffectLog,
    cur: &mut LogCursor,
    stamper: &mut ShardStamper,
    metrics: &mut MetricsCollector,
    tier: &mut RoutingTier,
    trace: &Trace,
    counter: &mut u64,
) -> u64 {
    let (time, _seq) = cur.head.take().expect("commit needs a head");
    let entry = log.entries[cur.entry];
    cur.entry += 1;
    stamper.claim_children(entry.n_children as u64, counter);
    for effect in &log.effects[cur.effect..cur.effect + entry.n_effects as usize] {
        match effect {
            Effect::Arrival {
                id,
                decode_tokens,
                tenant,
            } => metrics.on_arrival(*id, time, *decode_tokens, *tenant),
            Effect::OpSecs { replica, timing } => {
                metrics.on_op_secs(*replica as usize, timing.op_secs())
            }
            Effect::GpuBusy { replica, gpu_secs } => {
                metrics.on_gpu_busy(*replica as usize, *gpu_secs)
            }
            Effect::BatchWork {
                tokens,
                requests,
                flops,
                bytes,
                first_n,
            } => {
                metrics.on_batch_work(*tokens, *requests, *flops, *bytes);
                for &id in &log.ids[cur.id..cur.id + *first_n as usize] {
                    metrics.mark_first_scheduled(id, time);
                }
                cur.id += *first_n as usize;
            }
            Effect::KvSample {
                replica,
                utilization,
            } => metrics.on_kv_sample(*replica as usize, time, *utilization),
            Effect::Retire { replica, n_events } => {
                let events = &log.events[cur.event..cur.event + *n_events as usize];
                for ev in events {
                    if ev.finished {
                        let tr = trace.requests[ev.id as usize];
                        tier.on_finished(
                            *replica as usize,
                            tr.tenant,
                            tr.prefill_tokens + tr.decode_tokens,
                        );
                    }
                }
                metrics.on_batch_complete(*replica as usize, time, events);
                cur.event += *n_events as usize;
            }
            Effect::FreeKv {
                replica,
                free_blocks,
            } => tier.set_free_kv_blocks(*replica as usize, *free_blocks),
        }
    }
    cur.effect += entry.n_effects as usize;
    entry.n_effects as u64
}

/// One shard of the arrival-barrier runner. Its state lives for the whole
/// run; each round it admits its newly routed arrivals and simulates up to
/// the round's barrier.
struct BarrierShard {
    num_shards: usize,
    core: EngineCore,
    replicas: Vec<EngineReplica>,
    queue: ShardQueue<SimEvent>,
    /// Arrivals admitted here but not yet handled, as `(trace idx, global
    /// replica)` in admission order. Routing runs in trace-index order and
    /// the queue pops arrivals in that order too, so the arrival handler
    /// always takes the front entry.
    targets: VecDeque<(u32, u32)>,
    /// Events handled so far (the [`MAX_EVENTS`] backstop is per shard).
    processed: u64,
}

/// One round's hand-off between the merger and a shard. The same `Round`
/// shuttles back and forth all run, so its buffers are reused.
#[derive(Default)]
struct Round {
    /// Arrivals routed to the shard this round: `(trace idx, replica)`.
    admit: Vec<(u32, u32)>,
    /// The round's exclusive end: the next unrouted arrival's key, or
    /// `None` to run the shard dry.
    barrier: Option<(SimTime, ShardKey)>,
    /// The round's effect log.
    log: EffectLog,
    /// The shard's queue head once the round ended.
    head: Option<(SimTime, ShardKey)>,
}

impl Round {
    /// Does the shard have anything to do before `barrier`? A shard whose
    /// head is past the barrier (or the deadline) stays parked.
    fn has_work(&self, barrier: Option<(SimTime, ShardKey)>, deadline: Option<SimTime>) -> bool {
        !self.admit.is_empty()
            || self
                .head
                .is_some_and(|h| barrier.is_none_or(|b| h < b) && deadline.is_none_or(|d| h.0 <= d))
    }
}

impl BarrierShard {
    /// Admits `round.admit` and handles every event before `round.barrier`,
    /// logging into `round.log`.
    fn advance(
        &mut self,
        config: &ClusterConfig,
        trace: &Trace,
        deadline: Option<SimTime>,
        round: &mut Round,
    ) {
        for (idx, target) in round.admit.drain(..) {
            self.targets.push_back((idx, target));
            self.queue.push_arrival(
                trace.requests[idx as usize].arrival,
                idx as u64,
                SimEvent::Arrival(idx),
            );
        }
        while let Some(head) = self.queue.peek() {
            // Pops are time-nondecreasing, so a past-deadline head means
            // everything left is past it too; it stays queued, unpopped —
            // the same effect-free drop the sequential engine performs.
            if round.barrier.is_some_and(|b| head >= b)
                || deadline.is_some_and(|d| head.0 > d)
                || self.processed >= MAX_EVENTS
            {
                break;
            }
            let (time, key, event) = self.queue.pop().expect("peeked head");
            let log = &mut round.log;
            let effects_before = log.effects.len();
            let pushes_before = self.queue.local_pushes();
            self.handle(config, trace, time, event, log);
            log.entries.push(EntryRec {
                time,
                key,
                n_children: (self.queue.local_pushes() - pushes_before) as u32,
                n_effects: (log.effects.len() - effects_before) as u32,
            });
            self.processed += 1;
        }
        round.head = self.queue.peek();
    }

    /// Handles one shard-local event, logging its effects into `log`.
    fn handle(
        &mut self,
        config: &ClusterConfig,
        trace: &Trace,
        now: SimTime,
        event: SimEvent,
        log: &mut EffectLog,
    ) {
        match event {
            SimEvent::Arrival(idx) => {
                let tr = trace.requests[idx as usize];
                log.effects.push(Effect::Arrival {
                    id: idx.into(),
                    decode_tokens: tr.decode_tokens,
                    tenant: tr.tenant,
                });
                let (admitted, target) = self.targets.pop_front().expect("admitted arrival");
                debug_assert_eq!(admitted, idx, "arrivals pop in admission order");
                self.replicas[target as usize / self.num_shards]
                    .scheduler
                    .add_request(
                        Request::new(idx.into(), tr.arrival, tr.prefill_tokens, tr.decode_tokens)
                            .with_tenant(tr.tenant)
                            .with_priority(tr.priority),
                    );
                self.try_schedule(config, target, now, log);
            }
            SimEvent::Wakeup(replica) => {
                self.replicas[replica as usize / self.num_shards].clear_wakeup();
                self.try_schedule(config, replica, now, log);
            }
            // Sharded runs never crash a replica, so every epoch is current.
            SimEvent::BatchComplete(replica, _epoch) => {
                let local = replica as usize / self.num_shards;
                // The tier's `on_finished` is deferred to commit time (the
                // tier is shared); the translate hook is therefore empty.
                self.core.retire_batch(
                    &mut self.replicas[local],
                    now,
                    &mut self.queue,
                    log,
                    |_ev, _queue| {},
                );
                log.effects.push(Effect::FreeKv {
                    replica,
                    free_blocks: self.replicas[local].scheduler.blocks().free_blocks(),
                });
                self.try_schedule(config, replica, now, log);
            }
            SimEvent::Fault(_) | SimEvent::AutoscaleTick | SimEvent::WarmupDone(..) => {
                unreachable!("elastic runs are rejected by the fast-path eligibility check")
            }
        }
    }

    fn try_schedule(
        &mut self,
        config: &ClusterConfig,
        replica: u32,
        now: SimTime,
        log: &mut EffectLog,
    ) {
        self.core.try_schedule(
            &mut self.replicas[replica as usize / self.num_shards],
            now,
            &mut self.queue,
            log,
            |batch| batch_bytes(config, batch),
            || SimEvent::Wakeup(replica),
            |epoch| SimEvent::BatchComplete(replica, epoch),
        );
    }
}

/// Drives the round loop (see the module doc) to completion over `shards`
/// (replicas already dealt). On `Ok` the collector and tier hold the exact
/// sequential-run state; on `Err` the policy deferred and the caller falls
/// back (the simulator is torn).
fn run_barriers(
    config: &ClusterConfig,
    trace: &Trace,
    metrics: &mut MetricsCollector,
    tier: &mut RoutingTier,
    shards: &mut [BarrierShard],
) -> Result<RunStats, &'static str> {
    let num_shards = shards.len();
    let deadline = config.max_sim_time;
    // The trace is checked non-decreasing at construction, so trace-index
    // order is the sequential arrival order.
    let requests = &trace.requests;
    // The sequential engine stops before popping any past-deadline event,
    // so arrivals past the deadline are never routed.
    let routable = deadline.map_or(requests.len(), |d| {
        requests.partition_point(|req| req.arrival <= d)
    });
    // Stateless policies never read the live view (see the module doc).
    let route_ahead = matches!(
        config.global_policy,
        GlobalPolicyKind::RoundRobin | GlobalPolicyKind::Random
    );
    let mut stats = RunStats {
        shards: num_shards,
        ..RunStats::default()
    };
    let mut rounds: Vec<Round> = (0..num_shards).map(|_| Round::default()).collect();
    let mut cursors: Vec<LogCursor> = (0..num_shards).map(|_| LogCursor::default()).collect();
    let mut stampers: Vec<ShardStamper> = (0..num_shards).map(|_| ShardStamper::new()).collect();
    let mut counter = trace.requests.len() as u64;
    let (local, remote) = shards.split_at_mut(1);
    let local = &mut local[0];

    rayon::scope(|scope| {
        // Persistent workers for shards 1..k, parked on their channel
        // between rounds; shard 0 runs on this thread.
        let mut links = Vec::with_capacity(remote.len());
        for shard in remote.iter_mut() {
            let (to_shard, from_merger) = sync_channel::<Round>(1);
            let (to_merger, from_shard) = sync_channel::<Round>(1);
            scope.spawn(move || {
                while let Ok(mut round) = from_merger.recv() {
                    shard.advance(config, trace, deadline, &mut round);
                    if to_merger.send(round).is_err() {
                        break;
                    }
                }
            });
            links.push((to_shard, from_shard));
        }

        let mut in_flight = vec![false; links.len()];
        let mut next = 0;
        loop {
            // Route this round's arrivals on the live tier, which now holds
            // the exact sequential state at `arrival(next)`: a stateful
            // policy routes that one instant, a stateless one routes ahead.
            let end = if route_ahead {
                routable.min(next + ROUTE_AHEAD)
            } else if next < routable {
                let instant = requests[next].arrival;
                next + requests[next..routable].partition_point(|req| req.arrival == instant)
            } else {
                next
            };
            for idx in next..end {
                let target = route(tier, trace, idx as u32)?;
                rounds[target % num_shards]
                    .admit
                    .push((idx as u32, target as u32));
            }
            next = end;
            let barrier =
                (next < routable).then(|| (requests[next].arrival, ShardKey::Arrival(next as u64)));

            // Advance every shard with work before the barrier: wake the
            // workers first, then run shard 0 here while they simulate.
            for (s, (to_shard, _)) in links.iter().enumerate() {
                let round = &mut rounds[s + 1];
                in_flight[s] = round.has_work(barrier, deadline);
                if in_flight[s] {
                    round.barrier = barrier;
                    to_shard
                        .send(std::mem::take(round))
                        .expect("barrier shard worker exited");
                }
            }
            if rounds[0].has_work(barrier, deadline) {
                rounds[0].barrier = barrier;
                local.advance(config, trace, deadline, &mut rounds[0]);
            }
            for (s, (_, from_shard)) in links.iter().enumerate() {
                if in_flight[s] {
                    rounds[s + 1] = from_shard.recv().expect("barrier shard worker exited");
                }
            }
            stats.spec_windows += 1;

            // Merge the round's logs in exact global order.
            for cur in &mut cursors {
                *cur = LogCursor::default();
            }
            loop {
                let mut best: Option<(usize, (SimTime, u64))> = None;
                for (s, round) in rounds.iter().enumerate() {
                    if let Some(head) = cursors[s].resolve(&round.log, &mut stampers[s]) {
                        if best.is_none_or(|(_, b)| head < b) {
                            best = Some((s, head));
                        }
                    }
                }
                let Some((s, _)) = best else {
                    break;
                };
                stats.streamed_effects += commit(
                    &rounds[s].log,
                    &mut cursors[s],
                    &mut stampers[s],
                    metrics,
                    tier,
                    trace,
                    &mut counter,
                );
            }
            for round in &mut rounds {
                round.log.reset();
            }
            if barrier.is_none() {
                return Ok(stats);
            }
        }
    })
}
