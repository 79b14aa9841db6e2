//! The parallel sharded event loop — bit-exact with the sequential engine.
//!
//! # Shard model
//!
//! Replicas in an aggregated cluster interact only through the routing tier
//! and the shared metrics collector; the per-replica simulation (batch
//! formation, pipeline occupancy, wakeups, completions) is self-contained.
//! When the routing decisions can be computed up front, the event loop
//! therefore factors into fully independent pieces: replicas are dealt
//! round-robin onto `k` shards, every shard runs its entire sub-simulation
//! on its own thread with its own [`ShardQueue`] and
//! [`EngineCore`](crate::engine::EngineCore), and the only serial work left
//! is *committing* the measured effects into the metrics collector and the
//! tier — which the main thread does by streaming the shards' effect logs
//! and always committing the globally-earliest entry next.
//!
//! # Determinism argument
//!
//! The sequential engine's event order is exactly `(time, seq)` with `seq`
//! the global insertion counter, and its report is a fold of metric effects
//! in that order. The sharded run reproduces that fold bit-for-bit:
//!
//! * Arrivals are pre-routed by replaying `RoutingTier::route` in arrival
//!   order before the run — legal precisely because the fast-path policies
//!   (round-robin, random) are deterministic functions of their own state
//!   and never read the live load view, so interleaved completions cannot
//!   change their decisions. Each arrival's global `seq` is its trace index.
//! * Within a shard, events are ordered by `(time, arrival-seq | local
//!   push counter)`, which equals the sequential order restricted to the
//!   shard (see [`vidur_core::shard`]). At commit time a
//!   [`ShardStamper`] re-derives true global seqs: a committed handler's
//!   children claim the next counter values in push order.
//! * The merge then commits the lowest `(time, seq)` stream head, replaying
//!   each entry's logged effects through the *same* collector methods the
//!   sequential engine calls, in the same order — f64 accumulation order,
//!   quantile-digest streams, and per-tenant bookkeeping included.
//!
//! The stop conditions fold in too: shards truncate at the deadline (the
//! sequential run processes every event at `time <= deadline` and drops
//! exactly one later event without effects), and events after global
//! completion are provably effect-free wakeups (no batch can be in flight
//! once every request finished), so draining them is a no-op.
//!
//! # Mergeable mode: fold in the shards, stream only the tier
//!
//! The full-replay commit above re-executes *every* metric effect serially,
//! so the merger thread is the scaling ceiling. Under
//! [`QuantileMode::Mergeable`] the collector's state is a pure fold over
//! per-replica single-writer slots, which makes the replay unnecessary:
//! each shard owns a full [`MetricsCollector`] and commits request, batch,
//! and KV effects *locally* as its replicas produce them; the main thread
//! folds the per-shard collectors together at drain
//! ([`MetricsCollector::merge`]). Because every slot is written by exactly
//! one replica — whose event stream is identical for any shard count — the
//! merged report is byte-identical across shard counts (though not
//! bit-comparable with the other two modes).
//!
//! Only the *tier-relevant* effects still stream to the merger, as light
//! [`TierEffect`] records: request-finished notifications (per-tenant
//! counters and the live view) and free-KV updates (per-replica last-write).
//! Both are commutative across replicas on the fast path — `on_finished` is
//! integer bookkeeping and `set_free_kv_blocks` is single-writer per
//! replica, with routing already fixed at pre-route time — so the merger
//! applies them in `(time, shard)` order without reconstructing global
//! sequence numbers. This shrinks the serial commit from every metric
//! effect to a few effects per batch completion.
//!
//! # Arrival barriers: stateful policies on the fast path
//!
//! Stateful policies (least-outstanding, priority-aware, fair-share,
//! affinity, KV-aware) read the *live* load view at every arrival, so their
//! decisions cannot be pre-routed: a completion on another shard can change
//! the argmin. But replicas interact *only* through that routing decision,
//! and only at arrival instants, which the trace fixes in advance. Between
//! two arrivals no shard can affect another, so the inter-arrival gap is a
//! free lookahead: every shard may simulate up to the next arrival without
//! guessing anything. This is conservative parallel discrete-event
//! simulation (Chandy–Misra/Bryant; Fujimoto, CACM 1990) with the arrival
//! stream as the only cross-shard channel.
//!
//! The barrier runner keeps one persistent worker per shard for the whole
//! run (the merger thread simulates shard 0 itself, so at most `shards`
//! threads are ever runnable; idle workers park on their channel) and
//! repeats one round per arrival instant:
//!
//! 1. **Route.** The merger routes the next arrival on the live
//!    [`RoutingTier`] and hands it to the shard owning the target replica.
//!    Consecutive arrivals at the same instant route in the same round: a
//!    handler's children sort after every same-instant arrival
//!    ([`ShardKey::Local`] after [`ShardKey::Arrival`]), so no event can
//!    come between them. An offline burst therefore routes in one round.
//! 2. **Advance.** Every shard with work before the *barrier* — the
//!    `(time, ShardKey::Arrival)` of the next unrouted arrival — simulates
//!    up to it, exclusive, logging effects exactly like the streaming path.
//!    The cut is exact: at the barrier's instant every local event sorts
//!    after the arrival, and dynamic global seqs exceed every arrival seq,
//!    so "before the barrier in shard order" equals "before it in global
//!    order". A shard whose queue head is already past the barrier is not
//!    woken.
//! 3. **Merge.** The merger walks the round's logs once in exact global
//!    `(time, seq)` order (the same [`ShardStamper`] reconstruction, with
//!    stampers persisting across rounds) and applies tier *and* metric
//!    effects in that single pass. The tier then holds exactly the
//!    sequential state at the barrier, so the next route *is* the
//!    sequential decision.
//!
//! Nothing is guessed, so nothing is checkpointed, cloned, or rolled back,
//! and the collector sees the byte-identical call sequence of a sequential
//! run in every quantile mode (stateful runs replay every metric effect
//! through the merger even in mergeable mode). The cost is one
//! synchronization per arrival instant.
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
//! on its fast path — see [`block_reason`]: jittered runtimes need
//! [`ClusterConfig::rng_version`] 2 (v1 draws CPU-overhead noise from one
//! engine-wide RNG in launch order, which is inherently serial; v2 forks a
//! stream per replica), late-abort must be off (its stop condition depends
//! on the merged metrics mid-run), the fleet must be fixed (elastic events
//! are globally ordered), the prefix cache must be off (hit publication is
//! cross-replica), and the policy must not be the deferred one. Round-robin
//! and random take the streaming path (one pre-route, no barriers); every
//! other policy takes the arrival-barrier path.
//! Everything else silently uses the sequential engine, which stays the
//! differential oracle: `tests/engine_regression.rs` pins that every
//! scenario reports identically with shards on and off, and that
//! mergeable-mode reports are invariant across shard counts.

use crate::cluster::{batch_bytes, ClusterSimulator, RunStats, SimEvent};
use crate::config::ClusterConfig;
use crate::engine::{EngineCore, EngineReplica, EngineSink, MAX_EVENTS};
use crate::metrics::MetricsCollector;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use vidur_core::metrics::QuantileMode;
use vidur_core::shard::{ShardKey, ShardQueue, ShardStamper};
use vidur_core::time::SimTime;
use vidur_model::batch::BatchComposition;
use vidur_model::shape::PlanTiming;
use vidur_scheduler::replica::CompletionEvent;
use vidur_scheduler::{GlobalPolicyKind, Request, RouteRequest, RoutingTier};
use vidur_workload::Trace;

/// Entries per [`LogChunk`] before it ships to the merger.
const CHUNK_ENTRIES: usize = 4096;
/// In-flight chunks per shard channel: bounds memory (shards block when the
/// merger falls behind) while keeping the pipeline full.
const CHANNEL_DEPTH: usize = 4;
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
    /// `first_n` ids in the chunk's id stream.
    BatchWork {
        replica: u32,
        tokens: u64,
        requests: u64,
        flops: f64,
        bytes: f64,
        first_n: u32,
    },
    /// `metrics.on_kv_sample` for a replica.
    KvSample { replica: u32, utilization: f64 },
    /// `tier.on_finished` per finished event + `metrics.on_batch_complete`
    /// over the next `n_events` events in the chunk's event stream.
    Retire { replica: u32, n_events: u32 },
    /// `tier.set_free_kv_blocks` after a retire.
    FreeKv { replica: u32, free_blocks: u64 },
}

/// One handled event in a shard's stream: when it fired, its shard key (for
/// global-seq reconstruction), how many follow-up events its handler pushed,
/// and how many effects it logged.
#[derive(Clone, Copy)]
struct EntryRec {
    time: SimTime,
    key: ShardKey,
    n_children: u32,
    n_effects: u32,
}

/// A batch of logged entries with their flattened effect/event/id streams.
/// Chunks recycle through a return channel, so steady-state logging does not
/// allocate.
#[derive(Default)]
struct LogChunk {
    entries: Vec<EntryRec>,
    effects: Vec<Effect>,
    events: Vec<CompletionEvent>,
    ids: Vec<u64>,
    /// Marks the shard's final chunk.
    done: bool,
}

impl LogChunk {
    fn reset(&mut self) {
        self.entries.clear();
        self.effects.clear();
        self.events.clear();
        self.ids.clear();
        self.done = false;
    }
}

/// [`EngineSink`] that appends effects to the chunk under construction
/// instead of touching the collector.
#[derive(Default)]
struct LogSink {
    chunk: LogChunk,
}

impl EngineSink for LogSink {
    fn on_batch_timed(&mut self, replica: usize, timing: &Arc<PlanTiming>) {
        self.chunk.effects.push(Effect::OpSecs {
            replica: replica as u32,
            timing: Arc::clone(timing),
        });
    }
    fn on_gpu_busy(&mut self, replica: usize, gpu_secs: f64) {
        self.chunk.effects.push(Effect::GpuBusy {
            replica: replica as u32,
            gpu_secs,
        });
    }
    fn on_batch_scheduled(
        &mut self,
        replica: usize,
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
                self.chunk.ids.push(slice.request_id);
                first_n += 1;
            }
        }
        self.chunk.effects.push(Effect::BatchWork {
            replica: replica as u32,
            tokens: batch.total_query_tokens(),
            requests: batch.num_requests() as u64,
            flops,
            bytes,
            first_n,
        });
    }
    fn on_kv_sample(&mut self, replica: usize, _now: SimTime, utilization: f64) {
        self.chunk.effects.push(Effect::KvSample {
            replica: replica as u32,
            utilization,
        });
    }
    fn on_batch_complete(&mut self, replica: usize, _now: SimTime, events: &[CompletionEvent]) {
        self.chunk.events.extend_from_slice(events);
        self.chunk.effects.push(Effect::Retire {
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
    if jitters && config.rng_version < 2 {
        // v1 draws CPU-overhead noise from one engine-wide RNG in launch
        // order; v2 forks a stream per replica and is shard-invariant.
        return Some("jittered runtimes need per-replica rng streams (rng_version 2)");
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

/// Reusable sharded-run scratch hoisted onto the simulator: the `(arrival
/// time, trace idx)`-sorted arrival order both runners walk, and the
/// streaming path's per-arrival placements.
#[derive(Debug, Default)]
pub(crate) struct ShardedScratch {
    order: Vec<u32>,
    targets: Vec<u32>,
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

/// Routes `arrivals` (already in `(arrival time, trace idx)` = sequential
/// pop order) through `tier` up front, writing each placement into
/// `targets`. Legal only for the streaming path's stateless policies, which
/// never read the live view, so routing ahead of the run draws the decision
/// sequence the interleaved run would.
fn pre_route(
    tier: &mut RoutingTier,
    trace: &Trace,
    arrivals: &[u32],
    targets: &mut [u32],
) -> Result<(), &'static str> {
    for &idx in arrivals {
        targets[idx as usize] = route(tier, trace, idx)? as u32;
    }
    Ok(())
}

/// Runs `sim`'s event loop sharded `num_shards` ways. On `Ok` the metrics
/// collector, tier, and replicas are in the exact state a sequential
/// `engine::drive` run would have left them in (exact/sketch modes, and
/// stateful-policy runs in every mode) or the canonical merged-fold state
/// (stateless mergeable mode), with the run's [`RunStats`]. On `Err` a
/// stateful policy deferred a request mid-run: the simulator is torn (the
/// caller rebuilds from its construction seed and re-runs sequentially) and
/// the reason belongs in [`RunStats::fallback_reason`].
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
        seed,
        ref mut sharded_scratch,
    } = *sim;

    // Sequential pop order for the pre-pushed arrival set: (arrival time,
    // trace index) — the stable sort keeps equal-time arrivals in trace
    // (= seq) order, matching the global queue.
    let scratch = sharded_scratch;
    scratch.order.clear();
    scratch.order.extend(0..trace.requests.len() as u32);
    scratch
        .order
        .sort_by_key(|&i| trace.requests[i as usize].arrival);

    let deadline = config.max_sim_time;
    let timer = engine.timer().clone();

    if !matches!(
        config.global_policy,
        GlobalPolicyKind::RoundRobin | GlobalPolicyKind::Random
    ) {
        // Stateful policy: route at arrival barriers on the live tier.
        let mut shards: Vec<BarrierShard> = (0..num_shards)
            .map(|_| BarrierShard {
                num_shards,
                core: EngineCore::with_timer(config, timer.clone(), seed),
                replicas: Vec::new(),
                queue: ShardQueue::new(),
                targets: vec![0; trace.requests.len()],
                processed: 0,
            })
            .collect();
        for (r, replica) in std::mem::take(replicas).into_iter().enumerate() {
            shards[r % num_shards].replicas.push(replica);
        }
        let stats = run_barriers(
            config,
            trace,
            &mut engine.metrics,
            tier,
            &mut shards,
            &scratch.order,
        )?;
        *replicas = reassemble(
            shards.into_iter().map(|s| s.replicas).collect(),
            num_shards,
            config.num_replicas,
        );
        return Ok(stats);
    }

    // Stateless policy: pre-route everything on the real tier up front —
    // round-robin/random placements depend only on router state, so
    // replaying the calls draws the identical decision (and RNG) sequence
    // the interleaved run would — then stream effects with no barriers.
    scratch.targets.clear();
    scratch.targets.resize(trace.requests.len(), 0);
    pre_route(tier, trace, &scratch.order, &mut scratch.targets)?;

    // Deal replicas round-robin onto shards (global replica r lives on
    // shard r % k at local index r / k) and split the arrival list.
    let mut shard_replicas: Vec<Vec<EngineReplica>> = (0..num_shards).map(|_| Vec::new()).collect();
    for (r, replica) in std::mem::take(replicas).into_iter().enumerate() {
        shard_replicas[r % num_shards].push(replica);
    }
    let mut shard_arrivals: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
    for &idx in &scratch.order {
        shard_arrivals[scratch.targets[idx as usize] as usize % num_shards].push(idx);
    }

    let metrics = &mut engine.metrics;
    let targets_ref: &[u32] = &scratch.targets;

    let streamed = if metrics.mode() == QuantileMode::Mergeable {
        // Fold-in-the-shards path: each shard owns a full-size collector
        // and commits everything but the tier effects locally.
        let (result_tx, result_rx) =
            std::sync::mpsc::channel::<(usize, Vec<EngineReplica>, MetricsCollector)>();
        let mut streams = Vec::with_capacity(num_shards);
        let mut workers = Vec::with_capacity(num_shards);
        for (shard, (replica_set, arrivals)) in
            shard_replicas.into_iter().zip(shard_arrivals).enumerate()
        {
            let (log_tx, log_rx) = sync_channel::<TierChunk>(CHANNEL_DEPTH);
            streams.push(TierStream::new(log_rx));
            let core = EngineCore::with_timer(config, timer.clone(), seed);
            // Every shard collector must be armed exactly like the engine's
            // (tenants, SLO, time-series windows): the merged fold is only
            // shard-count-invariant when all partials share one shape.
            let mut collector =
                MetricsCollector::with_mode(config.num_replicas, QuantileMode::Mergeable);
            if !trace.tenants.is_empty() {
                collector.set_tenants(&trace.tenants, config.tenant_slo);
            }
            if let Some(ts) = config.timeseries {
                collector.set_timeseries(ts);
            }
            workers.push(MergeWorker {
                shard,
                num_shards,
                config,
                trace,
                targets: targets_ref,
                core,
                replicas: replica_set,
                arrivals,
                deadline,
                collector,
                chunk: Vec::new(),
                log_tx,
                result_tx: result_tx.clone(),
            });
        }
        drop(result_tx);

        let streamed = rayon::scope(|scope| {
            for worker in workers {
                scope.spawn(move || worker.run());
            }
            // The tier merger runs on this thread, concurrently with the
            // shards.
            merge_tier(streams, tier, trace)
        });

        // Fold the per-shard collectors into the engine's (empty) collector
        // in shard order, and put the replicas back in global order.
        let mut collected: Vec<Option<(Vec<EngineReplica>, MetricsCollector)>> =
            (0..num_shards).map(|_| None).collect();
        for (shard, set, collector) in result_rx.iter() {
            collected[shard] = Some((set, collector));
        }
        let mut per_shard = Vec::with_capacity(num_shards);
        for entry in collected {
            let (set, collector) = entry.expect("every shard returns its state");
            metrics.merge(collector);
            per_shard.push(set);
        }
        *replicas = reassemble(per_shard, num_shards, config.num_replicas);
        streamed
    } else {
        // Full-replay path (exact/sketch modes): every metric effect streams
        // to the merger and is replayed in exact sequential order.
        let (result_tx, result_rx) = std::sync::mpsc::channel::<(usize, Vec<EngineReplica>)>();
        let mut streams = Vec::with_capacity(num_shards);
        let mut workers = Vec::with_capacity(num_shards);
        for (shard, (replica_set, arrivals)) in
            shard_replicas.into_iter().zip(shard_arrivals).enumerate()
        {
            let (log_tx, log_rx) = sync_channel::<LogChunk>(CHANNEL_DEPTH);
            let (recycle_tx, recycle_rx) = sync_channel::<LogChunk>(CHANNEL_DEPTH);
            streams.push(ShardStream::new(log_rx, recycle_tx));
            let core = EngineCore::with_timer(config, timer.clone(), seed);
            workers.push(ShardWorker {
                shard,
                num_shards,
                config,
                trace,
                targets: targets_ref,
                core,
                replicas: replica_set,
                arrivals,
                deadline,
                log_tx,
                recycle_rx,
                result_tx: result_tx.clone(),
            });
        }
        drop(result_tx);

        let streamed = rayon::scope(|scope| {
            for worker in workers {
                scope.spawn(move || worker.run());
            }
            // The merger runs on this thread, concurrently with the shards.
            merge(streams, metrics, tier, trace)
        });

        // Put the replicas back in global order for preemption/quota
        // reporting.
        let mut collected: Vec<Option<Vec<EngineReplica>>> =
            (0..num_shards).map(|_| None).collect();
        for (shard, set) in result_rx.iter() {
            collected[shard] = Some(set);
        }
        let per_shard = collected
            .into_iter()
            .map(|set| set.expect("every shard returns its replicas"))
            .collect();
        *replicas = reassemble(per_shard, num_shards, config.num_replicas);
        streamed
    };
    Ok(RunStats {
        shards: num_shards,
        streamed_effects: streamed,
        ..RunStats::default()
    })
}

/// Puts shard-dealt replicas back in global order (global replica `r` was
/// dealt to shard `r % k` at local index `r / k`).
fn reassemble(
    per_shard: Vec<Vec<EngineReplica>>,
    num_shards: usize,
    num_replicas: usize,
) -> Vec<EngineReplica> {
    let mut slots: Vec<Option<EngineReplica>> = (0..num_replicas).map(|_| None).collect();
    for (shard, set) in per_shard.into_iter().enumerate() {
        for (local, replica) in set.into_iter().enumerate() {
            slots[shard + local * num_shards] = Some(replica);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every replica returned"))
        .collect()
}

/// One shard's independent simulation: a subset of replicas, a shard-local
/// queue, an [`EngineCore`], and the effect log.
struct ShardWorker<'a> {
    shard: usize,
    num_shards: usize,
    config: &'a ClusterConfig,
    trace: &'a Trace,
    targets: &'a [u32],
    core: EngineCore,
    replicas: Vec<EngineReplica>,
    arrivals: Vec<u32>,
    deadline: Option<SimTime>,
    log_tx: SyncSender<LogChunk>,
    recycle_rx: Receiver<LogChunk>,
    result_tx: std::sync::mpsc::Sender<(usize, Vec<EngineReplica>)>,
}

impl ShardWorker<'_> {
    fn run(mut self) {
        let mut queue: ShardQueue<SimEvent> = ShardQueue::new();
        for &idx in &self.arrivals {
            queue.push_arrival(
                self.trace.requests[idx as usize].arrival,
                idx as u64,
                SimEvent::Arrival(idx),
            );
        }
        let mut sink = LogSink::default();
        let mut processed = 0u64;
        while let Some((time, key, event)) = queue.pop() {
            // Pops are time-nondecreasing, so the first event past the
            // deadline means everything left is past it too. The sequential
            // engine pops exactly one such event and drops it effect-free.
            if self.deadline.is_some_and(|d| time > d) || processed >= MAX_EVENTS {
                break;
            }
            let effects_before = sink.chunk.effects.len();
            let pushes_before = queue.local_pushes();
            shard_handle(
                &mut self.core,
                &mut self.replicas,
                self.num_shards,
                self.config,
                self.trace,
                self.targets,
                time,
                event,
                &mut queue,
                &mut sink,
            );
            sink.chunk.entries.push(EntryRec {
                time,
                key,
                n_children: (queue.local_pushes() - pushes_before) as u32,
                n_effects: (sink.chunk.effects.len() - effects_before) as u32,
            });
            processed += 1;
            if sink.chunk.entries.len() >= CHUNK_ENTRIES {
                let mut fresh = self.recycle_rx.try_recv().unwrap_or_default();
                fresh.reset();
                let full = std::mem::replace(&mut sink.chunk, fresh);
                if self.log_tx.send(full).is_err() {
                    break; // merger gone; nothing left to report into
                }
            }
        }
        let mut last = std::mem::take(&mut sink.chunk);
        last.done = true;
        let _ = self.log_tx.send(last);
        let _ = self.result_tx.send((self.shard, self.replicas));
    }
}

/// Handles one shard-local event, logging its effects into `sink`. Shared
/// by the streaming [`ShardWorker`] and the [`BarrierShard`]; the
/// mergeable-mode [`MergeWorker`] keeps its own copy (it sinks metric
/// effects straight into a collector).
#[allow(clippy::too_many_arguments)]
fn shard_handle(
    core: &mut EngineCore,
    replicas: &mut [EngineReplica],
    num_shards: usize,
    config: &ClusterConfig,
    trace: &Trace,
    targets: &[u32],
    now: SimTime,
    event: SimEvent,
    queue: &mut ShardQueue<SimEvent>,
    sink: &mut LogSink,
) {
    match event {
        SimEvent::Arrival(idx) => {
            let tr = trace.requests[idx as usize];
            sink.chunk.effects.push(Effect::Arrival {
                id: tr.id,
                decode_tokens: tr.decode_tokens,
                tenant: tr.tenant,
            });
            let target = targets[idx as usize];
            let local = target as usize / num_shards;
            replicas[local].scheduler.add_request(
                Request::new(tr.id, tr.arrival, tr.prefill_tokens, tr.decode_tokens)
                    .with_tenant(tr.tenant)
                    .with_priority(tr.priority),
            );
            shard_try_schedule(core, replicas, num_shards, config, target, now, queue, sink);
        }
        SimEvent::Wakeup(replica) => {
            let local = replica as usize / num_shards;
            replicas[local].clear_wakeup();
            shard_try_schedule(
                core, replicas, num_shards, config, replica, now, queue, sink,
            );
        }
        SimEvent::BatchComplete(replica, id) => {
            let local = replica as usize / num_shards;
            // The tier's `on_finished` is deferred to commit time (the
            // tier is shared); the translate hook is therefore empty.
            core.retire_batch(
                &mut replicas[local],
                replica as usize,
                id,
                now,
                queue,
                sink,
                |_ev, _queue| {},
            );
            sink.chunk.effects.push(Effect::FreeKv {
                replica,
                free_blocks: replicas[local].scheduler.blocks().free_blocks(),
            });
            shard_try_schedule(
                core, replicas, num_shards, config, replica, now, queue, sink,
            );
        }
        SimEvent::Fault(_) | SimEvent::AutoscaleTick | SimEvent::WarmupDone(_) => {
            unreachable!("elastic runs are rejected by the fast-path eligibility check")
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn shard_try_schedule(
    core: &mut EngineCore,
    replicas: &mut [EngineReplica],
    num_shards: usize,
    config: &ClusterConfig,
    replica: u32,
    now: SimTime,
    queue: &mut ShardQueue<SimEvent>,
    sink: &mut LogSink,
) {
    let local = replica as usize / num_shards;
    core.try_schedule(
        &mut replicas[local],
        replica as usize,
        now,
        queue,
        sink,
        |batch| batch_bytes(config, batch),
        || SimEvent::Wakeup(replica),
        |id| SimEvent::BatchComplete(replica, id),
    );
}

/// A tier-relevant effect streamed in mergeable mode: the only state shards
/// cannot commit locally. `Finished` drives the tier's per-tenant counters
/// and live view; `FreeKv` is the per-replica free-block last-write.
struct TierEffect {
    time: SimTime,
    kind: TierKind,
}

/// What a [`TierEffect`] applies to the tier.
enum TierKind {
    /// `tier.on_finished` for trace request `id` on `replica`.
    Finished { replica: u32, id: u64 },
    /// `tier.set_free_kv_blocks` after a retire.
    FreeKv { replica: u32, free_blocks: u64 },
}

/// A batch of tier effects from one shard; `done` marks the final chunk.
struct TierChunk {
    effects: Vec<TierEffect>,
    done: bool,
}

/// One shard's simulation in mergeable mode: same event loop as
/// [`ShardWorker`], but effects sink straight into the shard's own
/// [`MetricsCollector`]; only [`TierEffect`]s ship to the merger.
struct MergeWorker<'a> {
    shard: usize,
    num_shards: usize,
    config: &'a ClusterConfig,
    trace: &'a Trace,
    targets: &'a [u32],
    core: EngineCore,
    replicas: Vec<EngineReplica>,
    arrivals: Vec<u32>,
    deadline: Option<SimTime>,
    collector: MetricsCollector,
    chunk: Vec<TierEffect>,
    log_tx: SyncSender<TierChunk>,
    result_tx: std::sync::mpsc::Sender<(usize, Vec<EngineReplica>, MetricsCollector)>,
}

impl MergeWorker<'_> {
    fn run(mut self) {
        let mut queue: ShardQueue<SimEvent> = ShardQueue::new();
        for &idx in &self.arrivals {
            queue.push_arrival(
                self.trace.requests[idx as usize].arrival,
                idx as u64,
                SimEvent::Arrival(idx),
            );
        }
        let mut processed = 0u64;
        while let Some((time, _key, event)) = queue.pop() {
            if self.deadline.is_some_and(|d| time > d) || processed >= MAX_EVENTS {
                break;
            }
            self.handle(time, event, &mut queue);
            processed += 1;
            if self.chunk.len() >= CHUNK_ENTRIES {
                let full = std::mem::take(&mut self.chunk);
                if self
                    .log_tx
                    .send(TierChunk {
                        effects: full,
                        done: false,
                    })
                    .is_err()
                {
                    break; // merger gone; nothing left to report into
                }
            }
        }
        let _ = self.log_tx.send(TierChunk {
            effects: std::mem::take(&mut self.chunk),
            done: true,
        });
        let _ = self
            .result_tx
            .send((self.shard, self.replicas, self.collector));
    }

    fn handle(&mut self, now: SimTime, event: SimEvent, queue: &mut ShardQueue<SimEvent>) {
        match event {
            SimEvent::Arrival(idx) => {
                let tr = self.trace.requests[idx as usize];
                self.collector
                    .on_arrival(tr.id, now, tr.decode_tokens, tr.tenant);
                let target = self.targets[idx as usize];
                let local = target as usize / self.num_shards;
                self.replicas[local].scheduler.add_request(
                    Request::new(tr.id, tr.arrival, tr.prefill_tokens, tr.decode_tokens)
                        .with_tenant(tr.tenant)
                        .with_priority(tr.priority),
                );
                self.try_schedule(target, now, queue);
            }
            SimEvent::Wakeup(replica) => {
                let local = replica as usize / self.num_shards;
                self.replicas[local].clear_wakeup();
                self.try_schedule(replica, now, queue);
            }
            SimEvent::BatchComplete(replica, id) => {
                let local = replica as usize / self.num_shards;
                let chunk = &mut self.chunk;
                self.core.retire_batch(
                    &mut self.replicas[local],
                    replica as usize,
                    id,
                    now,
                    queue,
                    &mut self.collector,
                    |ev, _queue| {
                        if ev.finished {
                            chunk.push(TierEffect {
                                time: now,
                                kind: TierKind::Finished { replica, id: ev.id },
                            });
                        }
                    },
                );
                self.chunk.push(TierEffect {
                    time: now,
                    kind: TierKind::FreeKv {
                        replica,
                        free_blocks: self.replicas[local].scheduler.blocks().free_blocks(),
                    },
                });
                self.try_schedule(replica, now, queue);
            }
            SimEvent::Fault(_) | SimEvent::AutoscaleTick | SimEvent::WarmupDone(_) => {
                unreachable!("elastic runs are rejected by the fast-path eligibility check")
            }
        }
    }

    fn try_schedule(&mut self, replica: u32, now: SimTime, queue: &mut ShardQueue<SimEvent>) {
        let local = replica as usize / self.num_shards;
        let config = self.config;
        self.core.try_schedule(
            &mut self.replicas[local],
            replica as usize,
            now,
            queue,
            &mut self.collector,
            |batch| batch_bytes(config, batch),
            || SimEvent::Wakeup(replica),
            |id| SimEvent::BatchComplete(replica, id),
        );
    }
}

/// Merger-side view of one shard's tier-effect stream.
struct TierStream {
    rx: Receiver<TierChunk>,
    chunk: Option<TierChunk>,
    idx: usize,
    finished: bool,
}

impl TierStream {
    fn new(rx: Receiver<TierChunk>) -> Self {
        TierStream {
            rx,
            chunk: None,
            idx: 0,
            finished: false,
        }
    }

    /// Time of the stream's next uncommitted effect, receiving chunks as
    /// needed. Blocks only while the shard is still producing.
    fn ensure_head(&mut self) -> Option<SimTime> {
        loop {
            if self.finished {
                return None;
            }
            if let Some(chunk) = &self.chunk {
                if self.idx < chunk.effects.len() {
                    return Some(chunk.effects[self.idx].time);
                }
                if chunk.done {
                    self.finished = true;
                    self.chunk = None;
                    return None;
                }
                self.chunk = None;
            }
            match self.rx.recv() {
                Ok(chunk) => {
                    self.chunk = Some(chunk);
                    self.idx = 0;
                }
                Err(_) => {
                    self.finished = true;
                    return None;
                }
            }
        }
    }
}

/// Applies all shard tier effects to the tier in `(time, shard)` order and
/// returns how many were streamed. Exact global sequence numbers are
/// unnecessary here: `on_finished` is commutative integer bookkeeping and
/// `set_free_kv_blocks` is single-writer per replica (each replica's stream
/// order is preserved within its shard), so this coarser deterministic
/// order reaches the same final tier state.
fn merge_tier(mut streams: Vec<TierStream>, tier: &mut RoutingTier, trace: &Trace) -> u64 {
    let mut committed = 0u64;
    loop {
        let mut best: Option<(usize, SimTime)> = None;
        for (s, stream) in streams.iter_mut().enumerate() {
            if let Some(t) = stream.ensure_head() {
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((s, t));
                }
            }
        }
        let Some((s, _)) = best else {
            break;
        };
        let stream = &mut streams[s];
        let chunk = stream.chunk.as_ref().expect("head implies a chunk");
        match chunk.effects[stream.idx].kind {
            TierKind::Finished { replica, id } => {
                let tr = trace.requests[id as usize];
                tier.on_finished(
                    replica as usize,
                    tr.tenant,
                    tr.prefill_tokens + tr.decode_tokens,
                );
            }
            TierKind::FreeKv {
                replica,
                free_blocks,
            } => tier.set_free_kv_blocks(replica as usize, free_blocks),
        }
        stream.idx += 1;
        committed += 1;
    }
    committed
}

/// Read cursor over one [`LogChunk`]: the next entry and the offsets into
/// the chunk's flattened effect/event/id streams.
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
    /// Resolves the next entry of `chunk` into [`LogCursor::head`], if the
    /// chunk has one left. Returns the head.
    fn resolve(&mut self, chunk: &LogChunk, stamper: &mut ShardStamper) -> Option<(SimTime, u64)> {
        if self.head.is_none() && self.entry < chunk.entries.len() {
            let e = chunk.entries[self.entry];
            self.head = Some((e.time, stamper.resolve(e.key)));
        }
        self.head
    }
}

/// Merger-side view of one shard's chunk stream.
struct ShardStream {
    rx: Receiver<LogChunk>,
    recycle: SyncSender<LogChunk>,
    chunk: Option<LogChunk>,
    cur: LogCursor,
    finished: bool,
    stamper: ShardStamper,
}

impl ShardStream {
    fn new(rx: Receiver<LogChunk>, recycle: SyncSender<LogChunk>) -> Self {
        ShardStream {
            rx,
            recycle,
            chunk: None,
            cur: LogCursor::default(),
            finished: false,
            stamper: ShardStamper::new(),
        }
    }

    /// Resolves the stream's next head, receiving chunks as needed. Blocks
    /// only when the shard is still producing.
    fn ensure_head(&mut self) {
        if self.finished || self.cur.head.is_some() {
            return;
        }
        loop {
            if let Some(chunk) = &self.chunk {
                if self.cur.resolve(chunk, &mut self.stamper).is_some() {
                    return;
                }
                if chunk.done {
                    self.finished = true;
                    self.chunk = None;
                    return;
                }
                let mut spent = self.chunk.take().expect("checked above");
                spent.reset();
                let _ = self.recycle.try_send(spent);
            }
            match self.rx.recv() {
                Ok(chunk) => {
                    self.chunk = Some(chunk);
                    self.cur = LogCursor::default();
                }
                Err(_) => {
                    self.finished = true;
                    return;
                }
            }
        }
    }
}

/// Streams all shard logs into the collector and tier in exact global
/// `(time, seq)` order. Returns the number of effects replayed — the serial
/// commit volume the mergeable mode shrinks.
fn merge(
    mut streams: Vec<ShardStream>,
    metrics: &mut MetricsCollector,
    tier: &mut RoutingTier,
    trace: &Trace,
) -> u64 {
    let mut counter = trace.requests.len() as u64;
    let mut committed = 0u64;
    loop {
        // Linear min-scan: shard counts are small (<= replicas), so a heap
        // of heads would cost more than it saves.
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (s, stream) in streams.iter_mut().enumerate() {
            stream.ensure_head();
            if let Some(head) = stream.cur.head {
                if best.is_none_or(|(_, b)| head < b) {
                    best = Some((s, head));
                }
            }
        }
        let Some((best, _)) = best else {
            break;
        };
        let stream = &mut streams[best];
        let chunk = stream.chunk.as_ref().expect("head implies a chunk");
        committed += commit(
            chunk,
            &mut stream.cur,
            &mut stream.stamper,
            metrics,
            tier,
            trace,
            &mut counter,
        );
    }
    // Leftover stamps are normal on truncated runs (deadline / event
    // budget): committed entries claim seqs for children past the cutoff
    // that their shard never pops. A run that drains fully consumes all of
    // them, but the merge cannot tell the cases apart, so no assertion.
    committed
}

/// Commits the entry at `cur`'s resolved head: claims its children's global
/// seqs and replays its effects into the collector/tier, in logged (=
/// sequential call) order. Returns the number of effects replayed.
fn commit(
    chunk: &LogChunk,
    cur: &mut LogCursor,
    stamper: &mut ShardStamper,
    metrics: &mut MetricsCollector,
    tier: &mut RoutingTier,
    trace: &Trace,
    counter: &mut u64,
) -> u64 {
    let (time, _seq) = cur.head.take().expect("commit needs a head");
    let entry = chunk.entries[cur.entry];
    cur.entry += 1;
    stamper.claim_children(entry.n_children as u64, counter);
    for effect in &chunk.effects[cur.effect..cur.effect + entry.n_effects as usize] {
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
                replica,
                tokens,
                requests,
                flops,
                bytes,
                first_n,
            } => {
                metrics.on_batch_work(*replica as usize, *tokens, *requests, *flops, *bytes);
                for &id in &chunk.ids[cur.id..cur.id + *first_n as usize] {
                    metrics.mark_first_scheduled(id, time);
                }
                cur.id += *first_n as usize;
            }
            Effect::KvSample {
                replica,
                utilization,
            } => metrics.on_kv_sample(*replica as usize, time, *utilization),
            Effect::Retire { replica, n_events } => {
                let events = &chunk.events[cur.event..cur.event + *n_events as usize];
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
    /// Placement of every arrival admitted here (trace idx → global
    /// replica), read by the arrival handler.
    targets: Vec<u32>,
    /// Events handled so far (the [`MAX_EVENTS`] backstop is per shard, as
    /// on the streaming path).
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
    sink: LogSink,
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
    /// logging into `round.sink`.
    fn advance(
        &mut self,
        config: &ClusterConfig,
        trace: &Trace,
        deadline: Option<SimTime>,
        round: &mut Round,
    ) {
        for (idx, target) in round.admit.drain(..) {
            self.targets[idx as usize] = target;
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
            let effects_before = round.sink.chunk.effects.len();
            let pushes_before = self.queue.local_pushes();
            shard_handle(
                &mut self.core,
                &mut self.replicas,
                self.num_shards,
                config,
                trace,
                &self.targets,
                time,
                event,
                &mut self.queue,
                &mut round.sink,
            );
            let chunk = &mut round.sink.chunk;
            chunk.entries.push(EntryRec {
                time,
                key,
                n_children: (self.queue.local_pushes() - pushes_before) as u32,
                n_effects: (chunk.effects.len() - effects_before) as u32,
            });
            self.processed += 1;
        }
        round.head = self.queue.peek();
    }
}

/// Drives the arrival-barrier loop to completion over `shards` (replicas
/// already dealt). On `Ok` the collector and tier hold the exact
/// sequential-run state; on `Err` the policy deferred and the caller falls
/// back (the simulator is torn).
fn run_barriers(
    config: &ClusterConfig,
    trace: &Trace,
    metrics: &mut MetricsCollector,
    tier: &mut RoutingTier,
    shards: &mut [BarrierShard],
    order: &[u32],
) -> Result<RunStats, &'static str> {
    let num_shards = shards.len();
    let deadline = config.max_sim_time;
    let arrival = |i: usize| trace.requests[order[i] as usize].arrival;
    // The sequential engine stops before popping any past-deadline event,
    // so arrivals past the deadline are never routed.
    let routable = deadline.map_or(order.len(), |d| {
        order.partition_point(|&i| trace.requests[i as usize].arrival <= d)
    });
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
            // Route every arrival at the next arrival instant on the live
            // tier, which now holds the exact sequential state there.
            if next < routable {
                let instant = arrival(next);
                while next < routable && arrival(next) == instant {
                    let idx = order[next];
                    let target = route(tier, trace, idx)?;
                    rounds[target % num_shards].admit.push((idx, target as u32));
                    next += 1;
                }
            }
            let barrier =
                (next < routable).then(|| (arrival(next), ShardKey::Arrival(order[next] as u64)));

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
                    if let Some(head) = cursors[s].resolve(&round.sink.chunk, &mut stampers[s]) {
                        if best.is_none_or(|(_, b)| head < b) {
                            best = Some((s, head));
                        }
                    }
                }
                let Some((s, _)) = best else {
                    break;
                };
                stats.streamed_effects += commit(
                    &rounds[s].sink.chunk,
                    &mut cursors[s],
                    &mut stampers[s],
                    metrics,
                    tier,
                    trace,
                    &mut counter,
                );
            }
            for round in &mut rounds {
                round.sink.chunk.reset();
            }
            if barrier.is_none() {
                return Ok(stats);
            }
        }
    })
}
