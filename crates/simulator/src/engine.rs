//! The shared event-driven batch-execution engine.
//!
//! [`ClusterSimulator`](crate::cluster::ClusterSimulator) and
//! [`DisaggSimulator`](crate::disagg::DisaggSimulator) are the same machine
//! wearing different routing policies: requests arrive, replicas greedily
//! form batches whenever pipeline stage 0 is free, per-stage execution times
//! come from a [`RuntimeSource`] through the memoized
//! [`StageTimer`] pipeline, and completions retire requests and wake
//! the replica. This module hoists that machinery — replica wake-up
//! deduplication, batch formation and timing, CPU-overhead jitter, in-flight
//! batch tracking, metrics flushes, and the report assembly — so each
//! concrete simulator implements only its policy delta (global routing,
//! pool topology, KV handoff) on top of [`vidur_core::event::Simulation`]
//! and is driven through [`vidur_core::event::run`].
//!
//! Future backends (pipeline variants, hybrid pools) should build on
//! [`BatchEngine`] the same way: own the engine plus a set of
//! [`EngineReplica`]s, translate engine callbacks into their own event type,
//! and keep policy state next to it.

use crate::config::{ClusterConfig, LateAbort};
use crate::metrics::{MetricsCollector, PowerSpec, SimulationReport};
use crate::timing::StageTimer;
use std::fmt;
use std::sync::Arc;
use vidur_core::event::{self, EventPush, EventQueue, Simulation};
use vidur_core::rng::SimRng;
use vidur_core::time::{SimDuration, SimTime};
use vidur_hardware::GpuSku;
use vidur_model::batch::BatchComposition;
use vidur_model::memory::MemoryPlan;
use vidur_model::shape::PlanTiming;
use vidur_scheduler::replica::CompletionEvent;
use vidur_scheduler::{PipelineTracker, ReplicaScheduler};

pub use crate::timing::RuntimeSource;

/// Event budget for one simulation run. Generous: batching means a few
/// events per iteration, so real runs finish far below this.
pub const MAX_EVENTS: u64 = 200_000_000;

/// Generation-tagged slot map for in-flight batches (a ROADMAP hot-path
/// item: the seed's `HashMap<u64, BatchComposition>` hashed and probed on
/// every launch/retire). Batch ids pack `(generation << 32) | slot`; slots
/// recycle through a free list, so the steady state is two Vec index
/// operations and zero hashing, while stale ids from a simulator bug still
/// miss (the generation check) instead of aliasing a live batch.
#[derive(Debug, Default)]
struct InflightSlots {
    slots: Vec<Option<BatchComposition>>,
    generations: Vec<u32>,
    free: Vec<u32>,
    len: usize,
}

impl InflightSlots {
    fn len(&self) -> usize {
        self.len
    }

    /// Stores `batch`, returning its id.
    fn insert(&mut self, batch: BatchComposition) -> u64 {
        self.len += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(batch);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Some(batch));
                self.generations.push(0);
                slot
            }
        };
        (self.generations[slot as usize] as u64) << 32 | slot as u64
    }

    /// Whether `id` maps to a live in-flight batch.
    fn contains(&self, id: u64) -> bool {
        let slot = (id & u32::MAX as u64) as usize;
        let generation = (id >> 32) as u32;
        self.generations.get(slot).copied() == Some(generation) && self.slots[slot].is_some()
    }

    /// Removes and returns the batch behind `id`; `None` for ids that are
    /// stale (generation mismatch) or never existed.
    fn remove(&mut self, id: u64) -> Option<BatchComposition> {
        let slot = (id & u32::MAX as u64) as usize;
        let generation = (id >> 32) as u32;
        if self.generations.get(slot).copied() != Some(generation) {
            return None;
        }
        let batch = self.slots[slot].take()?;
        self.generations[slot] = generation.wrapping_add(1);
        self.free.push(slot as u32);
        self.len -= 1;
        Some(batch)
    }
}

/// One replica's scheduling state: its batch scheduler, pipeline-stage
/// tracker, the earliest pending wake-up (dedupes `Wakeup` events), and the
/// completion times of its in-flight batches (coalesces wake-ups that a
/// completion handler would cover anyway).
#[derive(Debug)]
pub struct EngineReplica {
    /// Batch formation and KV block accounting.
    pub scheduler: ReplicaScheduler,
    /// Pipeline-stage occupancy (resolves stage contention and bubbles).
    pub pipeline: PipelineTracker,
    wakeup_at: Option<SimTime>,
    /// `(completion time, batch id)` of in-flight batches in launch order
    /// (monotone: the synchronous pipeline retires batches FIFO). The batch
    /// id rides along so a crash can cancel exactly this replica's in-flight
    /// work — see [`EngineCore::cancel_inflight`].
    pending_completions: std::collections::VecDeque<(SimTime, u64)>,
}

impl EngineReplica {
    /// Builds one replica for `config` with the KV capacity from `plan`.
    pub fn new(config: &ClusterConfig, plan: &MemoryPlan) -> Self {
        let mut scheduler =
            ReplicaScheduler::new(config.scheduler, plan.num_kv_blocks, config.block_size);
        if config.prefix_cache.is_some() {
            scheduler.arm_prefix_cache();
        }
        EngineReplica {
            scheduler,
            pipeline: PipelineTracker::new(config.parallelism.pipeline_parallel as usize),
            wakeup_at: None,
            pending_completions: std::collections::VecDeque::new(),
        }
    }

    /// Builds a pool of `n` identical replicas.
    pub fn pool(config: &ClusterConfig, plan: &MemoryPlan, n: usize) -> Vec<Self> {
        (0..n).map(|_| EngineReplica::new(config, plan)).collect()
    }

    /// Clears the pending wake-up marker (call when handling its event).
    pub fn clear_wakeup(&mut self) {
        self.wakeup_at = None;
    }

    /// Number of this replica's batches still executing (a draining replica
    /// is done once both this and its scheduler's outstanding count are 0).
    pub fn inflight_len(&self) -> usize {
        self.pending_completions.len()
    }

    /// Crash reset: clears the wake-up marker and replaces the pipeline
    /// tracker with a fresh one (a crashed replica's stages hold nothing).
    /// In-flight batches must be cancelled first via
    /// [`EngineCore::cancel_inflight`].
    pub fn reset_for_crash(&mut self) {
        debug_assert!(self.pending_completions.is_empty());
        self.wakeup_at = None;
        self.pipeline = PipelineTracker::new(self.pipeline.num_stages());
    }
}

/// Receiver of the engine's per-batch measurement callbacks.
///
/// The sequential engine sinks straight into the [`MetricsCollector`]; the
/// sharded engine sinks into a per-shard effect log that the commit loop
/// later replays into the shared collector in exact sequential event order.
/// The method set mirrors the collector's accumulation API one-for-one so a
/// replayed log is bit-identical (f64 accumulation order included) to a
/// sequential run.
pub trait EngineSink {
    /// A batch's cached plan timing was applied (per-operator attribution).
    /// `replica` is the metrics-replica index the batch ran on — the
    /// mergeable collector keys its single-writer fold slots by it.
    fn on_batch_timed(&mut self, replica: usize, timing: &Arc<PlanTiming>);
    /// GPU-busy seconds for a scheduled batch (stage time × TP GPUs).
    fn on_gpu_busy(&mut self, replica: usize, gpu_secs: f64);
    /// A batch was formed and launched.
    fn on_batch_scheduled(
        &mut self,
        replica: usize,
        now: SimTime,
        batch: &BatchComposition,
        flops: f64,
        bytes: f64,
    );
    /// A replica's KV occupancy changed.
    fn on_kv_sample(&mut self, replica: usize, now: SimTime, utilization: f64);
    /// A batch finished and produced completion events.
    fn on_batch_complete(&mut self, replica: usize, now: SimTime, events: &[CompletionEvent]);
}

impl EngineSink for MetricsCollector {
    fn on_batch_timed(&mut self, replica: usize, timing: &Arc<PlanTiming>) {
        self.on_op_secs(replica, timing.op_secs());
    }
    fn on_gpu_busy(&mut self, replica: usize, gpu_secs: f64) {
        MetricsCollector::on_gpu_busy(self, replica, gpu_secs);
    }
    fn on_batch_scheduled(
        &mut self,
        replica: usize,
        now: SimTime,
        batch: &BatchComposition,
        flops: f64,
        bytes: f64,
    ) {
        MetricsCollector::on_batch_scheduled(self, replica, now, batch, flops, bytes);
    }
    fn on_kv_sample(&mut self, replica: usize, now: SimTime, utilization: f64) {
        MetricsCollector::on_kv_sample(self, replica, now, utilization);
    }
    fn on_batch_complete(&mut self, replica: usize, now: SimTime, events: &[CompletionEvent]) {
        MetricsCollector::on_batch_complete(self, replica, now, events);
    }
}

/// The sink-agnostic scheduling core: batch formation, timing, pipeline
/// occupancy, and in-flight tracking, with all measurement routed through an
/// [`EngineSink`] and all event scheduling through
/// [`EventPush`]. [`BatchEngine`] wraps one of
/// these around the metrics collector for the sequential path; the sharded
/// runner owns one per shard, sinking into an effect log.
pub struct EngineCore {
    timer: StageTimer,
    rng: SimRng,
    tp_gpus: f64,
    cpu_overhead: f64,
    inflight: InflightSlots,
    launched: u64,
    /// Per-replica straggler multipliers applied to every stage time after
    /// the shape-cache lookup (so the cache stays shared across replicas).
    /// Empty means "all 1.0" — the vector only materializes when a fault
    /// plan arms a `Slow` episode, and a multiplier of exactly 1.0 is
    /// bit-identical to no multiplier at all.
    stage_multipliers: Vec<f64>,
    /// Per-batch scratch (jittered stage times / stage durations /
    /// completion events), reused to keep allocations out of the scheduling
    /// hot loop.
    scratch_secs: Vec<f64>,
    scratch_durations: Vec<SimDuration>,
    events_scratch: Vec<CompletionEvent>,
}

impl fmt::Debug for EngineCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineCore")
            .field("inflight", &self.inflight.len())
            .field("launched", &self.launched)
            .finish()
    }
}

/// The policy-free core of an event-driven serving simulation.
///
/// Owns everything both simulators used to duplicate: the runtime source,
/// the metrics collector, the deterministic RNG behind CPU-overhead jitter,
/// the in-flight batch table, and the stop conditions (deadline, late-abort).
/// Concrete simulators call [`BatchEngine::try_schedule`] whenever a replica
/// might make progress and [`BatchEngine::retire_batch`] when a batch
/// completion event fires.
pub struct BatchEngine {
    /// Metrics sink shared by the engine and the policy layer (arrivals and
    /// completion events are policy-specific, so simulators record those).
    pub metrics: MetricsCollector,
    core: EngineCore,
    deadline: Option<SimTime>,
    deadline_hit: bool,
    late_abort: Option<LateAbort>,
}

impl fmt::Debug for BatchEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchEngine")
            .field("inflight", &self.core.inflight.len())
            .field("launched", &self.core.launched)
            .field("deadline_hit", &self.deadline_hit)
            .finish()
    }
}

impl EngineCore {
    /// Builds a core around `timer` with the jitter RNG seeded at `seed`.
    pub fn with_timer(config: &ClusterConfig, timer: StageTimer, seed: u64) -> Self {
        EngineCore {
            timer,
            rng: SimRng::new(seed),
            tp_gpus: config.parallelism.tensor_parallel as f64,
            cpu_overhead: config.cpu_overhead,
            inflight: InflightSlots::default(),
            launched: 0,
            stage_multipliers: Vec::new(),
            scratch_secs: Vec::new(),
            scratch_durations: Vec::new(),
            events_scratch: Vec::new(),
        }
    }

    /// The core's stage timer (for cache statistics inspection).
    pub fn timer(&self) -> &StageTimer {
        &self.timer
    }

    /// Number of batches currently executing.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Batches launched so far.
    pub fn launched(&self) -> u64 {
        self.launched
    }

    /// Sets replica `replica`'s straggler stage-time multiplier (1.0 =
    /// nominal speed). Applied to every stage after the shape-cache lookup,
    /// so the cache stays shared; a multiplier of exactly 1.0 leaves stage
    /// times bit-identical.
    ///
    /// # Panics
    ///
    /// Panics unless `mult` is finite and >= 1.0 (stragglers slow down).
    pub fn set_stage_multiplier(&mut self, replica: usize, mult: f64) {
        assert!(
            mult.is_finite() && mult >= 1.0,
            "straggler multiplier must be finite and >= 1.0, got {mult}"
        );
        if replica >= self.stage_multipliers.len() {
            if mult == 1.0 {
                return;
            }
            self.stage_multipliers.resize(replica + 1, 1.0);
        }
        self.stage_multipliers[replica] = mult;
    }

    /// Whether batch `id` is still in flight (stale ids from cancelled
    /// batches miss via their bumped generation).
    pub fn inflight_contains(&self, id: u64) -> bool {
        self.inflight.contains(id)
    }

    /// Cancels every in-flight batch on `replica` (crash semantics): the
    /// batches are removed from the in-flight table — so their already-queued
    /// completion events become stale ids the driver must drop — their slice
    /// storage is recycled, and the replica's pipeline and wake-up state are
    /// reset. Returns the number of batches cancelled. The scheduler still
    /// holds the evicted requests; call
    /// [`ReplicaScheduler::evict_all`](vidur_scheduler::ReplicaScheduler::evict_all)
    /// after this to requeue them.
    pub fn cancel_inflight(&mut self, replica: &mut EngineReplica) -> usize {
        let mut cancelled = 0;
        while let Some((_, id)) = replica.pending_completions.pop_front() {
            let batch = self
                .inflight
                .remove(id)
                .expect("pending completion must be in flight");
            replica.scheduler.recycle_batch(batch);
            cancelled += 1;
        }
        replica.reset_for_crash();
        cancelled
    }

    /// Per-iteration CPU/framework overhead in seconds.
    ///
    /// The oracle source adds a log-normal wiggle plus rare multi-millisecond
    /// hiccups — the part of the real system a simulator cannot predict; the
    /// estimator source uses the constant nominal overhead. The jitter
    /// draws come from one engine-wide RNG in launch order, which makes
    /// jittered runs inherently sequential.
    fn cpu_overhead(&mut self) -> f64 {
        let base = self.cpu_overhead;
        if !self.timer.jitters() {
            return base;
        }
        let mut t = base * self.rng.log_normal(0.0, 0.25);
        if self.rng.bernoulli(0.02) {
            t += self.rng.exponential(1.0 / 2.0e-3);
        }
        t
    }

    /// Greedily forms and launches batches on `replica` while its first
    /// pipeline stage is free; arms a deduplicated wake-up otherwise.
    /// Measurement callbacks go to `sink`; follow-up events to `queue`.
    /// See [`BatchEngine::try_schedule`] for the full contract.
    #[allow(clippy::too_many_arguments)]
    pub fn try_schedule<E>(
        &mut self,
        replica: &mut EngineReplica,
        metrics_idx: usize,
        now: SimTime,
        queue: &mut impl EventPush<E>,
        sink: &mut impl EngineSink,
        bytes_of: impl Fn(&BatchComposition) -> f64,
        wakeup: impl Fn() -> E,
        complete: impl Fn(u64) -> E,
    ) {
        loop {
            let free_at = replica.pipeline.stage0_free_at();
            if free_at > now {
                // Busy. A completion event for this replica at exactly
                // `free_at` re-enters try_schedule with the stage already
                // free, so a wake-up for the same instant would pop right
                // after it and do nothing — coalesce it away. With PP=1
                // stage 0 always frees exactly at batch completion, so this
                // halves the steady-state event traffic.
                if replica
                    .pending_completions
                    .iter()
                    .any(|&(t, _)| t == free_at)
                {
                    return;
                }
                // Otherwise arm a wake-up (dedupe identical ones).
                let need = replica.wakeup_at.is_none_or(|at| at > free_at);
                if need {
                    replica.wakeup_at = Some(free_at);
                    queue.push(free_at, wakeup());
                }
                return;
            }
            let Some(batch) = replica.scheduler.next_batch() else {
                return;
            };
            // The memoized prediction pipeline: shape key → cached
            // kv-invariant timing + this batch's decode attention → jitter.
            // Per-operator attribution (paper §5.2's operator-level
            // metrics) is replayed from the returned totals, and the
            // stochastic CPU overhead draws after pricing, so the cache
            // never touches the jitter stream.
            let timing = self.timer.time_batch(&batch);
            sink.on_batch_timed(metrics_idx, &timing);
            let overhead = self.cpu_overhead();
            self.scratch_secs.clear();
            self.scratch_secs.extend_from_slice(timing.stage_secs());
            let mult = self
                .stage_multipliers
                .get(metrics_idx)
                .copied()
                .unwrap_or(1.0);
            if mult != 1.0 {
                for s in &mut self.scratch_secs {
                    *s *= mult;
                }
            }
            self.scratch_secs[0] += overhead;
            let busy: f64 = self.scratch_secs.iter().sum();
            sink.on_gpu_busy(metrics_idx, busy * self.tp_gpus);
            self.scratch_durations.clear();
            self.scratch_durations.extend(
                self.scratch_secs
                    .iter()
                    .map(|&s| SimDuration::from_secs_f64(s.max(0.0))),
            );
            let completion = replica.pipeline.schedule(now, &self.scratch_durations);
            let bytes = bytes_of(&batch);
            sink.on_batch_scheduled(metrics_idx, now, &batch, timing.model_flops(), bytes);
            sink.on_kv_sample(metrics_idx, now, replica.scheduler.blocks().utilization());
            self.launched += 1;
            let id = self.inflight.insert(batch);
            replica.pending_completions.push_back((completion, id));
            queue.push(completion, complete(id));
            // Loop: with PP, stage 0 may free before completion, allowing
            // another microbatch now-ish; the next loop iteration either
            // schedules it or arms a wakeup.
        }
    }

    /// Pops finished batch `id` and retires it on `replica`'s scheduler.
    /// See [`BatchEngine::retire_batch`] for the full contract.
    #[allow(clippy::too_many_arguments)]
    pub fn retire_batch<E, Q: EventPush<E>>(
        &mut self,
        replica: &mut EngineReplica,
        metrics_idx: usize,
        id: u64,
        now: SimTime,
        queue: &mut Q,
        sink: &mut impl EngineSink,
        mut translate: impl FnMut(&mut CompletionEvent, &mut Q),
    ) {
        let batch = self.inflight.remove(id).expect("unknown in-flight batch");
        let done = replica.pending_completions.pop_front();
        debug_assert_eq!(done, Some((now, id)), "completions must retire in order");
        let mut events = std::mem::take(&mut self.events_scratch);
        replica.scheduler.complete_batch_into(&batch, &mut events);
        sink.on_kv_sample(metrics_idx, now, replica.scheduler.blocks().utilization());
        for ev in events.iter_mut() {
            translate(ev, queue);
        }
        sink.on_batch_complete(metrics_idx, now, &events);
        self.events_scratch = events;
        replica.scheduler.recycle_batch(batch);
    }
}

impl BatchEngine {
    /// Builds the engine for `config` with `metrics_replicas` KV-utilization
    /// series (aggregated clusters use one per replica; disaggregated ones,
    /// one per pool member). The stage timer and its shape cache are private
    /// to this engine; use [`BatchEngine::with_timer`] to share a warm cache
    /// across runs.
    pub fn new(
        config: &ClusterConfig,
        source: RuntimeSource,
        seed: u64,
        metrics_replicas: usize,
    ) -> Self {
        BatchEngine::with_timer(
            config,
            StageTimer::for_config(config, source),
            seed,
            metrics_replicas,
        )
    }

    /// Builds the engine around an existing [`StageTimer`], sharing its
    /// shape cache with other engines cloned from the same timer (the
    /// capacity search prices ~10 probes per configuration this way).
    ///
    /// `timer` must have been built for a configuration with the same model,
    /// parallelism, and `async_pipeline_comm` as `config` — cached stage
    /// times are only reusable within that context.
    pub fn with_timer(
        config: &ClusterConfig,
        timer: StageTimer,
        seed: u64,
        metrics_replicas: usize,
    ) -> Self {
        let mut metrics = MetricsCollector::with_mode(metrics_replicas, config.quantile_mode);
        if let Some(la) = config.late_abort {
            metrics.set_late_limit(la.delay_limit_secs);
        }
        if let Some(ts) = config.timeseries {
            metrics.set_timeseries(ts);
        }
        BatchEngine {
            metrics,
            core: EngineCore::with_timer(config, timer, seed),
            deadline: config.max_sim_time,
            deadline_hit: false,
            late_abort: config.late_abort,
        }
    }

    /// The engine's stage timer (for cache statistics inspection).
    pub fn timer(&self) -> &StageTimer {
        self.core.timer()
    }

    /// Number of batches currently executing.
    pub fn inflight_len(&self) -> usize {
        self.core.inflight_len()
    }

    /// Whether batch `id` is still in flight — see
    /// [`EngineCore::inflight_contains`]. Drivers with crash injection use
    /// this to drop completion events for cancelled batches.
    pub fn inflight_contains(&self, id: u64) -> bool {
        self.core.inflight_contains(id)
    }

    /// Sets a replica's straggler stage-time multiplier — see
    /// [`EngineCore::set_stage_multiplier`].
    pub fn set_stage_multiplier(&mut self, replica: usize, mult: f64) {
        self.core.set_stage_multiplier(replica, mult);
    }

    /// Cancels every in-flight batch on `replica` (crash semantics) — see
    /// [`EngineCore::cancel_inflight`].
    pub fn cancel_inflight(&mut self, replica: &mut EngineReplica) -> usize {
        self.core.cancel_inflight(replica)
    }

    /// Latches and reports the deadline: call at the top of every event
    /// handler; once `now` passes the configured cap the handler should drop
    /// the event, and [`BatchEngine::halted`] reports done.
    pub fn deadline_exceeded(&mut self, now: SimTime) -> bool {
        if let Some(deadline) = self.deadline {
            if now > deadline {
                self.deadline_hit = true;
                return true;
            }
        }
        false
    }

    /// Engine-level stop condition: deadline hit, all `target` requests
    /// completed, or the late-abort guardrail tripped. Policy layers may OR
    /// in their own conditions.
    pub fn halted(&self, target: usize) -> bool {
        if self.deadline_hit || self.metrics.completed() == target {
            return true;
        }
        if let Some(la) = self.late_abort {
            if self.metrics.late_count() > la.max_late {
                return true;
            }
        }
        false
    }

    /// Greedily forms and launches batches on `replica` while its first
    /// pipeline stage is free; arms a deduplicated wake-up otherwise.
    ///
    /// `bytes_of` prices one batch iteration's HBM traffic for MBU
    /// accounting. `wakeup` and `complete` construct the caller's event
    /// payloads; the engine itself schedules them on `queue`. The handler
    /// for the `wakeup()` event must call
    /// [`EngineReplica::clear_wakeup`] and re-enter `try_schedule` for this
    /// replica; the handler for `complete(id)` must route the finished
    /// batch id back into [`BatchEngine::retire_batch`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_schedule<E>(
        &mut self,
        replica: &mut EngineReplica,
        metrics_idx: usize,
        now: SimTime,
        queue: &mut EventQueue<E>,
        bytes_of: impl Fn(&BatchComposition) -> f64,
        wakeup: impl Fn() -> E,
        complete: impl Fn(u64) -> E,
    ) {
        self.core.try_schedule(
            replica,
            metrics_idx,
            now,
            queue,
            &mut self.metrics,
            bytes_of,
            wakeup,
            complete,
        );
    }

    /// Pops finished batch `id`, retires it on `replica`'s scheduler,
    /// samples KV utilization, and records the completion events — after
    /// giving the policy layer a chance to rewrite each event via
    /// `translate` (e.g. the disaggregated prefill→decode handoff, which
    /// un-finishes requests and schedules their KV transfer on `queue`).
    ///
    /// The event buffer and the batch's slice storage are both recycled, so
    /// the steady-state retire path is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in flight, which would indicate a simulator bug.
    pub fn retire_batch<E>(
        &mut self,
        replica: &mut EngineReplica,
        metrics_idx: usize,
        id: u64,
        now: SimTime,
        queue: &mut EventQueue<E>,
        translate: impl FnMut(&mut CompletionEvent, &mut EventQueue<E>),
    ) {
        self.core.retire_batch(
            replica,
            metrics_idx,
            id,
            now,
            queue,
            &mut self.metrics,
            translate,
        );
    }

    /// Consumes the engine and assembles the final [`SimulationReport`],
    /// summing preemptions over the backend's replicas.
    pub fn finish<'r>(
        self,
        trace_len: usize,
        sku: &GpuSku,
        total_gpus: u32,
        replicas: impl Iterator<Item = &'r EngineReplica>,
    ) -> SimulationReport {
        let preemptions = replicas.map(|r| r.scheduler.preemptions()).sum();
        self.into_report(trace_len, sku, total_gpus, preemptions)
    }

    /// Consumes the engine and assembles the final [`SimulationReport`].
    pub fn into_report(
        self,
        trace_len: usize,
        sku: &GpuSku,
        total_gpus: u32,
        preemptions: u64,
    ) -> SimulationReport {
        let gpus = total_gpus as f64;
        self.metrics.into_report(
            trace_len,
            sku.peak_fp16_flops * gpus,
            sku.mem_bandwidth * gpus,
            preemptions,
            PowerSpec {
                tdp_watts: sku.tdp_watts,
                idle_watts: sku.idle_watts,
                total_gpus,
            },
        )
    }
}

/// Translates a trace into arrival events via `mk` (taking the trace index).
///
/// # Panics
///
/// Panics if the trace holds more than `u32::MAX` requests — event payloads
/// carry `u32` indices, and silently truncating would alias requests.
pub fn trace_arrivals<E>(
    trace: &vidur_workload::Trace,
    mk: impl Fn(u32) -> E,
) -> Vec<(SimTime, E)> {
    assert!(
        u32::try_from(trace.requests.len()).is_ok(),
        "trace of {} requests exceeds the u32 event-index range",
        trace.requests.len()
    );
    trace
        .requests
        .iter()
        .enumerate()
        .map(|(i, req)| (req.arrival, mk(i as u32)))
        .collect()
}

/// Seeds an event queue with `arrivals` and runs `sim` to completion through
/// the shared [`vidur_core::event::run`] driver, handling at most `budget`
/// events (the simulators pass [`MAX_EVENTS`]). Returns the last processed
/// timestamp and the number of events processed.
///
/// # Panics
///
/// Panics if the run exhausts `budget` with events still queued and the
/// simulation not done: its report would be a truncated run that looks
/// complete.
pub fn drive<S: Simulation>(
    sim: &mut S,
    arrivals: Vec<(SimTime, S::Event)>,
    budget: u64,
) -> (SimTime, u64) {
    let mut queue = EventQueue::new();
    for (time, event) in arrivals {
        queue.push(time, event);
    }
    let (end, processed) = event::run(sim, &mut queue, budget);
    assert!(
        processed < budget || queue.is_empty() || sim.is_done(),
        "simulation exhausted its event budget of {budget} events at {end} \
         with {} still queued: the run would be truncated",
        queue.len()
    );
    (end, processed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidur_model::batch::RequestSlice;

    fn batch(id: u64) -> BatchComposition {
        BatchComposition::new(vec![RequestSlice::decode(id, 10)])
    }

    #[test]
    fn inflight_slots_roundtrip_and_recycle() {
        let mut slots = InflightSlots::default();
        let a = slots.insert(batch(1));
        let b = slots.insert(batch(2));
        assert_ne!(a, b);
        assert_eq!(slots.len(), 2);
        let got = slots.remove(a).expect("live id");
        assert_eq!(got.slices()[0].request_id, 1);
        assert_eq!(slots.len(), 1);
        // The freed slot recycles under a new generation: the new id must
        // differ from the retired one, and the stale id must miss.
        let c = slots.insert(batch(3));
        assert_ne!(c, a, "recycled slot carries a fresh generation");
        assert!(slots.remove(a).is_none(), "stale id misses");
        assert_eq!(slots.remove(c).unwrap().slices()[0].request_id, 3);
        assert_eq!(slots.remove(b).unwrap().slices()[0].request_id, 2);
        assert_eq!(slots.len(), 0);
        assert!(slots.remove(b).is_none(), "double retire misses");
    }

    #[test]
    fn inflight_slots_interleaved_fifo_pattern() {
        // The engine's real pattern: a window of in-flight batches retiring
        // FIFO while new ones launch. Ids must stay unique within the
        // window across heavy slot reuse.
        let mut slots = InflightSlots::default();
        let mut window = std::collections::VecDeque::new();
        for i in 0..1000u64 {
            window.push_back((i, slots.insert(batch(i))));
            if window.len() > 4 {
                let (req, id) = window.pop_front().unwrap();
                assert_eq!(slots.remove(id).unwrap().slices()[0].request_id, req);
            }
            let live: Vec<u64> = window.iter().map(|&(_, id)| id).collect();
            let mut dedup = live.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), live.len(), "live ids must be unique");
        }
        assert!(slots.slots.len() <= 8, "slots recycle instead of growing");
    }

    /// A simulation that never finishes: every event schedules another.
    struct Endless;

    impl Simulation for Endless {
        type Event = ();
        fn handle(&mut self, now: SimTime, _event: (), queue: &mut EventQueue<()>) {
            queue.push(now + SimDuration::from_nanos(1), ());
        }
    }

    #[test]
    #[should_panic(expected = "event budget of 10 events")]
    fn drive_panics_when_budget_truncates_the_run() {
        drive(&mut Endless, vec![(SimTime::ZERO, ())], 10);
    }
}
