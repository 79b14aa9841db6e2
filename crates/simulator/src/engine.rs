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
//! Each replica's batches run as one FIFO pipeline (paper §4.5, the
//! synchronous pipeline-parallel policy), so every [`EngineReplica`] keeps
//! its own in-flight batches in launch order and a completion retires the
//! front one. A completion event names only its replica and that replica's
//! crash *epoch* at launch: a crash cancels the replica's in-flight batches
//! and bumps the epoch, so their already-queued completions compare unequal
//! and the simulator drops them.
//!
//! Future backends (pipeline variants, hybrid pools) should build on
//! [`BatchEngine`] the same way: own the engine plus a set of
//! [`EngineReplica`]s, translate engine callbacks into their own event type,
//! and keep policy state next to it.

use crate::config::{ClusterConfig, LateAbort};
use crate::metrics::{MetricsCollector, PowerSpec, SimulationReport};
use crate::timing::StageTimer;
use std::collections::VecDeque;
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
use vidur_workload::Trace;

pub use crate::timing::RuntimeSource;

/// Event budget for one simulation run. Generous: batching means a few
/// events per iteration, so real runs finish far below this.
pub const MAX_EVENTS: u64 = 200_000_000;

/// One replica's engine state: its batch scheduler and pipeline-stage
/// tracker, its metrics-replica index, the earliest pending wake-up (dedupes
/// `Wakeup` events), its in-flight batches, its crash epoch, and its
/// straggler multiplier.
#[derive(Debug)]
pub struct EngineReplica {
    /// Batch formation and KV block accounting.
    pub scheduler: ReplicaScheduler,
    /// Pipeline-stage occupancy (resolves stage contention and bubbles).
    pub pipeline: PipelineTracker,
    /// This replica's index in the metrics collector's per-replica series.
    metrics_idx: usize,
    wakeup_at: Option<SimTime>,
    /// In-flight batches with their completion times, in launch order. The
    /// synchronous pipeline retires batches FIFO, so the times are monotone
    /// and a completion retires the front batch.
    inflight: VecDeque<(SimTime, BatchComposition)>,
    /// Crashes so far. Completion events carry the epoch of their launch.
    epoch: u32,
    /// Straggler multiplier applied to every stage time after the
    /// shape-cache lookup (so the cache stays shared across replicas).
    stage_multiplier: f64,
}

impl EngineReplica {
    /// Builds one replica for `config` with the KV capacity from `plan`,
    /// recording into the collector's per-replica series `metrics_idx`.
    pub fn new(config: &ClusterConfig, plan: &MemoryPlan, metrics_idx: usize) -> Self {
        let mut scheduler =
            ReplicaScheduler::new(config.scheduler, plan.num_kv_blocks, config.block_size);
        if config.prefix_cache.is_some() {
            scheduler.arm_prefix_cache();
        }
        EngineReplica {
            scheduler,
            pipeline: PipelineTracker::new(config.parallelism.pipeline_parallel as usize),
            metrics_idx,
            wakeup_at: None,
            inflight: VecDeque::new(),
            epoch: 0,
            stage_multiplier: 1.0,
        }
    }

    /// Builds `n` identical replicas; replica `i` records into the
    /// collector's per-replica series `i`.
    pub fn pool(config: &ClusterConfig, plan: &MemoryPlan, n: usize) -> Vec<Self> {
        (0..n)
            .map(|idx| EngineReplica::new(config, plan, idx))
            .collect()
    }

    /// Clears the pending wake-up marker (call when handling its event).
    pub fn clear_wakeup(&mut self) {
        self.wakeup_at = None;
    }

    /// Number of this replica's batches still executing (a draining replica
    /// is done once both this and its scheduler's outstanding count are 0).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// The replica's crash epoch. Batch completions and warm-up
    /// completions carry the epoch at which they were scheduled; one whose
    /// epoch differs belongs to a batch or a warm-up that a crash
    /// cancelled, so drop it.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Sets the straggler stage-time multiplier (1.0 = nominal speed). A
    /// multiplier of exactly 1.0 leaves stage times bit-identical.
    ///
    /// # Panics
    ///
    /// Panics unless `mult` is finite and >= 1.0 (stragglers slow down).
    pub fn set_stage_multiplier(&mut self, mult: f64) {
        assert!(
            mult.is_finite() && mult >= 1.0,
            "straggler multiplier must be finite and >= 1.0, got {mult}"
        );
        self.stage_multiplier = mult;
    }

    /// Crash semantics: cancels every in-flight batch (recycling its slice
    /// storage) and bumps the epoch, so the batches' already-queued
    /// completion events, and the completion of a warm-up in progress, read
    /// as stale. The pipeline tracker and wake-up marker reset; the
    /// straggler multiplier survives. The scheduler still
    /// holds the evicted requests; call
    /// [`ReplicaScheduler::evict_all`](vidur_scheduler::ReplicaScheduler::evict_all)
    /// after this to requeue them.
    pub fn crash(&mut self) {
        for (_, batch) in self.inflight.drain(..) {
            self.scheduler.recycle_batch(batch);
        }
        self.epoch = self.epoch.wrapping_add(1);
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
    /// `replica` is the metrics-replica index the batch ran on; the
    /// collector sums operator time cluster-wide and ignores it.
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

/// The sink-agnostic scheduling core: batch formation, timing, and
/// CPU-overhead jitter, with all measurement routed through an
/// [`EngineSink`] and all event scheduling through
/// [`EventPush`]. [`BatchEngine`] wraps one of
/// these around the metrics collector for the sequential path; the sharded
/// runner owns one per shard, sinking into an effect log.
pub struct EngineCore {
    timer: StageTimer,
    rng: SimRng,
    tp_gpus: f64,
    cpu_overhead: f64,
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
            .field("tp_gpus", &self.tp_gpus)
            .field("cpu_overhead", &self.cpu_overhead)
            .finish_non_exhaustive()
    }
}

/// The policy-free core of an event-driven serving simulation.
///
/// Owns everything both simulators used to duplicate: the runtime source,
/// the metrics collector, the deterministic RNG behind CPU-overhead jitter,
/// and the stop conditions (deadline, late-abort).
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
            .field("core", &self.core)
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
            scratch_secs: Vec::new(),
            scratch_durations: Vec::new(),
            events_scratch: Vec::new(),
        }
    }

    /// The core's stage timer (for cache statistics inspection).
    pub fn timer(&self) -> &StageTimer {
        &self.timer
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
        now: SimTime,
        queue: &mut impl EventPush<E>,
        sink: &mut impl EngineSink,
        bytes_of: impl Fn(&BatchComposition) -> f64,
        wakeup: impl Fn() -> E,
        complete: impl Fn(u32) -> E,
    ) {
        let metrics_idx = replica.metrics_idx;
        loop {
            let free_at = replica.pipeline.stage0_free_at();
            if free_at > now {
                // Busy. A completion event for this replica at exactly
                // `free_at` re-enters try_schedule with the stage already
                // free, so a wake-up for the same instant would pop right
                // after it and do nothing — coalesce it away. With PP=1
                // stage 0 always frees exactly at batch completion, so this
                // halves the steady-state event traffic.
                if replica.inflight.iter().any(|&(t, _)| t == free_at) {
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
            let mult = replica.stage_multiplier;
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
            replica.inflight.push_back((completion, batch));
            queue.push(completion, complete(replica.epoch));
            // Loop: with PP, stage 0 may free before completion, allowing
            // another microbatch now-ish; the next loop iteration either
            // schedules it or arms a wakeup.
        }
    }

    /// Pops `replica`'s oldest in-flight batch and retires it on its
    /// scheduler. See [`BatchEngine::retire_batch`] for the full contract.
    pub fn retire_batch<E, Q: EventPush<E>>(
        &mut self,
        replica: &mut EngineReplica,
        now: SimTime,
        queue: &mut Q,
        sink: &mut impl EngineSink,
        mut translate: impl FnMut(&mut CompletionEvent, &mut Q),
    ) {
        let metrics_idx = replica.metrics_idx;
        let (done_at, batch) = replica
            .inflight
            .pop_front()
            .expect("completion for a replica with no batch in flight");
        debug_assert_eq!(done_at, now, "completions must retire in order");
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
    /// replica. The handler for `complete(epoch)` must drop the event if
    /// `epoch` differs from [`EngineReplica::epoch`] (a crash cancelled the
    /// batch) and otherwise call [`BatchEngine::retire_batch`].
    pub fn try_schedule<E>(
        &mut self,
        replica: &mut EngineReplica,
        now: SimTime,
        queue: &mut EventQueue<E>,
        bytes_of: impl Fn(&BatchComposition) -> f64,
        wakeup: impl Fn() -> E,
        complete: impl Fn(u32) -> E,
    ) {
        self.core.try_schedule(
            replica,
            now,
            queue,
            &mut self.metrics,
            bytes_of,
            wakeup,
            complete,
        );
    }

    /// Pops `replica`'s oldest in-flight batch, retires it on the replica's
    /// scheduler, samples KV utilization, and records the completion
    /// events — after giving the policy layer a chance to rewrite each
    /// event via `translate` (e.g. the disaggregated prefill→decode
    /// handoff, which un-finishes requests and schedules their KV transfer
    /// on `queue`).
    ///
    /// The event buffer and the batch's slice storage are both recycled, so
    /// the steady-state retire path is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `replica` has no batch in flight, which would indicate a
    /// simulator bug.
    pub fn retire_batch<E>(
        &mut self,
        replica: &mut EngineReplica,
        now: SimTime,
        queue: &mut EventQueue<E>,
        translate: impl FnMut(&mut CompletionEvent, &mut EventQueue<E>),
    ) {
        self.core
            .retire_batch(replica, now, queue, &mut self.metrics, translate);
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
        let gpus = total_gpus as f64;
        self.metrics.into_report(
            trace_len,
            sku.peak_fp16_flops * gpus,
            sku.mem_bandwidth * gpus,
            replicas.map(|r| r.scheduler.preemptions()).sum(),
            PowerSpec {
                tdp_watts: sku.tdp_watts,
                idle_watts: sku.idle_watts,
                total_gpus,
            },
        )
    }
}

/// Checks what both simulators rely on a trace for: its indices fit the
/// `u32` event payloads, and its arrivals are non-decreasing, as
/// [`Trace::requests`] documents (the engines read arrivals by cursor, in
/// index order).
///
/// # Panics
///
/// Panics if the trace holds more than `u32::MAX` requests (silently
/// truncating would alias requests), or names the first request index
/// whose arrival precedes its predecessor's.
pub(crate) fn check_trace(trace: &Trace) {
    assert!(
        u32::try_from(trace.requests.len()).is_ok(),
        "trace of {} requests exceeds the u32 event-index range",
        trace.requests.len()
    );
    if let Some(i) = trace
        .requests
        .windows(2)
        .position(|w| w[1].arrival < w[0].arrival)
    {
        panic!(
            "trace arrivals must be non-decreasing: request index {} arrives at {}, \
             before index {} at {}",
            i + 1,
            trace.requests[i + 1].arrival,
            i,
            trace.requests[i].arrival
        );
    }
}

/// Runs `sim` to completion through the shared [`vidur_core::event::run`]
/// driver, handling at most `budget` events (the simulators pass
/// [`MAX_EVENTS`]). `arrivals` is a cursor over the trace's arrival events
/// in index order; `queue` holds the events known before the run that are
/// not arrivals (the fault schedule, the first autoscale tick). An arrival
/// precedes every same-instant queued event. Returns the last processed
/// timestamp and the number of events processed.
///
/// # Panics
///
/// Panics if the run exhausts `budget` with events still queued or arrivals
/// still unread and the simulation not done: its report would be a
/// truncated run that looks complete.
pub fn drive<S: Simulation>(
    sim: &mut S,
    mut queue: EventQueue<S::Event>,
    arrivals: impl Iterator<Item = (SimTime, S::Event)>,
    budget: u64,
) -> (SimTime, u64) {
    let mut arrivals = arrivals.peekable();
    let (end, processed) = event::run(sim, &mut queue, &mut arrivals, budget);
    assert!(
        processed < budget || (queue.is_empty() && arrivals.peek().is_none()) || sim.is_done(),
        "simulation exhausted its event budget of {budget} events at {end} \
         with {} still queued and {} arrivals unread: the run would be truncated",
        queue.len(),
        arrivals.count()
    );
    (end, processed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simulation that never finishes: every event schedules another.
    struct Endless;

    impl Simulation for Endless {
        type Event = ();
        fn handle(&mut self, now: SimTime, _event: (), queue: &mut EventQueue<()>) {
            queue.push(now + SimDuration::from_nanos(1), ());
        }
    }

    fn arrivals(n: u64) -> impl Iterator<Item = (SimTime, ())> {
        (0..n).map(|t| (SimTime::from_nanos(t), ()))
    }

    #[test]
    #[should_panic(expected = "event budget of 10 events")]
    fn drive_panics_when_budget_truncates_the_run() {
        drive(&mut Endless, EventQueue::new(), arrivals(1), 10);
    }

    /// Handles every event and schedules nothing.
    struct Sink;

    impl Simulation for Sink {
        type Event = ();
        fn handle(&mut self, _now: SimTime, _event: (), _queue: &mut EventQueue<()>) {}
    }

    /// Only unread arrivals remain when the budget runs out: the queue is
    /// empty, but the run is still truncated.
    #[test]
    #[should_panic(expected = "0 still queued and 5 arrivals unread")]
    fn drive_panics_when_budget_leaves_arrivals_unread() {
        drive(&mut Sink, EventQueue::new(), arrivals(15), 10);
    }

    #[test]
    fn drive_accepts_a_budget_that_exactly_covers_the_run() {
        assert_eq!(drive(&mut Sink, EventQueue::new(), arrivals(10), 10).1, 10);
    }
}
