//! A benchmark-side copy of the sequential fixed-fleet event loop of
//! `ClusterSimulator::run`, built only from public calls and timed at every
//! layer boundary.
//!
//! It must produce a report byte-identical to `ClusterSimulator::run` on the
//! same inputs; otherwise its per-layer numbers would describe a different
//! program. It covers what the benchmark workloads use: a fixed fleet, no
//! fault plan or autoscaler, no time cap or late-abort, and jitter-free
//! (estimator) runtimes.

use crate::tracer::{Family, Tracer};
use std::collections::VecDeque;
use std::time::Instant;
use vidur_core::event::EventQueue;
use vidur_core::time::{SimDuration, SimTime};
use vidur_model::batch::BatchComposition;
use vidur_scheduler::replica::CompletionEvent;
use vidur_scheduler::{PipelineTracker, ReplicaScheduler, Request, RouteRequest, RoutingTier};
use vidur_simulator::engine::MAX_EVENTS;
use vidur_simulator::metrics::PowerSpec;
use vidur_simulator::{
    ClusterConfig, MetricsCollector, PrefixStats, SimulationReport, StageTimer, TenantRoutingStats,
};
use vidur_workload::Trace;

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(u32),
    Wakeup(u32),
    Complete(u32, usize),
}

/// One replica: its scheduler, pipeline tracker, pending wake-up, and the
/// `(completion time, batch slot)` of its in-flight batches in launch order.
struct Replica {
    scheduler: ReplicaScheduler,
    pipeline: PipelineTracker,
    wakeup_at: Option<SimTime>,
    pending: VecDeque<(SimTime, usize)>,
}

/// What a traced run leaves behind besides the tracer's own aggregates.
#[derive(Debug)]
pub struct TracedRun {
    /// The report, to compare with `ClusterSimulator::run`'s.
    pub report: SimulationReport,
    /// Wall seconds of the whole traced run.
    pub wall_s: f64,
    /// Events handled.
    pub events: u64,
    /// Shapes the run's stage timer holds at the end.
    pub cached_shapes: usize,
}

struct Loop<'a> {
    config: &'a ClusterConfig,
    trace: &'a Trace,
    timer: StageTimer,
    metrics: MetricsCollector,
    tier: RoutingTier,
    replicas: Vec<Replica>,
    inflight: Vec<Option<BatchComposition>>,
    free_slots: Vec<usize>,
    queue: EventQueue<Event>,
    tracer: &'a mut Tracer,
    /// Shape-cache misses seen so far, to tell a hit from a miss.
    misses: u64,
    hits_view: Vec<u64>,
    events_scratch: Vec<CompletionEvent>,
    secs_scratch: Vec<f64>,
    durations_scratch: Vec<SimDuration>,
}

/// Runs `trace` under `config` through the traced loop, pricing batches
/// with `timer` (built for `config`, jitter-free) and seeding the routing
/// tier from `seed` exactly as `ClusterSimulator::with_timer` does.
///
/// # Panics
///
/// Panics if the configuration arms a feature the traced loop does not
/// copy (faults, autoscaler, time cap, late-abort, timeseries) or the timer
/// jitters, or if the configuration cannot host the model.
pub fn run_traced(
    config: &ClusterConfig,
    trace: &Trace,
    timer: StageTimer,
    seed: u64,
    tracer: &mut Tracer,
) -> TracedRun {
    assert!(
        !config.elastic()
            && config.max_sim_time.is_none()
            && config.late_abort.is_none()
            && config.timeseries.is_none()
            && !timer.jitters(),
        "the traced loop copies only the fixed-fleet, jitter-free engine"
    );
    let started = Instant::now();
    // Building the fleet is the loop's own work: booked as glue.
    let plan = config
        .memory_plan()
        .expect("configuration cannot host the model");
    let quota = config.tenant_quota_blocks(plan.num_kv_blocks);
    let replicas = (0..config.num_replicas)
        .map(|_| {
            let mut scheduler =
                ReplicaScheduler::new(config.scheduler, plan.num_kv_blocks, config.block_size);
            if config.prefix_cache.is_some() {
                scheduler.arm_prefix_cache();
            }
            if let Some(q) = &quota {
                scheduler.set_tenant_quotas(q);
            }
            Replica {
                scheduler,
                pipeline: PipelineTracker::new(config.parallelism.pipeline_parallel as usize),
                wakeup_at: None,
                pending: VecDeque::new(),
            }
        })
        .collect();
    let mut metrics = MetricsCollector::with_mode(config.num_replicas, config.quantile_mode);
    if !trace.tenants.is_empty() {
        metrics.set_tenants(&trace.tenants, config.tenant_slo);
    }
    let tier = RoutingTier::new(
        config.global_policy,
        config.num_replicas,
        seed ^ 0x9E37,
        &config.tenant_weights,
    );
    tracer.close(Family::EngineGlue, None, started, Instant::now());
    let mut lp = Loop {
        config,
        trace,
        misses: timer.stats().misses,
        timer,
        metrics,
        tier,
        replicas,
        inflight: Vec::new(),
        free_slots: Vec::new(),
        queue: EventQueue::new(),
        tracer,
        hits_view: vec![0; config.num_replicas],
        events_scratch: Vec::new(),
        secs_scratch: Vec::new(),
        durations_scratch: Vec::new(),
    };
    assert!(
        u32::try_from(trace.requests.len()).is_ok(),
        "trace exceeds the u32 event-index range"
    );
    for (i, req) in trace.requests.iter().enumerate() {
        lp.push(req.arrival, Event::Arrival(i as u32), None);
    }
    let events = lp.drive();
    let cached_shapes = lp.timer.cached_shapes();
    let report = lp.report();
    // Tearing the fleet down is the loop's own work too.
    let teardown = Instant::now();
    drop(lp);
    tracer.close(Family::EngineGlue, None, teardown, Instant::now());
    TracedRun {
        report,
        wall_s: started.elapsed().as_secs_f64(),
        events,
        cached_shapes,
    }
}

impl Loop<'_> {
    fn push(&mut self, at: SimTime, event: Event, request: Option<u64>) {
        let queue = &mut self.queue;
        self.tracer
            .time(Family::EventPush, request, || queue.push(at, event));
    }

    /// `vidur_core::event::run` with `ClusterSimulator::is_done`. Pops and
    /// handled events tile the loop's time: each span starts where the
    /// previous one ended, so the loop's own bookkeeping between them is
    /// attributed too.
    fn drive(&mut self) -> u64 {
        let mut now = SimTime::ZERO;
        let mut processed = 0u64;
        let mut mark = Instant::now();
        while processed < MAX_EVENTS {
            if self.metrics.completed() == self.trace.len() {
                break;
            }
            let popped = self.queue.pop();
            let popped_at = Instant::now();
            self.tracer.close(Family::EventPop, None, mark, popped_at);
            let Some((time, event)) = popped else {
                break;
            };
            assert!(time >= now, "event queue went back in time");
            now = time;
            mark = self.handle(now, event, popped_at);
            processed += 1;
        }
        processed
    }

    /// Handles one event in a parent span starting at `start`; returns the
    /// span's end.
    fn handle(&mut self, now: SimTime, event: Event, start: Instant) -> Instant {
        match event {
            Event::Arrival(idx) => {
                let tr = self.trace.requests[idx as usize];
                self.tracer
                    .begin_event("engine.arrival", Some(tr.id), start);
                let metrics = &mut self.metrics;
                self.tracer.time(Family::MetricsRecord, Some(tr.id), || {
                    metrics.on_arrival(tr.id, now, tr.decode_tokens, tr.tenant)
                });
                let req = RouteRequest {
                    key: idx as u64,
                    tenant: tr.tenant,
                    priority: tr.priority,
                    tokens: tr.prefill_tokens + tr.decode_tokens,
                };
                self.publish_prefix_hits(idx);
                let tier = &mut self.tier;
                if let Some(target) = self
                    .tracer
                    .time(Family::RouterRoute, Some(tr.id), || tier.route(req))
                {
                    self.dispatch(idx, target, now);
                }
            }
            Event::Wakeup(r) => {
                self.tracer.begin_event("engine.wakeup", None, start);
                self.replicas[r as usize].wakeup_at = None;
                self.try_schedule(r as usize, now);
            }
            Event::Complete(r, slot) => {
                self.tracer.begin_event("engine.complete", None, start);
                self.retire(r as usize, slot, now);
            }
        }
        self.tracer.end_event()
    }

    fn publish_prefix_hits(&mut self, idx: u32) {
        let tr = self.trace.requests[idx as usize];
        let armed = self.config.prefix_cache.is_some();
        let (replicas, tier, hits) = (&self.replicas, &mut self.tier, &mut self.hits_view);
        self.tracer.time(Family::RouterPrefixView, Some(tr.id), || {
            if armed {
                for (hit, rep) in hits.iter_mut().zip(replicas) {
                    *hit = rep
                        .scheduler
                        .blocks()
                        .prefix_cached_tokens(tr.prefix_id, tr.prefill_tokens);
                }
                tier.set_route_prefix_hits(hits);
            }
        });
    }

    fn dispatch(&mut self, idx: u32, target: usize, now: SimTime) {
        let tr = self.trace.requests[idx as usize];
        let request = Request::new(tr.id, tr.arrival, tr.prefill_tokens, tr.decode_tokens)
            .with_tenant(tr.tenant)
            .with_priority(tr.priority)
            .with_prefix(tr.prefix_id, tr.prefix_len);
        let scheduler = &mut self.replicas[target].scheduler;
        self.tracer.time(Family::ReplicaAdmit, Some(tr.id), || {
            scheduler.add_request(request)
        });
        self.try_schedule(target, now);
    }

    /// Binds deferred requests while the tier will place them; deferred
    /// requests route on an all-zero hit view.
    fn drain_deferred(&mut self, now: SimTime) {
        let armed = self.config.prefix_cache.is_some();
        loop {
            let (tier, hits) = (&mut self.tier, &mut self.hits_view);
            let ready = self.tracer.time(Family::RouterDeferred, None, || {
                if armed {
                    hits.fill(0);
                    tier.set_route_prefix_hits(hits);
                }
                tier.next_ready()
            });
            let Some((req, target)) = ready else {
                return;
            };
            self.dispatch(req.key as u32, target, now);
        }
    }

    /// `EngineCore::try_schedule` for a jitter-free timer and no stragglers.
    fn try_schedule(&mut self, r: usize, now: SimTime) {
        loop {
            let rep = &mut self.replicas[r];
            let free_at = rep.pipeline.stage0_free_at();
            if free_at > now {
                if rep.pending.iter().any(|&(t, _)| t == free_at) {
                    return;
                }
                if rep.wakeup_at.is_none_or(|at| at > free_at) {
                    rep.wakeup_at = Some(free_at);
                    self.push(free_at, Event::Wakeup(r as u32), None);
                }
                return;
            }
            let scheduler = &mut rep.scheduler;
            let Some(batch) = self
                .tracer
                .time(Family::ReplicaForm, None, || scheduler.next_batch())
            else {
                return;
            };
            let start = Instant::now();
            let timing = self.timer.time_batch(&batch);
            let end = Instant::now();
            let misses = self.timer.stats().misses;
            let family = if misses == self.misses {
                Family::TimingHit
            } else {
                Family::TimingMiss
            };
            self.misses = misses;
            self.tracer.close(family, None, start, end);
            let metrics = &mut self.metrics;
            self.tracer.time(Family::MetricsRecord, None, || {
                metrics.on_op_secs(r, timing.op_secs())
            });
            self.secs_scratch.clear();
            self.secs_scratch.extend_from_slice(timing.stage_secs());
            self.secs_scratch[0] += self.config.cpu_overhead;
            let busy: f64 = self.secs_scratch.iter().sum();
            let gpu_secs = busy * self.config.parallelism.tensor_parallel as f64;
            let metrics = &mut self.metrics;
            self.tracer.time(Family::MetricsRecord, None, || {
                metrics.on_gpu_busy(r, gpu_secs)
            });
            self.durations_scratch.clear();
            self.durations_scratch.extend(
                self.secs_scratch
                    .iter()
                    .map(|&s| SimDuration::from_secs_f64(s.max(0.0))),
            );
            let rep = &mut self.replicas[r];
            let completion = rep.pipeline.schedule(now, &self.durations_scratch);
            let bytes = batch_bytes(self.config, &batch);
            let utilization = rep.scheduler.blocks().utilization();
            let metrics = &mut self.metrics;
            self.tracer.time(Family::MetricsRecord, None, || {
                metrics.on_batch_scheduled(r, now, &batch, timing.model_flops(), bytes);
                metrics.on_kv_sample(r, now, utilization);
            });
            let slot = match self.free_slots.pop() {
                Some(slot) => {
                    self.inflight[slot] = Some(batch);
                    slot
                }
                None => {
                    self.inflight.push(Some(batch));
                    self.inflight.len() - 1
                }
            };
            self.replicas[r].pending.push_back((completion, slot));
            self.push(completion, Event::Complete(r as u32, slot), None);
        }
    }

    /// `EngineCore::retire_batch` plus the cluster's completion handler.
    fn retire(&mut self, r: usize, slot: usize, now: SimTime) {
        let batch = self.inflight[slot].take().expect("unknown in-flight batch");
        self.free_slots.push(slot);
        let rep = &mut self.replicas[r];
        let done = rep.pending.pop_front();
        debug_assert_eq!(done, Some((now, slot)), "completions retire in order");
        let mut events = std::mem::take(&mut self.events_scratch);
        let scheduler = &mut rep.scheduler;
        self.tracer.time(Family::ReplicaRetire, None, || {
            scheduler.complete_batch_into(&batch, &mut events)
        });
        let utilization = rep.scheduler.blocks().utilization();
        let metrics = &mut self.metrics;
        self.tracer.time(Family::MetricsRecord, None, || {
            metrics.on_kv_sample(r, now, utilization)
        });
        for ev in &events {
            if ev.finished {
                let tr = self.trace.requests[ev.id as usize];
                let tier = &mut self.tier;
                self.tracer.time(Family::RouterUpdate, Some(tr.id), || {
                    tier.on_finished(r, tr.tenant, tr.prefill_tokens + tr.decode_tokens)
                });
            }
        }
        let metrics = &mut self.metrics;
        self.tracer.time(Family::MetricsRecord, None, || {
            metrics.on_batch_complete(r, now, &events)
        });
        self.events_scratch = events;
        let scheduler = &mut self.replicas[r].scheduler;
        self.tracer.time(Family::ReplicaRetire, None, || {
            scheduler.recycle_batch(batch)
        });
        let free = self.replicas[r].scheduler.blocks().free_blocks();
        let tier = &mut self.tier;
        self.tracer.time(Family::RouterUpdate, None, || {
            tier.set_free_kv_blocks(r, free)
        });
        self.drain_deferred(now);
        self.try_schedule(r, now);
    }

    /// Publishes routing and prefix statistics and assembles the report,
    /// as `ClusterSimulator::run_with_stats` and `BatchEngine::finish` do.
    /// The loop's collector is spent afterwards.
    fn report(&mut self) -> SimulationReport {
        let mut metrics = std::mem::replace(&mut self.metrics, MetricsCollector::new(0));
        let (config, trace, tier, replicas) = (self.config, self.trace, &self.tier, &self.replicas);
        self.tracer.time(Family::MetricsReport, None, move || {
            let mut routing: Vec<TenantRoutingStats> = tier
                .tenant_stats()
                .iter()
                .enumerate()
                .map(|(t, s)| TenantRoutingStats {
                    routed: s.routed,
                    deferred: s.deferred,
                    quota_denied: 0,
                    fair_share_attainment: tier.fair_share_attainment(t as u32),
                })
                .collect();
            for rep in replicas {
                for (t, &denied) in rep.scheduler.quota_denied().iter().enumerate() {
                    if t >= routing.len() {
                        routing.resize(t + 1, TenantRoutingStats::default());
                    }
                    routing[t].quota_denied += denied;
                }
            }
            metrics.set_tenant_routing(routing);
            if config.prefix_cache.is_some() {
                let mut prefix = PrefixStats::default();
                for rep in replicas {
                    let s = &rep.scheduler;
                    prefix.hit_requests += s.prefix_hit_requests();
                    prefix.tokens_saved += s.prefix_tokens_saved();
                    add_into(&mut prefix.tenant_hits, s.tenant_prefix_hits());
                    add_into(&mut prefix.tenant_saved, s.tenant_prefix_saved());
                }
                metrics.set_prefix(prefix);
            }
            let gpus = config.total_gpus();
            let preemptions = replicas.iter().map(|r| r.scheduler.preemptions()).sum();
            metrics.into_report(
                trace.len(),
                config.sku.peak_fp16_flops * gpus as f64,
                config.sku.mem_bandwidth * gpus as f64,
                preemptions,
                PowerSpec {
                    tdp_watts: config.sku.tdp_watts,
                    idle_watts: config.sku.idle_watts,
                    total_gpus: gpus,
                },
            )
        })
    }
}

fn add_into(acc: &mut Vec<u64>, values: &[u64]) {
    if acc.len() < values.len() {
        acc.resize(values.len(), 0);
    }
    for (a, v) in acc.iter_mut().zip(values) {
        *a += v;
    }
}

/// HBM traffic of one batch iteration, as the cluster prices it for MBU:
/// every device streams its resident weights once, plus KV reads/writes.
fn batch_bytes(config: &ClusterConfig, batch: &BatchComposition) -> f64 {
    let weights = config.parallelism.weight_bytes_per_device(&config.model)
        * config.parallelism.gpus_per_replica() as f64;
    let kv = config.model.kv_bytes_per_token() as f64;
    let kv_read = batch.decode_kv_read_tokens() as f64 * kv;
    let kv_write = batch.total_query_tokens() as f64 * kv;
    weights + kv_read + kv_write
}
