//! The event-driven cluster simulator.
//!
//! Events: request arrivals, replica wake-ups (stage 0 freed), and batch
//! completions. Batch formation, stage timing, and completion bookkeeping
//! live in the shared [`engine`]; this module contributes the
//! aggregated-cluster policy: a [`RoutingTier`] global router (paper §4.5 —
//! stateless and stateful deferred policies, fair-share, affinity) and
//! per-batch HBM-traffic pricing for MBU. With PP > 1, several disjoint
//! microbatches are in flight per replica, which is exactly the paper's
//! synchronous pipeline-parallel policy (§4.5).

use crate::config::ClusterConfig;
use crate::engine::{self, BatchEngine, EngineReplica};
use crate::faults::{warmup_delay_secs, FleetObservation, ScaleDecision, TTFT_SLO_SECS};
use crate::metrics::{FleetStats, SimulationReport, TenantRoutingStats};
use std::collections::HashSet;
use std::sync::Arc;
use vidur_core::event::{EventQueue, Simulation};
use vidur_core::time::{SimDuration, SimTime};
use vidur_model::batch::BatchComposition;
use vidur_scheduler::{ReplicaHealth, Request, RequestId, RouteRequest, RoutingTier};
use vidur_workload::faults::FaultAction;
use vidur_workload::Trace;

pub use crate::engine::RuntimeSource;

/// Simulator event payload (public only because the `Simulation` trait
/// exposes the associated event type; not constructible outside this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// Trace request `idx` arrives.
    #[doc(hidden)]
    Arrival(u32),
    /// Replica may be able to schedule (stage 0 freed).
    Wakeup(u32),
    /// Replica's oldest in-flight batch finished its last stage; the second
    /// field is the replica's crash epoch when the batch launched.
    BatchComplete(u32, u32),
    /// Fault record `idx` of the armed plan fires (elastic runs only).
    Fault(u32),
    /// The autoscaler evaluates one observation window (elastic runs only).
    AutoscaleTick,
    /// Replica finished warming up and becomes routable (elastic runs only);
    /// the second field is the replica's crash epoch when the warm-up began.
    WarmupDone(u32, u32),
}

/// Per-run elastic-fleet state: warm-up pricing, per-tenant retry/requeue
/// accounting, and per-replica uptime intervals. The fault schedule and the
/// autoscaler are read from the [`ClusterConfig`]. `None` on non-elastic
/// runs, so the fixed-fleet hot path pays nothing and stays bit-identical.
pub(crate) struct ElasticState {
    /// Warm-up delay priced once from the replica's total weight bytes.
    warmup_delay: SimDuration,
    /// Trace indices requeued but not yet re-dispatched: their next
    /// dispatch is a retry. Only membership is read, never the order.
    awaiting_retry: HashSet<u32>,
    /// Per-tenant counts; the report's fleet totals are their sums.
    tenant_retries: Vec<u64>,
    tenant_requeued: Vec<u64>,
    tenant_evicted: Vec<u64>,
    /// Open uptime interval start per replica slot (`None` = down).
    up_since: Vec<Option<SimTime>>,
    /// Closed uptime accumulated per replica slot, seconds.
    up_secs: Vec<f64>,
    /// Windowed TTFT counters the autoscaler observes.
    window_prefills: u64,
    window_slo_ok: u64,
    /// Reusable eviction buffer.
    evict_scratch: Vec<RequestId>,
}

impl ElasticState {
    fn new(config: &ClusterConfig, warmup_secs: f64) -> Self {
        let fleet = config.fleet_size();
        let mut up_since = vec![None; fleet];
        for slot in up_since.iter_mut().take(config.num_replicas) {
            *slot = Some(SimTime::ZERO);
        }
        ElasticState {
            warmup_delay: SimDuration::from_secs_f64(warmup_secs),
            awaiting_retry: HashSet::new(),
            tenant_retries: Vec::new(),
            tenant_requeued: Vec::new(),
            tenant_evicted: Vec::new(),
            up_since,
            up_secs: vec![0.0; fleet],
            window_prefills: 0,
            window_slo_ok: 0,
            evict_scratch: Vec::new(),
        }
    }

    /// Opens replica `r`'s uptime interval at `now` (no-op if already open).
    fn open_up_interval(&mut self, r: usize, now: SimTime) {
        if self.up_since[r].is_none() {
            self.up_since[r] = Some(now);
        }
    }

    /// Closes replica `r`'s uptime interval at `now` (no-op if not open).
    fn close_up_interval(&mut self, r: usize, now: SimTime) {
        if let Some(since) = self.up_since[r].take() {
            self.up_secs[r] += now.saturating_duration_since(since).as_secs_f64();
        }
    }

    fn bump(counts: &mut Vec<u64>, tenant: u32) {
        let idx = tenant as usize;
        if idx >= counts.len() {
            counts.resize(idx + 1, 0);
        }
        counts[idx] += 1;
    }

    /// Finalizes uptime accounting at the run's horizon and assembles the
    /// published [`FleetStats`].
    fn into_fleet_stats(mut self, end: SimTime) -> FleetStats {
        for r in 0..self.up_since.len() {
            self.close_up_interval(r, end);
        }
        let horizon = end.as_secs_f64();
        FleetStats {
            retries: self.tenant_retries.iter().sum(),
            requeued: self.tenant_requeued.iter().sum(),
            evicted_by_crash: self.tenant_evicted.iter().sum(),
            replica_hours: self.up_secs.iter().sum::<f64>() / 3600.0,
            replica_availability: self
                .up_secs
                .iter()
                .map(|&s| {
                    if horizon > 0.0 {
                        (s / horizon).min(1.0)
                    } else {
                        0.0
                    }
                })
                .collect(),
            tenant_retries: self.tenant_retries,
            tenant_requeued: self.tenant_requeued,
            tenant_evicted: self.tenant_evicted,
        }
    }
}

/// Execution statistics for one simulation run — how the event loop ran, as
/// opposed to what the simulation measured (the [`SimulationReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Event-loop shards actually used (1 = the sequential engine, either
    /// because sharding was off or the configuration fell off the fast
    /// path).
    pub shards: usize,
    /// Metric and tier effects the merger replayed from the shards' logs,
    /// in exact sequential order: every effect the run produced, in every
    /// quantile mode. Zero on sequential runs (nothing is logged).
    pub streamed_effects: u64,
    /// Rounds the sharded run executed, counting the final drain. A
    /// stateful policy routes one arrival instant per round (same-instant
    /// arrivals share a round); a stateless one (round-robin, random)
    /// routes up to a fixed batch of arrivals per round. Zero on sequential
    /// runs.
    pub spec_windows: u64,
    /// Routing mispredictions. Always 0: the arrival-barrier runner routes
    /// on the exact live tier and never guesses. Kept for report
    /// compatibility.
    pub mispredictions: u64,
    /// Simulated events discarded by rollbacks. Always 0: the
    /// arrival-barrier runner never rolls back. Kept for report
    /// compatibility.
    pub rollback_events: u64,
    /// Why the run left the sharded fast path, when it did: `None` on
    /// sharded runs *and* on runs that never asked for sharding
    /// (`ClusterConfig::shards` <= 1). A sharding request that fell back —
    /// whether rejected up front (armed elastic fleet, armed prefix cache,
    /// oracle-jittered runtimes, late-abort, `Deferred` policy) or aborted mid-run (a stateful policy actually deferred a
    /// request) — names the first blocking reason here.
    pub fallback_reason: Option<&'static str>,
}

/// The cluster simulator. Construct with [`ClusterSimulator::new`], run with
/// [`ClusterSimulator::run`].
pub struct ClusterSimulator {
    pub(crate) config: ClusterConfig,
    /// Shared so the sequential driver can read arrivals by cursor while
    /// the handlers read the same requests.
    pub(crate) trace: Arc<Trace>,
    pub(crate) engine: BatchEngine,
    pub(crate) replicas: Vec<EngineReplica>,
    /// The global scheduling tier: routing policy, live replica view, and
    /// deferred-queue bookkeeping (paper §4.5, first tier).
    pub(crate) tier: RoutingTier,
    /// Elastic-fleet state (fault schedule, autoscaler, uptime accounting);
    /// `None` unless [`ClusterConfig::elastic`] — the fixed-fleet path pays
    /// nothing for the feature.
    pub(crate) elastic: Option<Box<ElasticState>>,
    /// One expected prefix hit per replica, reused for every routing
    /// decision while the prefix cache is armed.
    pub(crate) prefix_hits: Vec<u64>,
    /// Construction seed, kept so a sharded attempt that aborts mid-run (a
    /// stateful policy deferred a request) can rebuild the simulator from
    /// scratch and re-run sequentially.
    pub(crate) seed: u64,
}

impl std::fmt::Debug for ClusterSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSimulator")
            .field("config", &self.config.label())
            .field("trace_len", &self.trace.len())
            .field(
                "inflight",
                &self
                    .replicas
                    .iter()
                    .map(EngineReplica::inflight_len)
                    .sum::<usize>(),
            )
            .finish()
    }
}

/// Assembles the per-tenant routing statistics a simulator publishes into
/// its metrics collector: the tier's routed/deferred counts and fair-share
/// attainment, plus quota denials summed over the replicas' schedulers.
/// Shared by the aggregated and disaggregated simulators.
pub(crate) fn routing_stats<'r>(
    tier: &RoutingTier,
    replicas: impl IntoIterator<Item = &'r EngineReplica>,
) -> Vec<TenantRoutingStats> {
    let mut stats: Vec<TenantRoutingStats> = tier
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
    for replica in replicas {
        for (t, &denied) in replica.scheduler.quota_denied().iter().enumerate() {
            if t >= stats.len() {
                stats.resize(t + 1, TenantRoutingStats::default());
            }
            stats[t].quota_denied += denied;
        }
    }
    stats
}

/// Approximate HBM traffic of one batch iteration (for MBU): every device
/// streams its resident weights once, plus KV reads/writes.
pub(crate) fn batch_bytes(config: &ClusterConfig, batch: &BatchComposition) -> f64 {
    let weights = config.parallelism.weight_bytes_per_device(&config.model)
        * config.parallelism.gpus_per_replica() as f64;
    let kv_read = batch.decode_kv_read_tokens() as f64 * config.model.kv_bytes_per_token() as f64;
    let kv_write = batch.total_query_tokens() as f64 * config.model.kv_bytes_per_token() as f64;
    weights + kv_read + kv_write
}

impl ClusterSimulator {
    /// Builds a simulator for `config` over `trace` with runtimes from
    /// `source`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot host the model (run
    /// [`ClusterConfig::memory_plan`] first to pre-validate).
    pub fn new(config: ClusterConfig, trace: Trace, source: RuntimeSource, seed: u64) -> Self {
        let timer = crate::timing::StageTimer::for_config(&config, source);
        ClusterSimulator::with_timer(config, trace, timer, seed)
    }

    /// Builds a simulator around an existing
    /// [`StageTimer`](crate::timing::StageTimer), sharing its
    /// batch-shape cache with other runs cloned from the same timer (the
    /// capacity search prices every bisection probe of a configuration this
    /// way). The timer must have been built for a configuration with the
    /// same model, parallelism, and `async_pipeline_comm` as `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot host the model, or if the trace's
    /// arrivals are not non-decreasing (the panic names the first
    /// out-of-order request index).
    pub fn with_timer(
        config: ClusterConfig,
        trace: Trace,
        timer: crate::timing::StageTimer,
        seed: u64,
    ) -> Self {
        engine::check_trace(&trace);
        ClusterSimulator::build(config, Arc::new(trace), timer, seed)
    }

    /// [`ClusterSimulator::with_timer`] over an already-checked trace.
    fn build(
        config: ClusterConfig,
        trace: Arc<Trace>,
        timer: crate::timing::StageTimer,
        seed: u64,
    ) -> Self {
        let plan = config
            .memory_plan()
            .expect("configuration cannot host the model");
        // Elastic runs pre-allocate the autoscaler's `max_replicas` ceiling;
        // fixed fleets allocate exactly `num_replicas` (fleet_size == that).
        let fleet = config.fleet_size();
        let mut replicas = EngineReplica::pool(&config, &plan, fleet);
        if let Some(quota) = config.tenant_quota_blocks(plan.num_kv_blocks) {
            for replica in &mut replicas {
                replica.scheduler.set_tenant_quotas(&quota);
            }
        }
        let mut tier = RoutingTier::new(
            config.global_policy,
            fleet,
            seed ^ 0x9E37,
            &config.tenant_weights,
        );
        let mut engine = BatchEngine::with_timer(&config, timer, seed, fleet);
        if !trace.tenants.is_empty() {
            engine
                .metrics
                .set_tenants(&trace.tenants, config.tenant_slo);
        }
        let elastic = config.elastic().then(|| {
            // Slots beyond the starting fleet begin powered off; the
            // autoscaler warms them up on demand.
            for r in config.num_replicas..fleet {
                tier.set_health(r, ReplicaHealth::Down);
            }
            let weight_bytes_total =
                plan.weight_bytes * config.parallelism.gpus_per_replica() as f64;
            let delay = warmup_delay_secs(weight_bytes_total);
            Box::new(ElasticState::new(&config, delay))
        });
        ClusterSimulator {
            config,
            trace,
            engine,
            replicas,
            tier,
            elastic,
            prefix_hits: vec![0; fleet],
            seed,
        }
    }

    /// Runs the simulation to completion (all requests finished, the
    /// configured time cap reached, or the event budget exhausted) and
    /// returns the report.
    ///
    /// With [`ClusterConfig::shards`] above 1 and a configuration on the
    /// sharded fast path (see [`crate::sharded`]), the event loop runs one
    /// shard per thread; reports are bit-identical to the sequential run.
    pub fn run(self) -> SimulationReport {
        self.run_with_stats().0
    }

    /// Like [`ClusterSimulator::run`], but also reports how the event loop
    /// executed ([`RunStats`]): shard count, effects the merger replayed,
    /// rounds, and the fast-path fallback reason. The report is identical
    /// to the one `run` returns.
    pub fn run_with_stats(mut self) -> (SimulationReport, RunStats) {
        let shards = self.config.shards.min(self.config.num_replicas);
        let mut stats = RunStats {
            shards: 1,
            ..RunStats::default()
        };
        if self.config.shards > 1 {
            stats.fallback_reason =
                crate::sharded::block_reason(&self.config, self.engine.timer().jitters());
            if stats.fallback_reason.is_none() && shards < 2 {
                stats.fallback_reason = Some("fewer than two replicas");
            }
        }
        if self.config.shards > 1 && stats.fallback_reason.is_none() {
            match crate::sharded::run_sharded(&mut self, shards) {
                Ok(sharded_stats) => stats = sharded_stats,
                Err(reason) => {
                    // Mid-run abort (a stateful policy actually deferred a
                    // request — an inherently cross-shard bind): throw the
                    // half-run state away, rebuild from scratch on the same
                    // timer (the shape cache stays warm) with the config and
                    // trace moved out of the torn simulator, and run the
                    // whole trace sequentially.
                    stats.fallback_reason = Some(reason);
                    let ClusterSimulator {
                        config,
                        trace,
                        engine,
                        seed,
                        ..
                    } = self;
                    self = ClusterSimulator::build(config, trace, engine.timer().clone(), seed);
                }
            }
        }
        if stats.shards <= 1 {
            stats.shards = 1;
            let mut queue = EventQueue::new();
            if self.elastic.is_some() {
                for (i, rec) in self.config.faults.records.iter().enumerate() {
                    queue.push(rec.at, SimEvent::Fault(i as u32));
                }
                if let Some(autoscaler) = &self.config.autoscaler {
                    queue.push(
                        SimTime::from_secs_f64(autoscaler.interval_secs),
                        SimEvent::AutoscaleTick,
                    );
                }
            }
            let trace = Arc::clone(&self.trace);
            let arrivals = (trace.requests.iter().enumerate())
                .map(|(i, req)| (req.arrival, SimEvent::Arrival(i as u32)));
            let (end, _) = engine::drive(&mut self, queue, arrivals, engine::MAX_EVENTS);
            if let Some(el) = self.elastic.take() {
                self.engine.metrics.set_fleet(el.into_fleet_stats(end));
            }
        }
        let routing = routing_stats(&self.tier, &self.replicas);
        self.engine.metrics.set_tenant_routing(routing);
        if self.config.prefix_cache.is_some() {
            let mut prefix = crate::metrics::PrefixStats::default();
            for rep in &self.replicas {
                let s = &rep.scheduler;
                prefix.hit_requests += s.prefix_hit_requests();
                prefix.tokens_saved += s.prefix_tokens_saved();
                for (idx, &h) in s.tenant_prefix_hits().iter().enumerate() {
                    if idx >= prefix.tenant_hits.len() {
                        prefix.tenant_hits.resize(idx + 1, 0);
                    }
                    prefix.tenant_hits[idx] += h;
                }
                for (idx, &v) in s.tenant_prefix_saved().iter().enumerate() {
                    if idx >= prefix.tenant_saved.len() {
                        prefix.tenant_saved.resize(idx + 1, 0);
                    }
                    prefix.tenant_saved[idx] += v;
                }
            }
            self.engine.metrics.set_prefix(prefix);
        }
        let report = self.engine.finish(
            self.trace.len(),
            &self.config.sku,
            self.config.total_gpus(),
            self.replicas.iter(),
        );
        (report, stats)
    }

    /// The tier's routing key for trace request `idx`.
    fn route_request(&self, idx: u32) -> RouteRequest {
        let tr = self.trace.requests[idx as usize];
        RouteRequest {
            key: idx as u64,
            tenant: tr.tenant,
            priority: tr.priority,
            tokens: tr.prefill_tokens + tr.decode_tokens,
        }
    }

    /// Binds trace request `idx` to `target` and kicks its scheduler.
    fn dispatch(
        &mut self,
        idx: u32,
        target: usize,
        now: SimTime,
        queue: &mut EventQueue<SimEvent>,
    ) {
        let tr = self.trace.requests[idx as usize];
        if let Some(el) = self.elastic.as_deref_mut() {
            if el.awaiting_retry.remove(&idx) {
                ElasticState::bump(&mut el.tenant_retries, tr.tenant);
            }
        }
        self.replicas[target].scheduler.add_request(
            Request::new(idx.into(), tr.arrival, tr.prefill_tokens, tr.decode_tokens)
                .with_tenant(tr.tenant)
                .with_priority(tr.priority)
                .with_prefix(tr.prefix_id, tr.prefix_len),
        );
        self.try_schedule(target as u32, now, queue);
    }

    /// Publishes each replica's expected cached-prefix hit for trace request
    /// `idx` into the routing tier (consulted by [`KvAware`] routing and
    /// `Affinity`'s spill decision). No-op unless the prefix cache is armed
    /// — the tier's hit view then stays all-zero and routing is
    /// bit-identical to the pre-prefix engine.
    ///
    /// [`KvAware`]: vidur_scheduler::GlobalPolicyKind::KvAware
    fn publish_prefix_hits(&mut self, idx: u32) {
        if self.config.prefix_cache.is_none() {
            return;
        }
        let tr = self.trace.requests[idx as usize];
        for (hit, rep) in self.prefix_hits.iter_mut().zip(&self.replicas) {
            *hit = rep
                .scheduler
                .blocks()
                .prefix_cached_tokens(tr.prefix_id, tr.prefill_tokens);
        }
        self.tier.set_route_prefix_hits(&self.prefix_hits);
    }

    /// Binds deferred requests while the tier will place them (stateful
    /// deferred routing, paper §4.5).
    fn drain_deferred(&mut self, now: SimTime, queue: &mut EventQueue<SimEvent>) {
        if self.config.prefix_cache.is_some() {
            // The hit view still holds the last-routed request's hits;
            // deferred requests place on a clean (all-zero) view rather
            // than another request's stale one.
            self.prefix_hits.fill(0);
            self.tier.set_route_prefix_hits(&self.prefix_hits);
        }
        while let Some((req, target)) = self.tier.next_ready() {
            self.dispatch(req.key as u32, target, now, queue);
        }
    }

    fn try_schedule(&mut self, replica: u32, now: SimTime, queue: &mut EventQueue<SimEvent>) {
        let r = replica as usize;
        let config = &self.config;
        self.engine.try_schedule(
            &mut self.replicas[r],
            now,
            queue,
            |batch| batch_bytes(config, batch),
            || SimEvent::Wakeup(replica),
            |epoch| SimEvent::BatchComplete(replica, epoch),
        );
    }

    // ---- elastic-fleet actions -------------------------------------------

    /// Applies fault record `i` of the armed plan.
    fn apply_fault(&mut self, i: u32, now: SimTime, queue: &mut EventQueue<SimEvent>) {
        let rec = self.config.faults.records[i as usize];
        let r = rec.replica as usize;
        assert!(
            r < self.replicas.len(),
            "fault schedule names replica {r} but the fleet has {}",
            self.replicas.len()
        );
        match rec.action {
            FaultAction::Crash => self.evacuate(r, true, now, queue),
            FaultAction::Recover => self.begin_warmup(r, now, queue),
            FaultAction::Slow(mult) => self.replicas[r].set_stage_multiplier(mult),
            FaultAction::Restore => self.replicas[r].set_stage_multiplier(1.0),
            FaultAction::Drain => self.evacuate(r, false, now, queue),
        }
    }

    /// Takes work off replica `r` and requeues it through the routing tier.
    ///
    /// A crash (`crash == true`; no-op if the replica is already down)
    /// cancels its in-flight batches and bumps its epoch, so their
    /// already-queued completions and any pending warm-up completion
    /// become stale and are dropped; every request is evicted with its KV
    /// reclaimed. A graceful drain (no-op unless the replica is live) stops
    /// the router placing new work on it and closes admissions: running
    /// work executes to completion, and only the not-yet-started queue
    /// migrates.
    fn evacuate(&mut self, r: usize, crash: bool, now: SimTime, queue: &mut EventQueue<SimEvent>) {
        let health = self.tier.health(r);
        if (crash && health == ReplicaHealth::Down) || (!crash && health != ReplicaHealth::Live) {
            return;
        }
        let el = self.elastic.as_deref_mut().expect("elastic armed");
        let mut ids = std::mem::take(&mut el.evict_scratch);
        if crash {
            el.close_up_interval(r, now);
            self.tier.set_health(r, ReplicaHealth::Down);
            self.replicas[r].crash();
            self.replicas[r].scheduler.evict_all(&mut ids);
            self.tier
                .set_free_kv_blocks(r, self.replicas[r].scheduler.blocks().free_blocks());
        } else {
            self.tier.set_health(r, ReplicaHealth::Draining);
            self.replicas[r].scheduler.drain_queued(&mut ids);
        }
        for &id in &ids {
            let tr = self.trace.requests[id as usize];
            if crash {
                ElasticState::bump(&mut el.tenant_evicted, tr.tenant);
            }
            ElasticState::bump(&mut el.tenant_requeued, tr.tenant);
            // Balance the tier's dispatch accounting before re-routing.
            self.tier
                .on_finished(r, tr.tenant, tr.prefill_tokens + tr.decode_tokens);
        }
        self.requeue(&ids, now, queue);
        ids.clear();
        self.elastic
            .as_deref_mut()
            .expect("elastic armed")
            .evict_scratch = ids;
        if !crash {
            self.maybe_finish_drain(r, now);
        }
    }

    /// Sends evicted/migrated requests back through the routing tier. The
    /// tier defers them when no replica is routable; recoveries drain the
    /// deferred queue. Either way their next dispatch counts as a retry.
    fn requeue(&mut self, ids: &[RequestId], now: SimTime, queue: &mut EventQueue<SimEvent>) {
        let el = self.elastic.as_deref_mut().expect("elastic armed");
        el.awaiting_retry.extend(ids.iter().map(|&id| id as u32));
        for &id in ids {
            let idx = id as u32;
            let req = self.route_request(idx);
            self.publish_prefix_hits(idx);
            if let Some(target) = self.tier.route(req) {
                self.dispatch(idx, target, now, queue);
            }
        }
    }

    /// Completes a graceful drain once the replica has nothing running.
    fn maybe_finish_drain(&mut self, r: usize, now: SimTime) {
        if self.tier.health(r) == ReplicaHealth::Draining
            && self.replicas[r].inflight_len() == 0
            && self.replicas[r].scheduler.outstanding() == 0
        {
            self.tier.set_health(r, ReplicaHealth::Down);
            let el = self.elastic.as_deref_mut().expect("elastic armed");
            el.close_up_interval(r, now);
        }
    }

    /// Starts warming replica `r` up (scheduled recovery or autoscaler
    /// scale-up): the replica pays the model-load + weight-transfer delay
    /// before becoming routable. No-op unless the replica is down.
    fn begin_warmup(&mut self, r: usize, now: SimTime, queue: &mut EventQueue<SimEvent>) {
        if self.tier.health(r) != ReplicaHealth::Down {
            return;
        }
        self.tier.set_health(r, ReplicaHealth::Warming);
        let el = self.elastic.as_deref_mut().expect("elastic armed");
        // A warming replica occupies its GPUs: uptime (and replica-hours)
        // start at warm-up, not at readiness.
        el.open_up_interval(r, now);
        let epoch = self.replicas[r].epoch();
        queue.push(now + el.warmup_delay, SimEvent::WarmupDone(r as u32, epoch));
    }

    /// Replica `r` finished the warm-up it began in crash epoch `epoch`: it
    /// becomes routable and the tier's deferred queue drains onto it. A
    /// crash during the warm-up bumped the epoch, so its event is stale and
    /// dropped.
    fn warmup_done(
        &mut self,
        r: usize,
        epoch: u32,
        now: SimTime,
        queue: &mut EventQueue<SimEvent>,
    ) {
        if epoch != self.replicas[r].epoch() {
            return;
        }
        debug_assert_eq!(self.tier.health(r), ReplicaHealth::Warming);
        self.replicas[r].scheduler.reopen_admissions();
        self.tier.set_health(r, ReplicaHealth::Live);
        self.tier
            .set_free_kv_blocks(r, self.replicas[r].scheduler.blocks().free_blocks());
        self.drain_deferred(now, queue);
        self.try_schedule(r as u32, now, queue);
    }

    /// One autoscaler evaluation: observe the window, decide, apply within
    /// the spec's fleet bounds, and re-arm the next tick.
    fn autoscale_tick(&mut self, now: SimTime, queue: &mut EventQueue<SimEvent>) {
        let fleet = self.replicas.len();
        let (mut live, mut warming, mut draining, mut outstanding) = (0usize, 0, 0, 0);
        for r in 0..fleet {
            match self.tier.health(r) {
                ReplicaHealth::Live => {
                    live += 1;
                    outstanding += self.replicas[r].scheduler.outstanding();
                }
                ReplicaHealth::Warming => warming += 1,
                ReplicaHealth::Draining => draining += 1,
                ReplicaHealth::Down => {}
            }
        }
        let spec = self
            .config
            .autoscaler
            .expect("tick only fires with an armed autoscaler");
        let decision = {
            let el = self.elastic.as_deref_mut().expect("elastic armed");
            let obs = FleetObservation {
                live,
                warming,
                draining,
                deferred: self.tier.deferred_len(),
                outstanding,
                window_prefills: el.window_prefills,
                window_slo_ok: el.window_slo_ok,
            };
            el.window_prefills = 0;
            el.window_slo_ok = 0;
            spec.decide(&obs)
        };
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Up(n) => {
                // Warming and draining replicas still occupy fleet slots.
                let mut budget = n.min(spec.max_replicas.saturating_sub(live + warming + draining));
                for r in 0..fleet {
                    if budget == 0 {
                        break;
                    }
                    if self.tier.health(r) == ReplicaHealth::Down {
                        self.begin_warmup(r, now, queue);
                        budget -= 1;
                    }
                }
            }
            ScaleDecision::Drain(n) => {
                let mut budget = n.min(live.saturating_sub(spec.min_replicas));
                for r in (0..fleet).rev() {
                    if budget == 0 {
                        break;
                    }
                    if self.tier.health(r) == ReplicaHealth::Live {
                        self.evacuate(r, false, now, queue);
                        budget -= 1;
                    }
                }
            }
        }
        queue.push(
            now + SimDuration::from_secs_f64(spec.interval_secs),
            SimEvent::AutoscaleTick,
        );
    }
}

impl Simulation for ClusterSimulator {
    type Event = SimEvent;

    fn handle(&mut self, now: SimTime, event: SimEvent, queue: &mut EventQueue<SimEvent>) {
        if self.engine.deadline_exceeded(now) {
            return;
        }
        match event {
            SimEvent::Arrival(idx) => {
                let tr = self.trace.requests[idx as usize];
                self.engine
                    .metrics
                    .on_arrival(idx.into(), now, tr.decode_tokens, tr.tenant);
                let req = self.route_request(idx);
                self.publish_prefix_hits(idx);
                // `None` means the tier holds the request; completions
                // re-poll it via `drain_deferred`.
                if let Some(target) = self.tier.route(req) {
                    self.dispatch(idx, target, now, queue);
                }
            }
            SimEvent::Wakeup(replica) => {
                self.replicas[replica as usize].clear_wakeup();
                self.try_schedule(replica, now, queue);
            }
            SimEvent::BatchComplete(replica, epoch) => {
                let r = replica as usize;
                // A crash cancelled the batches launched before it and
                // bumped the epoch, so their completions arrive stale.
                if epoch != self.replicas[r].epoch() {
                    return;
                }
                let trace = &self.trace;
                let tier = &mut self.tier;
                let autoscaled = self.config.autoscaler.is_some();
                let mut elastic = self.elastic.as_deref_mut();
                self.engine.retire_batch(
                    &mut self.replicas[r],
                    now,
                    queue,
                    // Aggregated clusters record completion events as-is;
                    // finished requests leave the tier's live view here.
                    |ev, _queue| {
                        if ev.finished {
                            let tr = trace.requests[ev.id as usize];
                            tier.on_finished(r, tr.tenant, tr.prefill_tokens + tr.decode_tokens);
                        }
                        if let Some(el) = elastic.as_deref_mut() {
                            if ev.prefill_completed && autoscaled {
                                let tr = trace.requests[ev.id as usize];
                                el.window_prefills += 1;
                                let ttft = now.saturating_duration_since(tr.arrival).as_secs_f64();
                                if ttft <= TTFT_SLO_SECS {
                                    el.window_slo_ok += 1;
                                }
                            }
                        }
                    },
                );
                self.tier
                    .set_free_kv_blocks(r, self.replicas[r].scheduler.blocks().free_blocks());
                self.drain_deferred(now, queue);
                self.try_schedule(replica, now, queue);
                if self.elastic.is_some() {
                    self.maybe_finish_drain(r, now);
                }
            }
            SimEvent::Fault(i) => self.apply_fault(i, now, queue),
            SimEvent::AutoscaleTick => self.autoscale_tick(now, queue),
            SimEvent::WarmupDone(r, epoch) => self.warmup_done(r as usize, epoch, now, queue),
        }
    }

    fn is_done(&self) -> bool {
        self.engine.halted(self.trace.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidur_core::rng::SimRng;
    use vidur_core::time::SimTime;
    use vidur_hardware::{GpuSku, KernelOracle};
    use vidur_model::{ModelSpec, ParallelismConfig};
    use vidur_scheduler::{BatchPolicyKind, SchedulerConfig};
    use vidur_workload::{ArrivalProcess, TraceWorkload};

    fn small_trace(n: usize, qps: f64, seed: u64) -> Trace {
        let mut rng = SimRng::new(seed);
        let arrivals = if qps.is_finite() {
            ArrivalProcess::Poisson { qps }
        } else {
            ArrivalProcess::Static
        };
        TraceWorkload::chat_1m().generate(n, &arrivals, &mut rng)
    }

    fn config(policy: BatchPolicyKind) -> ClusterConfig {
        ClusterConfig::new(
            ModelSpec::llama2_7b(),
            GpuSku::a100_80g(),
            ParallelismConfig::serial(),
            1,
            SchedulerConfig::new(policy, 64),
        )
    }

    fn oracle_source() -> RuntimeSource {
        RuntimeSource::Oracle(KernelOracle::new(GpuSku::a100_80g()))
    }

    #[test]
    #[should_panic(expected = "request index 4 arrives at")]
    fn out_of_order_trace_is_rejected_at_construction() {
        let mut trace = small_trace(8, 2.0, 1);
        trace.requests.swap(3, 4);
        ClusterSimulator::new(config(BatchPolicyKind::Vllm), trace, oracle_source(), 1);
    }

    #[test]
    fn completes_all_requests_static() {
        let sim = ClusterSimulator::new(
            config(BatchPolicyKind::Vllm),
            small_trace(50, f64::INFINITY, 1),
            oracle_source(),
            1,
        );
        let report = sim.run();
        assert_eq!(report.completed, 50);
        assert!(report.makespan_secs > 0.0);
        assert!(report.throughput_qps > 0.0);
        assert!(report.mfu > 0.0 && report.mfu <= 1.0);
        assert!(report.kv_utilization > 0.0);
    }

    #[test]
    fn completes_all_requests_dynamic() {
        let sim = ClusterSimulator::new(
            config(BatchPolicyKind::SarathiServe { chunk_size: 512 }),
            small_trace(60, 2.0, 2),
            oracle_source(),
            2,
        );
        let report = sim.run();
        assert_eq!(report.completed, 60);
        // TTFT >= scheduling delay; TBT positive.
        assert!(report.ttft.p50 >= report.scheduling_delay.p50);
        assert!(report.tbt.p50 > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            ClusterSimulator::new(
                config(BatchPolicyKind::OrcaPlus),
                small_trace(40, 5.0, 3),
                oracle_source(),
                7,
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn multi_replica_spreads_load() {
        let mut c = config(BatchPolicyKind::Vllm);
        c.num_replicas = 1;
        let single =
            ClusterSimulator::new(c.clone(), small_trace(80, 3.0, 4), oracle_source(), 4).run();
        c.num_replicas = 4;
        let quad = ClusterSimulator::new(c, small_trace(80, 3.0, 4), oracle_source(), 4).run();
        assert!(
            quad.e2e.p90 < single.e2e.p90,
            "4 replicas must cut tail latency: {} vs {}",
            quad.e2e.p90,
            single.e2e.p90
        );
    }

    #[test]
    fn pipeline_parallel_runs() {
        let mut c = config(BatchPolicyKind::Vllm);
        c.parallelism = ParallelismConfig::new(1, 2);
        let report =
            ClusterSimulator::new(c, small_trace(30, f64::INFINITY, 5), oracle_source(), 5).run();
        assert_eq!(report.completed, 30);
    }

    #[test]
    fn deadline_stops_overload() {
        let mut c = config(BatchPolicyKind::Vllm);
        c.max_sim_time = Some(SimTime::from_secs_f64(20.0));
        // 200 QPS of chat on one 7B replica is far beyond capacity.
        let report =
            ClusterSimulator::new(c, small_trace(2000, 200.0, 6), oracle_source(), 6).run();
        assert!(report.completed < 2000, "overload must not drain");
    }

    #[test]
    fn deferred_routing_completes_and_balances() {
        let mut c = config(BatchPolicyKind::Vllm);
        c.num_replicas = 2;
        c.global_policy = vidur_scheduler::GlobalPolicyKind::Deferred { max_outstanding: 4 };
        let report = ClusterSimulator::new(c, small_trace(60, 3.0, 8), oracle_source(), 8).run();
        assert_eq!(report.completed, 60, "deferred requests must all drain");
    }

    #[test]
    fn async_pipeline_comm_cuts_latency() {
        let mut c = config(BatchPolicyKind::Vllm);
        c.parallelism = ParallelismConfig::new(1, 4);
        let t = small_trace(30, f64::INFINITY, 9);
        let sync = ClusterSimulator::new(c.clone(), t.clone(), oracle_source(), 9).run();
        c.async_pipeline_comm = true;
        let asynch = ClusterSimulator::new(c, t, oracle_source(), 9).run();
        assert_eq!(asynch.completed, 30);
        assert!(
            asynch.makespan_secs < sync.makespan_secs,
            "hiding send/recv must help: {} vs {}",
            asynch.makespan_secs,
            sync.makespan_secs
        );
    }

    #[test]
    fn energy_accounting_sane() {
        let report = ClusterSimulator::new(
            config(BatchPolicyKind::Vllm),
            small_trace(40, f64::INFINITY, 10),
            oracle_source(),
            10,
        )
        .run();
        assert!(report.energy_kwh > 0.0);
        // One A100: mean power between idle (60 W) and TDP (400 W).
        assert!(
            report.mean_power_watts >= 60.0 && report.mean_power_watts <= 400.0,
            "{}",
            report.mean_power_watts
        );
        assert!(report.energy_wh_per_request > 0.0);
        // Operator breakdown covers the big matmuls and is sorted.
        let ops: Vec<&str> = report
            .operator_time_breakdown
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(ops.contains(&"mlp_up_proj"));
        assert!(ops.contains(&"attn_decode"));
        let times: Vec<f64> = report
            .operator_time_breakdown
            .iter()
            .map(|(_, t)| *t)
            .collect();
        assert!(times.windows(2).all(|w| w[0] >= w[1]), "sorted descending");
    }

    #[test]
    fn higher_load_increases_latency() {
        let light = ClusterSimulator::new(
            config(BatchPolicyKind::Vllm),
            small_trace(60, 0.5, 7),
            oracle_source(),
            7,
        )
        .run();
        let heavy = ClusterSimulator::new(
            config(BatchPolicyKind::Vllm),
            small_trace(60, 4.0, 7),
            oracle_source(),
            7,
        )
        .run();
        assert!(heavy.e2e.mean > light.e2e.mean);
    }
}
