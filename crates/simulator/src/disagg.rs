//! Prefill/decode disaggregated serving — the Splitwise / DistServe
//! architecture the paper discusses in §2.2 ("splitting the computation of
//! prefill and decodes on separate devices") and an extension beyond the
//! open-source Vidur.
//!
//! A **prefill pool** runs prompt processing only (each request is done
//! there once its first token is produced); the KV-cache then moves to a
//! **decode pool** over the cluster interconnect, where the request streams
//! its remaining tokens. The scheme removes prefill/decode interference —
//! decode batches are never paused or diluted by incoming prompts — at the
//! price of the transfer latency and a static pool split.
//!
//! Batch formation and stage timing come from the shared
//! [`engine`]; this module contributes only the disaggregated
//! policy: pool topology, per-pool global routing through the shared
//! [`RoutingTier`] (defaults reproduce the original round-robin prefill
//! placement and least-loaded decode admission byte-for-byte), and the KV
//! transfer hop. Both pools reuse the ordinary
//! [`vidur_scheduler::ReplicaScheduler`]; the prefill pool registers
//! requests with `decode_tokens = 1` (the prefill iteration produces the
//! first token, as in Splitwise), and the decode pool admits them via
//! [`vidur_scheduler::ReplicaScheduler::add_remote_prefilled`].

use crate::cluster::routing_stats;
use crate::config::ClusterConfig;
use crate::engine::{self, BatchEngine, EngineReplica, RuntimeSource};
use crate::metrics::SimulationReport;
use serde::{Deserialize, Serialize};
use vidur_core::event::{EventQueue, Simulation};
use vidur_core::time::{SimDuration, SimTime};
use vidur_scheduler::{GlobalPolicyKind, Request, RouteRequest, RoutingTier};
use vidur_workload::Trace;

/// Disaggregated deployment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggConfig {
    /// Shared model / SKU / parallelism / scheduler settings
    /// (`base.num_replicas` is ignored — pool sizes below apply).
    ///
    /// Since both simulators run on the shared engine, `base.late_abort`
    /// and `base.async_pipeline_comm` now apply to disaggregated runs too
    /// (the pre-engine `DisaggSimulator` silently ignored them). Both
    /// default off; clear them when reusing a capacity-search config —
    /// those carry a `late_abort` guardrail — if full-drain semantics are
    /// required.
    pub base: ClusterConfig,
    /// Replicas dedicated to prefill.
    pub prefill_replicas: usize,
    /// Replicas dedicated to decode.
    pub decode_replicas: usize,
    /// KV-cache transfer bandwidth between pools, bytes/s (Splitwise uses
    /// the back-end interconnect; 25–50 GB/s is typical for IB/NVLink
    /// bridges).
    pub kv_transfer_bandwidth: f64,
    /// Fixed per-transfer latency in seconds.
    pub kv_transfer_latency: f64,
    /// Routing policy of the prefill pool's tier (default
    /// [`GlobalPolicyKind::RoundRobin`], the original hard-coded placement).
    ///
    /// The report's per-tenant `routed` counts follow this tier (one per
    /// arrival); `deferred` sums holds across both pool tiers.
    pub prefill_policy: GlobalPolicyKind,
    /// Routing policy of the decode pool's tier (default
    /// [`GlobalPolicyKind::LeastOutstanding`], the original hard-coded
    /// admission). When this runs fair-share, the report's per-tenant
    /// attainment column reflects it (taking precedence over a fair-share
    /// prefill tier).
    pub decode_policy: GlobalPolicyKind,
}

impl DisaggConfig {
    /// Creates a disaggregated config with a 50 GB/s, 1 ms interconnect.
    ///
    /// # Panics
    ///
    /// Panics if either pool is empty.
    pub fn new(base: ClusterConfig, prefill_replicas: usize, decode_replicas: usize) -> Self {
        assert!(
            prefill_replicas > 0 && decode_replicas > 0,
            "both pools need at least one replica"
        );
        DisaggConfig {
            base,
            prefill_replicas,
            decode_replicas,
            kv_transfer_bandwidth: 50e9,
            kv_transfer_latency: 1e-3,
            prefill_policy: GlobalPolicyKind::RoundRobin,
            decode_policy: GlobalPolicyKind::LeastOutstanding,
        }
    }

    /// Total GPUs across both pools.
    pub fn total_gpus(&self) -> u32 {
        self.base.parallelism.gpus_per_replica()
            * (self.prefill_replicas + self.decode_replicas) as u32
    }

    /// Transfer time for one request's prompt KV.
    pub fn transfer_time(&self, model_kv_bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(
            model_kv_bytes as f64 / self.kv_transfer_bandwidth + self.kv_transfer_latency,
        )
    }
}

/// Simulator event payload (public via the `Simulation` trait only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisaggEvent {
    /// Trace request `idx` arrives at the prefill pool.
    #[doc(hidden)]
    Arrival(u32),
    /// A pool replica may schedule (`pool`, replica).
    Wakeup(Pool, u32),
    /// A batch finished (`pool`, replica, batch id).
    BatchComplete(Pool, u32, u64),
    /// Request `idx`'s KV finished transferring to the decode pool.
    KvArrived(u32),
}

/// Which pool an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// The prompt-processing pool.
    Prefill,
    /// The token-generation pool.
    Decode,
}

/// Selects the replica vector for `pool`. A free function over the two
/// fields (rather than a `&mut self` method) so the engine borrow stays
/// split from the pool borrow at call sites.
fn pool_mut<'a>(
    prefill: &'a mut Vec<EngineReplica>,
    decode: &'a mut Vec<EngineReplica>,
    pool: Pool,
) -> &'a mut Vec<EngineReplica> {
    match pool {
        Pool::Prefill => prefill,
        Pool::Decode => decode,
    }
}

/// Event-driven simulator for a disaggregated deployment.
pub struct DisaggSimulator {
    config: DisaggConfig,
    trace: Trace,
    engine: BatchEngine,
    prefill: Vec<EngineReplica>,
    decode: Vec<EngineReplica>,
    /// Global scheduling tier of the prefill pool (routes arrivals).
    prefill_tier: RoutingTier,
    /// Global scheduling tier of the decode pool (routes KV handoffs).
    decode_tier: RoutingTier,
}

impl std::fmt::Debug for DisaggSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DisaggSimulator")
            .field("config", &self.config.base.label())
            .field("prefill_replicas", &self.prefill.len())
            .field("decode_replicas", &self.decode.len())
            .finish()
    }
}

impl DisaggSimulator {
    /// Builds the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the base configuration cannot host the model.
    pub fn new(config: DisaggConfig, trace: Trace, source: RuntimeSource, seed: u64) -> Self {
        let plan = config
            .base
            .memory_plan()
            .expect("configuration cannot host the model");
        let mut prefill = EngineReplica::pool(&config.base, &plan, config.prefill_replicas);
        let mut decode = EngineReplica::pool(&config.base, &plan, config.decode_replicas);
        if let Some(quota) = config.base.tenant_quota_blocks(plan.num_kv_blocks) {
            for replica in prefill.iter_mut().chain(decode.iter_mut()) {
                replica.scheduler.set_tenant_quotas(&quota);
            }
        }
        let prefill_tier = RoutingTier::new(
            config.prefill_policy,
            config.prefill_replicas,
            seed ^ 0x9E37,
            &config.base.tenant_weights,
        );
        let decode_tier = RoutingTier::new(
            config.decode_policy,
            config.decode_replicas,
            seed ^ 0xD155,
            &config.base.tenant_weights,
        );
        let mut engine = BatchEngine::new(
            &config.base,
            source,
            seed,
            config.prefill_replicas + config.decode_replicas,
        );
        if !trace.tenants.is_empty() {
            engine
                .metrics
                .set_tenants(&trace.tenants, config.base.tenant_slo);
        }
        DisaggSimulator {
            config,
            trace,
            engine,
            prefill,
            decode,
            prefill_tier,
            decode_tier,
        }
    }

    /// Runs to completion and returns the report together with run
    /// statistics, mirroring
    /// [`ClusterSimulator::run_with_stats`](crate::ClusterSimulator::run_with_stats). The
    /// disaggregated simulator always runs sequentially (fault plans and
    /// sharding are aggregated-cluster features), so the stats report one
    /// shard and nothing streamed.
    pub fn run_with_stats(self) -> (SimulationReport, crate::cluster::RunStats) {
        let report = self.run();
        (
            report,
            crate::cluster::RunStats {
                shards: 1,
                ..crate::cluster::RunStats::default()
            },
        )
    }

    /// Runs to completion and returns the report.
    pub fn run(mut self) -> SimulationReport {
        let arrivals = engine::trace_arrivals(&self.trace, DisaggEvent::Arrival);
        engine::drive(&mut self, arrivals, engine::MAX_EVENTS);
        // Routing columns merge both tiers: `routed` counts arrivals (the
        // prefill tier — counting the decode tier's KV handoffs too would
        // double-count requests), `deferred` sums holds in either tier,
        // fair-share attainment comes from whichever tier runs fair-share
        // (decode preferred — it owns the long decode phase), and quota
        // denials sum over both pools' schedulers.
        let mut routing = routing_stats(
            &self.prefill_tier,
            self.prefill.iter().chain(self.decode.iter()),
        );
        for (t, s) in self.decode_tier.tenant_stats().iter().enumerate() {
            if t >= routing.len() {
                routing.resize(t + 1, crate::metrics::TenantRoutingStats::default());
            }
            routing[t].deferred += s.deferred;
            if let Some(a) = self.decode_tier.fair_share_attainment(t as u32) {
                routing[t].fair_share_attainment = Some(a);
            }
        }
        self.engine.metrics.set_tenant_routing(routing);
        self.engine.finish(
            self.trace.len(),
            &self.config.base.sku,
            self.config.total_gpus(),
            self.prefill.iter().chain(self.decode.iter()),
        )
    }

    fn metrics_replica_index(&self, pool: Pool, replica: u32) -> usize {
        match pool {
            Pool::Prefill => replica as usize,
            Pool::Decode => self.prefill.len() + replica as usize,
        }
    }

    /// Registers trace request `idx` with the prefill pool's `target`
    /// replica (one output token: the prefill iteration produces it).
    fn dispatch_prefill(
        &mut self,
        idx: u32,
        target: usize,
        now: SimTime,
        queue: &mut EventQueue<DisaggEvent>,
    ) {
        let tr = self.trace.requests[idx as usize];
        self.prefill[target].scheduler.add_request(
            Request::new(tr.id, now, tr.prefill_tokens, 1)
                .with_tenant(tr.tenant)
                .with_priority(tr.priority),
        );
        self.try_schedule(Pool::Prefill, target as u32, now, queue);
    }

    /// Joins trace request `idx` (KV transferred) to the decode pool's
    /// `target` replica.
    fn dispatch_decode(
        &mut self,
        idx: u32,
        target: usize,
        now: SimTime,
        queue: &mut EventQueue<DisaggEvent>,
    ) {
        let tr = self.trace.requests[idx as usize];
        self.decode[target].scheduler.add_remote_prefilled(
            Request::new(tr.id, tr.arrival, tr.prefill_tokens, tr.decode_tokens)
                .with_tenant(tr.tenant)
                .with_priority(tr.priority),
            1,
        );
        self.try_schedule(Pool::Decode, target as u32, now, queue);
    }

    /// Binds deferred requests while `pool`'s tier will place them.
    fn drain_pool(&mut self, pool: Pool, now: SimTime, queue: &mut EventQueue<DisaggEvent>) {
        loop {
            let next = match pool {
                Pool::Prefill => self.prefill_tier.next_ready(),
                Pool::Decode => self.decode_tier.next_ready(),
            };
            let Some((req, target)) = next else {
                break;
            };
            match pool {
                Pool::Prefill => self.dispatch_prefill(req.key as u32, target, now, queue),
                Pool::Decode => self.dispatch_decode(req.key as u32, target, now, queue),
            }
        }
    }

    fn try_schedule(
        &mut self,
        pool: Pool,
        replica: u32,
        now: SimTime,
        queue: &mut EventQueue<DisaggEvent>,
    ) {
        let metrics_idx = self.metrics_replica_index(pool, replica);
        let pool_replicas = pool_mut(&mut self.prefill, &mut self.decode, pool);
        self.engine.try_schedule(
            &mut pool_replicas[replica as usize],
            metrics_idx,
            now,
            queue,
            // Disaggregated MBU accounting is not modeled yet; batches carry
            // no HBM-traffic estimate (matches the pre-engine behavior).
            |_batch| 0.0,
            || DisaggEvent::Wakeup(pool, replica),
            |id| DisaggEvent::BatchComplete(pool, replica, id),
        );
    }
}

impl Simulation for DisaggSimulator {
    type Event = DisaggEvent;

    fn handle(&mut self, now: SimTime, event: DisaggEvent, queue: &mut EventQueue<DisaggEvent>) {
        if self.engine.deadline_exceeded(now) {
            return;
        }
        match event {
            DisaggEvent::Arrival(idx) => {
                let tr = self.trace.requests[idx as usize];
                self.engine
                    .metrics
                    .on_arrival(tr.id, now, tr.decode_tokens, tr.tenant);
                // The prefill tier places the request (round-robin by
                // default); the request "finishes" there after one output
                // token.
                let req = RouteRequest {
                    key: idx as u64,
                    tenant: tr.tenant,
                    priority: tr.priority,
                    tokens: tr.prefill_tokens + 1,
                };
                if let Some(target) = self.prefill_tier.route(req) {
                    self.dispatch_prefill(idx, target, now, queue);
                }
            }
            DisaggEvent::KvArrived(idx) => {
                let tr = self.trace.requests[idx as usize];
                // The decode tier admits the transferred KV (least-loaded
                // by default).
                let req = RouteRequest {
                    key: idx as u64,
                    tenant: tr.tenant,
                    priority: tr.priority,
                    tokens: tr.prefill_tokens + tr.decode_tokens,
                };
                if let Some(target) = self.decode_tier.route(req) {
                    self.dispatch_decode(idx, target, now, queue);
                }
            }
            DisaggEvent::Wakeup(pool, replica) => {
                pool_mut(&mut self.prefill, &mut self.decode, pool)[replica as usize]
                    .clear_wakeup();
                self.try_schedule(pool, replica, now, queue);
            }
            DisaggEvent::BatchComplete(pool, replica, id) => {
                let metrics_idx = self.metrics_replica_index(pool, replica);
                let r = replica as usize;
                let trace = &self.trace;
                let config = &self.config;
                let kv_per_token = config.base.model.kv_bytes_per_token();
                let prefill_tier = &mut self.prefill_tier;
                let decode_tier = &mut self.decode_tier;
                let pool_replicas = pool_mut(&mut self.prefill, &mut self.decode, pool);
                self.engine.retire_batch(
                    &mut pool_replicas[r],
                    metrics_idx,
                    id,
                    now,
                    queue,
                    // Prefill-pool completions map to the request's real
                    // lifecycle: "finished on the prefill replica" means
                    // "prefill done, first token out, KV must move" unless
                    // the request only ever wanted one token. Decode-pool
                    // events pass through unchanged. Either way a finished
                    // event retires the request from its pool's tier view
                    // (the prefill scheduler is done with it even when the
                    // decode pool takes over).
                    |ev, queue| {
                        let idx = ev.id as usize;
                        let tr = trace.requests[idx];
                        if !ev.finished {
                            return;
                        }
                        match pool {
                            Pool::Prefill => {
                                prefill_tier.on_finished(r, tr.tenant, tr.prefill_tokens + 1);
                                if tr.decode_tokens > 1 {
                                    // Not actually finished: the decode pool
                                    // takes over once the KV transfer lands.
                                    ev.finished = false;
                                    let bytes = tr.prefill_tokens * kv_per_token;
                                    let arrive = now + config.transfer_time(bytes);
                                    queue.push(arrive, DisaggEvent::KvArrived(ev.id as u32));
                                }
                            }
                            Pool::Decode => {
                                decode_tier.on_finished(
                                    r,
                                    tr.tenant,
                                    tr.prefill_tokens + tr.decode_tokens,
                                );
                            }
                        }
                    },
                );
                let free = pool_mut(&mut self.prefill, &mut self.decode, pool)[r]
                    .scheduler
                    .blocks()
                    .free_blocks();
                match pool {
                    Pool::Prefill => self.prefill_tier.set_free_kv_blocks(r, free),
                    Pool::Decode => self.decode_tier.set_free_kv_blocks(r, free),
                }
                self.drain_pool(pool, now, queue);
                self.try_schedule(pool, replica, now, queue);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.engine.halted(self.trace.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSimulator;
    use vidur_core::rng::SimRng;
    use vidur_hardware::{GpuSku, KernelOracle};
    use vidur_model::{ModelSpec, ParallelismConfig};
    use vidur_scheduler::{BatchPolicyKind, SchedulerConfig};
    use vidur_workload::{ArrivalProcess, TraceWorkload};

    fn base() -> ClusterConfig {
        ClusterConfig::new(
            ModelSpec::llama2_7b(),
            GpuSku::a100_80g(),
            ParallelismConfig::serial(),
            1,
            SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 64),
        )
    }

    fn trace(n: usize, qps: f64, seed: u64) -> Trace {
        let mut rng = SimRng::new(seed);
        TraceWorkload::chat_1m().generate(n, &ArrivalProcess::Poisson { qps }, &mut rng)
    }

    fn oracle() -> RuntimeSource {
        RuntimeSource::Oracle(KernelOracle::new(GpuSku::a100_80g()))
    }

    #[test]
    fn disagg_completes_all_requests() {
        let cfg = DisaggConfig::new(base(), 1, 1);
        let report = DisaggSimulator::new(cfg, trace(50, 2.0, 1), oracle(), 1).run();
        assert_eq!(report.completed, 50);
        assert!(report.ttft.p50 > 0.0);
        assert!(report.tbt.p50 > 0.0);
    }

    #[test]
    fn disagg_deterministic() {
        let run = || {
            DisaggSimulator::new(
                DisaggConfig::new(base(), 1, 1),
                trace(30, 2.0, 2),
                oracle(),
                2,
            )
            .run()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn disagg_improves_tbt_tail_over_aggregated() {
        // Same GPU count: 2 aggregated replicas vs 1 prefill + 1 decode.
        // Disaggregation shields decodes from prompt interference, so the
        // TBT tail tightens (Splitwise's core claim).
        let t = trace(120, 3.0, 3);
        let mut agg_cfg = base();
        agg_cfg.num_replicas = 2;
        let agg = ClusterSimulator::new(agg_cfg, t.clone(), oracle(), 3).run();
        let disagg = DisaggSimulator::new(DisaggConfig::new(base(), 1, 1), t, oracle(), 3).run();
        assert_eq!(disagg.completed, 120);
        assert!(
            disagg.tbt.p99 < agg.tbt.p99,
            "disagg TBT p99 {} vs aggregated {}",
            disagg.tbt.p99,
            agg.tbt.p99
        );
    }

    #[test]
    fn transfer_time_scales_with_prompt() {
        let cfg = DisaggConfig::new(base(), 1, 1);
        let small = cfg.transfer_time(1 << 20);
        let large = cfg.transfer_time(1 << 30);
        assert!(large > small * 10);
    }

    #[test]
    fn single_token_requests_never_reach_decode_pool() {
        let mut t = trace(10, 5.0, 4);
        for r in &mut t.requests {
            r.decode_tokens = 1;
        }
        let cfg = DisaggConfig::new(base(), 1, 1);
        let report = DisaggSimulator::new(cfg, t, oracle(), 4).run();
        assert_eq!(report.completed, 10);
    }

    #[test]
    #[should_panic(expected = "both pools")]
    fn empty_pool_rejected() {
        DisaggConfig::new(base(), 0, 1);
    }

    #[test]
    fn base_async_pipeline_comm_applies_to_disagg() {
        // The shared engine honors `base.async_pipeline_comm` for
        // disaggregated runs (the pre-engine simulator ignored it); hiding
        // SendRecv behind compute must shorten a PP>1 run.
        let mut b = base();
        b.parallelism = ParallelismConfig::new(1, 4);
        // Static arrivals keep the run compute-bound so the SendRecv saving
        // is visible in the makespan (as in the cluster-side twin test).
        let mut rng = SimRng::new(6);
        let t = TraceWorkload::chat_1m().generate(30, &ArrivalProcess::Static, &mut rng);
        let sync =
            DisaggSimulator::new(DisaggConfig::new(b.clone(), 1, 1), t.clone(), oracle(), 6).run();
        b.async_pipeline_comm = true;
        let asynch = DisaggSimulator::new(DisaggConfig::new(b, 1, 1), t, oracle(), 6).run();
        assert_eq!(asynch.completed, 30);
        assert!(
            asynch.makespan_secs < sync.makespan_secs,
            "hiding send/recv must help: {} vs {}",
            asynch.makespan_secs,
            sync.makespan_secs
        );
    }

    #[test]
    fn base_late_abort_applies_to_disagg() {
        // The shared engine honors `base.late_abort` for disaggregated runs
        // (the pre-engine simulator ignored it); an overloaded run must now
        // trip the guardrail instead of draining.
        let mut b = base();
        b.late_abort = Some(crate::config::LateAbort {
            delay_limit_secs: 0.05,
            max_late: 3,
        });
        let cfg = DisaggConfig::new(b, 1, 1);
        let report = DisaggSimulator::new(cfg, trace(400, 50.0, 5), oracle(), 5).run();
        assert!(
            report.completed < 400,
            "late-abort guardrail must stop an overloaded disagg run"
        );
    }
}
