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
//! Batch formation and stage timing come from the shared [`engine`]; this
//! module contributes only the disaggregated policy: pool topology (one
//! replica table in metrics order, the prefill pool first, then the decode
//! pool), per-pool global routing through the shared [`RoutingTier`]
//! (fixed round-robin prefill placement and least-outstanding decode
//! admission), and the KV transfer hop over a 50 GB/s, 1 ms interconnect.
//! Both pools reuse the ordinary [`vidur_scheduler::ReplicaScheduler`]; the
//! prefill pool registers requests with `decode_tokens = 1` (the prefill
//! iteration produces the first token, as in Splitwise), and the decode
//! pool admits them via
//! [`vidur_scheduler::ReplicaScheduler::add_remote_prefilled`].

use crate::cluster::routing_stats;
use crate::config::ClusterConfig;
use crate::engine::{self, BatchEngine, EngineReplica, RuntimeSource};
use crate::metrics::SimulationReport;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vidur_core::event::{EventQueue, Simulation};
use vidur_core::time::{SimDuration, SimTime};
use vidur_scheduler::{GlobalPolicyKind, Request, RouteRequest, RoutingTier};
use vidur_workload::Trace;

/// KV-cache transfer bandwidth between pools, bytes/s (Splitwise uses the
/// back-end interconnect; 25–50 GB/s is typical for IB/NVLink bridges).
const KV_TRANSFER_BANDWIDTH: f64 = 50e9;

/// Fixed per-transfer latency in seconds.
const KV_TRANSFER_LATENCY: f64 = 1e-3;

/// Transfer time for one request's prompt KV of `kv_bytes`.
fn transfer_time(kv_bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(kv_bytes as f64 / KV_TRANSFER_BANDWIDTH + KV_TRANSFER_LATENCY)
}

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
}

impl DisaggConfig {
    /// Creates a disaggregated config.
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
        }
    }

    /// Total GPUs across both pools.
    pub fn total_gpus(&self) -> u32 {
        self.base.parallelism.gpus_per_replica()
            * (self.prefill_replicas + self.decode_replicas) as u32
    }
}

/// Simulator event payload (public via the `Simulation` trait only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisaggEvent {
    /// Trace request `idx` arrives at the prefill pool.
    #[doc(hidden)]
    Arrival(u32),
    /// Replica may schedule (index into the replica table).
    Wakeup(u32),
    /// Replica's oldest in-flight batch finished (index into the replica
    /// table).
    BatchComplete(u32),
    /// Request `idx`'s KV finished transferring to the decode pool.
    KvArrived(u32),
}

/// Event-driven simulator for a disaggregated deployment.
pub struct DisaggSimulator {
    config: DisaggConfig,
    /// Shared so the driver can read arrivals by cursor while the handlers
    /// read the same requests.
    trace: Arc<Trace>,
    engine: BatchEngine,
    /// Both pools in metrics order: prefill replicas `0..prefill_replicas`,
    /// then the decode replicas. Each tier indexes its own pool from 0.
    replicas: Vec<EngineReplica>,
    /// Round-robin tier of the prefill pool (routes arrivals). The report's
    /// per-tenant routing columns come from this tier.
    prefill_tier: RoutingTier,
    /// Least-outstanding tier of the decode pool (routes KV handoffs).
    decode_tier: RoutingTier,
}

impl std::fmt::Debug for DisaggSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DisaggSimulator")
            .field("config", &self.config.base.label())
            .field("prefill_replicas", &self.config.prefill_replicas)
            .field("decode_replicas", &self.config.decode_replicas)
            .finish()
    }
}

impl DisaggSimulator {
    /// Builds the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the base configuration cannot host the model, or if the
    /// trace's arrivals are not non-decreasing (the panic names the first
    /// out-of-order request index).
    pub fn new(config: DisaggConfig, trace: Trace, source: RuntimeSource, seed: u64) -> Self {
        engine::check_trace(&trace);
        let plan = config
            .base
            .memory_plan()
            .expect("configuration cannot host the model");
        let fleet = config.prefill_replicas + config.decode_replicas;
        let mut replicas = EngineReplica::pool(&config.base, &plan, fleet);
        if let Some(quota) = config.base.tenant_quota_blocks(plan.num_kv_blocks) {
            for replica in &mut replicas {
                replica.scheduler.set_tenant_quotas(&quota);
            }
        }
        let prefill_tier = RoutingTier::new(
            GlobalPolicyKind::RoundRobin,
            config.prefill_replicas,
            seed ^ 0x9E37,
            &config.base.tenant_weights,
        );
        let decode_tier = RoutingTier::new(
            GlobalPolicyKind::LeastOutstanding,
            config.decode_replicas,
            seed ^ 0xD155,
            &config.base.tenant_weights,
        );
        let mut engine = BatchEngine::new(&config.base, source, seed, fleet);
        if !trace.tenants.is_empty() {
            engine
                .metrics
                .set_tenants(&trace.tenants, config.base.tenant_slo);
        }
        DisaggSimulator {
            config,
            trace: Arc::new(trace),
            engine,
            replicas,
            prefill_tier,
            decode_tier,
        }
    }

    /// Runs to completion and returns the report.
    pub fn run(mut self) -> SimulationReport {
        let trace = Arc::clone(&self.trace);
        let arrivals = (trace.requests.iter().enumerate())
            .map(|(i, req)| (req.arrival, DisaggEvent::Arrival(i as u32)));
        engine::drive(&mut self, EventQueue::new(), arrivals, engine::MAX_EVENTS);
        // `routed` counts arrivals, so it comes from the prefill tier alone
        // (the decode tier's KV handoffs would double-count requests).
        // Neither tier ever defers, and quota denials sum over both pools'
        // schedulers.
        let routing = routing_stats(&self.prefill_tier, &self.replicas);
        self.engine.metrics.set_tenant_routing(routing);
        self.engine.finish(
            self.trace.len(),
            &self.config.base.sku,
            self.config.total_gpus(),
            self.replicas.iter(),
        )
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
        self.replicas[target].scheduler.add_request(
            Request::new(idx.into(), now, tr.prefill_tokens, 1)
                .with_tenant(tr.tenant)
                .with_priority(tr.priority),
        );
        self.try_schedule(target as u32, now, queue);
    }

    /// Joins trace request `idx` (KV transferred) to the decode pool's
    /// `target` replica (an index into the decode pool).
    fn dispatch_decode(
        &mut self,
        idx: u32,
        target: usize,
        now: SimTime,
        queue: &mut EventQueue<DisaggEvent>,
    ) {
        let tr = self.trace.requests[idx as usize];
        let replica = self.config.prefill_replicas + target;
        self.replicas[replica].scheduler.add_remote_prefilled(
            Request::new(idx.into(), tr.arrival, tr.prefill_tokens, tr.decode_tokens)
                .with_tenant(tr.tenant)
                .with_priority(tr.priority),
            1,
        );
        self.try_schedule(replica as u32, now, queue);
    }

    fn try_schedule(&mut self, replica: u32, now: SimTime, queue: &mut EventQueue<DisaggEvent>) {
        self.engine.try_schedule(
            &mut self.replicas[replica as usize],
            now,
            queue,
            // Disaggregated MBU accounting is not modeled yet; batches carry
            // no HBM-traffic estimate (matches the pre-engine behavior).
            |_batch| 0.0,
            || DisaggEvent::Wakeup(replica),
            // Replicas never crash here, so the epoch stays 0.
            |_epoch| DisaggEvent::BatchComplete(replica),
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
                    .on_arrival(idx.into(), now, tr.decode_tokens, tr.tenant);
                // The round-robin prefill tier places the request; it
                // "finishes" there after one output token.
                let req = RouteRequest {
                    key: idx as u64,
                    tenant: tr.tenant,
                    priority: tr.priority,
                    tokens: tr.prefill_tokens + 1,
                };
                let target = self
                    .prefill_tier
                    .route(req)
                    .expect("round-robin never defers");
                self.dispatch_prefill(idx, target, now, queue);
            }
            DisaggEvent::KvArrived(idx) => {
                let tr = self.trace.requests[idx as usize];
                // The least-outstanding decode tier admits the transferred
                // KV.
                let req = RouteRequest {
                    key: idx as u64,
                    tenant: tr.tenant,
                    priority: tr.priority,
                    tokens: tr.prefill_tokens + tr.decode_tokens,
                };
                let target = self
                    .decode_tier
                    .route(req)
                    .expect("least-outstanding never defers");
                self.dispatch_decode(idx, target, now, queue);
            }
            DisaggEvent::Wakeup(replica) => {
                self.replicas[replica as usize].clear_wakeup();
                self.try_schedule(replica, now, queue);
            }
            DisaggEvent::BatchComplete(replica) => {
                let r = replica as usize;
                let trace = &self.trace;
                let config = &self.config;
                let kv_per_token = config.base.model.kv_bytes_per_token();
                // The decode pool follows the prefill pool in the table;
                // `local` indexes the replica within its pool's tier.
                let decode = r >= config.prefill_replicas;
                let local = if decode {
                    r - config.prefill_replicas
                } else {
                    r
                };
                let prefill_tier = &mut self.prefill_tier;
                let decode_tier = &mut self.decode_tier;
                self.engine.retire_batch(
                    &mut self.replicas[r],
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
                        if decode {
                            decode_tier.on_finished(
                                local,
                                tr.tenant,
                                tr.prefill_tokens + tr.decode_tokens,
                            );
                            return;
                        }
                        prefill_tier.on_finished(local, tr.tenant, tr.prefill_tokens + 1);
                        if tr.decode_tokens > 1 {
                            // Not actually finished: the decode pool takes
                            // over once the KV transfer lands.
                            ev.finished = false;
                            let bytes = tr.prefill_tokens * kv_per_token;
                            let arrive = now + transfer_time(bytes);
                            queue.push(arrive, DisaggEvent::KvArrived(ev.id as u32));
                        }
                    },
                );
                self.try_schedule(replica, now, queue);
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
    #[should_panic(expected = "request index 6 arrives at")]
    fn out_of_order_trace_is_rejected_at_construction() {
        let mut trace = trace(8, 2.0, 1);
        trace.requests.swap(5, 6);
        DisaggSimulator::new(DisaggConfig::new(base(), 1, 1), trace, oracle(), 1);
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
        let small = transfer_time(1 << 20);
        let large = transfer_time(1 << 30);
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
