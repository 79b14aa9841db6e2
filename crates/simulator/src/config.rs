//! Cluster / deployment configuration — the "Simulation Spec" of Figure 2.

use crate::faults::AutoscalerSpec;
use crate::metrics::{TenantSlo, TimeseriesConfig};
use serde::{Deserialize, Serialize};
use vidur_core::metrics::QuantileMode;
use vidur_core::time::SimTime;
use vidur_hardware::GpuSku;
use vidur_model::memory::{MemoryPlan, DEFAULT_BLOCK_SIZE};
use vidur_model::spec::SpecError;
use vidur_model::{ModelSpec, ParallelismConfig};
use vidur_scheduler::{GlobalPolicyKind, SchedulerConfig};
use vidur_workload::faults::FaultSchedule;

/// Mean per-iteration CPU/framework overhead in seconds (scheduler step,
/// tokenization hand-off, kernel dispatch). The paper's vLLM fork uses CUDA
/// graphs to minimize this, but it never reaches zero — and its run-to-run
/// *jitter* on the real system is what drives the 7B model's higher fidelity
/// error (paper §7.2).
pub const DEFAULT_CPU_OVERHEAD: f64 = 300e-6;

/// A complete deployment configuration to simulate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// The model being served.
    pub model: ModelSpec,
    /// GPU SKU for every device in the cluster.
    pub sku: GpuSku,
    /// Per-replica parallelism (TP × PP).
    pub parallelism: ParallelismConfig,
    /// Number of identical replicas.
    pub num_replicas: usize,
    /// Replica batching policy and limits.
    pub scheduler: SchedulerConfig,
    /// Cluster-tier routing policy.
    pub global_policy: GlobalPolicyKind,
    /// KV-cache page size in tokens.
    pub block_size: u32,
    /// Mean per-iteration CPU overhead in seconds.
    pub cpu_overhead: f64,
    /// Hard wall on simulated time (overloaded configs stop here instead of
    /// draining); `None` runs to completion.
    pub max_sim_time: Option<SimTime>,
    /// Overlap pipeline-parallel send/recv with compute (the asynchronous-
    /// communication extension the paper plans for the replica stage
    /// scheduler, §4.5). When set, inter-stage transfers leave the critical
    /// path.
    pub async_pipeline_comm: bool,
    /// Abort the simulation once more than `max_late` requests waited
    /// longer than `delay_limit_secs` for their first schedule. Used by
    /// capacity probes: an overloaded system is declared infeasible after a
    /// handful of blown deadlines instead of simulating the full queue
    /// explosion.
    pub late_abort: Option<LateAbort>,
    /// How the metrics collector aggregates latency distributions:
    /// [`QuantileMode::Exact`] (the default) stores every sample so report
    /// quantiles are exact and bit-reproducible; [`QuantileMode::Mergeable`]
    /// records latencies into t-digests with exact running sums and retires
    /// per-request records as they complete, at the cost of approximate
    /// mid-quantiles. Its metrics memory then grows neither with TBT
    /// samples nor with batches, and its per-request state spans the ids
    /// from the oldest unretired request to the newest; `Exact` keeps every
    /// record and TBT sample by design. Only the latency distributions
    /// differ between the modes: every other report field is bit-equal.
    pub quantile_mode: QuantileMode,
    /// Latency SLO judged per completed request for the per-tenant
    /// attainment column of the report. Only consulted on multi-tenant
    /// traces (ones that declare tenants); `None` reports latencies without
    /// attainment.
    pub tenant_slo: Option<TenantSlo>,
    /// Per-tenant fair-share weights for
    /// [`GlobalPolicyKind::FairShare`] routing (index = tenant id; missing
    /// entries weigh 1.0). Empty = equal weights. Other policies ignore
    /// this.
    pub tenant_weights: Vec<f64>,
    /// Per-tenant KV quotas as a fraction of each replica's KV blocks
    /// (index = tenant id; missing entries are unlimited; values clamp to
    /// at least one block). Empty = quotas disabled. Enforced at replica
    /// admission — see `ReplicaScheduler::set_tenant_quotas`.
    pub tenant_kv_quota: Vec<f64>,
    /// Number of event-loop shards to run in parallel (clamped to
    /// `num_replicas`). `1` (the default) uses the sequential engine. Values
    /// above 1 opt into the sharded engine for configurations on its fast
    /// path — no late-abort, no elastic fleet, no armed prefix cache,
    /// jitter-free runtimes (the oracle's CPU-overhead jitter comes from one
    /// engine-wide stream in launch order), and any non-`Deferred` routing
    /// policy. Every such run uses one loop: shards simulate up to the next
    /// unrouted arrival, the merger replays their effects in sequential
    /// order and routes on the live tier — one arrival instant per round for
    /// stateful policies (least-outstanding, priority-aware, fair-share,
    /// affinity, KV-aware), a batch of arrivals ahead for stateless ones
    /// (round-robin, random), which never read the live view. Anything else falls back to the sequential engine with
    /// the reason reported in `RunStats::fallback_reason`. Reports are
    /// bit-identical either way, in every quantile mode (see
    /// `vidur_simulator::sharded`).
    pub shards: usize,
    /// Windowed time-series output: when set, the report's `timeseries`
    /// field carries one row per window of simulated time (throughput,
    /// TTFT p99, mean KV occupancy), in either [`QuantileMode`].
    pub timeseries: Option<TimeseriesConfig>,
    /// Fault schedule: replica crashes (work requeues through the routing
    /// tier), straggler episodes, and recoveries with a fixed warm-up. The
    /// default (empty) schedule is byte-identical to a run without the
    /// fault layer. Arming a non-empty schedule (or `autoscaler`) forces
    /// the sequential engine — the sharded fast path falls back
    /// automatically. Only [`ClusterSimulator`](crate::ClusterSimulator)
    /// injects faults; the disaggregated engine reports zero fault counters.
    pub faults: FaultSchedule,
    /// SLO/queue-driven autoscaler: when set, the fleet starts at
    /// `num_replicas` live replicas and the policy adds or drains replicas
    /// each interval within `[min_replicas, max_replicas]`; the engine
    /// pre-allocates `max_replicas`. `None` keeps the fleet fixed.
    pub autoscaler: Option<AutoscalerSpec>,
    /// Prefix-cache tier: when set, each replica's block manager caches
    /// shared-prefix KV blocks (reference-counted, LRU-evicted), admission
    /// skips the cached prefill tokens, batch formation prices only the
    /// un-cached prefill, and the routing tier sees per-replica expected
    /// prefix hits ([`GlobalPolicyKind::KvAware`] routes on them). `None`
    /// (the default) is byte-identical to the pre-prefix engine. Arming it
    /// forces the sequential engine — the sharded fast path falls back.
    pub prefix_cache: Option<PrefixCacheConfig>,
}

/// Prefix-cache tier configuration. Currently a marker — arming the tier is
/// the only knob; capacity is whatever the block manager's free pool holds
/// under LRU pressure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixCacheConfig {}

/// Early-abort rule for overloaded capacity probes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LateAbort {
    /// Scheduling-delay limit in seconds (the capacity SLO).
    pub delay_limit_secs: f64,
    /// Abort when strictly more than this many requests are late.
    pub max_late: usize,
}

impl ClusterConfig {
    /// Creates a configuration with paper defaults (block size 16, 300 µs
    /// CPU overhead, round-robin routing, no time cap).
    ///
    /// # Panics
    ///
    /// Panics if `num_replicas == 0`.
    pub fn new(
        model: ModelSpec,
        sku: GpuSku,
        parallelism: ParallelismConfig,
        num_replicas: usize,
        scheduler: SchedulerConfig,
    ) -> Self {
        assert!(num_replicas > 0, "need at least one replica");
        ClusterConfig {
            model,
            sku,
            parallelism,
            num_replicas,
            scheduler,
            global_policy: GlobalPolicyKind::RoundRobin,
            block_size: DEFAULT_BLOCK_SIZE,
            cpu_overhead: DEFAULT_CPU_OVERHEAD,
            max_sim_time: None,
            async_pipeline_comm: false,
            late_abort: None,
            quantile_mode: QuantileMode::Exact,
            tenant_slo: None,
            tenant_weights: Vec::new(),
            tenant_kv_quota: Vec::new(),
            shards: 1,
            timeseries: None,
            faults: FaultSchedule::new(),
            autoscaler: None,
            prefix_cache: None,
        }
    }

    /// True when the elastic-fleet layer (fault schedule or autoscaler) is
    /// armed. Elastic runs pre-allocate [`Self::fleet_size`] replicas and
    /// always use the sequential engine.
    pub fn elastic(&self) -> bool {
        !self.faults.is_empty() || self.autoscaler.is_some()
    }

    /// Replica slots to pre-allocate: `num_replicas`, or the autoscaler's
    /// `max_replicas` ceiling when it is armed and larger. Slots beyond
    /// `num_replicas` start powered off.
    pub fn fleet_size(&self) -> usize {
        match &self.autoscaler {
            Some(spec) => self.num_replicas.max(spec.max_replicas),
            None => self.num_replicas,
        }
    }

    /// Per-tenant KV quotas in blocks for a replica with `num_kv_blocks`
    /// blocks, or `None` when quotas are disabled. Each fraction clamps to
    /// `[1, num_kv_blocks]`.
    pub fn tenant_quota_blocks(&self, num_kv_blocks: u64) -> Option<Vec<u64>> {
        if self.tenant_kv_quota.is_empty() {
            return None;
        }
        Some(
            self.tenant_kv_quota
                .iter()
                .map(|&f| {
                    let blocks = (num_kv_blocks as f64 * f).floor() as u64;
                    blocks.clamp(1, num_kv_blocks)
                })
                .collect(),
        )
    }

    /// Total GPUs across all replicas.
    pub fn total_gpus(&self) -> u32 {
        self.parallelism.gpus_per_replica() * self.num_replicas as u32
    }

    /// Cluster rental cost in dollars per hour.
    pub fn dollars_per_hour(&self) -> f64 {
        self.total_gpus() as f64 * self.sku.price_per_gpu_hour
    }

    /// Plans per-device memory, validating that the model fits.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid parallelism or insufficient memory —
    /// such configurations are skipped by the search.
    pub fn memory_plan(&self) -> Result<MemoryPlan, SpecError> {
        MemoryPlan::compute(
            &self.model,
            &self.parallelism,
            self.sku.memory_bytes,
            self.block_size,
        )
    }

    /// Short human-readable label for reports,
    /// e.g. `llama2-70b/a100-80g/TP4-PP1/vllm/bs64/r2`. Non-round-robin
    /// routing policies append a segment (e.g. `/fair-share(max=32)`) so
    /// configs that differ only in routing stay distinguishable.
    pub fn label(&self) -> String {
        let base = format!(
            "{}/{}/{}/{}/bs{}/r{}",
            self.model.name,
            self.sku.name,
            self.parallelism,
            self.scheduler.policy,
            self.scheduler.max_batch_size,
            self.num_replicas
        );
        let base = if self.global_policy == GlobalPolicyKind::RoundRobin {
            base
        } else {
            format!("{base}/{}", self.global_policy)
        };
        if self.prefix_cache.is_some() {
            format!("{base}/prefix-cache")
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidur_scheduler::BatchPolicyKind;

    fn base() -> ClusterConfig {
        ClusterConfig::new(
            ModelSpec::llama2_70b(),
            GpuSku::a100_80g(),
            ParallelismConfig::new(4, 1),
            2,
            SchedulerConfig::new(BatchPolicyKind::Vllm, 64),
        )
    }

    #[test]
    fn gpu_and_cost_accounting() {
        let c = base();
        assert_eq!(c.total_gpus(), 8);
        assert!((c.dollars_per_hour() - 8.0 * 2.21).abs() < 1e-9);
    }

    #[test]
    fn memory_plan_validates() {
        let c = base();
        assert!(c.memory_plan().is_ok());
        let mut bad = base();
        bad.parallelism = ParallelismConfig::serial();
        assert!(bad.memory_plan().is_err(), "70B on one GPU must fail");
    }

    #[test]
    fn label_is_descriptive() {
        let label = base().label();
        assert!(label.contains("llama2-70b"));
        assert!(label.contains("TP4-PP1"));
        assert!(label.contains("vllm"));
        // Configs of one deployment that differ only in routing get
        // distinct labels.
        let mut labels: Vec<String> = [
            GlobalPolicyKind::RoundRobin,
            GlobalPolicyKind::LeastOutstanding,
            GlobalPolicyKind::FairShare {
                max_outstanding: 32,
            },
        ]
        .into_iter()
        .map(|policy| {
            let mut c = base();
            c.global_policy = policy;
            c.label()
        })
        .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 3, "routing must show in labels");
    }
}
