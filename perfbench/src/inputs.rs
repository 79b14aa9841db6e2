//! Workload inputs, generated from the workload seed alone.
//!
//! Every workload runs llama2-7b on A100 with estimator runtimes and the
//! default (exact) quantile mode. The program receives only the generated
//! trace and configuration; the same seed always yields the same inputs.

use vidur_core::rng::SimRng;
use vidur_hardware::GpuSku;
use vidur_model::{ModelSpec, ParallelismConfig};
use vidur_scheduler::{BatchPolicyKind, GlobalPolicyKind, SchedulerConfig};
use vidur_search::SearchSpace;
use vidur_simulator::{ClusterConfig, PrefixCacheConfig, TenantSlo};
use vidur_workload::{
    ArrivalProcess, MultiTenantWorkload, TenantPrefixConfig, TenantStream, Trace, TraceWorkload,
};

/// Independent inputs each replay workload draws from one seed. A run
/// replays all of them in turn, so one seed's figures average over this many
/// traffic samples instead of hanging on one.
pub const REPLAY_INPUTS: usize = 16;
/// Requests in each `online_mix` / `online_mix_sharded` input.
pub const ONLINE_MIX_REQUESTS: usize = 250;
/// Requests in each `shared_prefix` input.
pub const SHARED_PREFIX_REQUESTS: usize = 500;
/// Requests in each fixed `online_mix` input the fidelity pairs run on.
pub const FIDELITY_REQUESTS: usize = 6_000;
/// Requests in each `capacity_search` probe trace.
pub const PROBE_REQUESTS: usize = 100;
/// Size of the synthesized seed trace `online_mix` amplifies from, as in
/// the `multi_tenant_replay` example.
const ONLINE_MIX_SEED_REQUESTS: usize = 1_000;

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "online_mix",
    "online_mix_sharded",
    "shared_prefix",
    "capacity_search",
];

/// The seed of input `input` of workload seed `seed`.
pub fn input_seed(seed: u64, input: usize) -> u64 {
    SimRng::new(seed).fork(input as u64).next_u64()
}

fn llama_a100(replicas: usize, scheduler: SchedulerConfig) -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        ParallelismConfig::serial(),
        replicas,
        scheduler,
    )
}

/// Seed of the synthesized log `online_mix` amplifies. The log is fixed,
/// like a production trace a user would replay: the workload seed drives
/// only the amplification (arrival draws from the fitted process and the
/// bootstrap of request tuples), so every seed replays the same traffic
/// shape and load level.
const ONLINE_MIX_LOG_SEED: u64 = 42;

/// The `multi_tenant_replay` online shape: diurnal chat, Poisson
/// bulk-writing and MMPP-bursty summarization tenants, synthesized at 1 000
/// requests and amplified to `n` by derived-stat resampling.
pub fn online_mix_trace(seed: u64, n: usize) -> Trace {
    let mix = MultiTenantWorkload::new(
        "online-mix",
        vec![
            TenantStream {
                tenant: "interactive".into(),
                priority: 0,
                workload: TraceWorkload::chat_1m(),
                arrivals: ArrivalProcess::Diurnal {
                    mean_qps: 2.0,
                    amplitude: 0.8,
                    period_secs: 600.0,
                },
                prefix: None,
            },
            TenantStream {
                tenant: "standard".into(),
                priority: 1,
                workload: TraceWorkload::bwb_4k(),
                arrivals: ArrivalProcess::Poisson { qps: 1.0 },
                prefix: None,
            },
            TenantStream {
                tenant: "batch".into(),
                priority: 2,
                workload: TraceWorkload::arxiv_4k(),
                arrivals: ArrivalProcess::Mmpp {
                    qps_base: 0.3,
                    qps_burst: 10.0,
                    mean_base_secs: 60.0,
                    mean_burst_secs: 10.0,
                },
                prefix: None,
            },
        ],
    );
    mix.generate(
        ONLINE_MIX_SEED_REQUESTS,
        &mut SimRng::new(ONLINE_MIX_LOG_SEED),
    )
    .amplify(n, &mut SimRng::new(seed))
}

/// Least-outstanding routing over 6 vLLM replicas at batch 256, with
/// `shards` event-loop shards.
pub fn online_mix_config(shards: usize) -> ClusterConfig {
    let mut config = llama_a100(6, SchedulerConfig::new(BatchPolicyKind::Vllm, 256));
    config.global_policy = GlobalPolicyKind::LeastOutstanding;
    config.tenant_slo = Some(TenantSlo {
        ttft_secs: 2.0,
        e2e_per_token_secs: 0.5,
    });
    config.shards = shards;
    config
}

/// Two arxiv-4k tenants at Poisson 5 QPS each reusing shared prefixes:
/// `assistants` (95% share, 16 × 2048-token prefixes) and `rag` (100%
/// share, 16 × 1024-token prefixes).
pub fn shared_prefix_trace(seed: u64, n: usize) -> Trace {
    let stream = |tenant: &str, priority, share_ratio, prefix_tokens| TenantStream {
        tenant: tenant.into(),
        priority,
        workload: TraceWorkload::arxiv_4k(),
        arrivals: ArrivalProcess::Poisson { qps: 5.0 },
        prefix: Some(TenantPrefixConfig {
            share_ratio,
            prefix_tokens,
            num_prefixes: 16,
        }),
    };
    let mix = MultiTenantWorkload::new(
        "shared-prefix",
        vec![
            stream("assistants", 0, 0.95, 2048),
            stream("rag", 1, 1.0, 1024),
        ],
    );
    mix.generate(n, &mut SimRng::new(seed))
}

/// Sarathi (chunk 512, batch 64) on 4 replicas with the prefix tier armed
/// and KV-aware routing.
pub fn shared_prefix_config() -> ClusterConfig {
    let mut config = llama_a100(
        4,
        SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 64),
    );
    config.global_policy = GlobalPolicyKind::KvAware;
    config.prefix_cache = Some(PrefixCacheConfig::default());
    config
}

/// Seed of the fixed chat-1m log the capacity-search probe is drawn from.
const PROBE_LOG_SEED: u64 = 42;

/// The chat-1m static probe trace the capacity search re-times per probe:
/// a fixed log of [`PROBE_REQUESTS`] requests in an order the workload seed
/// shuffles. Every seed probes the same request lengths, so the search does
/// comparable work on every seed; the order still changes every batch the
/// probes form.
pub fn probe_trace(seed: u64) -> Trace {
    let mut trace = TraceWorkload::chat_1m().generate(
        PROBE_REQUESTS,
        &ArrivalProcess::Static,
        &mut SimRng::new(PROBE_LOG_SEED),
    );
    let mut rng = SimRng::new(seed);
    let requests = &mut trace.requests;
    for i in (1..requests.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        requests.swap(i, j);
    }
    for (id, r) in requests.iter_mut().enumerate() {
        r.id = id as u64;
    }
    trace
}

/// The reduced search space over llama2-7b (72 configurations).
pub fn search_configs() -> Vec<ClusterConfig> {
    SearchSpace::reduced().enumerate(&ModelSpec::llama2_7b())
}

/// One representative configuration per distinct `key` among `configs`.
fn distinct_by<K: PartialEq>(
    configs: &[ClusterConfig],
    key: impl Fn(&ClusterConfig) -> K,
) -> Vec<ClusterConfig> {
    let mut out: Vec<ClusterConfig> = Vec::new();
    for c in configs {
        if !out.iter().any(|o| key(o) == key(c)) {
            out.push(c.clone());
        }
    }
    out
}

/// The distinct (model, TP, SKU) triples `configs` need onboarded.
pub fn onboarding_triples(configs: &[ClusterConfig]) -> Vec<ClusterConfig> {
    distinct_by(configs, |c| {
        (
            c.model.name.clone(),
            c.parallelism.tensor_parallel,
            c.sku.name.clone(),
        )
    })
}

/// The distinct (model, TP, PP, SKU) points that share one stage timer.
pub fn parallelism_points(configs: &[ClusterConfig]) -> Vec<ClusterConfig> {
    distinct_by(configs, |c| {
        (c.model.name.clone(), c.parallelism, c.sku.name.clone())
    })
}
