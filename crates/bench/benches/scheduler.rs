//! Batch-formation microbench suite: the replica scheduler's
//! `next_batch`/`complete_batch` cycle is invoked once per simulated
//! iteration — hundreds of thousands of times per run, millions per search —
//! so this suite tracks its cost across PRs.
//!
//! Seven scenarios cover the hot-loop regimes:
//!
//! * `decode_heavy` — a saturated decode pool (the steady state of every
//!   long-running replica; the ≥2× acceptance gate lives here),
//! * `churn_preempt` — vLLM recompute churn under KV pressure,
//! * `sarathi_chunked` — chunked prefills riding decode batches,
//! * `lightllm_10k` — token-level admission over a 10k-request backlog,
//! * `multi_tenant_burst` — four interleaved priority classes under KV
//!   pressure: tier-ordered admission inserts plus the full-scan
//!   priority-aware preemption victim walk,
//! * `routing_fairshare` — the global routing tier under skewed 4-tenant
//!   load, gated on fair-share strictly improving the worst light tenant's
//!   first-schedule p99 over round-robin,
//! * `prefix_routing` — a shared-prefix overload through the full cluster
//!   simulator with the prefix-cache tier armed, gated on KV-aware routing
//!   beating round-robin on both hit rate and TTFT p99 (simulated time, so
//!   hardware-independent).
//!
//! Every scenario runs both the optimized `ReplicaScheduler` and the seed's
//! `ReferenceScheduler` (from the dev-only `vidur-oracle` crate) in the same
//! process, so the reported speedup is hardware-independent and the two
//! implementations are differentially smoke-checked (same batch and
//! preemption counts) on every run.
//!
//! Output: human-readable lines plus machine-readable
//! `results/BENCH_scheduler.json`. With `BENCH_SCHEDULER_BASELINE=<path>`
//! set (CI points it at the committed
//! `crates/bench/baselines/BENCH_scheduler.json`), the run fails (exit 1)
//! if the decode-heavy speedup drops below 2× or regresses more than 25%
//! against the baseline — CI's perf-regression gate. `BENCH_SMOKE=1`
//! shrinks the deep-backlog workload for CI.

use serde::{Deserialize, Serialize};
use std::time::Instant;
use vidur_core::rng::SimRng;
use vidur_core::time::SimTime;
use vidur_estimator::EstimatorKind;
use vidur_hardware::GpuSku;
use vidur_model::{ModelSpec, ParallelismConfig};
use vidur_oracle::ReferenceScheduler;
use vidur_scheduler::{
    BatchPolicyKind, GlobalPolicyKind, ReplicaScheduler, Request, RouteRequest, RoutingTier,
    SchedulerConfig,
};
use vidur_simulator::cluster::RuntimeSource;
use vidur_simulator::{onboard, ClusterConfig, ClusterSimulator, PrefixCacheConfig};
use vidur_workload::{
    ArrivalProcess, MultiTenantWorkload, TenantPrefixConfig, TenantStream, TraceWorkload,
};

/// One scenario's workload description:
/// `(prefill, decode, priority)` per request.
struct Scenario {
    name: &'static str,
    policy: BatchPolicyKind,
    max_batch: usize,
    total_blocks: u64,
    requests: Vec<(u64, u64, u8)>,
}

fn scenarios(smoke: bool) -> Vec<Scenario> {
    // Smoke mode shrinks only the deep-backlog scenario: the others finish
    // in milliseconds at full size, and shrinking decode_heavy below its
    // batch width would stop exercising the wide-batch regime the 2× gate
    // is about.
    let scale = |n: usize| if smoke && n >= 10_000 { n / 4 } else { n };
    vec![
        // Decode-heavy: short prompts, long generations, large batch — after
        // a brief prefill ramp the scheduler spends the whole run forming
        // full-width decode batches (the seed rescanned and reallocated the
        // running set on each of them).
        Scenario {
            name: "decode_heavy",
            policy: BatchPolicyKind::OrcaPlus,
            max_batch: 192,
            total_blocks: 500_000,
            requests: (0..scale(384) as u64)
                .map(|i| (32 + i % 64, 250 + i % 57, 0))
                .collect(),
        },
        // Churn-heavy: vLLM recompute under tight KV — admissions, growth
        // failures, preemption victim scans, and re-admissions dominate.
        // Long generations outgrow the prompt-only reservations, so decode
        // growth must evict (the drain asserts preemptions actually happen).
        Scenario {
            name: "churn_preempt",
            policy: BatchPolicyKind::Vllm,
            max_batch: 64,
            total_blocks: 500,
            requests: (0..scale(128) as u64)
                .map(|i| (40 + i % 90, 160 + i % 80, 0))
                .collect(),
        },
        // Sarathi: long prompts chunked at 512 tokens with decodes riding
        // along — exercises the partial-prefill continuation scan.
        Scenario {
            name: "sarathi_chunked",
            policy: BatchPolicyKind::SarathiServe { chunk_size: 512 },
            max_batch: 64,
            total_blocks: 500_000,
            requests: (0..scale(200) as u64)
                .map(|i| (900 + (i * 131) % 1600, 40 + i % 80, 0))
                .collect(),
        },
        // LightLLM over a deep backlog: the projected-KV admission bound was
        // a re-sum over the running set per formed batch in the seed.
        Scenario {
            name: "lightllm_10k",
            policy: BatchPolicyKind::LightLlm,
            max_batch: 256,
            total_blocks: 200_000,
            requests: (0..scale(10_000) as u64)
                .map(|i| (50 + i % 350, 10 + i % 60, 0))
                .collect(),
        },
        // Multi-tenant priority burst: four interleaved priority classes
        // under KV pressure, so every admission pays the tier-ordered
        // insert and every OOM runs the full priority-aware victim walk
        // (the uniform-priority scenarios above keep their early-exit fast
        // paths honest by comparison).
        Scenario {
            name: "multi_tenant_burst",
            policy: BatchPolicyKind::Vllm,
            max_batch: 128,
            total_blocks: 1_100,
            requests: (0..scale(1_500) as u64)
                .map(|i| (60 + i % 200, 30 + i % 90, (i % 4) as u8))
                .collect(),
        },
    ]
}

/// Drains the optimized scheduler through the engine's hot path
/// (`next_batch` / `complete_batch_into` / `recycle_batch`); returns
/// (batches, preemptions).
fn drain_optimized(sc: &Scenario) -> (u64, u64) {
    let mut s = ReplicaScheduler::new(
        SchedulerConfig::new(sc.policy, sc.max_batch),
        sc.total_blocks,
        16,
    );
    for (i, &(p, d, prio)) in sc.requests.iter().enumerate() {
        s.add_request(Request::new(i as u64, SimTime::ZERO, p, d).with_priority(prio));
    }
    let mut events = Vec::new();
    let mut batches = 0u64;
    while s.outstanding() > 0 {
        let Some(batch) = s.next_batch() else { break };
        s.complete_batch_into(&batch, &mut events);
        s.recycle_batch(batch);
        batches += 1;
    }
    (batches, s.preemptions())
}

/// Drains the seed-faithful reference implementation.
fn drain_reference(sc: &Scenario) -> (u64, u64) {
    let mut s = ReferenceScheduler::new(
        SchedulerConfig::new(sc.policy, sc.max_batch),
        sc.total_blocks,
        16,
    );
    for (i, &(p, d, prio)) in sc.requests.iter().enumerate() {
        s.add_request(Request::new(i as u64, SimTime::ZERO, p, d).with_priority(prio));
    }
    let mut batches = 0u64;
    while s.outstanding() > 0 {
        let Some(batch) = s.next_batch() else { break };
        s.complete_batch(&batch);
        batches += 1;
    }
    (batches, s.preemptions())
}

// ---- routing_fairshare: the global tier under skewed multi-tenant load ---

/// Replicas behind the routing tier in the fair-share scenario.
const ROUTING_REPLICAS: usize = 4;

/// One arrival in the round-stepped routing drive:
/// `(round, tenant, prefill, decode)`.
fn routing_arrivals(smoke: bool) -> Vec<(u64, u32, u64, u64)> {
    let rounds = if smoke { 120 } else { 240 };
    let mut arrivals = Vec::new();
    for round in 0..rounds as u64 {
        // Heavy tenant 0: a 64-request burst every 24 rounds.
        if round % 24 == 0 {
            for i in 0..64u64 {
                arrivals.push((round, 0, 48 + i % 64, 8));
            }
        }
        // Light tenants 1..3: one request every other round each.
        if round % 2 == 0 {
            for tenant in 1..4u32 {
                arrivals.push((round, tenant, 64, 8));
            }
        }
    }
    arrivals
}

/// Drives the skewed 4-tenant schedule through a [`RoutingTier`] over four
/// replica schedulers, one batch per replica per round. Returns
/// `(batches, worst light-tenant p99 first-schedule delay in rounds)` —
/// the starvation measure the fairness gate compares across policies.
fn drive_routing(kind: GlobalPolicyKind, smoke: bool) -> (u64, u64) {
    let arrivals = routing_arrivals(smoke);
    let total = arrivals.len();
    let mut tier = RoutingTier::new(kind, ROUTING_REPLICAS, 7, &[]);
    let mut replicas: Vec<ReplicaScheduler> = (0..ROUTING_REPLICAS)
        .map(|_| {
            ReplicaScheduler::new(SchedulerConfig::new(BatchPolicyKind::Vllm, 16), 100_000, 16)
        })
        .collect();
    let mut first_sched: Vec<Option<u64>> = vec![None; total];
    let mut events = Vec::new();
    let mut next_arrival = 0usize;
    let mut completed = 0usize;
    let mut batches = 0u64;
    let mut round = 0u64;
    let dispatch = |replicas: &mut Vec<ReplicaScheduler>,
                    arrivals: &Vec<(u64, u32, u64, u64)>,
                    key: u64,
                    target: usize| {
        let (_, tenant, prefill, decode) = arrivals[key as usize];
        replicas[target]
            .add_request(Request::new(key, SimTime::ZERO, prefill, decode).with_tenant(tenant));
    };
    while completed < total {
        assert!(round < 100_000, "routing drive must converge");
        while next_arrival < total && arrivals[next_arrival].0 <= round {
            let (_, tenant, prefill, decode) = arrivals[next_arrival];
            let req = RouteRequest {
                key: next_arrival as u64,
                tenant,
                priority: 0,
                tokens: prefill + decode,
            };
            if let Some(target) = tier.route(req) {
                dispatch(&mut replicas, &arrivals, req.key, target);
            }
            next_arrival += 1;
        }
        for (r, replica) in replicas.iter_mut().enumerate() {
            let Some(batch) = replica.next_batch() else {
                continue;
            };
            batches += 1;
            for slice in batch.slices() {
                let entry = &mut first_sched[slice.request_id as usize];
                if entry.is_none() {
                    *entry = Some(round);
                }
            }
            replica.complete_batch_into(&batch, &mut events);
            for ev in &events {
                if ev.finished {
                    completed += 1;
                    let (_, tenant, prefill, decode) = arrivals[ev.id as usize];
                    tier.on_finished(r, tenant, prefill + decode);
                }
            }
            replica.recycle_batch(batch);
        }
        while let Some((req, target)) = tier.next_ready() {
            dispatch(&mut replicas, &arrivals, req.key, target);
        }
        round += 1;
    }
    // Worst light-tenant p99 of (first-schedule round - arrival round).
    let mut worst = 0u64;
    for tenant in 1..4u32 {
        let mut delays: Vec<u64> = arrivals
            .iter()
            .enumerate()
            .filter(|(_, a)| a.1 == tenant)
            .map(|(i, a)| first_sched[i].expect("scheduled") - a.0)
            .collect();
        delays.sort_unstable();
        let p99 = delays[(delays.len() * 99).div_ceil(100).saturating_sub(1)];
        worst = worst.max(p99);
    }
    (batches, worst)
}

/// Best-of-`reps` wall-clock nanoseconds for `f` (one untimed warm-up).
fn best_of<F: FnMut() -> (u64, u64)>(reps: usize, mut f: F) -> (f64, u64, u64) {
    let (batches, preemptions) = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let ns = start.elapsed().as_nanos() as f64;
        assert_eq!(out, (batches, preemptions), "non-deterministic drain");
        best = best.min(ns);
    }
    (best, batches, preemptions)
}

#[derive(Debug, Serialize, Deserialize)]
struct ScenarioResult {
    name: String,
    batches: u64,
    preemptions: u64,
    optimized_ns_per_batch: f64,
    reference_ns_per_batch: f64,
    speedup: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    schema: u32,
    smoke: bool,
    scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    fn scenario(&self, name: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let reps = if smoke { 2 } else { 5 };
    let mut results = Vec::new();
    for sc in scenarios(smoke) {
        let (opt_ns, opt_batches, opt_preempt) = best_of(reps, || drain_optimized(&sc));
        let (ref_ns, ref_batches, ref_preempt) = best_of(reps, || drain_reference(&sc));
        // Differential smoke: both implementations must agree on what ran.
        assert_eq!(
            (opt_batches, opt_preempt),
            (ref_batches, ref_preempt),
            "{}: optimized and reference schedulers diverged",
            sc.name
        );
        // The churn scenario only measures what it claims while preemption
        // actually fires; fail loudly if a workload/scheduler change ever
        // turns it into a smooth decode run.
        if sc.name == "churn_preempt" || sc.name == "multi_tenant_burst" {
            assert!(
                opt_preempt > 0,
                "{} stopped preempting — retune the scenario",
                sc.name
            );
        }
        let r = ScenarioResult {
            name: sc.name.to_string(),
            batches: opt_batches,
            preemptions: opt_preempt,
            optimized_ns_per_batch: opt_ns / opt_batches as f64,
            reference_ns_per_batch: ref_ns / ref_batches as f64,
            speedup: ref_ns / opt_ns,
        };
        println!(
            "bench: scheduler_formation/{:<16} {:>9.0} ns/batch (seed {:>9.0} ns/batch, {:>5.2}x, {} batches, {} preemptions)",
            r.name,
            r.optimized_ns_per_batch,
            r.reference_ns_per_batch,
            r.speedup,
            r.batches,
            r.preemptions
        );
        results.push(r);
    }

    // Global-tier scenario: fair-share vs round-robin over a skewed
    // 4-tenant load. "optimized" = fair-share, "reference" = round-robin;
    // the hard gate is fairness, not speed — the worst light tenant's
    // first-schedule p99 (in rounds) must strictly improve, which is an
    // in-process, hardware-independent property.
    {
        let (fs_ns, fs_batches, fs_worst) = best_of(reps, || {
            drive_routing(GlobalPolicyKind::FairShare { max_outstanding: 8 }, smoke)
        });
        let (rr_ns, rr_batches, rr_worst) =
            best_of(reps, || drive_routing(GlobalPolicyKind::RoundRobin, smoke));
        println!(
            "bench: scheduler_routing/routing_fairshare {:>9.0} ns/batch (round-robin {:>9.0} ns/batch, light-tenant p99 wait {} vs {} rounds)",
            fs_ns / fs_batches as f64,
            rr_ns / rr_batches as f64,
            fs_worst,
            rr_worst
        );
        assert!(
            fs_worst < rr_worst,
            "fair-share routing stopped bounding starvation: light-tenant \
             p99 wait {fs_worst} rounds vs round-robin {rr_worst}"
        );
        // `speedup` records the starvation-improvement factor (round-robin
        // worst light-tenant p99 wait / fair-share's), not a time ratio.
        results.push(ScenarioResult {
            name: "routing_fairshare".to_string(),
            batches: fs_batches,
            preemptions: 0,
            optimized_ns_per_batch: fs_ns / fs_batches as f64,
            reference_ns_per_batch: rr_ns / rr_batches as f64,
            speedup: rr_worst as f64 / fs_worst.max(1) as f64,
        });
    }

    // Prefix-cache routing scenario: KV-aware routing vs round-robin over a
    // high-share multi-tenant trace through the full cluster simulator, the
    // prefix-cache tier armed on both sides. Round-robin smears each shared
    // prefix across every replica (4x the cold misses, and a lower sustained
    // hit rate); KV-aware routing lands requests where their prefix is
    // already resident, so prefills shrink, queues drain faster, and first
    // tokens come back sooner. The hard gate is TTFT p99 — deterministic
    // and in-process, hence hardware-independent.
    {
        let n = if smoke { 150 } else { 400 };
        let mix = MultiTenantWorkload::new(
            "prefix-routing",
            vec![
                TenantStream {
                    tenant: "assistants".into(),
                    priority: 0,
                    workload: TraceWorkload::arxiv_4k(),
                    arrivals: ArrivalProcess::Poisson { qps: 8.0 },
                    prefix: Some(TenantPrefixConfig {
                        share_ratio: 0.95,
                        prefix_tokens: 2048,
                        num_prefixes: 16,
                    }),
                },
                TenantStream {
                    tenant: "rag".into(),
                    priority: 1,
                    workload: TraceWorkload::arxiv_4k(),
                    arrivals: ArrivalProcess::Poisson { qps: 8.0 },
                    prefix: Some(TenantPrefixConfig {
                        share_ratio: 1.0,
                        prefix_tokens: 1024,
                        num_prefixes: 16,
                    }),
                },
            ],
        );
        let mut rng = SimRng::new(71);
        let trace = mix.generate(n, &mut rng);
        let base = ClusterConfig::new(
            ModelSpec::llama2_7b(),
            GpuSku::a100_80g(),
            ParallelismConfig::serial(),
            4,
            SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 64),
        );
        let est = onboard(
            &base.model,
            &base.parallelism,
            &base.sku,
            EstimatorKind::default(),
        );
        let source = RuntimeSource::Estimator((*est).clone());
        let run = |policy: GlobalPolicyKind| {
            let mut cfg = base.clone();
            cfg.global_policy = policy;
            cfg.prefix_cache = Some(PrefixCacheConfig::default());
            ClusterSimulator::new(cfg, trace.clone(), source.clone(), 71).run()
        };
        let time_policy = |policy: GlobalPolicyKind| {
            let report = run(policy);
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let start = Instant::now();
                let again = std::hint::black_box(run(policy));
                let ns = start.elapsed().as_nanos() as f64;
                assert_eq!(again, report, "non-deterministic simulator run");
                best = best.min(ns);
            }
            (best, report)
        };
        let (kv_ns, kv) = time_policy(GlobalPolicyKind::KvAware);
        let (rr_ns, rr) = time_policy(GlobalPolicyKind::RoundRobin);
        println!(
            "bench: scheduler_routing/prefix_routing   TTFT p99 {:.3}s vs round-robin {:.3}s \
             ({:.2}x; hit rate {:.1}% vs {:.1}%, tokens saved {} vs {})",
            kv.ttft.p99,
            rr.ttft.p99,
            rr.ttft.p99 / kv.ttft.p99,
            100.0 * kv.prefix_hit_rate,
            100.0 * rr.prefix_hit_rate,
            kv.prefix_tokens_saved,
            rr.prefix_tokens_saved,
        );
        assert!(
            kv.prefix_hit_rate > rr.prefix_hit_rate,
            "kv-aware routing stopped improving the hit rate: {:.3} vs {:.3}",
            kv.prefix_hit_rate,
            rr.prefix_hit_rate
        );
        assert!(
            kv.ttft.p99 < rr.ttft.p99,
            "kv-aware routing stopped beating round-robin on TTFT p99: \
             {:.4}s vs {:.4}s",
            kv.ttft.p99,
            rr.ttft.p99
        );
        // `speedup` records the TTFT-p99 improvement factor (round-robin
        // p99 / kv-aware p99), not a time ratio.
        results.push(ScenarioResult {
            name: "prefix_routing".to_string(),
            batches: kv.total_batches,
            preemptions: kv.preemptions,
            optimized_ns_per_batch: kv_ns / kv.total_batches as f64,
            reference_ns_per_batch: rr_ns / rr.total_batches as f64,
            speedup: rr.ttft.p99 / kv.ttft.p99,
        });
    }

    let report = BenchReport {
        schema: 1,
        smoke,
        scenarios: results,
    };

    // Regression gate: compare against the committed baseline BEFORE
    // overwriting it. Speedup-vs-reference is measured in-process, so the
    // gate is hardware-independent.
    let mut failed = false;
    if let Ok(path) = std::env::var("BENCH_SCHEDULER_BASELINE") {
        // Bench binaries run with the package as cwd; resolve
        // workspace-root-relative paths through the results dir's parent.
        let mut resolved = std::path::PathBuf::from(&path);
        if !resolved.exists() {
            if let Some(root) = vidur_bench::results_dir().parent() {
                resolved = root.join(&path);
            }
        }
        let baseline_txt = std::fs::read_to_string(&resolved)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", resolved.display()));
        let baseline: BenchReport =
            serde_json::from_str(&baseline_txt).expect("parse baseline BENCH_scheduler.json");
        let cur = report
            .scenario("decode_heavy")
            .expect("decode_heavy scenario present");
        if cur.speedup < 2.0 {
            eprintln!(
                "FAIL: decode_heavy speedup {:.2}x is below the 2x acceptance floor",
                cur.speedup
            );
            failed = true;
        }
        if let Some(base) = baseline.scenario("decode_heavy") {
            let floor = 0.75 * base.speedup;
            if cur.speedup < floor {
                eprintln!(
                    "FAIL: decode_heavy speedup {:.2}x regressed >25% vs baseline {:.2}x",
                    cur.speedup, base.speedup
                );
                failed = true;
            } else {
                println!(
                    "gate: decode_heavy {:.2}x vs baseline {:.2}x (floor {:.2}x) — ok",
                    cur.speedup, base.speedup, floor
                );
            }
        }
    }

    vidur_bench::write_json("BENCH_scheduler", &report);
    if failed {
        std::process::exit(1);
    }
}
