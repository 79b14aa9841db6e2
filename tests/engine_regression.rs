//! Engine regression pins: both simulators run through the shared
//! `vidur_simulator::engine` batch engine, so these tests pin observable
//! outcomes for fixed seeds. If a refactor of the engine (or of either
//! policy layer) changes batching behavior, these fail before anything
//! subtler does.

use vidur::prelude::*;

fn base_config() -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        ParallelismConfig::serial(),
        1,
        SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 64),
    )
}

fn fixed_trace(n: usize, qps: f64, seed: u64) -> Trace {
    let mut rng = SimRng::new(seed);
    TraceWorkload::chat_1m().generate(n, &ArrivalProcess::Poisson { qps }, &mut rng)
}

fn oracle() -> RuntimeSource {
    RuntimeSource::Oracle(KernelOracle::new(GpuSku::a100_80g()))
}

/// Asserts a report's bit-exact fingerprint. The expected values were
/// captured from the seed (pre-hot-loop-refactor) engine, so any change to
/// batch formation order, preemption victim choice, event scheduling, float
/// accumulation order, or RNG draw order fails here — byte-identity, not
/// approximate equality.
#[allow(clippy::too_many_arguments)]
fn assert_fingerprint(
    label: &str,
    r: &SimulationReport,
    makespan: u64,
    ttft_p99: u64,
    tbt_p50: u64,
    e2e_mean: u64,
    mfu: u64,
    batches: u64,
    tokens: u64,
    preemptions: u64,
) {
    assert_eq!(r.makespan_secs.to_bits(), makespan, "{label}: makespan");
    assert_eq!(r.ttft.p99.to_bits(), ttft_p99, "{label}: ttft.p99");
    assert_eq!(r.tbt.p50.to_bits(), tbt_p50, "{label}: tbt.p50");
    assert_eq!(r.e2e.mean.to_bits(), e2e_mean, "{label}: e2e.mean");
    assert_eq!(r.mfu.to_bits(), mfu, "{label}: mfu");
    assert_eq!(r.total_batches, batches, "{label}: total_batches");
    assert_eq!(r.total_tokens, tokens, "{label}: total_tokens");
    assert_eq!(r.preemptions, preemptions, "{label}: preemptions");
}

/// Pinned: the aggregated cluster engine drains a fixed seed's trace.
#[test]
fn cluster_engine_completed_pinned_for_seed_42() {
    let report = ClusterSimulator::new(base_config(), fixed_trace(80, 2.5, 42), oracle(), 42).run();
    assert_eq!(report.completed, 80);
    assert!(report.makespan_secs > 0.0);
}

/// Bit-exact pin of the oracle-sourced cluster report (seed values).
#[test]
fn cluster_oracle_report_bits_pinned() {
    let report = ClusterSimulator::new(base_config(), fixed_trace(80, 2.5, 42), oracle(), 42).run();
    assert_fingerprint(
        "cluster_oracle_seed42",
        &report,
        0x4044b9f98e76d0c2,
        0x3fd0f1caa605d583,
        0x3f87c9e679ad5143,
        0x4005f128a0255786,
        0x3fb31cc55a505cba,
        3420,
        71716,
        0,
    );
}

/// Bit-exact pin of the disaggregated report (seed values).
#[test]
fn disagg_oracle_report_bits_pinned() {
    let cfg = DisaggConfig::new(base_config(), 1, 1);
    let report = DisaggSimulator::new(cfg, fixed_trace(80, 2.5, 42), oracle(), 42).run();
    assert_fingerprint(
        "disagg_oracle_seed42",
        &report,
        0x404496aec9e236c1,
        0x3fcfeb42ca2325fe,
        0x3f874d979611d84d,
        0x40046ac83cb4db23,
        0x3fa33d87fa9285e4,
        3777,
        71716,
        0,
    );
}

/// Bit-exact pin of the estimator-sourced cluster report (seed values).
#[test]
fn cluster_estimator_report_bits_pinned() {
    let cfg = base_config();
    let est = vidur::simulator::onboard(
        &cfg.model,
        &cfg.parallelism,
        &cfg.sku,
        EstimatorKind::default(),
    );
    let source = RuntimeSource::Estimator((*est).clone());
    let report = ClusterSimulator::new(cfg, fixed_trace(70, 2.5, 22), source, 22).run();
    assert_fingerprint(
        "cluster_estimator_seed22",
        &report,
        0x4043a20e819c918a,
        0x3fd4132e63178cf2,
        0x3f888bdd65c3a0a1,
        0x4007dd582c3e676b,
        0x3fb34c2dfb56fb04,
        3001,
        68564,
        0,
    );
}

/// Bit-exact pin of a preemption-heavy run (seed values): long generations
/// on vLLM overcommit KV, so the recompute-restart path — victim selection
/// order included — is pinned, not just the smooth paths.
#[test]
fn cluster_preemption_report_bits_pinned() {
    let mut cfg = base_config();
    cfg.scheduler = SchedulerConfig::new(BatchPolicyKind::Vllm, 256);
    let mut rng = SimRng::new(11);
    let trace = TraceWorkload::bwb_4k().generate(300, &ArrivalProcess::Static, &mut rng);
    let report = ClusterSimulator::new(cfg, trace, oracle(), 11).run();
    assert_fingerprint(
        "cluster_preempt_seed11",
        &report,
        0x408030c8a8ecaefc,
        0x407b04e063f3b7f8,
        0x3fac5f7d690c5e07,
        0x40726d67b0b118ac,
        0x3fb6d6ee6dd6c005,
        9650,
        1050838,
        211,
    );
}

/// Pinned: the disaggregated engine drains the same fixed trace.
#[test]
fn disagg_engine_completed_pinned_for_seed_42() {
    let cfg = DisaggConfig::new(base_config(), 1, 1);
    let report = DisaggSimulator::new(cfg, fixed_trace(80, 2.5, 42), oracle(), 42).run();
    assert_eq!(report.completed, 80);
    assert!(report.makespan_secs > 0.0);
}

/// The two policy layers share one engine path; neither may lose
/// determinism: identical (config, trace, seed) inputs must reproduce
/// byte-identical reports.
#[test]
fn cluster_and_disagg_reports_are_reproducible() {
    let cluster =
        || ClusterSimulator::new(base_config(), fixed_trace(60, 3.0, 7), oracle(), 7).run();
    assert_eq!(cluster(), cluster());

    let disagg = || {
        let cfg = DisaggConfig::new(base_config(), 1, 1);
        DisaggSimulator::new(cfg, fixed_trace(60, 3.0, 7), oracle(), 7).run()
    };
    assert_eq!(disagg(), disagg());
}

/// A multi-tenant bursty replay: three tenants (diurnal chat at priority 0,
/// Poisson translation at priority 1, MMPP-bursty summarization at
/// priority 2) on vLLM with a large batch cap, so KV overcommit forces
/// priority-aware preemptions. Pins the whole production-traffic path —
/// merged multi-stream generation, tiered admission, the priority victim
/// walk, and per-tenant metrics — bit-exactly.
fn multi_tenant_bursty_trace(n: usize, seed: u64) -> Trace {
    let mix = MultiTenantWorkload::new(
        "bursty-mix",
        vec![
            TenantStream {
                tenant: "interactive".into(),
                priority: 0,
                workload: TraceWorkload::chat_1m(),
                arrivals: ArrivalProcess::Diurnal {
                    mean_qps: 2.0,
                    amplitude: 0.8,
                    period_secs: 60.0,
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
                    qps_base: 0.2,
                    qps_burst: 12.0,
                    mean_base_secs: 20.0,
                    mean_burst_secs: 4.0,
                },
                prefix: None,
            },
        ],
    );
    let mut rng = SimRng::new(seed);
    mix.generate(n, &mut rng)
}

#[test]
fn multi_tenant_bursty_report_bits_pinned() {
    let mut cfg = base_config();
    cfg.scheduler = SchedulerConfig::new(BatchPolicyKind::Vllm, 256);
    cfg.tenant_slo = Some(TenantSlo {
        ttft_secs: 2.0,
        e2e_per_token_secs: 0.5,
    });
    let report = ClusterSimulator::new(cfg, multi_tenant_bursty_trace(260, 17), oracle(), 17).run();
    assert_fingerprint(
        "multi_tenant_bursty_seed17",
        &report,
        0x4064d9bfaa52238e,
        0x405982023e17fb90,
        0x3fac6f979b1a55ca,
        0x4047f4b407fc4b83,
        0x3fc3198bb04cd169,
        3751,
        565762,
        24,
    );
    assert_eq!(report.completed, 260);
    assert!(
        report.preemptions > 0,
        "scenario must force priority-aware preemptions"
    );
    // Per-tenant breakdown: all three tenants present, counts conserve,
    // attainment populated, and the urgent tenant is served at least as
    // well as the bulk tier.
    assert_eq!(report.per_tenant.len(), 3);
    let names: Vec<&str> = report
        .per_tenant
        .iter()
        .map(|t| t.tenant.as_str())
        .collect();
    assert_eq!(names, ["interactive", "standard", "batch"]);
    let arrived: usize = report.per_tenant.iter().map(|t| t.arrived).sum();
    let completed: usize = report.per_tenant.iter().map(|t| t.completed).sum();
    assert_eq!(arrived, 260);
    assert_eq!(completed, 260);
    for t in &report.per_tenant {
        assert!(t.completed > 0, "{}: no completions", t.tenant);
        assert!(t.slo_attainment.is_some());
        assert!(t.ttft.p99 >= t.ttft.p50);
    }
}

/// Bit-exact pin of every routing policy on one 4-replica bursty
/// multi-tenant run. Round-robin is the default everywhere else; this pins
/// each policy's placements, its deferred-queue discipline (the capped
/// policies hold a third or more of each tenant's requests), fair-share's
/// weighted virtual time and attainment, and affinity's sticky homes.
#[test]
fn routing_policy_report_bits_pinned() {
    struct Pin {
        policy: GlobalPolicyKind,
        bits: [u64; 5],
        batches: u64,
        deferred: [u64; 3],
    }
    let pins = [
        Pin {
            policy: GlobalPolicyKind::RoundRobin,
            bits: [
                0x405bf4799754b4a7,
                0x3fd32a8f25e1e1be,
                0x3f9139ae2190f45a,
                0x4024c9e0a0cd1d31,
                0x3fb4a3b34293d1fc,
            ],
            batches: 24400,
            deferred: [0, 0, 0],
        },
        Pin {
            policy: GlobalPolicyKind::LeastOutstanding,
            bits: [
                0x405bc5fc08fec608,
                0x3fd699759e89b8bc,
                0x3f9072b54b9e307a,
                0x4024375421bb8ab1,
                0x3fb4c63fc270d593,
            ],
            batches: 24754,
            deferred: [0, 0, 0],
        },
        Pin {
            policy: GlobalPolicyKind::Random,
            bits: [
                0x405c75209f9394d9,
                0x3fddef311a6b9c70,
                0x3f91718a7e401942,
                0x402544537aa78d2e,
                0x3fb4466465c64ea2,
            ],
            batches: 24965,
            deferred: [0, 0, 0],
        },
        Pin {
            policy: GlobalPolicyKind::Deferred { max_outstanding: 8 },
            bits: [
                0x405fc0f096197638,
                0x4038cdce199dffbe,
                0x3f8f323c1aebf235,
                0x402ee280d4740221,
                0x3fb22b9c8051498f,
            ],
            batches: 28070,
            deferred: [133, 67, 122],
        },
        Pin {
            policy: GlobalPolicyKind::PriorityAware { max_outstanding: 8 },
            bits: [
                0x405ddc6f0677573e,
                0x404ad3fc85824289,
                0x3f8eebe8239df277,
                0x402f76e0dee84f51,
                0x3fb3526e7df7b546,
            ],
            batches: 28440,
            deferred: [136, 66, 122],
        },
        Pin {
            policy: GlobalPolicyKind::FairShare { max_outstanding: 8 },
            bits: [
                0x405dc53805c17135,
                0x404ac2e4b25aa75f,
                0x3f8eeefb0ec3561a,
                0x402f79db280ac738,
                0x3fb3617fb43d9731,
            ],
            batches: 28440,
            deferred: [136, 66, 122],
        },
        Pin {
            policy: GlobalPolicyKind::Affinity { spill_margin: 4 },
            bits: [
                0x405ddf7eed0f2652,
                0x3fe63b07557b5be4,
                0x3f9187556322a8e6,
                0x4024ed7470e01ae5,
                0x3fb35073763b50de,
            ],
            batches: 22644,
            deferred: [0, 0, 0],
        },
        Pin {
            policy: GlobalPolicyKind::KvAware,
            bits: [
                0x405baecf30dedee2,
                0x3fe8f155e89ecb3e,
                0x3f903e58f88c0fbb,
                0x4024481163e72e6d,
                0x3fb4d7a405ec6066,
            ],
            batches: 24078,
            deferred: [0, 0, 0],
        },
    ];
    let trace = multi_tenant_bursty_trace(400, 17);
    for pin in pins {
        let mut cfg = base_config();
        cfg.num_replicas = 4;
        cfg.scheduler = SchedulerConfig::new(BatchPolicyKind::Vllm, 64);
        cfg.global_policy = pin.policy;
        cfg.tenant_weights = vec![2.0, 1.0, 1.0];
        let report = ClusterSimulator::new(cfg, trace.clone(), oracle(), 17).run();
        let label = pin.policy.to_string();
        let [makespan, ttft_p99, tbt_p50, e2e_mean, mfu] = pin.bits;
        assert_fingerprint(
            &label,
            &report,
            makespan,
            ttft_p99,
            tbt_p50,
            e2e_mean,
            mfu,
            pin.batches,
            818668,
            0,
        );
        assert_eq!(report.completed, 400, "{label}");
        let tenant =
            |f: fn(&TenantReport) -> u64| -> Vec<u64> { report.per_tenant.iter().map(f).collect() };
        assert_eq!(tenant(|t| t.routed), [174, 80, 146], "{label}: routed");
        assert_eq!(tenant(|t| t.deferred), pin.deferred, "{label}: deferred");
        let capped = matches!(
            pin.policy,
            GlobalPolicyKind::Deferred { .. }
                | GlobalPolicyKind::PriorityAware { .. }
                | GlobalPolicyKind::FairShare { .. }
        );
        assert_eq!(
            tenant(|t| t.deferred).iter().all(|&d| d > 0),
            capped,
            "{label}: only the capped policies defer, and they defer every tenant"
        );
        let attainment: Vec<Option<u64>> = report
            .per_tenant
            .iter()
            .map(|t| t.fair_share_attainment.map(f64::to_bits))
            .collect();
        let expect_attainment = if matches!(pin.policy, GlobalPolicyKind::FairShare { .. }) {
            vec![
                Some(0x3fd8abfa4b48dd91),
                Some(0x3ff0c2b0fdb36cd7),
                Some(0x400173a8ee541230),
            ]
        } else {
            vec![None; 3]
        };
        assert_eq!(attainment, expect_attainment, "{label}: attainment");
    }
}

/// Decode-heavy replay must price almost every batch from the stage-time
/// cache. Decode KV length grows every iteration, so a cache keyed by the
/// full batch shape misses on almost every batch (hit rate ≈0.02 here, one
/// cached shape per ≈1.02 batches); the kv-invariant key must not. Three
/// bursty multi-tenant replays share one timer, like the capacity search's
/// bisection probes do. New kv-invariant shapes still come from batches
/// with a new prefill mix, so the shape count stays near 6% of batches.
#[test]
fn stage_time_cache_serves_decode_heavy_replay() {
    let mut cfg = base_config();
    cfg.scheduler = SchedulerConfig::new(BatchPolicyKind::Vllm, 256);
    let timer = StageTimer::for_config(&cfg, oracle());
    for seed in [17, 18, 19] {
        let report = ClusterSimulator::with_timer(
            cfg.clone(),
            multi_tenant_bursty_trace(260, seed),
            timer.clone(),
            seed,
        )
        .run();
        assert_eq!(report.completed, 260);
    }
    let stats = timer.stats();
    let priced = stats.hits + stats.misses;
    let shapes = timer.cached_shapes() as u64;
    assert!(
        stats.hit_rate() >= 0.9,
        "hit rate {:.3} over {priced} batches",
        stats.hit_rate()
    );
    assert!(
        shapes * 10 <= priced,
        "{shapes} cached shapes for {priced} priced batches"
    );
}

/// Under an aggressive simulated-time cap, the shared deadline latch stops
/// both simulators the same way: incomplete but nonzero progress.
#[test]
fn deadline_latch_consistent_across_backends() {
    let mut cfg = base_config();
    cfg.max_sim_time = Some(SimTime::from_secs_f64(10.0));
    let trace = fixed_trace(1000, 100.0, 13);

    let cluster = ClusterSimulator::new(cfg.clone(), trace.clone(), oracle(), 13).run();
    assert!(cluster.completed > 0 && cluster.completed < 1000);

    let disagg = DisaggSimulator::new(DisaggConfig::new(cfg, 1, 1), trace, oracle(), 13).run();
    assert!(disagg.completed > 0 && disagg.completed < 1000);
}

/// Estimator source for multi-replica sharded differentials (jitter-free,
/// so the sharded fast path engages).
fn estimator_source() -> RuntimeSource {
    let cfg = base_config();
    let est = vidur::simulator::onboard(
        &cfg.model,
        &cfg.parallelism,
        &cfg.sku,
        EstimatorKind::default(),
    );
    RuntimeSource::Estimator((*est).clone())
}

/// Runs `cfg` over `trace` sequentially and with `shards` event-loop
/// shards; the reports must be **byte-identical** — the sharded engine's
/// whole contract (see `vidur_simulator::sharded`).
fn assert_sharded_identical(label: &str, cfg: ClusterConfig, trace: Trace, shards: usize) {
    let source = estimator_source();
    let sequential = ClusterSimulator::new(cfg.clone(), trace.clone(), source.clone(), 5).run();
    let mut sharded_cfg = cfg;
    sharded_cfg.shards = shards;
    let sharded = ClusterSimulator::new(sharded_cfg, trace, source, 5).run();
    assert_eq!(
        sequential, sharded,
        "{label}: sharded run must be bit-exact"
    );
}

/// The genuine parallel path: 4 replicas round-robin over 4 shards.
#[test]
fn sharded_multi_replica_round_robin_identical() {
    let mut cfg = base_config();
    cfg.num_replicas = 4;
    assert_sharded_identical("rr_4x4", cfg, fixed_trace(200, 8.0, 31), 4);
}

/// Shard count need not divide the replica count: 4 replicas on 3 shards
/// exercises uneven deals and the local-index arithmetic.
#[test]
fn sharded_uneven_shard_count_identical() {
    let mut cfg = base_config();
    cfg.num_replicas = 4;
    assert_sharded_identical("rr_4x3", cfg, fixed_trace(200, 8.0, 33), 3);
}

/// Random routing draws the same RNG sequence when routed ahead in arrival
/// order, so it routes ahead like round-robin.
#[test]
fn sharded_random_routing_identical() {
    let mut cfg = base_config();
    cfg.num_replicas = 4;
    cfg.global_policy = GlobalPolicyKind::Random;
    assert_sharded_identical("random_4x4", cfg, fixed_trace(200, 8.0, 35), 4);
}

/// A deadline-capped overload: shards truncate independently at the cap and
/// the merge must still agree with the sequential stop behavior. The second
/// half caps a multi-tenant trace mid-stream: arrivals past the cap must
/// never be routed, so the per-tenant `routed` counts match too — under
/// both stateless policies (which route ahead) and in both replay modes.
#[test]
fn sharded_deadline_identical() {
    let mut cfg = base_config();
    cfg.num_replicas = 2;
    cfg.max_sim_time = Some(SimTime::from_secs_f64(15.0));
    let trace = fixed_trace(600, 60.0, 41);
    let source = estimator_source();
    let sequential = ClusterSimulator::new(cfg.clone(), trace.clone(), source.clone(), 5).run();
    assert!(
        sequential.completed < 600,
        "deadline scenario must actually truncate"
    );
    cfg.shards = 2;
    let sharded = ClusterSimulator::new(cfg, trace, source.clone(), 5).run();
    assert_eq!(
        sequential, sharded,
        "deadline: sharded run must be bit-exact"
    );

    let trace = multi_tenant_bursty_trace(200, 19);
    let last = trace.requests.iter().map(|r| r.arrival).max().unwrap();
    for policy in [GlobalPolicyKind::RoundRobin, GlobalPolicyKind::Random] {
        for mode in [QuantileMode::Exact, QuantileMode::Mergeable] {
            let mut cfg = base_config();
            cfg.num_replicas = 4;
            cfg.global_policy = policy;
            cfg.quantile_mode = mode;
            cfg.max_sim_time = Some(SimTime::from_secs_f64(last.as_secs_f64() / 2.0));
            let sequential =
                ClusterSimulator::new(cfg.clone(), trace.clone(), source.clone(), 5).run();
            let routed: u64 = sequential.per_tenant.iter().map(|t| t.routed).sum();
            assert!(
                routed < trace.len() as u64,
                "{policy:?}/{mode:?}: the cap must cut arrivals off"
            );
            cfg.shards = 2;
            let sharded = ClusterSimulator::new(cfg, trace.clone(), source.clone(), 5).run();
            assert_eq!(
                sequential, sharded,
                "{policy:?}/{mode:?}: capped sharded run must be bit-exact"
            );
        }
    }
}

/// Multi-tenant trace on multi-replica round-robin: per-tenant metrics and
/// routing stats flow through the merge's tier replay.
#[test]
fn sharded_multi_tenant_identical() {
    let mut cfg = base_config();
    cfg.num_replicas = 4;
    cfg.tenant_slo = Some(TenantSlo {
        ttft_secs: 2.0,
        e2e_per_token_secs: 0.5,
    });
    let trace = multi_tenant_bursty_trace(200, 19);
    let source = estimator_source();
    let sequential = ClusterSimulator::new(cfg.clone(), trace.clone(), source.clone(), 5).run();
    cfg.shards = 4;
    let sharded = ClusterSimulator::new(cfg, trace, source, 5).run();
    assert_eq!(
        sequential, sharded,
        "multi-tenant: sharded run must be bit-exact"
    );
}

// ---- arrival-barrier sharded routing (stateful policies) -----------------

/// Runs `cfg` sequentially and with `shards` shards under the estimator
/// source, asserting byte-identical reports AND that the arrival-barrier
/// path actually engaged — no silent fallback, nothing guessed or rolled
/// back.
fn assert_barrier_identical(
    label: &str,
    cfg: ClusterConfig,
    trace: &Trace,
    shards: usize,
) -> RunStats {
    let source = estimator_source();
    let (sequential, seq_stats) =
        ClusterSimulator::new(cfg.clone(), trace.clone(), source.clone(), 5).run_with_stats();
    assert_eq!(seq_stats.shards, 1, "{label}: baseline must be sequential");
    let mut sharded_cfg = cfg;
    sharded_cfg.shards = shards;
    let (sharded, stats) =
        ClusterSimulator::new(sharded_cfg, trace.clone(), source, 5).run_with_stats();
    assert_eq!(
        sequential, sharded,
        "{label}: barrier sharded run must be bit-exact"
    );
    assert_eq!(
        stats.fallback_reason, None,
        "{label}: must stay on the fast path"
    );
    assert_eq!(stats.shards, shards, "{label}: must engage {shards} shards");
    assert!(
        stats.spec_windows > 0,
        "{label}: must execute barrier rounds"
    );
    assert_eq!(
        (stats.mispredictions, stats.rollback_events),
        (0, 0),
        "{label}: barriers never guess, so nothing mispredicts or rolls back"
    );
    stats
}

/// Every admitted stateful policy, every shard count (including a count
/// that does not divide the replicas): the barrier path must reproduce the
/// sequential report bit for bit. The deferral-capable policies get caps
/// high enough to never defer here; the deferral abort has its own test
/// below.
#[test]
fn sharded_stateful_policies_identical() {
    let policies = [
        GlobalPolicyKind::LeastOutstanding,
        GlobalPolicyKind::PriorityAware {
            max_outstanding: 10_000,
        },
        GlobalPolicyKind::FairShare {
            max_outstanding: 10_000,
        },
        GlobalPolicyKind::Affinity { spill_margin: 4 },
        GlobalPolicyKind::KvAware,
    ];
    let trace = multi_tenant_bursty_trace(220, 53);
    for policy in policies {
        for shards in [2, 3, 7] {
            let mut cfg = base_config();
            cfg.num_replicas = 7;
            cfg.global_policy = policy;
            cfg.tenant_slo = Some(TenantSlo {
                ttft_secs: 2.0,
                e2e_per_token_secs: 0.5,
            });
            assert_barrier_identical(&format!("{policy:?}_7x{shards}"), cfg, &trace, shards);
        }
    }
}

/// The storm trace that made speculation thrash: two heavily loaded
/// replicas whose least-outstanding argmin flips between most arrivals.
/// The barrier runner routes every arrival on the exact live tier, so the
/// report stays bit-exact with zero mispredictions and zero rolled-back
/// events — and online traffic (distinct arrival instants) costs one round
/// per arrival plus the final drain.
#[test]
fn sharded_barrier_storm_stays_exact() {
    let mut cfg = base_config();
    cfg.num_replicas = 2;
    cfg.global_policy = GlobalPolicyKind::LeastOutstanding;
    let trace = fixed_trace(500, 50.0, 61);
    let stats = assert_barrier_identical("storm_2x2", cfg, &trace, 2);
    assert!(
        stats.spec_windows <= trace.len() as u64 + 1,
        "at most one barrier round per arrival plus the drain, got {}",
        stats.spec_windows
    );
}

/// Same-instant arrivals route in one round (no event can come between
/// them), so an offline burst needs far fewer barrier rounds than it has
/// arrivals — and coalescing must not change a bit.
#[test]
fn sharded_barrier_coalesces_offline_burst() {
    let mut cfg = base_config();
    cfg.num_replicas = 4;
    cfg.global_policy = GlobalPolicyKind::LeastOutstanding;
    let trace =
        TraceWorkload::chat_1m().generate(200, &ArrivalProcess::Static, &mut SimRng::new(67));
    let stats = assert_barrier_identical("burst_4x2", cfg, &trace, 2);
    assert!(
        stats.spec_windows < trace.len() as u64,
        "coalescing must engage: {} rounds for {} arrivals",
        stats.spec_windows,
        trace.len()
    );
}

/// When a deferral-capable policy actually defers, the bind happens on a
/// later event — possibly on another shard — so the sharded attempt aborts
/// mid-run, rebuilds, and re-runs sequentially: byte-exact, with the abort
/// reason reported.
#[test]
fn sharded_stateful_deferral_falls_back_bit_exact() {
    let mut cfg = base_config();
    cfg.num_replicas = 2;
    cfg.global_policy = GlobalPolicyKind::FairShare { max_outstanding: 2 };
    let trace = fixed_trace(120, 20.0, 63);
    let source = estimator_source();
    let (sequential, _) =
        ClusterSimulator::new(cfg.clone(), trace.clone(), source.clone(), 5).run_with_stats();
    cfg.shards = 2;
    let (sharded, stats) = ClusterSimulator::new(cfg, trace, source, 5).run_with_stats();
    assert_eq!(sequential, sharded, "deferral fallback must be bit-exact");
    assert_eq!(stats.shards, 1, "deferral must force the sequential path");
    assert_eq!(
        stats.fallback_reason,
        Some("stateful policy deferred a request mid-run"),
        "the abort reason must surface"
    );
}

/// Mergeable-mode reports are invariant under the shard count: the sharded
/// merger replays every effect into one collector in sequential order, so
/// any shard count (1 = the sequential engine) must produce a
/// byte-identical report — time-series rows and the distinct-tenant
/// estimate included.
#[test]
fn mergeable_reports_invariant_across_shard_counts() {
    let mut cfg = base_config();
    cfg.num_replicas = 7;
    cfg.quantile_mode = QuantileMode::Mergeable;
    cfg.tenant_slo = Some(TenantSlo {
        ttft_secs: 2.0,
        e2e_per_token_secs: 0.5,
    });
    cfg.timeseries = Some(TimeseriesConfig::per_minute());
    let trace = multi_tenant_bursty_trace(220, 47);
    let source = estimator_source();
    let run = |shards: usize| {
        let mut cfg = cfg.clone();
        cfg.shards = shards;
        ClusterSimulator::new(cfg, trace.clone(), source.clone(), 5).run()
    };
    let baseline = run(1);
    assert_eq!(baseline.completed, 220);
    assert!(
        !baseline.timeseries.is_empty(),
        "time-series rows must be populated"
    );
    for shards in [2, 3, 7] {
        let sharded = run(shards);
        assert_eq!(
            baseline, sharded,
            "mergeable report must be byte-identical at {shards} shards"
        );
    }
}

/// Mergeable metrics are a summary trade, not a behavior change: the
/// simulation itself is untouched, and both modes sum busy-GPU seconds,
/// flops, bytes and operator time into one accumulator in event order, so
/// every non-latency field is bit-equal at any replica count — tenants
/// armed or not. Means agree to float rounding (exact mode folds records
/// in request-id order, mergeable in completion order) and the t-digest
/// mid-quantiles stay close to exact.
#[test]
fn mergeable_metrics_change_only_quantiles() {
    let source = estimator_source();
    let slo = TenantSlo {
        ttft_secs: 2.0,
        e2e_per_token_secs: 0.5,
    };
    let cases = [
        ("1 replica", 1, fixed_trace(80, 2.5, 42), None),
        ("4 replicas", 4, fixed_trace(400, 10.0, 42), None),
        ("7 replicas", 7, fixed_trace(400, 17.5, 42), None),
        (
            "4 replicas, tenants armed",
            4,
            multi_tenant_bursty_trace(220, 47),
            Some(slo),
        ),
    ];
    for (label, replicas, trace, tenant_slo) in cases {
        let mut cfg = base_config();
        cfg.num_replicas = replicas;
        cfg.tenant_slo = tenant_slo;
        let exact = ClusterSimulator::new(cfg.clone(), trace.clone(), source.clone(), 42).run();
        cfg.quantile_mode = QuantileMode::Mergeable;
        let fold = ClusterSimulator::new(cfg, trace, source.clone(), 42).run();
        assert_eq!(fold.completed, exact.completed, "{label}");
        for (m, e, name) in [
            (fold.makespan_secs, exact.makespan_secs, "makespan_secs"),
            (fold.mfu, exact.mfu, "mfu"),
            (fold.mbu, exact.mbu, "mbu"),
            (fold.energy_kwh, exact.energy_kwh, "energy_kwh"),
            (
                fold.mean_power_watts,
                exact.mean_power_watts,
                "mean_power_watts",
            ),
            (fold.kv_utilization, exact.kv_utilization, "kv_utilization"),
        ] {
            assert_eq!(m.to_bits(), e.to_bits(), "{label}: {name} {m} vs {e}");
        }
        assert_eq!(
            fold.operator_time_breakdown.len(),
            exact.operator_time_breakdown.len(),
            "{label}: operator count"
        );
        for ((mop, msecs), (eop, esecs)) in fold
            .operator_time_breakdown
            .iter()
            .zip(&exact.operator_time_breakdown)
        {
            assert_eq!(mop, eop, "{label}: operator order");
            assert_eq!(msecs.to_bits(), esecs.to_bits(), "{label}: {mop} secs");
        }
        assert_eq!(fold.total_batches, exact.total_batches, "{label}");
        assert_eq!(fold.total_tokens, exact.total_tokens, "{label}");
        assert_eq!(fold.preemptions, exact.preemptions, "{label}");
        assert_eq!(fold.per_tenant.len(), exact.per_tenant.len(), "{label}");
        assert_eq!(
            fold.per_tenant.is_empty(),
            tenant_slo.is_none(),
            "{label}: tenants armed iff the trace declares them"
        );
        for (m, e) in fold.per_tenant.iter().zip(&exact.per_tenant) {
            assert_eq!(m.tenant, e.tenant, "{label}");
            assert_eq!(
                (m.arrived, m.completed),
                (e.arrived, e.completed),
                "{label}"
            );
            assert_eq!(
                m.slo_attainment.map(f64::to_bits),
                e.slo_attainment.map(f64::to_bits),
                "{label}: {} slo_attainment",
                e.tenant
            );
            assert!(
                (m.e2e.mean - e.e2e.mean).abs() <= 1e-9 * e.e2e.mean.abs(),
                "{label}: {} e2e.mean",
                e.tenant
            );
        }
        // Maxima are order-independent and stay bit-equal; means agree to
        // float rounding.
        assert_eq!(fold.tbt.max.to_bits(), exact.tbt.max.to_bits(), "{label}");
        assert_eq!(fold.e2e.max.to_bits(), exact.e2e.max.to_bits(), "{label}");
        assert!(
            (fold.e2e.mean - exact.e2e.mean).abs() <= 1e-9 * exact.e2e.mean.abs(),
            "{label}: e2e.mean"
        );
        assert!(
            (fold.tbt.mean - exact.tbt.mean).abs() <= 1e-9 * exact.tbt.mean.abs(),
            "{label}: tbt.mean"
        );
        // Mid-quantiles come from the t-digest: approximate but close.
        for (m, e, name) in [
            (fold.tbt.p50, exact.tbt.p50, "tbt.p50"),
            (fold.e2e.p50, exact.e2e.p50, "e2e.p50"),
            (fold.ttft.p90, exact.ttft.p90, "ttft.p90"),
            (
                fold.normalized_e2e.p50,
                exact.normalized_e2e.p50,
                "ne2e.p50",
            ),
        ] {
            let tol = 0.25 * e.abs().max(1e-9);
            assert!(
                (m - e).abs() <= tol,
                "{label}: {name}: mergeable {m} vs exact {e} beyond 25%"
            );
        }
    }
}

/// Off-fast-path configurations fall back to the sequential engine, naming
/// the reason in `RunStats`, so `shards > 1` never changes a report
/// anywhere: the oracle source (jittered, on one replica and on two), a
/// stateful routing policy, and the single-replica pins all stay
/// bit-identical with shards requested.
#[test]
fn sharded_fallback_keeps_pinned_reports() {
    // Oracle jitter → fallback; this is the cluster_oracle_seed42 pin.
    let jitter_reason = Some("jittered runtimes draw from one engine-wide rng stream");
    let mut cfg = base_config();
    cfg.shards = 4;
    let (report, stats) =
        ClusterSimulator::new(cfg, fixed_trace(80, 2.5, 42), oracle(), 42).run_with_stats();
    assert_eq!(stats.shards, 1, "jitter must force the sequential path");
    assert_eq!(stats.fallback_reason, jitter_reason);
    assert_fingerprint(
        "cluster_oracle_seed42_sharded",
        &report,
        0x4044b9f98e76d0c2,
        0x3fd0f1caa605d583,
        0x3f87c9e679ad5143,
        0x4005f128a0255786,
        0x3fb31cc55a505cba,
        3420,
        71716,
        0,
    );

    // The same fallback with two replicas, where sharding is otherwise
    // possible: jitter alone is the reason, and the report is the
    // sequential engine's.
    let mut cfg = base_config();
    cfg.num_replicas = 2;
    let trace = fixed_trace(120, 5.0, 42);
    let sequential = ClusterSimulator::new(cfg.clone(), trace.clone(), oracle(), 42).run();
    cfg.shards = 4;
    let (sharded, stats) = ClusterSimulator::new(cfg, trace, oracle(), 42).run_with_stats();
    assert_eq!(stats.shards, 1, "jitter must force the sequential path");
    assert_eq!(stats.fallback_reason, jitter_reason);
    assert_eq!(sequential, sharded, "jittered fallback must be bit-exact");

    // Stateful deferred routing → fallback even with the estimator.
    let mut cfg = base_config();
    cfg.num_replicas = 2;
    cfg.global_policy = GlobalPolicyKind::Deferred { max_outstanding: 4 };
    let trace = fixed_trace(100, 4.0, 43);
    let source = estimator_source();
    let sequential = ClusterSimulator::new(cfg.clone(), trace.clone(), source.clone(), 5).run();
    cfg.shards = 2;
    let sharded = ClusterSimulator::new(cfg, trace, source, 5).run();
    assert_eq!(sequential, sharded, "deferred policy must fall back");
}

// ---- elastic fleet / fault injection ------------------------------------

/// An explicitly-empty fault plan with no autoscaler never arms the elastic
/// layer: the report is **byte-identical** to a default-config run and
/// reproduces the existing bit-exact pins (the fault layer's whole
/// backwards-compatibility guarantee).
#[test]
fn empty_fault_plan_reports_byte_identical() {
    let mut cfg = base_config();
    cfg.faults = FaultSchedule::new();
    cfg.autoscaler = None;
    let report = ClusterSimulator::new(cfg, fixed_trace(80, 2.5, 42), oracle(), 42).run();
    assert_fingerprint(
        "cluster_oracle_seed42_empty_plan",
        &report,
        0x4044b9f98e76d0c2,
        0x3fd0f1caa605d583,
        0x3f87c9e679ad5143,
        0x4005f128a0255786,
        0x3fb31cc55a505cba,
        3420,
        71716,
        0,
    );
    let default_run =
        ClusterSimulator::new(base_config(), fixed_trace(80, 2.5, 42), oracle(), 42).run();
    assert_eq!(report, default_run, "empty plan must be byte-identical");
    // The elastic report columns stay at their inert defaults.
    assert_eq!(report.retries, 0);
    assert_eq!(report.requeued, 0);
    assert_eq!(report.evicted_by_crash, 0);
    assert_eq!(report.replica_hours, 0.0);
    assert!(report.replica_availability.is_empty());
}

/// The empty plan is also invisible on the sharded and mergeable paths:
/// the multi-replica differentials still hold bit-exactly with the (inert)
/// elastic fields present in the config.
#[test]
fn empty_fault_plan_sharded_and_mergeable_identical() {
    let mut cfg = base_config();
    cfg.num_replicas = 4;
    cfg.faults = FaultSchedule::new();
    assert_sharded_identical(
        "rr_4x4_empty_plan",
        cfg.clone(),
        fixed_trace(200, 8.0, 31),
        4,
    );
    cfg.quantile_mode = QuantileMode::Mergeable;
    assert_sharded_identical(
        "rr_4x4_empty_plan_mergeable",
        cfg,
        fixed_trace(200, 8.0, 31),
        4,
    );
}

/// A *non-empty* plan whose only record fires far past the makespan: the
/// sharded fast path must fall back to the sequential engine (membership
/// churn is cross-shard by nature), and the simulation-side fingerprint
/// stays pinned — only the fleet-accounting columns light up.
#[test]
fn armed_inert_fault_plan_falls_back_and_keeps_fingerprint() {
    let mut cfg = base_config();
    cfg.shards = 4;
    cfg.faults = FaultSchedule {
        records: vec![FaultRecord {
            at: SimTime::from_secs_f64(1e6),
            replica: 0,
            action: FaultAction::Crash,
        }],
    };
    let (report, stats) =
        ClusterSimulator::new(cfg, fixed_trace(80, 2.5, 42), oracle(), 42).run_with_stats();
    assert_eq!(stats.shards, 1, "armed plan must force the sequential path");
    assert_fingerprint(
        "cluster_oracle_seed42_armed_inert",
        &report,
        0x4044b9f98e76d0c2,
        0x3fd0f1caa605d583,
        0x3f87c9e679ad5143,
        0x4005f128a0255786,
        0x3fb31cc55a505cba,
        3420,
        71716,
        0,
    );
    // The crash never fired, so no churn was recorded — but the fleet
    // accountant ran: replica-hours cover the whole makespan.
    assert_eq!(report.evicted_by_crash, 0);
    assert_eq!(report.requeued, 0);
    assert_eq!(report.retries, 0);
    assert_eq!(report.replica_availability, vec![1.0]);
    assert!(
        (report.replica_hours - report.makespan_secs / 3600.0).abs() < 1e-12,
        "one replica up for the whole run"
    );
}

/// A mid-run crash with a later recovery: every in-flight and queued
/// request on the dead replica requeues through the routing tier, KV is
/// reclaimed, and the run still completes everything — with the churn
/// visible in the report.
#[test]
fn crash_requeues_and_recovery_completes_everything() {
    let mut cfg = base_config();
    cfg.num_replicas = 2;
    cfg.faults = FaultSchedule {
        records: vec![
            FaultRecord {
                at: SimTime::from_secs_f64(8.0),
                replica: 0,
                action: FaultAction::Crash,
            },
            FaultRecord {
                at: SimTime::from_secs_f64(30.0),
                replica: 0,
                action: FaultAction::Recover,
            },
        ],
    };
    let trace = fixed_trace(150, 6.0, 37);
    let report = ClusterSimulator::new(cfg, trace, estimator_source(), 5).run();
    assert_eq!(report.completed, 150, "no request may be lost to the crash");
    assert!(report.evicted_by_crash > 0, "crash must catch live work");
    assert!(report.requeued >= report.evicted_by_crash);
    assert!(report.retries > 0, "requeued work re-dispatches");
    assert_eq!(report.replica_availability.len(), 2);
    assert!(
        report.replica_availability[0] < 1.0,
        "crashed replica was down for a while: {}",
        report.replica_availability[0]
    );
    assert_eq!(report.replica_availability[1], 1.0);
    assert!(report.replica_hours > 0.0);
}

/// A transient straggler episode (slow → restore) must not lose work, and
/// must actually slow the run down relative to the fault-free baseline.
#[test]
fn straggler_episode_slows_run_without_losing_work() {
    let trace = fixed_trace(80, 2.5, 42);
    let baseline =
        ClusterSimulator::new(base_config(), trace.clone(), estimator_source(), 42).run();
    let mut cfg = base_config();
    cfg.faults = FaultSchedule {
        records: vec![
            FaultRecord {
                at: SimTime::from_secs_f64(2.0),
                replica: 0,
                action: FaultAction::Slow(3.0),
            },
            FaultRecord {
                at: SimTime::from_secs_f64(20.0),
                replica: 0,
                action: FaultAction::Restore,
            },
        ],
    };
    let slowed = ClusterSimulator::new(cfg, trace, estimator_source(), 42).run();
    assert_eq!(slowed.completed, 80);
    assert!(
        slowed.makespan_secs > baseline.makespan_secs,
        "3x straggler episode must stretch the makespan: {} vs {}",
        slowed.makespan_secs,
        baseline.makespan_secs
    );
    // Degradation is not a crash: nothing evicted, nothing requeued.
    assert_eq!(slowed.evicted_by_crash, 0);
    assert_eq!(slowed.requeued, 0);
}

/// A graceful drain finishes running work, migrates the queue, and marks
/// the replica down once idle — without any crash-evictions.
#[test]
fn graceful_drain_migrates_queue_without_evictions() {
    let mut cfg = base_config();
    cfg.num_replicas = 2;
    cfg.faults = FaultSchedule {
        records: vec![FaultRecord {
            at: SimTime::from_secs_f64(8.0),
            replica: 1,
            action: FaultAction::Drain,
        }],
    };
    let trace = fixed_trace(150, 6.0, 37);
    let report = ClusterSimulator::new(cfg, trace, estimator_source(), 5).run();
    assert_eq!(report.completed, 150, "drain must not lose work");
    assert_eq!(report.evicted_by_crash, 0, "drain is not a crash");
    assert!(
        report.replica_availability[1] < 1.0,
        "drained replica goes down once idle: {}",
        report.replica_availability[1]
    );
    assert_eq!(report.replica_availability[0], 1.0);
}

/// Bit-exact pin of a fault-armed run. Oracle jitter and PP=2 keep batches
/// in flight when replica 0 crashes, so the crash cancels live batches and
/// their already-queued completions must be dropped as stale. Replica 0 is
/// slowed before the crash and restored only after its recovery, so the
/// straggler multiplier must survive the crash. Replica 2 drains late in
/// the run. The multi-tenant trace pins the per-tenant fleet counters.
#[test]
fn fault_plan_report_bits_pinned() {
    let mut cfg = base_config();
    cfg.num_replicas = 2;
    cfg.parallelism = ParallelismConfig::new(1, 2);
    cfg.scheduler = SchedulerConfig::new(BatchPolicyKind::Vllm, 256);
    let record = |secs, replica, action| FaultRecord {
        at: SimTime::from_secs_f64(secs),
        replica,
        action,
    };
    cfg.faults = FaultSchedule {
        records: vec![
            record(5.0, 0, FaultAction::Slow(2.5)),
            record(12.0, 0, FaultAction::Crash),
            record(25.0, 0, FaultAction::Recover),
            record(30.0, 1, FaultAction::Drain),
            record(40.0, 0, FaultAction::Restore),
        ],
    };
    let report = ClusterSimulator::new(cfg, multi_tenant_bursty_trace(260, 17), oracle(), 17).run();
    assert_fingerprint(
        "fault_plan_seed17",
        &report,
        0x405c087cffd7b37d,
        0x4025cd9e58578760,
        0x3fa251e502ac355b,
        0x403946c380350ac2,
        0x3fae227aed8ef9a8,
        9843,
        599654,
        0,
    );
    assert_eq!(report.completed, 260);
    assert_eq!(
        (report.retries, report.requeued, report.evicted_by_crash),
        (38, 38, 37)
    );
    let tenant =
        |f: fn(&TenantReport) -> u64| -> Vec<u64> { report.per_tenant.iter().map(f).collect() };
    assert_eq!(tenant(|t| t.retries), [18, 3, 17]);
    assert_eq!(tenant(|t| t.requeued), [18, 3, 17]);
    assert_eq!(tenant(|t| t.evicted_by_crash), [18, 3, 16]);
}

/// Bit-exact pin of a crash during warm-up, the only path that leaves a
/// stale warm-up completion queued. Replica 0 crashes, starts warming up at
/// 20 s (≈ 11 s warm-up, due ≈ 31 s), crashes again at 25 s and restarts
/// its warm-up at 28 s. The first warm-up's completion fires mid-way
/// through the second and must be dropped: honoring it would make the
/// replica routable 8 s early.
#[test]
fn crash_during_warmup_report_bits_pinned() {
    let mut cfg = base_config();
    cfg.num_replicas = 2;
    let record = |secs, action| FaultRecord {
        at: SimTime::from_secs_f64(secs),
        replica: 0,
        action,
    };
    cfg.faults = FaultSchedule {
        records: vec![
            record(8.0, FaultAction::Crash),
            record(20.0, FaultAction::Recover),
            record(25.0, FaultAction::Crash),
            record(28.0, FaultAction::Recover),
        ],
    };
    let report = ClusterSimulator::new(cfg, fixed_trace(300, 6.0, 41), oracle(), 41).run();
    assert_fingerprint(
        "crash_during_warmup_seed41",
        &report,
        0x4050a6299983969a,
        0x3ff5e0aaf32aa6de,
        0x3f9483a3db5e5771,
        0x40148f6b80b7a9cc,
        0x3fb91a1572040bd3,
        5686,
        301964,
        0,
    );
    assert_eq!(
        report.completed, 300,
        "no request may be lost to the crashes"
    );
    // Only the first crash catches work: the second hits a warming replica.
    assert_eq!(
        (report.retries, report.requeued, report.evicted_by_crash),
        (5, 5, 5)
    );
    // Uptime counts from the start of each warm-up: down 8–20 s and 25–28 s.
    let availability: Vec<u64> = report
        .replica_availability
        .iter()
        .map(|a| a.to_bits())
        .collect();
    assert_eq!(availability, [0x3fe8cada260db15f, 0x3ff0000000000000]);
}

// ---- prefix cache / KV-aware routing ------------------------------------

/// High-share multi-tenant trace: nearly every request carries one of a
/// handful of shared system prompts, so the prefix tier has real reuse for
/// cache-aware routing to exploit.
fn high_share_prefix_trace(n: usize, seed: u64) -> Trace {
    let mix = MultiTenantWorkload::new(
        "prefix-mix",
        vec![
            TenantStream {
                tenant: "interactive".into(),
                priority: 0,
                workload: TraceWorkload::chat_1m(),
                arrivals: ArrivalProcess::Poisson { qps: 3.0 },
                prefix: Some(TenantPrefixConfig {
                    share_ratio: 0.9,
                    prefix_tokens: 256,
                    num_prefixes: 2,
                }),
            },
            TenantStream {
                tenant: "batch".into(),
                priority: 1,
                workload: TraceWorkload::bwb_4k(),
                arrivals: ArrivalProcess::Poisson { qps: 1.5 },
                prefix: Some(TenantPrefixConfig {
                    share_ratio: 1.0,
                    prefix_tokens: 512,
                    num_prefixes: 1,
                }),
            },
        ],
    );
    let mut rng = SimRng::new(seed);
    mix.generate(n, &mut rng)
}

fn prefix_cfg(policy: GlobalPolicyKind) -> ClusterConfig {
    let mut cfg = base_config();
    cfg.num_replicas = 4;
    cfg.global_policy = policy;
    cfg.prefix_cache = Some(PrefixCacheConfig::default());
    cfg
}

/// Conservation checks every prefix-armed report must satisfy: the
/// per-tenant splits account for every hit and every saved token, and the
/// hit rate is hits over completions.
fn assert_prefix_accounting(label: &str, r: &SimulationReport) {
    let tenant_hits: u64 = r.per_tenant.iter().map(|t| t.prefix_hits).sum();
    let tenant_saved: u64 = r.per_tenant.iter().map(|t| t.prefix_tokens_saved).sum();
    assert_eq!(tenant_hits, r.prefix_hits, "{label}: tenant hit split");
    assert_eq!(
        tenant_saved, r.prefix_tokens_saved,
        "{label}: tenant saved split"
    );
    let expected_rate = r.prefix_hits as f64 / r.completed as f64;
    assert_eq!(
        r.prefix_hit_rate.to_bits(),
        expected_rate.to_bits(),
        "{label}: hit rate must be hits/completed"
    );
}

/// Bit-exact pin: KV-aware routing over the high-share trace. The prefix
/// columns must light up — a ~92% hit rate on this trace — and the
/// per-tenant splits must conserve.
#[test]
fn prefix_kv_aware_report_bits_pinned() {
    let report = ClusterSimulator::new(
        prefix_cfg(GlobalPolicyKind::KvAware),
        high_share_prefix_trace(220, 61),
        oracle(),
        61,
    )
    .run();
    assert_fingerprint(
        "prefix_kvaware_seed61",
        &report,
        0x405541ce28c7ca59,
        0x3fd193efecec0ad9,
        0x3f927fd987a3d667,
        0x402ab0c7f08a9039,
        0x3fa38ead54a08251,
        18870,
        292928,
        0,
    );
    assert_eq!(report.completed, 220);
    assert_eq!(report.prefix_hits, 195, "high-share trace must hit hot");
    assert_eq!(report.prefix_tokens_saved, 64480);
    assert!(report.prefix_hit_rate > 0.85);
    assert_prefix_accounting("prefix_kvaware_seed61", &report);
    for t in &report.per_tenant {
        assert!(
            t.prefix_hits > 0,
            "{}: both tenants share prefixes",
            t.tenant
        );
    }
}

/// Bit-exact pin: hit-sticky affinity routing over the same trace.
#[test]
fn prefix_affinity_report_bits_pinned() {
    let report = ClusterSimulator::new(
        prefix_cfg(GlobalPolicyKind::Affinity { spill_margin: 4 }),
        high_share_prefix_trace(220, 61),
        oracle(),
        61,
    )
    .run();
    assert_fingerprint(
        "prefix_affinity_seed61",
        &report,
        0x4061788efd5f77f1,
        0x403d6b1b9b94e2ff,
        0x3fa57876199df1ff,
        0x403e7a7bdf65e8e4,
        0x3f9856b027d6795f,
        12903,
        300016,
        0,
    );
    assert_eq!(report.completed, 220);
    assert_eq!(report.prefix_hits, 203);
    assert_eq!(report.prefix_tokens_saved, 57392);
    assert_prefix_accounting("prefix_affinity_seed61", &report);
}

/// An armed prefix cache is stateful across the whole fleet, so the sharded
/// fast path must fall back to the sequential engine — with the estimator
/// source and round-robin-free policies this config would otherwise be
/// fast-path-eligible, making the gate itself the thing under test.
#[test]
fn prefix_routing_sharded_fallback_identical() {
    for policy in [
        GlobalPolicyKind::KvAware,
        GlobalPolicyKind::Affinity { spill_margin: 4 },
    ] {
        let cfg = prefix_cfg(policy);
        let trace = high_share_prefix_trace(200, 63);
        let source = estimator_source();
        let (sequential, _) =
            ClusterSimulator::new(cfg.clone(), trace.clone(), source.clone(), 5).run_with_stats();
        let mut sharded_cfg = cfg;
        sharded_cfg.shards = 4;
        let (sharded, stats) =
            ClusterSimulator::new(sharded_cfg, trace, source, 5).run_with_stats();
        assert_eq!(
            stats.shards, 1,
            "{policy:?}: armed cache must force fallback"
        );
        assert_eq!(
            sequential, sharded,
            "{policy:?}: sharded run must fall back bit-exactly"
        );
        assert!(sequential.prefix_hits > 0, "{policy:?}: trace must hit");
    }
}

/// Re-pin with `prefix_cache` *explicitly* disabled: `None` is not merely
/// the default, it is the documented byte-identical-off switch, so the
/// original seed fingerprint must reproduce and match a default-config run
/// with the prefix report columns at their inert zeros.
#[test]
fn prefix_cache_disabled_keeps_pinned_reports() {
    let mut cfg = base_config();
    cfg.prefix_cache = None;
    let report = ClusterSimulator::new(cfg, fixed_trace(80, 2.5, 42), oracle(), 42).run();
    assert_fingerprint(
        "cluster_oracle_seed42_prefix_off",
        &report,
        0x4044b9f98e76d0c2,
        0x3fd0f1caa605d583,
        0x3f87c9e679ad5143,
        0x4005f128a0255786,
        0x3fb31cc55a505cba,
        3420,
        71716,
        0,
    );
    let default_run =
        ClusterSimulator::new(base_config(), fixed_trace(80, 2.5, 42), oracle(), 42).run();
    assert_eq!(report, default_run, "explicit None must be byte-identical");
    assert_eq!(report.prefix_hits, 0);
    assert_eq!(report.prefix_tokens_saved, 0);
    assert_eq!(report.prefix_hit_rate, 0.0);
}

/// The differential proof the ISSUE demands: on a trace with **zero**
/// prefix sharing, arming the cache changes nothing — the report is
/// byte-identical to a disabled run, under both an oblivious policy and
/// KV-aware routing (whose published hit vectors are all zero).
#[test]
fn zero_share_trace_prefix_cache_invisible() {
    for policy in [GlobalPolicyKind::RoundRobin, GlobalPolicyKind::KvAware] {
        let mut cfg = base_config();
        cfg.num_replicas = 4;
        cfg.global_policy = policy;
        let trace = multi_tenant_bursty_trace(200, 19);
        let disabled = ClusterSimulator::new(cfg.clone(), trace.clone(), oracle(), 19).run();
        cfg.prefix_cache = Some(PrefixCacheConfig::default());
        let armed = ClusterSimulator::new(cfg, trace, oracle(), 19).run();
        assert_eq!(
            armed, disabled,
            "{policy:?}: armed cache must be invisible without sharing"
        );
        assert_eq!(armed.prefix_hits, 0);
        assert_eq!(armed.prefix_tokens_saved, 0);
    }
}

/// The SLO/queue autoscaler scales a one-replica fleet up under a heavy
/// open-loop burst: scaled-up slots actually serve work (non-zero
/// availability past slot 0) and the run completes everything.
#[test]
fn autoscaler_scales_up_under_load() {
    let mut cfg = base_config();
    cfg.num_replicas = 1;
    let mut spec = AutoscalerSpec::new(1, 4);
    spec.interval_secs = 10.0;
    cfg.autoscaler = Some(spec);
    let trace = fixed_trace(250, 20.0, 29);
    let report = ClusterSimulator::new(cfg, trace, estimator_source(), 29).run();
    assert_eq!(report.completed, 250);
    assert_eq!(report.replica_availability.len(), 4);
    assert!(
        report.replica_availability[1] > 0.0,
        "autoscaler must have warmed up at least one extra replica"
    );
    // Elastic replica-hours stay below the statically-provisioned ceiling.
    let static_hours = 4.0 * report.makespan_secs / 3600.0;
    assert!(report.replica_hours > 0.0 && report.replica_hours < static_hours);
}
