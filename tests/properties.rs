//! Cross-crate property-based tests: simulation conservation laws and
//! scheduler invariants under randomized request streams.

use proptest::prelude::*;
use vidur::prelude::*;

fn run_sim(policy: BatchPolicyKind, reqs: &[(u64, u64)], qps: f64, seed: u64) -> SimulationReport {
    let config = ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        ParallelismConfig::serial(),
        1,
        SchedulerConfig::new(policy, 32),
    );
    let mut rng = SimRng::new(seed);
    let arrivals = ArrivalProcess::Poisson { qps };
    let times = arrivals.generate(reqs.len(), &mut rng);
    let trace = Trace {
        workload_name: "prop".to_string(),
        tenants: Vec::new(),
        prefixes: Vec::new(),
        requests: reqs
            .iter()
            .zip(times)
            .enumerate()
            .map(|(i, (&(p, d), arrival))| TraceRequest {
                id: i as u64,
                arrival,
                prefill_tokens: p,
                decode_tokens: d,
                tenant: 0,
                priority: 0,
                prefix_id: NO_PREFIX,
                prefix_len: 0,
            })
            .collect(),
    };
    let est = onboard(
        &config.model,
        &config.parallelism,
        &config.sku,
        EstimatorKind::default(),
    );
    ClusterSimulator::new(
        config,
        trace,
        RuntimeSource::Estimator((*est).clone()),
        seed,
    )
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn all_requests_complete_and_latencies_ordered(
        reqs in proptest::collection::vec((1u64..2000, 1u64..300), 1..25),
        seed in 0u64..1000,
    ) {
        for policy in [
            BatchPolicyKind::Vllm,
            BatchPolicyKind::SarathiServe { chunk_size: 256 },
        ] {
            let report = run_sim(policy, &reqs, 1.0, seed);
            prop_assert_eq!(report.completed, reqs.len());
            // Conservation: processed tokens cover at least all prompt +
            // generated-after-prefill tokens.
            let min_tokens: u64 = reqs.iter().map(|&(p, d)| p + d - 1).sum();
            prop_assert!(report.total_tokens >= min_tokens,
                "{} < {}", report.total_tokens, min_tokens);
            // Quantile orderings.
            prop_assert!(report.e2e.p50 <= report.e2e.p95 + 1e-12);
            prop_assert!(report.ttft.mean <= report.e2e.max + 1e-12);
            prop_assert!(report.scheduling_delay.p50 <= report.ttft.p50 + 1e-9,
                "TTFT includes scheduling delay");
        }
    }

    #[test]
    fn throughput_bounded_by_arrival_rate(
        reqs in proptest::collection::vec((1u64..500, 1u64..50), 5..20),
        qps in 0.2f64..2.0,
    ) {
        let report = run_sim(BatchPolicyKind::OrcaPlus, &reqs, qps, 3);
        // Completion throughput can't exceed arrival throughput by much
        // (only by the drain-phase compression of the last requests).
        prop_assert!(report.throughput_qps <= qps * 3.0 + 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scheduler_never_exceeds_budgets(
        reqs in proptest::collection::vec((1u64..3000, 1u64..100), 1..40),
        chunk in prop_oneof![Just(256u64), Just(512), Just(1024)],
    ) {
        let config = SchedulerConfig::new(
            BatchPolicyKind::SarathiServe { chunk_size: chunk }, 16);
        let mut s = ReplicaScheduler::new(config, 100_000, 16);
        for (i, &(p, d)) in reqs.iter().enumerate() {
            s.add_request(Request::new(i as u64, SimTime::ZERO, p, d));
        }
        let mut guard = 0;
        while s.outstanding() > 0 {
            let Some(batch) = s.next_batch() else { break };
            prop_assert!(batch.total_query_tokens() <= chunk,
                "token budget violated: {} > {chunk}", batch.total_query_tokens());
            prop_assert!(batch.num_requests() <= 16, "batch size violated");
            s.complete_batch(&batch);
            guard += 1;
            prop_assert!(guard < 200_000, "no convergence");
        }
        prop_assert_eq!(s.outstanding(), 0);
        prop_assert_eq!(s.blocks().used_blocks(), 0, "KV fully released");
    }
}

/// A two-tenant trace with per-tenant KV quotas armed, for the elastic
/// conservation property below: quota parking and crash eviction interact
/// on every requeue.
fn quota_trace(n: usize, qps: f64, seed: u64) -> Trace {
    let mut rng = SimRng::new(seed);
    let arrivals = ArrivalProcess::Poisson { qps };
    let times = arrivals.generate(n, &mut rng);
    Trace {
        workload_name: "elastic-prop".to_string(),
        tenants: vec!["alpha".to_string(), "beta".to_string()],
        prefixes: Vec::new(),
        requests: times
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| TraceRequest {
                id: i as u64,
                arrival,
                prefill_tokens: 200 + (i as u64 * 97) % 900,
                decode_tokens: 20 + (i as u64 * 31) % 120,
                tenant: (i % 2) as u32,
                priority: (i % 2) as u8,
                prefix_id: NO_PREFIX,
                prefix_len: 0,
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Conservation under churn: across random crash/recovery schedules and
    /// **every** routing policy, no request is lost or double-completed,
    /// and the quota/park bookkeeping survives crash eviction (per-tenant
    /// counts still conserve).
    #[test]
    fn no_request_lost_across_random_crashes_and_policies(
        n in 25usize..45,
        fault_seed in 0u64..1000,
        trace_seed in 0u64..1000,
    ) {
        let replicas = 3usize;
        let horizon = 40.0;
        // Exponential MTBF/MTTR churn, then force-recover everything at the
        // horizon so a schedule truncated mid-downtime cannot strand work.
        let mut schedule = FaultSchedule::random_crashes(
            fault_seed, replicas, horizon, 12.0, 4.0);
        for r in 0..replicas as u32 {
            schedule.records.push(FaultRecord {
                at: SimTime::from_secs_f64(horizon + 1.0),
                replica: r,
                action: FaultAction::Recover,
            });
        }
        let trace = quota_trace(n, 4.0, trace_seed);
        for policy in [
            GlobalPolicyKind::RoundRobin,
            GlobalPolicyKind::LeastOutstanding,
            GlobalPolicyKind::Random,
            GlobalPolicyKind::Deferred { max_outstanding: 8 },
            GlobalPolicyKind::PriorityAware { max_outstanding: 8 },
            GlobalPolicyKind::FairShare { max_outstanding: 8 },
            GlobalPolicyKind::Affinity { spill_margin: 4 },
        ] {
            let mut config = ClusterConfig::new(
                ModelSpec::llama2_7b(),
                GpuSku::a100_80g(),
                ParallelismConfig::serial(),
                replicas,
                SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 32),
            );
            config.global_policy = policy;
            config.tenant_kv_quota = vec![0.6, 0.6];
            config.faults = schedule.clone();
            let est = onboard(
                &config.model,
                &config.parallelism,
                &config.sku,
                EstimatorKind::default(),
            );
            let report = ClusterSimulator::new(
                config,
                trace.clone(),
                RuntimeSource::Estimator((*est).clone()),
                7,
            )
            .run();
            // No request lost, none double-completed.
            prop_assert_eq!(report.completed, n,
                "{policy:?}: lost work under churn");
            prop_assert_eq!(report.num_requests, n);
            // Per-tenant conservation survives eviction/requeue.
            let arrived: usize = report.per_tenant.iter().map(|t| t.arrived).sum();
            let completed: usize = report.per_tenant.iter().map(|t| t.completed).sum();
            prop_assert_eq!(arrived, n, "{policy:?}: per-tenant arrivals drifted");
            prop_assert_eq!(completed, n, "{policy:?}: per-tenant completions drifted");
            // Churn accounting is internally consistent.
            prop_assert!(report.requeued >= report.evicted_by_crash,
                "{policy:?}: requeued {} < evicted {}",
                report.requeued, report.evicted_by_crash);
            let tenant_requeued: u64 =
                report.per_tenant.iter().map(|t| t.requeued).sum();
            prop_assert_eq!(tenant_requeued, report.requeued,
                "{policy:?}: per-tenant requeue split must sum to the total");
            prop_assert_eq!(report.replica_availability.len(), replicas);
            for (r, a) in report.replica_availability.iter().enumerate() {
                prop_assert!((0.0..=1.0).contains(a),
                    "{policy:?}: availability[{r}] = {a} out of range");
            }
        }
    }
}

/// A two-tenant, two-priority trace for the sharding differential:
/// enough load structure that every stateful policy has real decisions to
/// make, with completions interleaving between most arrivals.
fn sharding_trace(n: usize, qps: f64, seed: u64) -> Trace {
    let mut rng = SimRng::new(seed);
    let times = ArrivalProcess::Poisson { qps }.generate(n, &mut rng);
    Trace {
        workload_name: "shard-prop".to_string(),
        tenants: vec!["alpha".to_string(), "beta".to_string()],
        prefixes: Vec::new(),
        requests: times
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| TraceRequest {
                id: i as u64,
                arrival,
                prefill_tokens: 100 + (i as u64 * 131) % 1200,
                decode_tokens: 10 + (i as u64 * 37) % 150,
                tenant: (i % 2) as u32,
                priority: (i % 3 == 0) as u8,
                prefix_id: NO_PREFIX,
                prefix_len: 0,
            })
            .collect(),
    }
}

fn sharded_policy() -> impl Strategy<Value = GlobalPolicyKind> {
    prop_oneof![
        Just(GlobalPolicyKind::RoundRobin),
        Just(GlobalPolicyKind::Random),
        Just(GlobalPolicyKind::LeastOutstanding),
        (4usize..64).prop_map(|m| GlobalPolicyKind::PriorityAware { max_outstanding: m }),
        (4usize..64).prop_map(|m| GlobalPolicyKind::FairShare { max_outstanding: m }),
        (0usize..6).prop_map(|m| GlobalPolicyKind::Affinity { spill_margin: m }),
        Just(GlobalPolicyKind::KvAware),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharded engine's whole contract, fuzzed: any admitted policy —
    /// stateless ones routing ahead, stateful ones routing one arrival
    /// instant per round, deferral-prone caps forcing the mid-run abort —
    /// and any shard count must reproduce the sequential report byte for
    /// byte.
    #[test]
    fn sharding_differential(
        policy in sharded_policy(),
        shards in prop_oneof![Just(1usize), Just(2), Just(3), Just(7)],
        qps in 4.0f64..24.0,
        // Past the stateless route-ahead batch, so those runs take more
        // than one round.
        requests in 140usize..700,
        seed in 0u64..1000,
    ) {
        let mut config = ClusterConfig::new(
            ModelSpec::llama2_7b(),
            GpuSku::a100_80g(),
            ParallelismConfig::serial(),
            7,
            SchedulerConfig::new(BatchPolicyKind::Vllm, 64),
        );
        config.global_policy = policy;
        config.tenant_weights = vec![2.0, 1.0];
        let trace = sharding_trace(requests, qps, seed);
        let est = onboard(
            &config.model,
            &config.parallelism,
            &config.sku,
            EstimatorKind::default(),
        );
        let source = RuntimeSource::Estimator((*est).clone());
        let sequential = ClusterSimulator::new(
            config.clone(), trace.clone(), source.clone(), seed).run();
        config.shards = shards;
        let (sharded, stats) = ClusterSimulator::new(
            config, trace, source, seed).run_with_stats();
        prop_assert_eq!(&sequential, &sharded,
            "{:?} shards={}: sharded run must be bit-exact (stats: {:?})",
            policy, shards, stats);
        // A deferral-prone cap may abort to the sequential engine; that is
        // a legal outcome, but it must say so.
        if shards > 1 && stats.shards == 1 {
            prop_assert!(stats.fallback_reason.is_some(),
                "silent fallback: {:?}", stats);
        }
    }
}
