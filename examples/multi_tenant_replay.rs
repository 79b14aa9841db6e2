//! Multi-tenant trace replay: the production-traffic pipeline end to end.
//!
//! 1. Synthesize a small multi-tenant seed trace — three tenants with their
//!    own length distributions, arrival processes (diurnal, Poisson,
//!    MMPP-bursty), and priority classes.
//! 2. Round-trip it through the on-disk trace format (`to_file` /
//!    `from_file`) — the same path a real production trace would enter by.
//! 3. Amplify the seed by derived-stat resampling to the target request
//!    count, exactly how a 1k-line log becomes a million-request what-if.
//! 4. Replay on a cluster under the mergeable quantile mode (t-digests) —
//!    routed through the global tier's weighted fair-share policy with a
//!    per-tenant KV quota on the bursty batch tenant — and report
//!    per-tenant latency/SLO/routing breakdowns.
//!
//! 5. Replay the same trace on the parallel sharded engine (estimator
//!    runtimes) twice — round-robin, which routes a batch of arrivals ahead
//!    per round, then least-outstanding, which routes one arrival instant
//!    per round on the live tier — assert both reports are byte-identical
//!    to the sequential engine's, and print each run's round count and any
//!    fallback reason.
//! 6. Rerun the sharded replay in the mergeable metrics mode — the merger
//!    replays every effect in sequential order, as it does in exact mode —
//!    assert the report is invariant across shard counts, and print the
//!    per-minute time-series table.
//! 7. Replay once more under an elastic fleet: a fault plan crashes and
//!    recovers one replica mid-run, degrades another into a straggler, and
//!    gracefully drains a third, while the SLO/queue autoscaler resizes the
//!    fleet — every displaced request requeues through the routing tier,
//!    and the report's churn/availability columns are printed.
//! 8. Synthesize a shared-prefix mix (two tenants reusing system prompts),
//!    arm the per-replica prefix-cache tier, and replay under KV-aware
//!    routing — the report's prefix hit-rate and per-tenant tokens-saved
//!    columns are printed and their accounting checked.
//!
//! Run with: `cargo run --release --example multi_tenant_replay`
//! (2 000 requests by default; set `VIDUR_FULL=1` for the 1M-request run,
//! or `VIDUR_REPLAY_REQUESTS=<n>` for any size; `VIDUR_SHARDS=<k>` picks
//! the shard count of step 5, default one per replica).

use vidur::prelude::*;

fn target_requests() -> usize {
    if let Ok(n) = std::env::var("VIDUR_REPLAY_REQUESTS") {
        return n.parse().expect("VIDUR_REPLAY_REQUESTS must be a number");
    }
    match std::env::var("VIDUR_FULL") {
        Ok(v) if v == "1" => 1_000_000,
        _ => 2_000,
    }
}

fn main() {
    // 1. Three tenants sharing the cluster, each with its own traffic shape.
    let mix = MultiTenantWorkload::new(
        "prod-mix",
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
    let mut rng = SimRng::new(42);
    let seed_trace = mix.generate(1_000, &mut rng);

    // 2. Round-trip through the on-disk format.
    let path = std::env::temp_dir().join(format!("vidur-replay-{}.vtrace", std::process::id()));
    seed_trace.to_file(&path).expect("write trace");
    let loaded = Trace::from_file(&path).expect("reload trace");
    assert_eq!(loaded, seed_trace, "trace format round-trips exactly");
    println!(
        "trace file : {} ({} requests, {} tenants, round-trip exact)",
        path.display(),
        loaded.len(),
        loaded.num_tenants()
    );
    let _ = std::fs::remove_file(&path);

    // 3. Amplify by derived-stat resampling.
    let n = target_requests();
    let trace = loaded.amplify(n, &mut rng);
    println!(
        "amplified  : {} → {} requests (fitted arrivals: {:?})",
        loaded.len(),
        trace.len(),
        loaded.fit_arrivals()
    );

    // 4. Replay under mergeable metrics with a latency SLO.
    let mut config = ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        ParallelismConfig::serial(),
        6,
        SchedulerConfig::new(BatchPolicyKind::Vllm, 256),
    );
    config.quantile_mode = QuantileMode::Mergeable;
    config.tenant_slo = Some(TenantSlo {
        ttft_secs: 2.0,
        e2e_per_token_secs: 0.5,
    });
    // Global tier: weighted fair-share routing (interactive weighs 2x) with
    // the bursty batch tenant capped at 40% of each replica's KV blocks.
    config.global_policy = GlobalPolicyKind::FairShare {
        max_outstanding: 96,
    };
    config.tenant_weights = vec![2.0, 1.0, 1.0];
    config.tenant_kv_quota = vec![1.0, 1.0, 0.4];
    println!("deployment : {}", config.label());
    let source = RuntimeSource::Oracle(KernelOracle::new(GpuSku::a100_80g()));
    let report = ClusterSimulator::new(config, trace.clone(), source, 42).run();

    println!();
    println!(
        "completed  : {}/{} in {:.0} s simulated ({:.2} QPS, {} preemptions)",
        report.completed,
        report.num_requests,
        report.makespan_secs,
        report.throughput_qps,
        report.preemptions
    );
    println!();
    println!(
        "tenant       arrived completed  TTFT p50/p99 (s)   e2e p50/p99 (s)   SLO  deferred q-denied share"
    );
    for t in &report.per_tenant {
        println!(
            "{:<12} {:>7} {:>9}   {:>6.2} / {:>6.2}   {:>6.1} / {:>6.1}   {:>4.0}%  {:>8} {:>8} {:>5.2}",
            t.tenant,
            t.arrived,
            t.completed,
            t.ttft.p50,
            t.ttft.p99,
            t.e2e.p50,
            t.e2e.p99,
            t.slo_attainment.unwrap_or(0.0) * 100.0,
            t.deferred,
            t.quota_denied,
            t.fair_share_attainment.unwrap_or(0.0)
        );
    }
    assert_eq!(report.per_tenant.len(), 3);
    assert!(
        report.per_tenant.iter().all(|t| t.completed > 0),
        "every tenant must make progress"
    );
    let routed: u64 = report.per_tenant.iter().map(|t| t.routed).sum();
    assert_eq!(
        routed as usize, report.num_requests,
        "every request routes through the tier exactly once"
    );

    // 5. The parallel sharded engine runs one loop: shards advance to the
    // next unrouted arrival, the merger commits their logs in exact order
    // and routes on the live tier. Round-robin never reads the live load
    // view, so it routes a batch of arrivals ahead per round;
    // least-outstanding does, so it routes one arrival instant per round.
    // Either way the contract holds: reports agree bit for bit, only
    // wall-clock changes.
    let shards: usize = std::env::var("VIDUR_SHARDS")
        .map(|v| v.parse().expect("VIDUR_SHARDS must be a number"))
        .unwrap_or(6);
    let mut sharded_config = ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        ParallelismConfig::serial(),
        6,
        SchedulerConfig::new(BatchPolicyKind::Vllm, 256),
    );
    sharded_config.tenant_slo = Some(TenantSlo {
        ttft_secs: 2.0,
        e2e_per_token_secs: 0.5,
    });
    let est = vidur::simulator::onboard(
        &sharded_config.model,
        &sharded_config.parallelism,
        &sharded_config.sku,
        EstimatorKind::default(),
    );
    let est_source = RuntimeSource::Estimator((*est).clone());
    let timed_run = |policy: GlobalPolicyKind, shards: usize| {
        let mut cfg = sharded_config.clone();
        cfg.global_policy = policy;
        cfg.shards = shards;
        let started = std::time::Instant::now();
        let (report, stats) =
            ClusterSimulator::new(cfg, trace.clone(), est_source.clone(), 42).run_with_stats();
        (report, stats, started.elapsed())
    };
    let (seq_report, _, seq_wall) = timed_run(GlobalPolicyKind::RoundRobin, 1);
    let (shard_report, shard_stats, shard_wall) = timed_run(GlobalPolicyKind::RoundRobin, shards);
    assert_eq!(
        seq_report, shard_report,
        "sharded replay must be bit-identical to the sequential engine"
    );
    println!();
    println!(
        "sharded    : round-robin on {} shards in {:.0} ms vs sequential {:.0} ms — reports \
         bit-identical ({} rounds)",
        shard_stats.shards,
        shard_wall.as_secs_f64() * 1e3,
        seq_wall.as_secs_f64() * 1e3,
        shard_stats.spec_windows,
    );

    let (lo_seq, _, lo_seq_wall) = timed_run(GlobalPolicyKind::LeastOutstanding, 1);
    let (lo_shard, lo_stats, lo_shard_wall) = timed_run(GlobalPolicyKind::LeastOutstanding, shards);
    assert_eq!(
        lo_seq, lo_shard,
        "barrier sharded routing must be bit-identical to the sequential engine"
    );
    match lo_stats.fallback_reason {
        Some(reason) => println!("barriers   : fell back to sequential ({reason})"),
        None => println!(
            "barriers   : least-outstanding on {} shards in {:.0} ms vs sequential {:.0} ms — \
             {} barrier rounds",
            lo_stats.shards,
            lo_shard_wall.as_secs_f64() * 1e3,
            lo_seq_wall.as_secs_f64() * 1e3,
            lo_stats.spec_windows,
        ),
    }

    // 6. Mergeable metrics: bounded-memory latency sketches. The sharded
    // merger replays every effect into one collector in sequential order,
    // so reports are invariant under the shard count (byte-identical to a
    // one-shard run) and carry the windowed time series.
    let mut mergeable_config = sharded_config.clone();
    mergeable_config.quantile_mode = QuantileMode::Mergeable;
    mergeable_config.timeseries = Some(TimeseriesConfig::per_minute());
    let timed_mergeable = |shards: usize| {
        let mut cfg = mergeable_config.clone();
        cfg.shards = shards;
        let started = std::time::Instant::now();
        let (report, stats) =
            ClusterSimulator::new(cfg, trace.clone(), est_source.clone(), 42).run_with_stats();
        (report, stats, started.elapsed())
    };
    let (one_shard, _, _) = timed_mergeable(1);
    let (mergeable_report, mergeable_stats, mergeable_wall) = timed_mergeable(shards);
    assert_eq!(
        one_shard, mergeable_report,
        "mergeable reports must be invariant across shard counts"
    );
    println!();
    println!(
        "mergeable  : {} shards in {:.0} ms, {} effects replayed",
        mergeable_stats.shards,
        mergeable_wall.as_secs_f64() * 1e3,
        mergeable_stats.streamed_effects,
    );
    println!();
    println!("window (min)  completed  throughput (QPS)  TTFT p99 (s)  KV occupancy");
    for row in &mergeable_report.timeseries {
        println!(
            "{:>12.0}  {:>9}  {:>16.2}  {:>12.2}  {:>11.1}%",
            row.window_start_secs / 60.0,
            row.completed,
            row.throughput_qps,
            row.ttft_p99,
            row.kv_occupancy * 100.0,
        );
    }

    // 7. Elastic fleet: the same replay surviving crashes, a straggler
    // episode, a graceful drain, and autoscaler-driven resizing. Nothing is
    // lost — displaced work requeues through the routing tier.
    let mut elastic_config = sharded_config.clone();
    elastic_config.faults = FaultSchedule::parse(
        "#vidur-faults v1\n\
         # replica 1 hard-crashes, replica 2 throttles to 2.5x slow,\n\
         # replica 3 is gracefully drained for maintenance; all recover.\n\
         20 crash 1\n\
         40 slow 2 2.5\n\
         60 drain 3\n\
         120 recover 1\n\
         160 restore 2\n\
         200 recover 3\n",
    )
    .expect("fault schedule parses");
    let mut spec = AutoscalerSpec::new(2, 8);
    spec.interval_secs = 15.0;
    elastic_config.autoscaler = Some(spec);
    let started = std::time::Instant::now();
    let report = ClusterSimulator::new(elastic_config, trace.clone(), est_source.clone(), 42).run();
    assert_eq!(
        report.completed, report.num_requests,
        "crashes and drains must not lose work"
    );
    println!();
    println!(
        "elastic    : {}/{} completed through the churn in {:.0} s simulated ({:.0} ms wall)",
        report.completed,
        report.num_requests,
        report.makespan_secs,
        started.elapsed().as_secs_f64() * 1e3,
    );
    println!(
        "churn      : {} crash-evicted, {} requeued, {} retries, {:.3} replica-hours",
        report.evicted_by_crash, report.requeued, report.retries, report.replica_hours,
    );
    let availability: Vec<String> = report
        .replica_availability
        .iter()
        .map(|a| format!("{:.2}", a))
        .collect();
    println!(
        "uptime     : [{}] per replica slot",
        availability.join(", ")
    );

    // 8. Prefix caching + KV-aware routing: two tenants keep reusing their
    // system prompts, each replica caches the shared prefix blocks, and the
    // router steers repeats toward replicas that already hold them. The
    // report grows hit-rate / tokens-saved columns whose per-tenant splits
    // must sum to the totals.
    let prefix_mix = MultiTenantWorkload::new(
        "prefix-mix",
        vec![
            TenantStream {
                tenant: "assistants".into(),
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
                tenant: "rag".into(),
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
    let prefix_trace = prefix_mix.generate(n.min(2_000), &mut SimRng::new(7));
    let mut prefix_config = sharded_config.clone();
    prefix_config.global_policy = GlobalPolicyKind::KvAware;
    prefix_config.prefix_cache = Some(PrefixCacheConfig::default());
    let started = std::time::Instant::now();
    let report = ClusterSimulator::new(prefix_config, prefix_trace, est_source.clone(), 7).run();
    assert!(
        report.prefix_hit_rate > 0.0,
        "shared-prefix traffic must hit the cache"
    );
    let tenant_hits: u64 = report.per_tenant.iter().map(|t| t.prefix_hits).sum();
    let tenant_saved: u64 = report
        .per_tenant
        .iter()
        .map(|t| t.prefix_tokens_saved)
        .sum();
    assert_eq!(tenant_hits, report.prefix_hits, "hit splits sum to total");
    assert_eq!(
        tenant_saved, report.prefix_tokens_saved,
        "tokens-saved splits sum to total"
    );
    println!();
    println!(
        "prefix     : {:.1}% hit rate, {} hits, {} prefill tokens skipped ({:.0} ms wall)",
        report.prefix_hit_rate * 100.0,
        report.prefix_hits,
        report.prefix_tokens_saved,
        started.elapsed().as_secs_f64() * 1e3,
    );
    for t in &report.per_tenant {
        println!(
            "             {:<12} {:>6} hits  {:>8} tokens saved",
            t.tenant, t.prefix_hits, t.prefix_tokens_saved
        );
    }
}
