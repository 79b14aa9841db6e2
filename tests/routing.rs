//! Integration tests for the global scheduling tier: fair-share starvation
//! bounds, per-tenant KV quotas, and routing statistics in the report.

use vidur::prelude::*;

fn base_config() -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        ParallelismConfig::serial(),
        2,
        SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 64),
    )
}

fn oracle() -> RuntimeSource {
    RuntimeSource::Oracle(KernelOracle::new(GpuSku::a100_80g()))
}

/// A skewed 4-tenant mix: one heavy bursty tenant and three light
/// interactive tenants, near the 2-replica capacity so routing decides who
/// waits.
fn skewed_mix(n: usize, seed: u64) -> Trace {
    let mix = MultiTenantWorkload::new(
        "skewed",
        vec![
            TenantStream {
                tenant: "heavy".into(),
                priority: 0,
                workload: TraceWorkload::chat_1m(),
                arrivals: ArrivalProcess::Mmpp {
                    qps_base: 2.0,
                    qps_burst: 30.0,
                    mean_base_secs: 12.0,
                    mean_burst_secs: 5.0,
                },
                prefix: None,
            },
            TenantStream {
                tenant: "light-a".into(),
                priority: 0,
                workload: TraceWorkload::chat_1m(),
                arrivals: ArrivalProcess::Poisson { qps: 0.4 },
                prefix: None,
            },
            TenantStream {
                tenant: "light-b".into(),
                priority: 0,
                workload: TraceWorkload::chat_1m(),
                arrivals: ArrivalProcess::Poisson { qps: 0.4 },
                prefix: None,
            },
            TenantStream {
                tenant: "light-c".into(),
                priority: 0,
                workload: TraceWorkload::chat_1m(),
                arrivals: ArrivalProcess::Poisson { qps: 0.4 },
                prefix: None,
            },
        ],
    );
    let mut rng = SimRng::new(seed);
    mix.generate(n, &mut rng)
}

/// Worst TTFT p99 among the starved parties: the light tenants, whose
/// requests queue behind the heavy tenant's bursts under share-blind
/// routing. (The heavy tenant itself is the *source* of the overload —
/// fair-share deliberately pushes its excess back, so its own tail is the
/// price of fairness, not starvation.)
fn worst_light_ttft_p99(report: &SimulationReport) -> f64 {
    report.per_tenant[1..]
        .iter()
        .filter(|t| t.completed > 0)
        .map(|t| t.ttft.p99)
        .fold(0.0, f64::max)
}

/// Acceptance pin: fair-share routing demonstrably bounds starvation. On a
/// skewed multi-tenant run the worst starved tenant's TTFT p99 improves at
/// least 2x over blind round-robin, and the report carries per-tenant
/// routed/deferred counts and fair-share attainment.
#[test]
fn fair_share_bounds_starvation_vs_round_robin() {
    let trace = skewed_mix(300, 23);

    let rr = ClusterSimulator::new(base_config(), trace.clone(), oracle(), 23).run();
    assert_eq!(rr.completed, 300);

    let mut fs_cfg = base_config();
    fs_cfg.global_policy = GlobalPolicyKind::FairShare {
        max_outstanding: 24,
    };
    let fs = ClusterSimulator::new(fs_cfg, trace, oracle(), 23).run();
    assert_eq!(fs.completed, 300, "fair-share must still drain everything");

    let rr_worst = worst_light_ttft_p99(&rr);
    let fs_worst = worst_light_ttft_p99(&fs);
    assert!(
        fs_worst < 0.5 * rr_worst,
        "fair-share must improve the worst starved tenant's TTFT p99 at \
         least 2x: {fs_worst} vs {rr_worst}"
    );

    // Routing statistics surface per tenant.
    assert_eq!(fs.per_tenant.len(), 4);
    let routed: u64 = fs.per_tenant.iter().map(|t| t.routed).sum();
    assert_eq!(routed, 300, "every request routes exactly once");
    assert!(
        fs.per_tenant.iter().any(|t| t.deferred > 0),
        "the burst must actually defer requests through the tier"
    );
    for t in &fs.per_tenant {
        assert_eq!(t.routed as usize, t.arrived, "{}", t.tenant);
        let attainment = t
            .fair_share_attainment
            .expect("fair-share runs report attainment");
        assert!(attainment > 0.0, "{}: attainment {attainment}", t.tenant);
    }
    // Round-robin runs carry no attainment column.
    assert!(rr
        .per_tenant
        .iter()
        .all(|t| t.fair_share_attainment.is_none()));
}

/// Fair-share weights skew service toward the heavy tenant when asked to:
/// attainment is measured against the *weighted* entitlement.
#[test]
fn fair_share_attainment_tracks_weights() {
    let trace = skewed_mix(200, 29);
    let mut cfg = base_config();
    cfg.global_policy = GlobalPolicyKind::FairShare { max_outstanding: 4 };
    cfg.tenant_weights = vec![4.0, 1.0, 1.0, 1.0];
    let report = ClusterSimulator::new(cfg, trace, oracle(), 29).run();
    assert_eq!(report.completed, 200);
    for t in &report.per_tenant {
        assert!(t.fair_share_attainment.is_some(), "{}", t.tenant);
    }
}

/// Per-tenant KV quotas: a capped tenant's floods are denied at replica
/// admission (and reported), while the run still drains completely.
#[test]
fn tenant_kv_quota_denials_reported_and_run_drains() {
    let trace = skewed_mix(300, 31);
    let mut cfg = base_config();
    // The heavy tenant (id 0) may hold at most 6% of each replica's KV
    // blocks; light tenants are unlimited.
    cfg.tenant_kv_quota = vec![0.06];
    let report = ClusterSimulator::new(cfg, trace.clone(), oracle(), 31).run();
    assert_eq!(report.completed, 300, "quotas must not strand requests");
    let heavy = &report.per_tenant[0];
    assert!(
        heavy.quota_denied > 0,
        "the capped tenant must hit its quota under burst"
    );
    let light_denied: u64 = report.per_tenant[1..].iter().map(|t| t.quota_denied).sum();
    assert_eq!(light_denied, 0, "unlimited tenants are never denied");

    // The capped tenant's pressure on everyone else drops: light tenants'
    // worst TTFT p99 must not degrade vs the unconstrained run.
    let unconstrained = ClusterSimulator::new(base_config(), trace, oracle(), 31).run();
    let light_worst = |r: &SimulationReport| {
        r.per_tenant[1..]
            .iter()
            .filter(|t| t.completed > 0)
            .map(|t| t.ttft.p99)
            .fold(0.0, f64::max)
    };
    assert!(
        light_worst(&report) <= light_worst(&unconstrained) * 1.05,
        "capping the heavy tenant must not hurt light tenants: {} vs {}",
        light_worst(&report),
        light_worst(&unconstrained)
    );
}

/// Affinity routing keeps a tenant's requests on its home replica under
/// light load (the KV/prefix-reuse model) while still draining everything
/// under pressure.
#[test]
fn affinity_routing_completes_and_reports() {
    let trace = skewed_mix(200, 37);
    let mut cfg = base_config();
    cfg.global_policy = GlobalPolicyKind::Affinity { spill_margin: 4 };
    let report = ClusterSimulator::new(cfg, trace, oracle(), 37).run();
    assert_eq!(report.completed, 200);
    let routed: u64 = report.per_tenant.iter().map(|t| t.routed).sum();
    assert_eq!(routed, 200);
}

/// Priority-aware routing binds urgent tiers first out of the deferred
/// queue: under a saturating burst the urgent class's TTFT tail must not be
/// worse than the bulk class's.
#[test]
fn priority_aware_routing_serves_urgent_tier_first() {
    let mix = MultiTenantWorkload::new(
        "tiered",
        vec![
            TenantStream {
                tenant: "urgent".into(),
                priority: 0,
                workload: TraceWorkload::chat_1m(),
                arrivals: ArrivalProcess::Poisson { qps: 1.5 },
                prefix: None,
            },
            TenantStream {
                tenant: "bulk".into(),
                priority: 3,
                workload: TraceWorkload::chat_1m(),
                arrivals: ArrivalProcess::Poisson { qps: 4.5 },
                prefix: None,
            },
        ],
    );
    let mut rng = SimRng::new(43);
    let trace = mix.generate(240, &mut rng);
    let mut cfg = base_config();
    cfg.global_policy = GlobalPolicyKind::PriorityAware { max_outstanding: 4 };
    let report = ClusterSimulator::new(cfg, trace, oracle(), 43).run();
    assert_eq!(report.completed, 240);
    let urgent = &report.per_tenant[0];
    let bulk = &report.per_tenant[1];
    assert!(urgent.completed > 0 && bulk.completed > 0);
    assert!(
        urgent.ttft.p99 <= bulk.ttft.p99,
        "urgent tier tail {} must not exceed bulk tail {}",
        urgent.ttft.p99,
        bulk.ttft.p99
    );
}
