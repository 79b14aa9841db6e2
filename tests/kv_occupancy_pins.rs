//! Bit pins of the KV-cache occupancy metrics: the report's
//! `kv_utilization` and every time-series row's `kv_occupancy`.
//!
//! The expected bits were captured from the point-list implementation that
//! kept every KV change-point until report time. The collector now keeps
//! running integrals instead, and these pins hold it to the same float
//! additions in the same order. The runs cover the ways the integrals can
//! be cut: windows of the time series, a deadline and a late-abort that
//! leave KV samples after the last completion (which must not count), a
//! disaggregated run whose metrics replicas span both pools, a mergeable
//! run, and an elastic fleet whose pre-allocated replicas are never
//! sampled (which must stay out of the mean).

use vidur::prelude::*;
use vidur::simulator::config::LateAbort;

fn base_config(replicas: usize) -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        ParallelismConfig::serial(),
        replicas,
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

fn estimator_source() -> RuntimeSource {
    let cfg = base_config(1);
    let est = vidur::simulator::onboard(
        &cfg.model,
        &cfg.parallelism,
        &cfg.sku,
        EstimatorKind::default(),
    );
    RuntimeSource::Estimator((*est).clone())
}

/// Asserts `kv_utilization` and each row's `kv_occupancy` bit for bit; on
/// a mismatch, prints the observed bits in the form of the arguments.
fn assert_kv_bits(label: &str, r: &SimulationReport, utilization: u64, rows: &[u64]) {
    let got_rows: Vec<u64> = r
        .timeseries
        .iter()
        .map(|row| row.kv_occupancy.to_bits())
        .collect();
    let shown: Vec<String> = got_rows.iter().map(|b| format!("{b:#018x}")).collect();
    assert!(
        r.kv_utilization.to_bits() == utilization && got_rows == rows,
        "{label}: observed kv_utilization {:#018x}, rows [{}]",
        r.kv_utilization.to_bits(),
        shown.join(", ")
    );
}

/// Jittered oracle, four replicas, per-minute windows: several full
/// windows and a partial last one.
#[test]
fn oracle_multi_replica_per_minute_kv_pinned() {
    let mut cfg = base_config(4);
    cfg.timeseries = Some(TimeseriesConfig::per_minute());
    let report = ClusterSimulator::new(cfg, fixed_trace(400, 3.0, 7), oracle(), 7).run();
    assert_eq!(report.completed, 400);
    assert_kv_bits(
        "oracle_per_minute",
        &report,
        0x3f8be667a08ea4cc,
        &[0x3f8c592657114c32, 0x3f8f5c390a369629, 0x3f68383a6d5d0a0e],
    );
}

/// A simulated-time cap stops the run mid-flight: batches keep completing
/// after the last finished request, so the full-run mean must clip at the
/// last completion. Windows of 2.5 s give many rows.
#[test]
fn deadline_truncated_kv_pinned() {
    let mut cfg = base_config(2);
    cfg.max_sim_time = Some(SimTime::from_secs_f64(10.0));
    cfg.timeseries = Some(TimeseriesConfig { window_secs: 2.5 });
    let report = ClusterSimulator::new(cfg, fixed_trace(1000, 100.0, 13), oracle(), 13).run();
    assert!(report.completed > 0 && report.completed < 1000);
    assert_kv_bits(
        "deadline_truncated",
        &report,
        0x3fd58da8b18b6340,
        &[
            0x3fc3d669e400cdd4,
            0x3fd71e1e2de66fec,
            0x3fda48d4b3a4b2fc,
            0x3fdb2f547f06acb2,
        ],
    );
}

/// A late-aborted overload probe, as the capacity search runs it.
#[test]
fn late_abort_kv_pinned() {
    let mut cfg = base_config(1);
    cfg.late_abort = Some(LateAbort {
        delay_limit_secs: 0.5,
        max_late: 4,
    });
    cfg.timeseries = Some(TimeseriesConfig { window_secs: 4.0 });
    let report = ClusterSimulator::new(cfg, fixed_trace(400, 8.0, 3), estimator_source(), 3).run();
    assert!(report.completed > 0 && report.completed < 400);
    assert_kv_bits(
        "late_abort",
        &report,
        0x3fd4660808cf8be3,
        &[
            0x3fb7069115aff1e1,
            0x3fd21a4114ee88c0,
            0x3fdafe8a4e84de40,
            0x3fdcda4a31a37cb2,
            0x3fdd8d1cc377bac8,
        ],
    );
}

/// Disaggregated pools: the metrics replicas are the prefill pool followed
/// by the decode pool.
#[test]
fn disagg_kv_pinned() {
    let mut base = base_config(1);
    base.timeseries = Some(TimeseriesConfig::per_minute());
    let cfg = DisaggConfig::new(base, 2, 2);
    let report = DisaggSimulator::new(cfg, fixed_trace(300, 4.0, 42), oracle(), 42).run();
    assert_eq!(report.completed, 300);
    assert_kv_bits(
        "disagg",
        &report,
        0x3f9530bf08942bb4,
        &[0x3f95ac33047b1eba, 0x3f7ae6fa8dc2b122],
    );
}

/// Mergeable metrics on a multi-tenant trace.
#[test]
fn mergeable_kv_pinned() {
    let mut cfg = base_config(4);
    cfg.quantile_mode = QuantileMode::Mergeable;
    cfg.timeseries = Some(TimeseriesConfig::per_minute());
    let trace = multi_tenant_trace(220, 47);
    let report = ClusterSimulator::new(cfg, trace, estimator_source(), 5).run();
    assert_eq!(report.completed, 220);
    assert_kv_bits(
        "mergeable",
        &report,
        0x3f9b204f5d19c076,
        &[0x3f9cb54dc4d95f4b, 0x3f72ec8e8dba9d13],
    );
}

/// An elastic fleet pre-allocates `max_replicas` metrics replicas; the
/// ones the autoscaler never starts are never sampled.
#[test]
fn elastic_fleet_kv_pinned() {
    let mut cfg = base_config(1);
    let mut spec = AutoscalerSpec::new(1, 4);
    spec.interval_secs = 10.0;
    cfg.autoscaler = Some(spec);
    cfg.timeseries = Some(TimeseriesConfig { window_secs: 5.0 });
    let report =
        ClusterSimulator::new(cfg, fixed_trace(250, 20.0, 29), estimator_source(), 29).run();
    assert_eq!(report.completed, 250);
    assert_kv_bits(
        "elastic",
        &report,
        0x3fd0d284d47b87fc,
        &[
            0x3fce8ca359385bd8,
            0x3fd953c661362223,
            0x3fdc10237805c4dd,
            0x3fe12128f70ce414,
            0x3fdff74f82ccaf6b,
            0x3fd61a0d50dec116,
            0x3fbf054687c0cccb,
            0x3fa1086acbf61f90,
            0x3f9695865d08d9e8,
            0x3f9aa39639b7354a,
            0x3f6ae86397441f4a,
        ],
    );
}

fn multi_tenant_trace(n: usize, seed: u64) -> Trace {
    let stream = |tenant: &str, priority, workload, arrivals| TenantStream {
        tenant: tenant.into(),
        priority,
        workload,
        arrivals,
        prefix: None,
    };
    let mix = MultiTenantWorkload::new(
        "kv-mix",
        vec![
            stream(
                "interactive",
                0,
                TraceWorkload::chat_1m(),
                ArrivalProcess::Diurnal {
                    mean_qps: 2.0,
                    amplitude: 0.8,
                    period_secs: 60.0,
                },
            ),
            stream(
                "batch",
                1,
                TraceWorkload::arxiv_4k(),
                ArrivalProcess::Poisson { qps: 1.0 },
            ),
        ],
    );
    let mut rng = SimRng::new(seed);
    mix.generate(n, &mut rng)
}
