//! Micro-benchmark for the batch-shape stage-time cache: an
//! estimator-sourced capacity search over `chat_1m` — the inner loop of
//! Vidur-Search, where the ~10⁵-config sweeps of the paper spend their
//! time — timed best-of-3 from a cold shape cache, plus a hit-rate report.
//!
//! The searched slice of the grid is one parallelism point (llama2-7B,
//! TP1-PP4) across twelve scheduler variants (four policies × three
//! batch sizes). Stage times depend on the parallelism, not the
//! scheduler, so all twelve capacity searches share one
//! [`StageTimer`] — exactly what `onboard_timer`'s process-wide cache gives
//! Vidur-Search — and every timer here is built fresh so each measured
//! iteration starts from a cold shape cache.
//!
//! `CostLedger` surfaces the hit/miss counters; the report also checks
//! that a pre-warmed cache changes no capacity bit.
//!
//! Run with `cargo bench -p vidur-bench --bench plan_cache`.

use std::time::Instant;
use vidur_core::rng::SimRng;
use vidur_estimator::EstimatorKind;
use vidur_hardware::GpuSku;
use vidur_model::{ModelSpec, ParallelismConfig};
use vidur_scheduler::{BatchPolicyKind, SchedulerConfig};
use vidur_search::{find_capacity_with_timer, CapacityParams, CostLedger};
use vidur_simulator::cluster::RuntimeSource;
use vidur_simulator::{onboard, ClusterConfig, StageTimer};
use vidur_workload::{ArrivalProcess, Trace, TraceWorkload};

fn parallelism() -> ParallelismConfig {
    ParallelismConfig::new(1, 4)
}

fn scheduler_grid() -> Vec<(BatchPolicyKind, usize)> {
    let mut grid = Vec::new();
    for bs in [32, 64, 128] {
        grid.push((BatchPolicyKind::Vllm, bs));
        grid.push((BatchPolicyKind::SarathiServe { chunk_size: 512 }, bs));
        grid.push((BatchPolicyKind::SarathiServe { chunk_size: 1024 }, bs));
        grid.push((BatchPolicyKind::OrcaPlus, bs));
    }
    grid
}

fn config(policy: BatchPolicyKind, batch_size: usize) -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        parallelism(),
        1,
        SchedulerConfig::new(policy, batch_size),
    )
}

fn base_trace() -> Trace {
    let mut rng = SimRng::new(77);
    TraceWorkload::chat_1m().generate(60, &ArrivalProcess::Static, &mut rng)
}

fn params() -> CapacityParams {
    CapacityParams {
        bisect_iters: 7,
        ..CapacityParams::default()
    }
}

/// A fresh (cold-cache) stage timer for the grid's parallelism point.
fn fresh_timer() -> StageTimer {
    let cfg = config(BatchPolicyKind::Vllm, 64);
    let est = onboard(
        &cfg.model,
        &cfg.parallelism,
        &cfg.sku,
        EstimatorKind::default(),
    );
    StageTimer::for_config(&cfg, RuntimeSource::Estimator((*est).clone()))
}

/// Capacity-searches the scheduler grid through one shared timer,
/// recording into `ledger`. Returns summed capacity (an output sink).
fn run_grid(timer: &StageTimer, ledger: &mut CostLedger, base: &Trace) -> f64 {
    let mut acc = 0.0;
    for (policy, bs) in scheduler_grid() {
        let cfg = config(policy, bs);
        if let Some(cap) = find_capacity_with_timer(&cfg, base, &params(), timer, ledger) {
            acc += cap.capacity_qps;
        }
    }
    acc
}

/// Prints the cold-cache search time and the ledger-surfaced hit/miss
/// counters, and cross-checks that a timer pre-warmed by one full grid pass
/// finds capacities bit-identical to a cold one: every shape the warm pass
/// replays from the cache must price exactly as it did on its miss.
fn main() {
    let base = base_trace();
    // Warm the process-wide estimator cache so onboarding cost stays out of
    // the measurement.
    let _ = fresh_timer();
    // Best-of-3 cold runs.
    let mut cold_secs = f64::INFINITY;
    let mut cold = (0.0, CostLedger::new());
    for _ in 0..3 {
        let timer = fresh_timer();
        let mut ledger = CostLedger::new();
        let started = Instant::now();
        let acc = run_grid(&timer, &mut ledger, &base);
        cold_secs = cold_secs.min(started.elapsed().as_secs_f64());
        ledger.record_cache(timer.stats());
        cold = (acc, ledger);
    }
    let (cold_acc, ledger) = cold;
    let warm = fresh_timer();
    run_grid(&warm, &mut CostLedger::new(), &base);
    let warm_acc = run_grid(&warm, &mut CostLedger::new(), &base);
    assert_eq!(
        cold_acc.to_bits(),
        warm_acc.to_bits(),
        "a warm cache must not change search results"
    );
    println!(
        "plan_cache: cold {:.3}s | hits {} misses {} hit-rate {:.1}%",
        cold_secs,
        ledger.cache_hits(),
        ledger.cache_misses(),
        ledger.cache_hit_rate() * 100.0
    );
}
