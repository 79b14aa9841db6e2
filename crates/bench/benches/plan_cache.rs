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
//! Before the search, the bench prints the cold onboarding time (profile +
//! train) per (model, TP, SKU) triple over llama2-7B on A100 and H100 at
//! TP1/2/4, and gates forest compilation: the in-process ratio of
//! per-point `RandomForest::predict` over the one-sweep
//! `RandomForest::predict_ascending`, best of 3 each, alternated, must be
//! at least [`MIN_SWEEP_SPEEDUP`]. A ratio measured in one process resists
//! host noise that would swamp an absolute time.
//!
//! Run with `cargo bench -p vidur-bench --bench plan_cache`.

use std::time::Instant;
use vidur_core::rng::SimRng;
use vidur_estimator::{EstimatorKind, ForestConfig, RandomForest};
use vidur_hardware::{GpuSku, KernelOracle};
use vidur_model::{ModelSpec, ParallelismConfig};
use vidur_profiler::{ProfileCollector, ProfilingPlan};
use vidur_scheduler::{BatchPolicyKind, SchedulerConfig};
use vidur_search::{find_capacity_with_timer, CapacityParams, CostLedger};
use vidur_simulator::cluster::RuntimeSource;
use vidur_simulator::onboarding::clear_cache;
use vidur_simulator::{onboard, ClusterConfig, StageTimer};
use vidur_workload::{ArrivalProcess, Trace, TraceWorkload};

/// Floor on the per-point ÷ sweep forest-compile time ratio.
const MIN_SWEEP_SPEEDUP: f64 = 3.0;

/// Mean cold onboarding time per triple, in seconds, and the triple count.
fn cold_onboarding_secs() -> (f64, usize) {
    let model = ModelSpec::llama2_7b();
    let mut total = 0.0;
    let mut triples = 0;
    for sku in [GpuSku::a100_80g(), GpuSku::h100_80g()] {
        for tp in [1, 2, 4] {
            clear_cache();
            let started = Instant::now();
            onboard(
                &model,
                &ParallelismConfig::new(tp, 1),
                &sku,
                EstimatorKind::default(),
            );
            total += started.elapsed().as_secs_f64();
            triples += 1;
        }
    }
    clear_cache();
    (total / triples as f64, triples)
}

/// Best-of-3 seconds to compile `forests` on their grids per point and by
/// sweep, the two alternated; asserts the two give the same bits.
fn compile_secs(forests: &[(RandomForest, Vec<f64>)]) -> (f64, f64) {
    let (mut per_point, mut sweep) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let started = Instant::now();
        let slow: Vec<Vec<f64>> = forests
            .iter()
            .map(|(f, grid)| grid.iter().map(|&x| f.predict(x)).collect())
            .collect();
        per_point = per_point.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let fast: Vec<Vec<f64>> = forests
            .iter()
            .map(|(f, grid)| f.predict_ascending(grid))
            .collect();
        sweep = sweep.min(started.elapsed().as_secs_f64());
        let bits =
            |v: &[Vec<f64>]| -> Vec<u64> { v.iter().flatten().map(|y| y.to_bits()).collect() };
        assert_eq!(
            bits(&slow),
            bits(&fast),
            "sweep must match per-point predict"
        );
    }
    (per_point, sweep)
}

/// One forest per operator of llama2-7B TP1 on A100, each with a
/// 4,097-point grid spanning its profiled range.
fn profiled_forests() -> Vec<(RandomForest, Vec<f64>)> {
    let plan = ProfilingPlan::for_model(&ModelSpec::llama2_7b(), &ParallelismConfig::serial());
    let table = ProfileCollector::new(KernelOracle::new(GpuSku::a100_80g()))
        .collect(&plan, &mut SimRng::new(1));
    let mut rng = SimRng::new(2);
    table
        .operators()
        .map(|op| {
            let pts = table.points_for(op);
            let xs: Vec<f64> = pts.iter().map(|p| p.feature).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.mean_time).collect();
            let forest = RandomForest::fit(&xs, &ys, ForestConfig::default(), &mut rng);
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let grid = (0..=4096)
                .map(|i| lo + (hi - lo) * i as f64 / 4096.0)
                .collect();
            (forest, grid)
        })
        .collect()
}

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
    let (onboard_secs, triples) = cold_onboarding_secs();
    println!(
        "onboarding: cold {:.1} ms per triple (mean of {triples} llama2-7B triples)",
        onboard_secs * 1e3
    );
    let (per_point, sweep) = compile_secs(&profiled_forests());
    let speedup = per_point / sweep;
    println!(
        "forest compile: per-point {:.2} ms | sweep {:.2} ms | {speedup:.1}x (floor {MIN_SWEEP_SPEEDUP}x)",
        per_point * 1e3,
        sweep * 1e3
    );
    if speedup < MIN_SWEEP_SPEEDUP {
        eprintln!("FAIL: forest sweep {speedup:.2}x is below the {MIN_SWEEP_SPEEDUP}x floor");
        std::process::exit(1);
    }

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
