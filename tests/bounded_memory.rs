//! Gates the bounded-memory promise of the sequential and sharded engines:
//! under mergeable metrics, a fixed fleet below capacity needs working
//! memory sized to the work in flight, not to the trace. Running 4× the
//! requests may not raise the run's peak live heap by more than a small
//! constant.
//!
//! The counting allocator wraps the system allocator and tracks live bytes
//! and their peak **per thread**, so the test-harness helper threads cannot
//! pollute the measured window. A sharded run counts what the calling
//! thread allocates: the merger, shard 0, and every shard's set-up. Both traces are built, and every batch
//! shape both runs price is cached, before the window opens: the trace is
//! the caller's input, and the stage timer's shape cache is capped by its
//! own bound, not by the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vidur::prelude::*;
use vidur::simulator::timing::StageTimer;

struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: TLS may be unavailable during thread teardown; those
    // allocations are not ours to count anyway.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the bookkeeping
// touches only thread-local counters and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's, unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Peak live bytes of this thread while `sim` runs, above the live bytes
/// when the run starts.
fn run_peak(sim: ClusterSimulator) -> (usize, SimulationReport, RunStats) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let (report, stats) = sim.run_with_stats();
    let peak = PEAK.with(Cell::get) - start;
    (peak as usize, report, stats)
}

/// Requests in the smaller run; the larger one replays 4× as many.
const N: usize = 2_000;
/// Allowed growth of the run's peak live heap from `N` to `4 * N`.
const ALLOWANCE_BYTES: usize = 64 * 1024;

/// One llama2-7B A100 replica per `replicas`, Sarathi-Serve, mergeable
/// metrics.
fn mergeable_config(replicas: usize) -> ClusterConfig {
    let mut config = ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        ParallelismConfig::serial(),
        replicas,
        SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 64),
    );
    config.quantile_mode = QuantileMode::Mergeable;
    config
}

/// Replays `N` and `4 * N` Poisson `chat_1m` requests at `qps` through
/// `config` and asserts that the larger run's peak live heap exceeds the
/// smaller one's by at most [`ALLOWANCE_BYTES`], and that both runs used
/// `config.shards` event-loop shards.
fn assert_peak_flat(config: ClusterConfig, source: RuntimeSource, qps: f64) {
    let timer = StageTimer::for_config(&config, source);
    let trace = |n: usize| {
        TraceWorkload::chat_1m().generate(n, &ArrivalProcess::Poisson { qps }, &mut SimRng::new(3))
    };
    let (small, large) = (trace(N), trace(4 * N));
    let sim = |trace: &Trace| {
        ClusterSimulator::with_timer(config.clone(), trace.clone(), timer.clone(), 3)
    };
    // Price every batch shape of both runs before the window opens.
    for t in [&small, &large] {
        sim(t).run();
    }
    let shapes = timer.cached_shapes();

    let (peak_small, report_small, stats_small) = run_peak(sim(&small));
    let (peak_large, report_large, stats_large) = run_peak(sim(&large));
    assert_eq!(
        timer.cached_shapes(),
        shapes,
        "the shape cache grew in the window"
    );
    assert_eq!(report_small.completed, N);
    assert_eq!(report_large.completed, 4 * N);
    for stats in [stats_small, stats_large] {
        assert_eq!(stats.shards, config.shards, "{:?}", stats.fallback_reason);
    }
    println!(
        "peak live bytes above run start ({} shards): {peak_small} at {N}, {peak_large} at {}",
        config.shards,
        4 * N
    );
    assert!(
        peak_large <= peak_small + ALLOWANCE_BYTES,
        "peak live heap grew from {peak_small} B at {N} requests to {peak_large} B at {} \
         (allowance {ALLOWANCE_BYTES} B): some state is sized to the trace",
        4 * N
    );
}

/// The sequential engine: one replica at 3 requests/s, below capacity (p99
/// scheduling delay under a quarter second), so the work in flight stays
/// small.
#[test]
fn mergeable_run_peak_memory_is_flat_in_trace_length() {
    let source = RuntimeSource::Oracle(KernelOracle::new(GpuSku::a100_80g()));
    assert_peak_flat(mergeable_config(1), source, 3.0);
}

/// The sharded engine: four replicas on four shards at the same per-replica
/// load. Estimator runtimes keep the run on the sharded path (oracle jitter
/// forces the sequential fallback); the test fails if a shard keeps state
/// sized to the trace.
#[test]
fn sharded_run_peak_memory_is_flat_in_trace_length() {
    let mut config = mergeable_config(4);
    config.shards = 4;
    let est = vidur::simulator::onboard(
        &config.model,
        &config.parallelism,
        &config.sku,
        EstimatorKind::default(),
    );
    assert_peak_flat(config, RuntimeSource::Estimator((*est).clone()), 12.0);
}

/// Allowed live-heap growth for building, onboarding and cloning the
/// estimator-backed timers of one triple after it was onboarded.
const SHARED_ALLOWANCE_BYTES: isize = 64 * 1024;

/// Estimator clones share the onboarded tables (about 1.1 MB for llama2-7B
/// on one A100), so stage timers and their clones cost a few hundred bytes
/// each, not a private copy of every table.
#[test]
fn estimator_timers_share_the_onboarded_tables() {
    let config = mergeable_config(1);
    let est = vidur::simulator::onboard(
        &config.model,
        &config.parallelism,
        &config.sku,
        EstimatorKind::default(),
    );
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));

    let mut timers: Vec<StageTimer> = (0..8)
        .map(|_| StageTimer::for_config(&config, RuntimeSource::Estimator((*est).clone())))
        .collect();
    for pp in [1, 2] {
        let mut staged = config.clone();
        staged.parallelism = ParallelismConfig::new(1, pp);
        timers.push(vidur::simulator::onboard_timer(
            &staged,
            EstimatorKind::default(),
        ));
    }
    let _clones: Vec<StageTimer> = timers.iter().map(StageTimer::clone).collect();

    let grown = LIVE.with(Cell::get) - start;
    let peak = PEAK.with(Cell::get) - start;
    println!(
        "{} timers and clones: live heap +{grown} B, peak +{peak} B",
        timers.len()
    );
    assert!(
        peak < SHARED_ALLOWANCE_BYTES,
        "building, onboarding and cloning {} timers raised this thread's live heap by up to \
         {peak} B (allowance {SHARED_ALLOWANCE_BYTES} B): timers copy the estimator's tables",
        timers.len()
    );
}
