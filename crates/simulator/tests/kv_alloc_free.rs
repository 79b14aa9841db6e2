//! Pins the constant-size state of the metrics collector: once each
//! replica has been sampled (and, with the time series armed, once the
//! current window has been touched), `on_kv_sample` must not touch the
//! heap, however many batches the run launches; and a Mergeable collector
//! streams requests with ever-larger ids without touching it either.
//!
//! The counting allocator wraps the system allocator and counts **per
//! thread**, so the test-harness helper threads cannot pollute the
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vidur_core::metrics::QuantileMode;
use vidur_core::time::{SimDuration, SimTime};
use vidur_model::batch::{BatchComposition, RequestSlice};
use vidur_scheduler::replica::CompletionEvent;
use vidur_simulator::{MetricsCollector, TimeseriesConfig};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: TLS may be unavailable during thread teardown; those
    // allocations are not ours to count anyway.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

const REPLICAS: usize = 4;

/// Samples the replicas round-robin, `n` calls one microsecond apart from
/// `start_us`; returns the next free microsecond.
fn sample(m: &mut MetricsCollector, start_us: u64, n: u64) -> u64 {
    for k in 0..n {
        let at = SimTime::from_nanos((start_us + k) * 1_000);
        m.on_kv_sample((k % REPLICAS as u64) as usize, at, (k % 97) as f64 / 97.0);
    }
    start_us + n
}

/// Warms the collector up, then asserts that 100k samples allocate
/// nothing.
fn assert_steady_state_allocation_free(label: &str, mut m: MetricsCollector) {
    // Warm-up: the first samples of every replica and, when armed, segments
    // in the current window (the first millisecond of a one-minute window).
    let next = sample(&mut m, 0, 1_000);
    let before = allocations();
    sample(&mut m, next, 100_000);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "{label}: {delta} heap allocations in 100k KV samples"
    );
}

#[test]
fn kv_samples_are_allocation_free_unarmed() {
    for mode in [QuantileMode::Exact, QuantileMode::Mergeable] {
        let m = MetricsCollector::with_mode(REPLICAS, mode);
        assert_steady_state_allocation_free(&format!("{mode:?}"), m);
    }
}

#[test]
fn kv_samples_are_allocation_free_within_touched_windows() {
    for mode in [QuantileMode::Exact, QuantileMode::Mergeable] {
        let mut m = MetricsCollector::with_mode(REPLICAS, mode);
        m.set_timeseries(TimeseriesConfig::per_minute());
        assert_steady_state_allocation_free(&format!("{mode:?}, armed"), m);
    }
}

/// Streams `n` requests with increasing ids through a Mergeable collector,
/// four in flight: each step one request arrives and prefills, three decode
/// and the oldest finishes. `buffers` holds the reused batch slices and
/// completion events. Returns the next free id.
fn stream_requests(
    m: &mut MetricsCollector,
    buffers: &mut (Vec<RequestSlice>, Vec<CompletionEvent>),
    start: u64,
    n: u64,
) -> u64 {
    let (slices, events) = buffers;
    for id in start..start + n {
        let now = SimTime::from_nanos(id * 1_000_000);
        m.on_arrival(id, now, 4, 0);
        slices.push(RequestSlice::prefill(id, 100, 0));
        events.push(CompletionEvent {
            id,
            prefill_completed: true,
            produced_token: true,
            finished: false,
        });
        for age in 1..4.min(id + 1) {
            slices.push(RequestSlice::decode(id - age, 100 + age));
            events.push(CompletionEvent {
                id: id - age,
                prefill_completed: false,
                produced_token: true,
                finished: age == 3,
            });
        }
        let batch = BatchComposition::new(std::mem::take(slices));
        m.on_batch_scheduled(0, now, &batch, 1.0, 1.0);
        m.on_batch_complete(0, now + SimDuration::from_nanos(500_000), events);
        *slices = batch.into_slices();
        slices.clear();
        events.clear();
    }
    start + n
}

/// Mergeable per-request state spans only the requests in flight, and its
/// latency digests compress in place: after warm-up, 100k requests with
/// ever-larger ids arrive, schedule and complete without touching the heap.
#[test]
fn mergeable_request_stream_is_allocation_free() {
    let mut m = MetricsCollector::with_mode(REPLICAS, QuantileMode::Mergeable);
    let mut buffers = (Vec::new(), Vec::new());
    let next = stream_requests(&mut m, &mut buffers, 0, 20_000);
    let before = allocations();
    stream_requests(&mut m, &mut buffers, next, 100_000);
    let delta = allocations() - before;
    assert_eq!(delta, 0, "{delta} heap allocations streaming 100k requests");
    assert_eq!(m.completed(), 119_997);
}
