//! Pins the allocation-free steady state of the batch-formation hot loop:
//! once scratch buffers and the slice pool have warmed up, a
//! `next_batch` / `complete_batch_into` / `recycle_batch` cycle must not
//! touch the heap.
//!
//! The counting allocator wraps the system allocator and counts **per
//! thread**, so the test-harness helper threads (output capture, the
//! main-thread waiter) cannot pollute the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vidur_core::time::SimTime;
use vidur_scheduler::replica::CompletionEvent;
use vidur_scheduler::{
    BatchPolicyKind, GlobalPolicyKind, ReplicaScheduler, Request, RouteRequest, RoutingTier,
    SchedulerConfig,
};

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

/// One decode iteration over every policy's steady state allocates nothing.
#[test]
fn steady_state_decode_loop_is_allocation_free() {
    for policy in [
        BatchPolicyKind::Vllm,
        BatchPolicyKind::OrcaPlus,
        BatchPolicyKind::SarathiServe { chunk_size: 512 },
        BatchPolicyKind::FasterTransformer,
        BatchPolicyKind::LightLlm,
    ] {
        let mut s = ReplicaScheduler::new(SchedulerConfig::new(policy, 64), 100_000, 16);
        // Long decodes keep every request in the decode phase for the whole
        // measured window (finishing would hit slab/bookkeeping paths that
        // only matter at request exit).
        for i in 0..64u64 {
            s.add_request(Request::new(i, SimTime::ZERO, 64 + i, 5_000));
        }
        let mut events = Vec::new();
        // Warm-up: admissions, prefills, first decode rounds. This grows the
        // scratch buffers, the slice pool, and the event buffer to steady
        // capacity.
        for _ in 0..80 {
            let Some(batch) = s.next_batch() else { break };
            s.complete_batch_into(&batch, &mut events);
            s.recycle_batch(batch);
        }
        // Measured window: pure decode iterations.
        let before = allocations();
        for _ in 0..200 {
            let batch = s.next_batch().expect("decode batch");
            assert!(
                batch.slices().iter().all(|sl| !sl.is_prefill),
                "{policy}: warm-up must reach the decode phase"
            );
            s.complete_batch_into(&batch, &mut events);
            s.recycle_batch(batch);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "{policy}: {delta} heap allocations in 200 steady-state iterations"
        );
    }
}

/// The steady-state routing path is allocation-free: once the tier's view,
/// stats table, and deferred ring have warmed up, a
/// `route` / `on_finished` / `next_ready` cycle must not touch the heap —
/// the tier's incrementally-maintained view replaced the seed's
/// per-arrival outstanding-`Vec` rebuild, and this pins it.
#[test]
fn steady_state_routing_is_allocation_free() {
    for kind in [
        GlobalPolicyKind::RoundRobin,
        GlobalPolicyKind::LeastOutstanding,
        GlobalPolicyKind::Random,
        GlobalPolicyKind::Deferred { max_outstanding: 3 },
        GlobalPolicyKind::PriorityAware { max_outstanding: 3 },
        GlobalPolicyKind::FairShare { max_outstanding: 3 },
        GlobalPolicyKind::Affinity { spill_margin: 2 },
    ] {
        let mut tier = RoutingTier::new(kind, 4, 7, &[2.0, 1.0, 1.0, 1.0]);
        let req = |key: u64| RouteRequest {
            key,
            tenant: (key % 4) as u32,
            priority: (key % 3) as u8,
            tokens: 100 + key % 50,
        };
        // Warm-up: grow the tenant tables and the deferred ring past their
        // steady sizes (deferring policies hold up to ~8 entries here).
        let mut key = 0u64;
        let mut inflight: Vec<(usize, u32, u64)> = Vec::with_capacity(64);
        let pump =
            |tier: &mut RoutingTier, key: &mut u64, inflight: &mut Vec<(usize, u32, u64)>| {
                for _ in 0..4 {
                    let r = req(*key);
                    *key += 1;
                    if let Some(target) = tier.route(r) {
                        inflight.push((target, r.tenant, r.tokens));
                    }
                }
                while inflight.len() > 8 {
                    let (replica, tenant, tokens) = inflight.remove(0);
                    tier.on_finished(replica, tenant, tokens);
                    while let Some((r, target)) = tier.next_ready() {
                        inflight.push((target, r.tenant, r.tokens));
                    }
                }
            };
        for _ in 0..50 {
            pump(&mut tier, &mut key, &mut inflight);
        }
        // Measured window: pure route/finish/drain cycles.
        let before = allocations();
        for _ in 0..200 {
            pump(&mut tier, &mut key, &mut inflight);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "{kind}: {delta} heap allocations in 200 steady-state routing cycles"
        );
    }
}

/// Streams `requests` fresh requests with increasing ids through one
/// replica, keeping at most 48 outstanding: admission, batches and
/// completion. Prefixed requests share one of three cached prefixes.
fn stream(
    s: &mut ReplicaScheduler,
    events: &mut Vec<CompletionEvent>,
    next_id: &mut u64,
    requests: u64,
    prefixed: bool,
) {
    let end = *next_id + requests;
    while *next_id < end || s.outstanding() > 0 {
        while *next_id < end && s.outstanding() < 48 {
            let id = *next_id;
            let mut req = Request::new(id, SimTime::ZERO, 96 + id % 64, 1 + id % 7);
            if prefixed {
                req = req.with_prefix(id % 3, 64);
            }
            s.add_request(req);
            *next_id += 1;
        }
        let batch = s.next_batch().expect("outstanding work forms a batch");
        s.complete_batch_into(&batch, events);
        s.recycle_batch(batch);
    }
}

/// Per-request state is sized to the work in flight, not to the largest
/// id: after warm-up, 100k requests with ever-larger ids stream through
/// admission, batches and completion without touching the heap, with the
/// prefix cache disarmed and armed.
#[test]
fn streaming_requests_is_allocation_free() {
    for prefixed in [false, true] {
        let mut s = ReplicaScheduler::new(
            SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 32),
            100_000,
            16,
        );
        if prefixed {
            s.arm_prefix_cache();
        }
        let (mut events, mut next_id) = (Vec::new(), 0);
        stream(&mut s, &mut events, &mut next_id, 5_000, prefixed);
        let before = allocations();
        stream(&mut s, &mut events, &mut next_id, 100_000, prefixed);
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "prefixed={prefixed}: {delta} heap allocations streaming 100k requests"
        );
        assert_eq!(s.completed(), 105_000);
        if prefixed {
            assert!(s.prefix_hit_requests() > 0, "shared prefixes must hit");
        }
    }
}
