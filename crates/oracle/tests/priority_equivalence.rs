//! Differential pin for the multi-tenant priority extension: the optimized
//! `ReplicaScheduler`'s tiered admission (strict priority classes, FIFO
//! within a class) and priority-aware preemption must make byte-identical
//! decisions to the priority-extended `ReferenceScheduler` for every
//! policy, tenant/priority mix, and driver interleaving — including
//! preemption churn under tight KV memory and pipeline-style overlap.
//! Mirrors `formation_equivalence.rs`, which pins the single-priority path.

use proptest::prelude::*;
use vidur_core::time::SimTime;
use vidur_model::batch::BatchComposition;
use vidur_oracle::ReferenceScheduler;
use vidur_scheduler::{BatchPolicyKind, ReplicaScheduler, Request, SchedulerConfig};

const POLICIES: [BatchPolicyKind; 6] = [
    BatchPolicyKind::Vllm,
    BatchPolicyKind::OrcaPlus,
    BatchPolicyKind::SarathiServe { chunk_size: 128 },
    BatchPolicyKind::SarathiServe { chunk_size: 512 },
    BatchPolicyKind::FasterTransformer,
    BatchPolicyKind::LightLlm,
];

struct Pair {
    fast: ReplicaScheduler,
    refr: ReferenceScheduler,
}

impl Pair {
    fn new(policy: BatchPolicyKind, max_batch: usize, blocks: u64) -> Self {
        let config = SchedulerConfig::new(policy, max_batch);
        Pair {
            fast: ReplicaScheduler::new(config, blocks, 16),
            refr: ReferenceScheduler::new(config, blocks, 16),
        }
    }

    fn add(&mut self, req: Request) {
        self.fast.add_request(req);
        self.refr.add_request(req);
    }

    fn form(&mut self) -> Option<BatchComposition> {
        let a = self.fast.next_batch();
        let b = self.refr.next_batch();
        assert_eq!(a, b, "batch formation diverged");
        a
    }

    fn complete(&mut self, batch: &BatchComposition) {
        let a = self.fast.complete_batch(batch);
        let b = self.refr.complete_batch(batch);
        assert_eq!(a, b, "completion events diverged");
    }

    fn assert_state_matches(&self) {
        assert_eq!(self.fast.num_waiting(), self.refr.num_waiting());
        assert_eq!(self.fast.num_running(), self.refr.num_running());
        assert_eq!(self.fast.preemptions(), self.refr.preemptions());
        assert_eq!(self.fast.completed(), self.refr.completed());
        assert_eq!(
            self.fast.blocks().used_blocks(),
            self.refr.blocks().used_blocks()
        );
        assert_eq!(
            self.fast.blocks().num_holders(),
            self.refr.blocks().num_holders()
        );
    }
}

/// `(prefill, decode, tenant, priority)` request tuples.
type Mix = (u64, u64, u32, u8);

fn req(id: u64, mix: Mix) -> Request {
    let (p, d, tenant, priority) = mix;
    Request::new(id, SimTime::ZERO, p.max(1), d.max(1))
        .with_tenant(tenant)
        .with_priority(priority)
}

/// Drives the pair through a schedule: ops interleave arrivals, batch
/// formation, and (possibly delayed) completions, then drain to empty.
fn drive(policy: BatchPolicyKind, max_batch: usize, blocks: u64, requests: &[Mix], ops: &[u8]) {
    let mut pair = Pair::new(policy, max_batch, blocks);
    let mut next_req = 0usize;
    let mut inflight: Vec<BatchComposition> = Vec::new();
    let add_next = |pair: &mut Pair, next_req: &mut usize| {
        if *next_req < requests.len() {
            pair.add(req(*next_req as u64, requests[*next_req]));
            *next_req += 1;
        }
    };
    for &op in ops {
        match op % 6 {
            0 | 1 => add_next(&mut pair, &mut next_req),
            2 | 3 => {
                // Allow up to 3 overlapping batches (pipeline parallelism).
                if inflight.len() < 3 {
                    if let Some(b) = pair.form() {
                        inflight.push(b);
                    }
                } else if let Some(b) = inflight.first().cloned() {
                    inflight.remove(0);
                    pair.complete(&b);
                }
            }
            _ => {
                if !inflight.is_empty() {
                    let b = inflight.remove(0);
                    pair.complete(&b);
                }
            }
        }
        pair.assert_state_matches();
    }
    while next_req < requests.len() {
        add_next(&mut pair, &mut next_req);
    }
    for b in inflight.drain(..) {
        pair.complete(&b);
    }
    let mut guard = 0;
    while pair.fast.outstanding() > 0 {
        guard += 1;
        assert!(guard < 200_000, "no convergence");
        match pair.form() {
            Some(b) => pair.complete(&b),
            None => panic!("stuck: outstanding but no batch forms"),
        }
        pair.assert_state_matches();
    }
    assert_eq!(pair.refr.outstanding(), 0);
    assert_eq!(pair.fast.blocks().used_blocks(), 0);
    pair.assert_state_matches();
}

proptest! {
    #[test]
    fn priority_formation_matches_reference(
        policy_idx in 0usize..6,
        max_batch in 1usize..24,
        tight_mem in proptest::bool::ANY,
        requests in proptest::collection::vec(
            (1u64..400, 1u64..30, 0u32..4, 0u8..4), 1..40),
        ops in proptest::collection::vec(0u8..6, 0..120),
    ) {
        // Tight memory forces priority-aware preemption churn; ample memory
        // exercises tiered admission on the steady decode path.
        let blocks = if tight_mem { 40 } else { 4000 };
        let r = std::panic::catch_unwind(|| {
            drive(POLICIES[policy_idx], max_batch, blocks, &requests, &ops)
        });
        if let Err(payload) = r {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "FAILING CASE ({msg}): policy={policy_idx} max_batch={max_batch} \
                 blocks={blocks}\nrequests={requests:?}\nops={ops:?}"
            );
        }
    }
}

/// Deterministic preemption-churn pin: tiny KV memory, long decodes, three
/// interleaved priority classes — the priority-aware victim walk (full
/// merged scan in the optimized scheduler vs the naive `max_by_key` in the
/// reference) must pick byte-identical victims throughout.
#[test]
fn priority_churn_matches_reference() {
    for policy in [
        BatchPolicyKind::Vllm,
        BatchPolicyKind::OrcaPlus,
        BatchPolicyKind::SarathiServe { chunk_size: 256 },
        BatchPolicyKind::LightLlm,
    ] {
        let mut pair = Pair::new(policy, 16, 14);
        for i in 0..15u64 {
            pair.add(req(i, (25 + i * 7, 40, (i % 3) as u32, (i % 3) as u8)));
        }
        let mut guard = 0;
        while pair.fast.outstanding() > 0 {
            guard += 1;
            assert!(guard < 100_000, "{policy}: no convergence");
            match pair.form() {
                Some(b) => pair.complete(&b),
                None => panic!("{policy}: stuck"),
            }
            pair.assert_state_matches();
        }
        assert_eq!(pair.fast.completed(), 15, "{policy}");
    }
    // At least the vLLM run must actually churn for this pin to mean
    // anything; re-run it standalone and check.
    let mut pair = Pair::new(BatchPolicyKind::Vllm, 16, 14);
    for i in 0..15u64 {
        pair.add(req(i, (25 + i * 7, 40, (i % 3) as u32, (i % 3) as u8)));
    }
    let mut guard = 0;
    while pair.fast.outstanding() > 0 {
        guard += 1;
        assert!(guard < 100_000);
        if let Some(b) = pair.form() {
            pair.complete(&b);
        }
    }
    assert!(
        pair.fast.preemptions() > 0,
        "scenario must actually preempt"
    );
}

/// Mid-run priority flips: a stream that starts uniform-priority (the fast
/// FIFO path) and then receives prioritized arrivals must stay in lockstep
/// across the latch-over.
#[test]
fn late_priority_arrivals_match_reference() {
    let mut pair = Pair::new(BatchPolicyKind::SarathiServe { chunk_size: 128 }, 8, 200);
    for i in 0..6u64 {
        pair.add(req(i, (100 + i * 31, 12, 0, 0)));
    }
    for _ in 0..4 {
        if let Some(b) = pair.form() {
            pair.complete(&b);
        }
        pair.assert_state_matches();
    }
    // Now urgent and bulk classes arrive mid-run.
    for i in 6..14u64 {
        pair.add(req(
            i,
            (
                80 + i * 17,
                8,
                (i % 2) as u32,
                if i % 2 == 0 { 0 } else { 3 },
            ),
        ));
    }
    let mut guard = 0;
    while pair.fast.outstanding() > 0 {
        guard += 1;
        assert!(guard < 100_000, "no convergence");
        match pair.form() {
            Some(b) => pair.complete(&b),
            None => panic!("stuck"),
        }
        pair.assert_state_matches();
    }
    assert_eq!(pair.fast.completed(), 14);
}
