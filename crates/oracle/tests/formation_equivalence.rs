//! Differential pin: the optimized `ReplicaScheduler` (phase-partitioned
//! intrusive lists, incremental counters, pooled slice buffers) must make
//! byte-identical decisions to the seed's straightforward
//! `ReferenceScheduler` for every policy, request mix, and driver
//! interleaving — including pipeline-style overlap where several batches are
//! in flight before the first completes.

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

    fn add_remote(&mut self, req: Request, decoded: u64) {
        self.fast.add_remote_prefilled(req, decoded);
        self.refr.add_remote_prefilled(req, decoded);
    }

    /// Forms one batch on both schedulers, asserting identical slices.
    fn form(&mut self) -> Option<BatchComposition> {
        let a = self.fast.next_batch();
        let b = self.refr.next_batch();
        assert_eq!(a, b, "batch formation diverged");
        a
    }

    /// Completes a batch on both schedulers, asserting identical events.
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

fn req(id: u64, prefill: u64, decode: u64) -> Request {
    Request::new(id, SimTime::ZERO, prefill.max(1), decode.max(1))
}

/// Drives the pair through a schedule: ops interleave arrivals, batch
/// formation, and (possibly delayed) completions, then drain to empty.
fn drive(
    policy: BatchPolicyKind,
    max_batch: usize,
    blocks: u64,
    requests: &[(u64, u64)],
    ops: &[u8],
    all_remote: bool,
) {
    let mut pair = Pair::new(policy, max_batch, blocks);
    let mut next_req = 0usize;
    let mut inflight: Vec<BatchComposition> = Vec::new();
    // Remote-prefilled and locally-arriving requests are never mixed in one
    // scheduler (matching real drivers: a disaggregated decode pool is
    // all-remote, everything else all-local) — a remote request queued
    // behind a local one would be re-prefilled by the policy admission
    // loops, a state no simulator reaches.
    let add_next = |pair: &mut Pair, next_req: &mut usize| {
        if *next_req < requests.len() {
            let (p, d) = requests[*next_req];
            let id = *next_req as u64;
            if all_remote {
                // Disagg only hands off requests with more tokens to produce
                // (single-token requests finish on the prefill pool).
                pair.add_remote(req(id, p, d.max(2)), 1);
            } else {
                pair.add(req(id, p, d));
            }
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
    // Drain: add the rest, then run to completion.
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
    fn formation_matches_reference(
        policy_idx in 0usize..6,
        max_batch in 1usize..24,
        tight_mem in proptest::bool::ANY,
        requests in proptest::collection::vec((1u64..400, 1u64..30), 1..40),
        ops in proptest::collection::vec(0u8..6, 0..120),
        all_remote in proptest::bool::ANY,
    ) {
        // Tight memory forces preemption churn; ample memory exercises the
        // steady decode path.
        let blocks = if tight_mem { 40 } else { 4000 };
        let r = std::panic::catch_unwind(|| {
            drive(
                POLICIES[policy_idx],
                max_batch,
                blocks,
                &requests,
                &ops,
                all_remote,
            )
        });
        if let Err(payload) = r {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "FAILING CASE ({msg}): policy={policy_idx} max_batch={max_batch} \
                 blocks={blocks} all_remote={all_remote}\nrequests={requests:?}\nops={ops:?}"
            );
        }
    }
}

/// Deterministic long-run pin: a decode-heavy drain on every policy, large
/// enough that any ordering bug in the phase lists would surface.
#[test]
fn long_drain_matches_reference_all_policies() {
    for policy in [
        BatchPolicyKind::Vllm,
        BatchPolicyKind::OrcaPlus,
        BatchPolicyKind::SarathiServe { chunk_size: 512 },
        BatchPolicyKind::FasterTransformer,
        BatchPolicyKind::LightLlm,
    ] {
        let mut pair = Pair::new(policy, 64, 50_000);
        for i in 0..300u64 {
            pair.add(req(i, 100 + (i % 700), 1 + (i % 50)));
        }
        let mut guard = 0;
        while pair.fast.outstanding() > 0 {
            guard += 1;
            assert!(guard < 100_000, "{policy}: no convergence");
            match pair.form() {
                Some(b) => pair.complete(&b),
                None => panic!("{policy}: stuck"),
            }
        }
        pair.assert_state_matches();
        assert_eq!(pair.fast.completed(), 300, "{policy}");
    }
}

/// Preemption-churn pin: tiny KV memory, long decodes — the vLLM recompute
/// path must pick byte-identical victims.
#[test]
fn preemption_churn_matches_reference() {
    let mut pair = Pair::new(BatchPolicyKind::Vllm, 16, 12);
    for i in 0..12u64 {
        pair.add(req(i, 30 + i * 7, 40));
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
    assert!(
        pair.fast.preemptions() > 0,
        "scenario must actually preempt"
    );
}
