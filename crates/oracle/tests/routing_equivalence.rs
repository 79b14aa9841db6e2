//! Differential pin: the [`RoutingTier`] re-expression of the four seed
//! routing policies must make **byte-identical decisions** to the legacy
//! [`GlobalPolicy`] spec router, for every policy, replica count, and
//! arrival/completion interleaving — including the deferred-queue drain
//! order the cluster simulator used to hand-roll.
//!
//! The legacy side of the harness replays exactly what the pre-tier
//! `ClusterSimulator` did: rebuild an outstanding vector per arrival, call
//! `try_route`, push deferrals into a FIFO, and re-offer the queue front
//! after every completion.

use proptest::prelude::*;
use std::collections::VecDeque;
use vidur_oracle::GlobalPolicy;
use vidur_scheduler::{GlobalPolicyKind, RouteRequest, RoutingTier};

const LEGACY_POLICIES: [GlobalPolicyKind; 4] = [
    GlobalPolicyKind::RoundRobin,
    GlobalPolicyKind::LeastOutstanding,
    GlobalPolicyKind::Random,
    GlobalPolicyKind::Deferred { max_outstanding: 3 },
];

/// One dispatched request awaiting completion.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    tenant: u32,
    tokens: u64,
}

/// The seed's routing layer, verbatim: a stateless-per-call spec router, an
/// explicit outstanding vector, and a FIFO deferred queue drained after
/// completions.
struct LegacyTier {
    router: GlobalPolicy,
    outstanding: Vec<usize>,
    deferred: VecDeque<RouteRequest>,
}

impl LegacyTier {
    fn new(kind: GlobalPolicyKind, replicas: usize, seed: u64) -> Self {
        LegacyTier {
            router: GlobalPolicy::new(kind, replicas, seed),
            outstanding: vec![0; replicas],
            deferred: VecDeque::new(),
        }
    }

    fn route(&mut self, req: RouteRequest) -> Option<usize> {
        match self.router.try_route(&self.outstanding) {
            Some(target) => {
                self.outstanding[target] += 1;
                Some(target)
            }
            None => {
                self.deferred.push_back(req);
                None
            }
        }
    }

    fn on_finished(&mut self, replica: usize) {
        self.outstanding[replica] -= 1;
    }

    fn drain(&mut self) -> Vec<(u64, usize)> {
        let mut bound = Vec::new();
        while let Some(&front) = self.deferred.front() {
            match self.router.try_route(&self.outstanding) {
                Some(target) => {
                    self.deferred.pop_front();
                    self.outstanding[target] += 1;
                    bound.push((front.key, target));
                }
                None => break,
            }
        }
        bound
    }
}

/// Drives both tiers through the same arrival/completion schedule, asserting
/// every placement, deferral, and drain decision matches.
fn drive(
    kind: GlobalPolicyKind,
    replicas: usize,
    seed: u64,
    requests: &[(u32, u8, u64)],
    ops: &[u8],
) {
    let mut legacy = LegacyTier::new(kind, replicas, seed);
    let mut tier = RoutingTier::new(kind, replicas, seed, &[]);
    let mut queues: Vec<VecDeque<Inflight>> = vec![VecDeque::new(); replicas];
    let mut next_req = 0usize;

    let arrive = |legacy: &mut LegacyTier,
                  tier: &mut RoutingTier,
                  queues: &mut Vec<VecDeque<Inflight>>,
                  next_req: &mut usize| {
        if *next_req >= requests.len() {
            return;
        }
        let (tenant, priority, tokens) = requests[*next_req];
        let req = RouteRequest {
            key: *next_req as u64,
            tenant,
            priority,
            tokens,
        };
        *next_req += 1;
        let a = legacy.route(req);
        let b = tier.route(req);
        assert_eq!(a, b, "placement diverged for request {req:?}");
        if let Some(target) = a {
            queues[target].push_back(Inflight { tenant, tokens });
        }
    };

    for &op in ops {
        if op < 6 {
            arrive(&mut legacy, &mut tier, &mut queues, &mut next_req);
        } else {
            // Completion: first nonempty replica queue scanning from the
            // op-selected index (same deterministic driver on both sides).
            let start = (op as usize - 6) % replicas;
            let Some(r) = (0..replicas)
                .map(|i| (start + i) % replicas)
                .find(|&r| !queues[r].is_empty())
            else {
                continue;
            };
            let done = queues[r].pop_front().expect("nonempty");
            legacy.on_finished(r);
            tier.on_finished(r, done.tenant, done.tokens);
            let expect = legacy.drain();
            let mut got = Vec::new();
            while let Some((req, target)) = tier.next_ready() {
                got.push((req.key, target));
                queues[target].push_back(Inflight {
                    tenant: req.tenant,
                    tokens: req.tokens,
                });
            }
            assert_eq!(expect, got, "deferred drain diverged");
        }
        // The incremental view must always mirror the legacy vector.
        for r in 0..replicas {
            assert_eq!(
                tier.view().outstanding(r),
                legacy.outstanding[r],
                "outstanding count diverged on replica {r}"
            );
        }
        assert_eq!(tier.deferred_len(), legacy.deferred.len());
    }
}

proptest! {
    #[test]
    fn tier_matches_legacy_global_policy(
        policy_idx in 0usize..4,
        replicas in 1usize..6,
        seed in 0u64..1_000,
        requests in proptest::collection::vec((0u32..4, 0u8..4, 1u64..500), 1..60),
        ops in proptest::collection::vec(0u8..12, 0..240),
    ) {
        let r = std::panic::catch_unwind(|| {
            drive(LEGACY_POLICIES[policy_idx], replicas, seed, &requests, &ops)
        });
        if let Err(payload) = r {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "FAILING CASE ({msg}): policy={policy_idx} replicas={replicas} \
                 seed={seed}\nrequests={requests:?}\nops={ops:?}"
            );
        }
    }
}

/// Deterministic pin: a `multi_tenant_burst`-shaped schedule — four tenants
/// with interleaved priority classes, bursty arrivals, and staggered
/// completions — routes identically through the legacy router and the tier
/// for every seed policy. Complements the bit-exact simulator fingerprints
/// in `tests/engine_regression.rs` at the routing layer itself.
#[test]
fn multi_tenant_burst_schedule_routes_identically() {
    // 4 tenants × 4 priority classes; arrival bursts of 5 then 2
    // completions, over 3 replicas (the bench scenario's shape).
    let requests: Vec<(u32, u8, u64)> = (0..160u64)
        .map(|i| ((i % 4) as u32, (i % 4) as u8, 60 + (i * 131) % 200))
        .collect();
    let mut ops = Vec::new();
    for round in 0..40u8 {
        ops.extend(std::iter::repeat_n(0, 5)); // arrivals
        ops.push(6 + (round % 3)); // two completions, rotating replicas
        ops.push(6 + ((round + 1) % 3));
    }
    for kind in LEGACY_POLICIES {
        drive(kind, 3, 17, &requests, &ops);
    }
    // A deferring config tight enough that the burst actually defers.
    drive(
        GlobalPolicyKind::Deferred { max_outstanding: 2 },
        3,
        17,
        &requests,
        &ops,
    );
}

/// The legacy-policy arm of the tier and the spec router agree on the
/// `Display`-visible configuration too (guards the search-label seam).
#[test]
fn tier_reports_its_kind() {
    for kind in LEGACY_POLICIES {
        let tier = RoutingTier::new(kind, 2, 0, &[]);
        assert_eq!(tier.kind(), kind);
    }
}

/// The random policy draws the exact replica stream the spec router draws
/// from the same seed.
#[test]
fn random_matches_legacy_stream() {
    let mut legacy = GlobalPolicy::new(GlobalPolicyKind::Random, 4, 9);
    let mut tier = RoutingTier::new(GlobalPolicyKind::Random, 4, 9, &[]);
    for i in 0..64 {
        let req = RouteRequest {
            key: i,
            tenant: 0,
            priority: 0,
            tokens: 1,
        };
        assert_eq!(Some(legacy.route(&[0; 4])), tier.route(req));
    }
}
