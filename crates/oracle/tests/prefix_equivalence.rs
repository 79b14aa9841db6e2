//! Differential pin for the prefix-cache tier (ISSUE 9).
//!
//! Three guarantees, each proptest-driven:
//!
//! 1. **Arming is free when nothing shares.** A scheduler with the prefix
//!    cache armed but fed only prefix-free requests makes byte-identical
//!    decisions to a disarmed one, across every batch policy and driver
//!    interleaving — and its prefix counters stay at zero.
//! 2. **The fast scheduler matches the reference on prefixed streams.**
//!    Requests carrying shared prefixes drive `ReplicaScheduler` and
//!    `ReferenceScheduler` in lockstep: identical batches, completion
//!    events, preemption/completion counters, block accounting, and
//!    prefix-hit/tokens-saved statistics (including per-tenant splits).
//! 3. **The prefix tier never corrupts block accounting.** Random
//!    admit/grow/release/evict interleavings on the raw `BlockManager`
//!    never free a referenced prefix block, never leak, and always
//!    conserve `held + cached == used ≤ total`.

use proptest::prelude::*;
use vidur_core::time::SimTime;
use vidur_model::batch::BatchComposition;
use vidur_oracle::ReferenceScheduler;
use vidur_scheduler::{
    BatchPolicyKind, BlockManager, KvHolding, ReplicaScheduler, Request, SchedulerConfig, NO_PREFIX,
};

const POLICIES: [BatchPolicyKind; 6] = [
    BatchPolicyKind::Vllm,
    BatchPolicyKind::OrcaPlus,
    BatchPolicyKind::SarathiServe { chunk_size: 128 },
    BatchPolicyKind::SarathiServe { chunk_size: 512 },
    BatchPolicyKind::FasterTransformer,
    BatchPolicyKind::LightLlm,
];

/// A generated request: prefill, decode, tenant, and an optional prefix
/// drawn from a small universe (`prefix_choice >= NUM_PREFIXES` = none;
/// `len_pct` scales the declared prefix length within the prompt).
type GenReq = (u64, u64, u32, u8, u8);

const NUM_PREFIXES: u8 = 3;

fn materialize(id: u64, (prefill, decode, tenant, prefix_choice, len_pct): GenReq) -> Request {
    let prefill = prefill.max(1);
    let mut req = Request::new(id, SimTime::ZERO, prefill, decode.max(1)).with_tenant(tenant);
    if prefix_choice < NUM_PREFIXES {
        // Prefixes model shared system prompts: every request carrying the
        // same id declares the same leading-token count, clamped into its
        // own prompt as the trace reader does.
        let declared = 16 + prefix_choice as u64 * 48;
        let len = (declared * (1 + len_pct as u64 % 4) / 4).clamp(1, prefill);
        req = req.with_prefix(prefix_choice as u64, len);
    }
    req
}

/// Four schedulers in lockstep: the fast and reference implementations,
/// each armed and disarmed. Used by the zero-share pin, where all four
/// must agree byte-for-byte.
struct Quad {
    fast_armed: ReplicaScheduler,
    fast_plain: ReplicaScheduler,
    ref_armed: ReferenceScheduler,
    ref_plain: ReferenceScheduler,
}

impl Quad {
    fn new(policy: BatchPolicyKind, max_batch: usize, blocks: u64) -> Self {
        let config = SchedulerConfig::new(policy, max_batch);
        let mut fast_armed = ReplicaScheduler::new(config, blocks, 16);
        let mut ref_armed = ReferenceScheduler::new(config, blocks, 16);
        fast_armed.arm_prefix_cache();
        ref_armed.arm_prefix_cache();
        Quad {
            fast_armed,
            fast_plain: ReplicaScheduler::new(config, blocks, 16),
            ref_armed,
            ref_plain: ReferenceScheduler::new(config, blocks, 16),
        }
    }

    fn add(&mut self, req: Request) {
        self.fast_armed.add_request(req);
        self.fast_plain.add_request(req);
        self.ref_armed.add_request(req);
        self.ref_plain.add_request(req);
    }

    fn form(&mut self) -> Option<BatchComposition> {
        let a = self.fast_armed.next_batch();
        let b = self.fast_plain.next_batch();
        let c = self.ref_armed.next_batch();
        let d = self.ref_plain.next_batch();
        assert_eq!(a, b, "arming the cache changed fast-path formation");
        assert_eq!(a, c, "fast diverged from armed reference");
        assert_eq!(a, d, "fast diverged from plain reference");
        a
    }

    fn complete(&mut self, batch: &BatchComposition) {
        let a = self.fast_armed.complete_batch(batch);
        let b = self.fast_plain.complete_batch(batch);
        let c = self.ref_armed.complete_batch(batch);
        let d = self.ref_plain.complete_batch(batch);
        assert_eq!(a, b, "arming the cache changed completion events");
        assert_eq!(a, c, "fast completions diverged from armed reference");
        assert_eq!(a, d, "fast completions diverged from plain reference");
    }

    fn assert_state_matches(&self) {
        let f = &self.fast_armed;
        assert_eq!(f.num_waiting(), self.fast_plain.num_waiting());
        assert_eq!(f.num_running(), self.fast_plain.num_running());
        assert_eq!(f.preemptions(), self.fast_plain.preemptions());
        assert_eq!(f.completed(), self.fast_plain.completed());
        assert_eq!(
            f.blocks().used_blocks(),
            self.fast_plain.blocks().used_blocks()
        );
        assert_eq!(
            f.blocks().used_blocks(),
            self.ref_armed.blocks().used_blocks()
        );
        assert_eq!(
            f.blocks().used_blocks(),
            self.ref_plain.blocks().used_blocks()
        );
        assert_eq!(
            f.blocks().num_holders(),
            self.fast_plain.blocks().num_holders()
        );
        // No shared prefixes ⇒ the armed tier never records a hit, never
        // caches a block, never saves a token.
        for (hits, saved, cached) in [
            (
                f.prefix_hit_requests(),
                f.prefix_tokens_saved(),
                f.blocks().prefix_cached_blocks(),
            ),
            (
                self.ref_armed.prefix_hit_requests(),
                self.ref_armed.prefix_tokens_saved(),
                self.ref_armed.blocks().prefix_cached_blocks(),
            ),
        ] {
            assert_eq!(hits, 0, "zero-share run recorded a prefix hit");
            assert_eq!(saved, 0, "zero-share run saved tokens");
            assert_eq!(cached, 0, "zero-share run cached prefix blocks");
        }
    }
}

/// Drives the quad through arrivals, formations, and delayed completions,
/// then drains to empty — the armed schedulers must shadow the plain ones
/// byte-for-byte throughout.
fn drive_zero_share(
    policy: BatchPolicyKind,
    max_batch: usize,
    blocks: u64,
    requests: &[(u64, u64)],
    ops: &[u8],
) {
    let mut quad = Quad::new(policy, max_batch, blocks);
    let mut next_req = 0usize;
    let mut inflight: Vec<BatchComposition> = Vec::new();
    let add_next = |quad: &mut Quad, next_req: &mut usize| {
        if *next_req < requests.len() {
            let (p, d) = requests[*next_req];
            let id = *next_req as u64;
            quad.add(Request::new(id, SimTime::ZERO, p.max(1), d.max(1)));
            *next_req += 1;
        }
    };
    for &op in ops {
        match op % 6 {
            0 | 1 => add_next(&mut quad, &mut next_req),
            2 | 3 => {
                if inflight.len() < 3 {
                    if let Some(b) = quad.form() {
                        inflight.push(b);
                    }
                } else {
                    let b = inflight.remove(0);
                    quad.complete(&b);
                }
            }
            _ => {
                if !inflight.is_empty() {
                    let b = inflight.remove(0);
                    quad.complete(&b);
                }
            }
        }
        quad.assert_state_matches();
    }
    while next_req < requests.len() {
        add_next(&mut quad, &mut next_req);
    }
    for b in inflight.drain(..) {
        quad.complete(&b);
    }
    let mut guard = 0;
    while quad.fast_armed.outstanding() > 0 {
        guard += 1;
        assert!(guard < 200_000, "no convergence");
        match quad.form() {
            Some(b) => quad.complete(&b),
            None => panic!("stuck: outstanding but no batch forms"),
        }
        quad.assert_state_matches();
    }
    assert_eq!(quad.fast_plain.outstanding(), 0);
    assert_eq!(quad.fast_armed.blocks().used_blocks(), 0);
    quad.assert_state_matches();
}

proptest! {
    /// Satellite 1a: an armed cache with zero prefix sharing is invisible —
    /// every policy, every interleaving, tight and ample memory.
    #[test]
    fn armed_cache_with_zero_sharing_is_byte_identical(
        policy_idx in 0usize..6,
        max_batch in 1usize..24,
        tight_mem in proptest::bool::ANY,
        requests in proptest::collection::vec((1u64..400, 1u64..30), 1..30),
        ops in proptest::collection::vec(0u8..6, 0..100),
    ) {
        let blocks = if tight_mem { 40 } else { 4000 };
        let r = std::panic::catch_unwind(|| {
            drive_zero_share(POLICIES[policy_idx], max_batch, blocks, &requests, &ops)
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

/// Fast and reference schedulers, both armed, driven over prefixed streams.
struct Pair {
    fast: ReplicaScheduler,
    refr: ReferenceScheduler,
}

impl Pair {
    fn new(policy: BatchPolicyKind, max_batch: usize, blocks: u64) -> Self {
        let config = SchedulerConfig::new(policy, max_batch);
        let mut fast = ReplicaScheduler::new(config, blocks, 16);
        let mut refr = ReferenceScheduler::new(config, blocks, 16);
        fast.arm_prefix_cache();
        refr.arm_prefix_cache();
        Pair { fast, refr }
    }

    fn add(&mut self, req: Request) {
        self.fast.add_request(req);
        self.refr.add_request(req);
    }

    fn form(&mut self) -> Option<BatchComposition> {
        let a = self.fast.next_batch();
        let b = self.refr.next_batch();
        assert_eq!(a, b, "prefixed batch formation diverged");
        a
    }

    fn complete(&mut self, batch: &BatchComposition) {
        let a = self.fast.complete_batch(batch);
        let b = self.refr.complete_batch(batch);
        assert_eq!(a, b, "prefixed completion events diverged");
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
        assert_eq!(
            self.fast.blocks().prefix_cached_blocks(),
            self.refr.blocks().prefix_cached_blocks()
        );
        assert_eq!(
            self.fast.blocks().num_prefix_entries(),
            self.refr.blocks().num_prefix_entries()
        );
        assert_eq!(
            self.fast.prefix_hit_requests(),
            self.refr.prefix_hit_requests()
        );
        assert_eq!(
            self.fast.prefix_tokens_saved(),
            self.refr.prefix_tokens_saved()
        );
        assert_eq!(
            self.fast.tenant_prefix_hits(),
            self.refr.tenant_prefix_hits()
        );
        assert_eq!(
            self.fast.tenant_prefix_saved(),
            self.refr.tenant_prefix_saved()
        );
    }
}

/// Drives the armed pair over a prefixed request stream.
fn drive_prefixed(
    policy: BatchPolicyKind,
    max_batch: usize,
    blocks: u64,
    requests: &[GenReq],
    ops: &[u8],
) {
    let mut pair = Pair::new(policy, max_batch, blocks);
    let mut next_req = 0usize;
    let mut inflight: Vec<BatchComposition> = Vec::new();
    let add_next = |pair: &mut Pair, next_req: &mut usize| {
        if *next_req < requests.len() {
            pair.add(materialize(*next_req as u64, requests[*next_req]));
            *next_req += 1;
        }
    };
    for &op in ops {
        match op % 6 {
            0 | 1 => add_next(&mut pair, &mut next_req),
            2 | 3 => {
                if inflight.len() < 3 {
                    if let Some(b) = pair.form() {
                        inflight.push(b);
                    }
                } else {
                    let b = inflight.remove(0);
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
    // With everything released, the only used blocks are the resident
    // cached prefixes — and crash-evicting them must zero the manager.
    assert_eq!(
        pair.fast.blocks().used_blocks(),
        pair.fast.blocks().prefix_cached_blocks()
    );
    pair.assert_state_matches();
}

proptest! {
    /// Satellite 1b: the optimized scheduler matches the reference over
    /// prefixed multi-tenant streams — batches, events, and prefix stats.
    #[test]
    fn prefixed_streams_match_reference(
        policy_idx in 0usize..6,
        max_batch in 1usize..24,
        tight_mem in proptest::bool::ANY,
        requests in proptest::collection::vec(
            (1u64..400, 1u64..30, 0u32..3, 0u8..5, 0u8..8),
            1..30,
        ),
        ops in proptest::collection::vec(0u8..6, 0..100),
    ) {
        let blocks = if tight_mem { 40 } else { 4000 };
        let r = std::panic::catch_unwind(|| {
            drive_prefixed(POLICIES[policy_idx], max_batch, blocks, &requests, &ops)
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

    /// Satellite 3: random admit/grow/release/evict interleavings on the raw
    /// block manager never free a referenced prefix block, never leak, and
    /// always conserve blocks: `Σ held + cached == used ≤ total`.
    #[test]
    fn prefix_tier_never_corrupts_block_accounting(
        ops in proptest::collection::vec(
            (0u8..4, 0u64..24, 1u64..500, 0u64..4, 0u8..8),
            0..250,
        ),
    ) {
        const IDS: u64 = 24;
        let mut m = BlockManager::new(60, 16, 0.05);
        m.arm_prefix_cache();
        let mut h = [KvHolding::default(); IDS as usize];
        // What each live holder borrowed at admission, to re-check that the
        // entry it reads stays resident.
        let mut borrowed: Vec<Option<(u64, u64)>> = vec![None; IDS as usize];
        for (op, id, tokens, key_choice, len_pct) in ops {
            match op {
                // Admit with an optional prefix.
                0 => {
                    if h[id as usize].blocks() == 0 && borrowed[id as usize].is_none() {
                        let key = if key_choice < 3 { key_choice } else { NO_PREFIX };
                        let prefill = tokens.max(2);
                        let len = (prefill * (1 + len_pct as u64 % 4) / 4).max(1);
                        if let Some(hit) =
                            m.try_reserve_prefixed(&mut h[id as usize], prefill + 8, key, prefill, len)
                        {
                            prop_assert!(hit < prefill, "hit must leave prefill work");
                            prop_assert_eq!(hit % 16, 0, "hits are whole blocks");
                            if key != NO_PREFIX {
                                borrowed[id as usize] = Some((key, m.borrowed_blocks(&h[id as usize])));
                            }
                        }
                    }
                }
                // Decode growth.
                1 => {
                    if h[id as usize].blocks() > 0 || borrowed[id as usize].is_some() {
                        m.try_grow(&mut h[id as usize], tokens + 64);
                    }
                }
                // Finish / preempt: release and drop the borrow.
                2 => {
                    m.release(&mut h[id as usize]);
                    borrowed[id as usize] = None;
                }
                // Crash-path eviction of unreferenced cached prefixes.
                _ => m.evict_cached_prefixes(),
            }
            prop_assert!(m.used_blocks() <= m.total_blocks());
            let held_sum: u64 = h.iter().map(KvHolding::blocks).sum();
            prop_assert_eq!(
                held_sum + m.prefix_cached_blocks(),
                m.used_blocks(),
                "held + cached must equal used"
            );
            // Every live borrower's entry must still be resident with at
            // least the blocks it borrowed (borrowed_blocks panics inside
            // the manager if a referenced entry were evicted).
            for (i, b) in borrowed.iter().enumerate() {
                if let Some((_, blocks)) = b {
                    prop_assert_eq!(m.borrowed_blocks(&h[i]), *blocks);
                }
            }
        }
        // Drain: release everything, then evict — nothing may leak.
        for kv in &mut h {
            m.release(kv);
        }
        m.evict_cached_prefixes();
        prop_assert_eq!(m.used_blocks(), 0, "blocks leaked");
        prop_assert_eq!(m.num_prefix_entries(), 0, "entries leaked");
        prop_assert_eq!(m.num_holders(), 0, "holders leaked");
    }
}

/// Deterministic pin: a hot shared prefix actually hits, saves whole-block
/// prefill tokens, splits per tenant, and survives `evict_all`.
#[test]
fn shared_prefix_hits_and_crash_eviction_reclaims() {
    let mut s = ReplicaScheduler::new(SchedulerConfig::new(BatchPolicyKind::Vllm, 32), 10_000, 16);
    s.arm_prefix_cache();
    // Ten requests over two tenants, all sharing a 128-token prefix.
    for i in 0..10u64 {
        s.add_request(
            Request::new(i, SimTime::ZERO, 256, 4)
                .with_tenant((i % 2) as u32)
                .with_prefix(7, 128),
        );
    }
    let mut guard = 0;
    while s.outstanding() > 0 {
        guard += 1;
        assert!(guard < 10_000, "no convergence");
        let b = s.next_batch().expect("work outstanding but no batch");
        s.complete_batch(&b);
    }
    // The first request misses (donating the entry); the other nine hit.
    assert_eq!(s.prefix_hit_requests(), 9);
    assert_eq!(s.prefix_tokens_saved(), 9 * 128);
    let hits: u64 = s.tenant_prefix_hits().iter().sum();
    let saved: u64 = s.tenant_prefix_saved().iter().sum();
    assert_eq!(hits, 9, "tenant hit split must account for every hit");
    assert_eq!(saved, 9 * 128, "tenant saved split must balance");
    assert!(s.tenant_prefix_hits().iter().filter(|&&h| h > 0).count() == 2);
    // The entry stays resident for future arrivals…
    assert_eq!(s.blocks().num_prefix_entries(), 1);
    assert_eq!(s.blocks().prefix_cached_blocks(), 128 / 16);
    assert_eq!(s.blocks().used_blocks(), 128 / 16);
    // …and a crash eviction reclaims every block.
    let mut evicted = Vec::new();
    s.evict_all(&mut evicted);
    assert!(evicted.is_empty(), "nothing was queued or running");
    assert_eq!(s.blocks().used_blocks(), 0);
    assert_eq!(s.blocks().num_prefix_entries(), 0);
}

/// Deterministic pin: LRU eviction under memory pressure drops the coldest
/// unreferenced entry first and never a referenced one.
#[test]
fn lru_eviction_prefers_cold_unreferenced_entries() {
    let mut m = BlockManager::new(20, 16, 0.0);
    m.arm_prefix_cache();
    let mut h = [KvHolding::default(); 5];
    // Two cached prefixes (4 blocks each), both released ⇒ unreferenced.
    assert_eq!(m.try_reserve_prefixed(&mut h[0], 64, 100, 64, 64), Some(0));
    assert_eq!(m.try_reserve_prefixed(&mut h[1], 64, 200, 64, 64), Some(0));
    m.release(&mut h[0]);
    m.release(&mut h[1]);
    assert_eq!(m.used_blocks(), 8);
    // Touch key 100 via a live borrower so key 200 is the LRU victim.
    assert_eq!(m.try_reserve_prefixed(&mut h[2], 80, 100, 64, 64), Some(48));
    // 20 total, 8 cached + holder-2's own blocks; demand the rest so the
    // manager must evict. Key 200 (unreferenced, coldest) goes; key 100 is
    // referenced and must survive even though memory stays tight.
    let free = m.free_blocks();
    assert!(m.try_reserve(&mut h[3], (free + 4) * 16));
    assert_eq!(m.num_prefix_entries(), 1, "one entry evicted");
    assert_eq!(m.prefix_cached_tokens(100, 64), 48, "hot entry survived");
    assert_eq!(m.prefix_cached_tokens(200, 64), 0, "cold entry evicted");
    // Asking for more than eviction can supply fails cleanly.
    assert!(!m.try_reserve(&mut h[4], 10_000 * 16));
    m.release(&mut h[2]);
    m.release(&mut h[3]);
    m.evict_cached_prefixes();
    assert_eq!(m.used_blocks(), 0);
}
