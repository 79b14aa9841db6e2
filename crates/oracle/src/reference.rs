//! Executable specification of batch formation: the seed's straightforward
//! `ReplicaScheduler` implementation, kept in lockstep as a differential
//! oracle (extended, like the optimized scheduler, with priority-tiered
//! admission and priority-aware preemption — implemented here as naive
//! scans).
//!
//! [`ReferenceScheduler`] stores the running set as one admission-ordered
//! vector and re-derives everything per call — `Vec` allocations for each
//! phase filter, `contains`/`rposition`/`retain` scans, and a full re-sum of
//! the projected KV footprint — exactly like the pre-optimization scheduler.
//! It exists for two reasons:
//!
//! 1. **Differential testing**: `tests/formation_equivalence.rs` drives this
//!    and the optimized [`ReplicaScheduler`] with
//!    identical inputs across all five policies and asserts byte-identical
//!    slice sequences, preemption counts, and block-manager state.
//! 2. **Benchmark baseline**: `vidur-bench`'s scheduler suite measures the
//!    optimized scheduler against this implementation in the same process,
//!    making the speedup claim hardware-independent and re-checkable in CI.
//!
//! Keep this module boring. Do not optimize it.
//!
//! [`ReplicaScheduler`]: vidur_scheduler::ReplicaScheduler

use std::collections::VecDeque;
use vidur_model::batch::{BatchComposition, RequestSlice};
use vidur_scheduler::replica::CompletionEvent;
use vidur_scheduler::{
    BatchPolicyKind, BlockManager, IdSlab, Request, RequestId, RequestPhase, SchedulerConfig,
    TrackedRequest,
};

/// The seed's replica scheduler: same policies, same decisions, naive data
/// structures. See the module docs.
#[derive(Debug, Clone)]
pub struct ReferenceScheduler {
    config: SchedulerConfig,
    blocks: BlockManager,
    requests: IdSlab<TrackedRequest>,
    waiting: VecDeque<RequestId>,
    /// Admitted requests in admission order (vLLM preempts from the back).
    running: Vec<RequestId>,
    preemptions: u64,
    completed: u64,
    /// Admissions that hit the prefix cache.
    prefix_hit_requests: u64,
    /// Prefill tokens skipped by prefix-cache hits.
    prefix_tokens_saved: u64,
    /// Per-tenant hit counts (index = tenant id; grows on demand).
    tenant_prefix_hits: Vec<u64>,
    /// Per-tenant tokens saved (index = tenant id; grows on demand).
    tenant_prefix_saved: Vec<u64>,
}

impl ReferenceScheduler {
    /// Creates a scheduler over `total_blocks` KV blocks of `block_size`
    /// tokens.
    pub fn new(config: SchedulerConfig, total_blocks: u64, block_size: u32) -> Self {
        ReferenceScheduler {
            blocks: BlockManager::new(total_blocks, block_size, config.watermark_frac),
            config,
            requests: IdSlab::new(),
            waiting: VecDeque::new(),
            running: Vec::new(),
            preemptions: 0,
            completed: 0,
            prefix_hit_requests: 0,
            prefix_tokens_saved: 0,
            tenant_prefix_hits: Vec::new(),
            tenant_prefix_saved: Vec::new(),
        }
    }

    /// The KV block manager (read access for state comparison).
    pub fn blocks(&self) -> &BlockManager {
        &self.blocks
    }

    /// Arms the prefix-cache tier, mirroring
    /// [`ReplicaScheduler::arm_prefix_cache`](vidur_scheduler::ReplicaScheduler::arm_prefix_cache).
    ///
    /// # Panics
    ///
    /// Panics if any request was already added.
    pub fn arm_prefix_cache(&mut self) {
        assert!(
            self.requests.is_empty(),
            "prefix cache must be armed before any request is added"
        );
        self.blocks.arm_prefix_cache();
    }

    /// Admissions that hit the prefix cache so far.
    pub fn prefix_hit_requests(&self) -> u64 {
        self.prefix_hit_requests
    }

    /// Prefill tokens skipped by prefix-cache hits so far.
    pub fn prefix_tokens_saved(&self) -> u64 {
        self.prefix_tokens_saved
    }

    /// Per-tenant prefix-hit counts (index = tenant id; may be shorter than
    /// the tenant count — missing entries are zero).
    pub fn tenant_prefix_hits(&self) -> &[u64] {
        &self.tenant_prefix_hits
    }

    /// Per-tenant prefill tokens saved (index = tenant id; may be shorter
    /// than the tenant count — missing entries are zero).
    pub fn tenant_prefix_saved(&self) -> &[u64] {
        &self.tenant_prefix_saved
    }

    /// Enqueues an arriving request at the back of its priority tier
    /// (strict classes, FIFO within a class; plain FIFO when every request
    /// is priority 0).
    ///
    /// # Panics
    ///
    /// Panics if a request with the same id was already added.
    pub fn add_request(&mut self, req: Request) {
        let prev = self.requests.insert(req.id, TrackedRequest::new(req));
        assert!(prev.is_none(), "duplicate request id {}", req.id);
        self.enqueue_waiting_back(req.id);
    }

    /// Enqueues a remotely-prefilled request (disaggregation handoff).
    ///
    /// # Panics
    ///
    /// Panics on duplicate ids or `already_decoded` out of range.
    pub fn add_remote_prefilled(&mut self, req: Request, already_decoded: u64) {
        assert!(
            already_decoded >= 1 && already_decoded <= req.decode_tokens,
            "remote prefill must have produced 1..=decode_tokens tokens"
        );
        let mut tracked = TrackedRequest::new(req);
        tracked.prefilled = req.prefill_tokens;
        tracked.decoded = already_decoded;
        let prev = self.requests.insert(req.id, tracked);
        assert!(prev.is_none(), "duplicate request id {}", req.id);
        self.enqueue_waiting_back(req.id);
    }

    /// Tier-ordered enqueue: insert at the back of the new request's own
    /// tier — after the last waiting request of the same or a more urgent
    /// class. Scanning from the rear keeps the uniform-priority case O(1)
    /// (a front scan would make deep-backlog setups quadratic and skew the
    /// benchmark baseline this scheduler provides); the position is
    /// identical either way on a tier-sorted queue.
    fn enqueue_waiting_back(&mut self, id: RequestId) {
        let p = self.requests[&id].spec.priority;
        let pos = self
            .waiting
            .iter()
            .rposition(|w| self.requests[w].spec.priority <= p)
            .map_or(0, |i| i + 1);
        self.waiting.insert(pos, id);
    }

    /// Naive preemption requeue: insert before the first waiting request of
    /// the same or a less urgent class (the front of the victim's own
    /// tier). Reduces to `push_front` when priorities are uniform.
    fn enqueue_waiting_front(&mut self, id: RequestId) {
        let p = self.requests[&id].spec.priority;
        let pos = self
            .waiting
            .iter()
            .position(|w| self.requests[w].spec.priority >= p)
            .unwrap_or(self.waiting.len());
        self.waiting.insert(pos, id);
    }

    fn admit_prefetched(&mut self) {
        while self.running.len() < self.config.max_batch_size {
            let Some(&id) = self.waiting.front() else {
                break;
            };
            let r = &self.requests[&id];
            if r.remaining_prefill() > 0 {
                break;
            }
            let need = r.cached_tokens() + 1;
            if !self.blocks.try_reserve(id, need) {
                break;
            }
            self.waiting.pop_front();
            self.running.push(id);
            self.requests.get_mut(&id).expect("tracked").phase = RequestPhase::Decoding;
        }
    }

    /// Requests waiting for admission.
    pub fn num_waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Requests admitted and unfinished.
    pub fn num_running(&self) -> usize {
        self.running.len()
    }

    /// All unfinished requests on this replica.
    pub fn outstanding(&self) -> usize {
        self.waiting.len() + self.running.len()
    }

    /// Total preemption-restarts so far.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Requests fully completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Forms the next batch, or `None` when nothing can run.
    pub fn next_batch(&mut self) -> Option<BatchComposition> {
        self.admit_prefetched();
        let slices = match self.config.policy {
            BatchPolicyKind::Vllm => self.vllm_batch(),
            BatchPolicyKind::OrcaPlus => self.orca_batch(),
            BatchPolicyKind::SarathiServe { chunk_size } => self.sarathi_batch(chunk_size),
            BatchPolicyKind::FasterTransformer => self.ft_batch(),
            BatchPolicyKind::LightLlm => self.lightllm_batch(),
        };
        if slices.is_empty() {
            None
        } else {
            Some(BatchComposition::new(slices))
        }
    }

    /// Applies the effects of a finished batch, returning per-request events.
    ///
    /// # Panics
    ///
    /// Panics if the batch references unknown requests.
    pub fn complete_batch(&mut self, batch: &BatchComposition) -> Vec<CompletionEvent> {
        let mut events = Vec::with_capacity(batch.num_requests());
        for slice in batch.slices() {
            let id = slice.request_id;
            let Some(req) = self.requests.get_mut(&id) else {
                panic!("batch completion for unknown request {id}");
            };
            req.inflight_tokens = 0;
            let mut ev = CompletionEvent {
                id,
                prefill_completed: false,
                produced_token: false,
                finished: false,
            };
            if slice.is_prefill {
                req.prefilled += slice.query_tokens;
                if req.prefill_complete() {
                    req.phase = RequestPhase::Decoding;
                    if req.decoded == 0 {
                        req.decoded = 1;
                        ev.prefill_completed = true;
                        ev.produced_token = true;
                    }
                    if req.finished() {
                        ev.finished = true;
                        self.finish(id);
                    }
                }
            } else {
                req.decoded += 1;
                ev.produced_token = true;
                if req.finished() {
                    ev.finished = true;
                    self.finish(id);
                }
            }
            events.push(ev);
        }
        events
    }

    fn finish(&mut self, id: RequestId) {
        self.blocks.release(id);
        self.running.retain(|&r| r != id);
        self.requests.remove(&id);
        self.completed += 1;
    }

    // The one deliberate deviation from the seed: requests needing no
    // prefill are refused (they belong to `admit_prefetched`), fixing the
    // seed's prefill-accounting underflow when a mid-call preemption frees
    // memory. `ReplicaScheduler::admit_front` documents the bug; the
    // optimized scheduler carries the same guard, so the two still agree.
    fn admit_front(&mut self, reserve_tokens: u64) -> Option<RequestId> {
        let &id = self.waiting.front()?;
        if self.requests[&id].remaining_prefill() == 0 {
            return None;
        }
        let spec = self.requests[&id].spec;
        let hit = self.blocks.try_reserve_prefixed(
            id,
            reserve_tokens,
            spec.prefix_id,
            spec.prefill_tokens,
            spec.prefix_len,
        )?;
        self.waiting.pop_front();
        self.running.push(id);
        let req = self.requests.get_mut(&id).expect("tracked");
        req.phase = RequestPhase::Prefilling;
        if hit > 0 {
            debug_assert!(hit < spec.prefill_tokens, "a hit leaves prefill work");
            req.prefilled = hit;
            self.prefix_hit_requests += 1;
            self.prefix_tokens_saved += hit;
            let idx = spec.tenant as usize;
            if idx >= self.tenant_prefix_hits.len() {
                self.tenant_prefix_hits.resize(idx + 1, 0);
                self.tenant_prefix_saved.resize(idx + 1, 0);
            }
            self.tenant_prefix_hits[idx] += 1;
            self.tenant_prefix_saved[idx] += hit;
        }
        Some(id)
    }

    fn preempt_one(&mut self, protect: RequestId) -> bool {
        // Victim choice: the least urgent (numerically highest) priority
        // class first, latest-admitted within the class. `running` is in
        // admission order, so `max_by_key` over (priority, position) — with
        // uniform priorities this is exactly the seed's `rposition`.
        let victim_pos = self
            .running
            .iter()
            .enumerate()
            .filter(|(_, &id)| id != protect && self.requests[&id].inflight_tokens == 0)
            .max_by_key(|(pos, &id)| (self.requests[&id].spec.priority, *pos))
            .map(|(pos, _)| pos);
        let Some(pos) = victim_pos else {
            return false;
        };
        let victim = self.running.remove(pos);
        self.blocks.release(victim);
        let req = self.requests.get_mut(&victim).expect("tracked");
        req.restart();
        self.enqueue_waiting_front(victim);
        self.preemptions += 1;
        true
    }

    fn grow_or_preempt(&mut self, id: RequestId) -> bool {
        let target = self.requests[&id].cached_tokens() + 1;
        loop {
            if self.blocks.try_grow(id, target) {
                return true;
            }
            if !self.preempt_one(id) {
                self.running.retain(|&r| r != id);
                self.blocks.release(id);
                let req = self.requests.get_mut(&id).expect("tracked");
                req.restart();
                self.enqueue_waiting_front(id);
                self.preemptions += 1;
                return false;
            }
        }
    }

    fn mark_inflight(&mut self, id: RequestId, tokens: u64) {
        self.requests.get_mut(&id).expect("tracked").inflight_tokens = tokens;
    }

    fn schedulable_decodes(&self) -> Vec<RequestId> {
        self.running
            .iter()
            .copied()
            .filter(|id| {
                let r = &self.requests[id];
                r.phase == RequestPhase::Decoding && r.inflight_tokens == 0 && !r.finished()
            })
            .collect()
    }

    fn collect_decodes(&mut self, limit: usize, slices: &mut Vec<RequestSlice>) {
        for id in self.schedulable_decodes() {
            if slices.len() >= limit {
                break;
            }
            if !self.running.contains(&id) {
                continue;
            }
            if !self.grow_or_preempt(id) {
                continue;
            }
            let cached = self.requests[&id].cached_tokens();
            slices.push(RequestSlice::decode(id, cached));
            self.mark_inflight(id, 1);
        }
    }

    fn vllm_batch(&mut self) -> Vec<RequestSlice> {
        let budget = self.config.token_budget();
        let mut slices = Vec::new();
        let mut tokens = 0u64;
        while self.running.len() < self.config.max_batch_size {
            let Some(&id) = self.waiting.front() else {
                break;
            };
            let prompt = self.requests[&id].spec.prefill_tokens;
            if tokens + prompt > budget {
                break;
            }
            if self.admit_front(prompt).is_none() {
                break;
            }
            // Re-read after admission: a prefix-cache hit set `prefilled`,
            // so only the un-cached prompt tail is computed (with no hit
            // this is exactly the `prefill(id, prompt, 0)` slice of old).
            let r = &self.requests[&id];
            let take = r.remaining_prefill();
            slices.push(RequestSlice::prefill(id, take, r.prefilled));
            self.mark_inflight(id, take);
            tokens += prompt;
        }
        if !slices.is_empty() {
            return slices;
        }
        self.collect_decodes(self.config.max_batch_size, &mut slices);
        slices
    }

    fn orca_batch(&mut self) -> Vec<RequestSlice> {
        let budget = self.config.token_budget();
        let mut slices = Vec::new();
        self.collect_decodes(self.config.max_batch_size, &mut slices);
        let mut tokens = slices.len() as u64;
        while self.running.len() < self.config.max_batch_size
            && slices.len() < self.config.max_batch_size
        {
            let Some(&id) = self.waiting.front() else {
                break;
            };
            let prompt = self.requests[&id].spec.prefill_tokens;
            if tokens + prompt > budget {
                break;
            }
            if self.admit_front(prompt).is_none() {
                break;
            }
            // Post-admission re-read: prefix-cache hits shrink the slice.
            let r = &self.requests[&id];
            let take = r.remaining_prefill();
            slices.push(RequestSlice::prefill(id, take, r.prefilled));
            self.mark_inflight(id, take);
            tokens += prompt;
        }
        slices
    }

    fn sarathi_batch(&mut self, chunk_size: u64) -> Vec<RequestSlice> {
        let mut slices = Vec::new();
        self.collect_decodes(self.config.max_batch_size, &mut slices);
        let mut budget = chunk_size.saturating_sub(slices.len() as u64);
        let partial: Vec<RequestId> = self
            .running
            .iter()
            .copied()
            .filter(|id| {
                let r = &self.requests[id];
                r.phase == RequestPhase::Prefilling && r.inflight_tokens == 0
            })
            .collect();
        for id in partial {
            if budget == 0 || slices.len() >= self.config.max_batch_size {
                break;
            }
            let r = &self.requests[&id];
            let take = r.remaining_prefill().min(budget);
            if take == 0 {
                continue;
            }
            slices.push(RequestSlice::prefill(id, take, r.prefilled));
            self.mark_inflight(id, take);
            budget -= take;
        }
        while budget > 0
            && self.running.len() < self.config.max_batch_size
            && slices.len() < self.config.max_batch_size
        {
            let Some(&front) = self.waiting.front() else {
                break;
            };
            let prompt = self.requests[&front].spec.prefill_tokens;
            let Some(id) = self.admit_front(prompt) else {
                break;
            };
            // Post-admission re-read: a prefix-cache hit starts the chunked
            // prefill at `prefilled` instead of 0.
            let r = &self.requests[&id];
            let take = r.remaining_prefill().min(budget);
            slices.push(RequestSlice::prefill(id, take, r.prefilled));
            self.mark_inflight(id, take);
            budget -= take;
        }
        slices
    }

    fn ft_batch(&mut self) -> Vec<RequestSlice> {
        let budget = self.config.token_budget();
        if self.running.is_empty() {
            while self.running.len() < self.config.max_batch_size {
                let Some(&id) = self.waiting.front() else {
                    break;
                };
                let total = self.requests[&id].spec.total_tokens();
                if self.admit_front(total).is_none() {
                    break;
                }
                let _ = id;
            }
        }
        let mut slices = Vec::new();
        let mut tokens = 0u64;
        let pending_prefill: Vec<RequestId> = self
            .running
            .iter()
            .copied()
            .filter(|id| {
                let r = &self.requests[id];
                r.phase == RequestPhase::Prefilling && r.inflight_tokens == 0
            })
            .collect();
        for id in pending_prefill {
            // `remaining_prefill` equals the full prompt unless a prefix-
            // cache hit pre-filled the shared head at cohort admission.
            let r = &self.requests[&id];
            let take = r.remaining_prefill();
            let cached = r.prefilled;
            if tokens + take > budget && tokens > 0 {
                break;
            }
            slices.push(RequestSlice::prefill(id, take, cached));
            self.mark_inflight(id, take);
            tokens += take;
        }
        if !slices.is_empty() {
            return slices;
        }
        self.collect_decodes(self.config.max_batch_size, &mut slices);
        slices
    }

    fn lightllm_batch(&mut self) -> Vec<RequestSlice> {
        let budget = self.config.token_budget();
        let capacity_tokens = self.blocks.total_blocks() * self.blocks.block_size() as u64;
        let mut slices = Vec::new();
        self.collect_decodes(self.config.max_batch_size, &mut slices);
        let mut tokens = slices.len() as u64;
        let mut projected: u64 = self
            .running
            .iter()
            .map(|id| self.requests[id].spec.total_tokens())
            .sum();
        while self.running.len() < self.config.max_batch_size
            && slices.len() < self.config.max_batch_size
        {
            let Some(&id) = self.waiting.front() else {
                break;
            };
            let spec = self.requests[&id].spec;
            if tokens + spec.prefill_tokens > budget {
                break;
            }
            if projected + spec.total_tokens() > capacity_tokens {
                break;
            }
            if self.admit_front(spec.prefill_tokens).is_none() {
                break;
            }
            // Post-admission re-read: prefix-cache hits shrink the slice.
            let r = &self.requests[&id];
            let take = r.remaining_prefill();
            slices.push(RequestSlice::prefill(id, take, r.prefilled));
            self.mark_inflight(id, take);
            tokens += spec.prefill_tokens;
            projected += spec.total_tokens();
        }
        slices
    }
}
