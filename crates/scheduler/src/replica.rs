//! The replica scheduler: iteration-level batch formation plus memory
//! management (paper §4.5, middle tier).
//!
//! Each call to [`ReplicaScheduler::next_batch`] forms the next iteration's
//! batch according to the configured policy. The paper notes all five
//! policies fit in under 150 lines each on top of the memory-manager API —
//! the same holds here.
//!
//! In-flight bookkeeping: slices handed out in a batch mark their request
//! in-flight until [`ReplicaScheduler::complete_batch`] is called, so with
//! pipeline parallelism several disjoint batches can execute concurrently
//! without double-scheduling a request.
//!
//! # Hot-loop design
//!
//! `next_batch` runs once per simulated iteration — hundreds of thousands of
//! times per run, millions of times per search — so its steady state is
//! allocation-free and scan-free:
//!
//! * The running set is **phase-partitioned** into two intrusive
//!   doubly-linked lists (`prefilling` / `decoding`) threaded
//!   through `TrackedRequest::{prev, next}` and ordered by an admission
//!   sequence number, which reproduces the seed's single admission-ordered
//!   `running` vector exactly (the differential proptest in
//!   `crates/oracle/tests/formation_equivalence.rs` pins this). Admit,
//!   finish and preempt are O(1) unlinks instead of `retain`/`rposition`
//!   scans.
//! * Per-call id snapshots go through one reusable scratch buffer; batch
//!   slice vectors are pooled and round-trip through
//!   [`ReplicaScheduler::recycle_batch`].
//! * LightLLM's projected-KV admission bound is a counter maintained on
//!   admit/finish/preempt instead of a per-call re-sum over the running set.

use crate::config::{BatchPolicyKind, SchedulerConfig, DEFAULT_WATERMARK_FRAC};
use crate::memory::{BlockManager, KvHolding};
use crate::request::{Request, RequestId, RequestPhase, TrackedRequest, NO_REQ};
use crate::slab::IdSlab;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use vidur_model::batch::{BatchComposition, RequestSlice};

/// What happened to a request when a batch completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletionEvent {
    /// The request.
    pub id: RequestId,
    /// The request's prefill finished in this batch (TTFT point).
    pub prefill_completed: bool,
    /// One output token was produced in this batch.
    pub produced_token: bool,
    /// The request produced its last token and left the replica.
    pub finished: bool,
}

/// Iteration-level replica scheduler with paged KV memory management.
///
/// Every policy admits through one gate, `admit_next`: it is the only
/// place a request moves from the waiting queue into the running set, so
/// the batch-size cap (`num_running() < max_batch_size`), quota parking and
/// the KV reservation (`admission_tokens_for`) are each decided there once.
/// The policies differ only in what they charge against their token budget
/// and in which batch slices they emit. Since every slice belongs to a
/// distinct running request, `batch.num_requests() <= num_running() <=
/// max_batch_size` holds after every [`ReplicaScheduler::next_batch`].
///
/// # Example
///
/// ```
/// use vidur_core::time::SimTime;
/// use vidur_scheduler::{BatchPolicyKind, ReplicaScheduler, Request, SchedulerConfig};
///
/// let config = SchedulerConfig::new(BatchPolicyKind::Vllm, 8);
/// let mut sched = ReplicaScheduler::new(config, 1_000, 16);
/// sched.add_request(Request::new(0, SimTime::ZERO, 100, 5));
/// let batch = sched.next_batch().expect("prefill batch");
/// assert_eq!(batch.total_query_tokens(), 100);
/// let events = sched.complete_batch(&batch);
/// assert!(events[0].prefill_completed);
/// ```
#[derive(Debug, Clone)]
pub struct ReplicaScheduler {
    config: SchedulerConfig,
    blocks: BlockManager,
    requests: IdSlab<TrackedRequest>,
    waiting: VecDeque<RequestId>,
    /// Admitted requests still prefilling, in admission order.
    prefilling: PhaseList,
    /// Admitted requests in decode phase, in admission order.
    decoding: PhaseList,
    /// Next admission sequence number (re-assigned on re-admission, so list
    /// order always matches the seed's admission-ordered `running` vector).
    admit_seq: u64,
    /// Σ `spec.total_tokens()` over the running set (LightLLM's projected
    /// KV footprint), maintained incrementally on admit/finish/preempt.
    projected_tokens: u64,
    /// Latched once any request arrives with a non-zero priority class.
    /// While `false` the preemption victim walk keeps its early-exit fast
    /// path.
    priority_in_use: bool,
    /// Per-tenant KV block quotas (index = tenant id; tenants at or beyond
    /// the list are unlimited). Empty = quotas disabled.
    tenant_quota_blocks: Vec<u64>,
    /// Blocks currently held per tenant on this replica (index = tenant id;
    /// grows on demand).
    tenant_held_blocks: Vec<u64>,
    /// Requests parked because admitting them would put their tenant over
    /// quota. They re-enter the front of their priority tier once the
    /// tenant's holdings drop (see
    /// [`ReplicaScheduler::apply_quota_parking`]).
    quota_parked: VecDeque<RequestId>,
    /// Per-tenant admission denials (waiting → parked transitions).
    quota_denied: Vec<u64>,
    /// Reusable buffers for the park/unpark pre-pass.
    park_scratch: Vec<RequestId>,
    quota_extra_scratch: Vec<u64>,
    /// Reusable id-snapshot buffer for batch formation passes.
    ids_scratch: Vec<RequestId>,
    /// Recycled slice storage for formed batches (see
    /// [`ReplicaScheduler::recycle_batch`]).
    slice_pool: Vec<Vec<RequestSlice>>,
    preemptions: u64,
    completed: u64,
    /// Set while the replica is gracefully draining: the admission gate
    /// refuses to move work from waiting into running (and parks nothing),
    /// so in-flight batches finish and the queue can be migrated. See
    /// [`ReplicaScheduler::drain_queued`].
    admissions_closed: bool,
    /// Admissions that hit the prefix cache (each re-admission after a
    /// preemption that hits again counts again — it genuinely skips work).
    prefix_hit_requests: u64,
    /// Prefill tokens skipped by prefix-cache hits.
    prefix_tokens_saved: u64,
    /// Per-tenant hit counts (index = tenant id; grows on demand).
    tenant_prefix_hits: Vec<u64>,
    /// Per-tenant tokens saved (index = tenant id; grows on demand).
    tenant_prefix_saved: Vec<u64>,
}

/// Tenant `tenant`'s entry in a per-tenant table, growing it on demand.
fn tenant_slot(table: &mut Vec<u64>, tenant: u32) -> &mut u64 {
    let idx = tenant as usize;
    if idx >= table.len() {
        table.resize(idx + 1, 0);
    }
    &mut table[idx]
}

/// An intrusive doubly-linked list over [`TrackedRequest`]s, ordered by
/// admission sequence. Links live in the requests themselves, so unlink is
/// O(1) and iteration allocates nothing.
#[derive(Debug, Clone, Copy)]
struct PhaseList {
    head: RequestId,
    tail: RequestId,
    len: usize,
}

impl PhaseList {
    const fn new() -> Self {
        PhaseList {
            head: NO_REQ,
            tail: NO_REQ,
            len: 0,
        }
    }

    /// Inserts `id` keeping the list sorted by `admit_seq`. Appending is the
    /// overwhelmingly common case (new admissions get the highest sequence;
    /// prefill→decode transitions almost always happen in admission order) —
    /// the backward walk only pays when pipeline parallelism lets a
    /// later-admitted request finish its chunked prefill first.
    fn insert_ordered(&mut self, requests: &mut IdSlab<TrackedRequest>, id: RequestId) {
        let seq = requests[&id].admit_seq;
        let mut after = self.tail;
        while after != NO_REQ && requests[&after].admit_seq > seq {
            after = requests[&after].prev;
        }
        let before = if after == NO_REQ {
            self.head
        } else {
            requests[&after].next
        };
        {
            let r = requests.get_mut(&id).expect("tracked");
            r.prev = after;
            r.next = before;
        }
        if after == NO_REQ {
            self.head = id;
        } else {
            requests.get_mut(&after).expect("tracked").next = id;
        }
        if before == NO_REQ {
            self.tail = id;
        } else {
            requests.get_mut(&before).expect("tracked").prev = id;
        }
        self.len += 1;
    }

    /// Unlinks `id` in O(1) via its intrusive links.
    fn unlink(&mut self, requests: &mut IdSlab<TrackedRequest>, id: RequestId) {
        let (prev, next) = {
            let r = &requests[&id];
            (r.prev, r.next)
        };
        if prev == NO_REQ {
            self.head = next;
        } else {
            requests.get_mut(&prev).expect("tracked").next = next;
        }
        if next == NO_REQ {
            self.tail = prev;
        } else {
            requests.get_mut(&next).expect("tracked").prev = prev;
        }
        let r = requests.get_mut(&id).expect("tracked");
        r.prev = NO_REQ;
        r.next = NO_REQ;
        self.len -= 1;
    }
}

impl ReplicaScheduler {
    /// Creates a scheduler over `total_blocks` KV blocks of `block_size`
    /// tokens.
    pub fn new(config: SchedulerConfig, total_blocks: u64, block_size: u32) -> Self {
        ReplicaScheduler {
            blocks: BlockManager::new(total_blocks, block_size, DEFAULT_WATERMARK_FRAC),
            config,
            requests: IdSlab::new(),
            waiting: VecDeque::new(),
            prefilling: PhaseList::new(),
            decoding: PhaseList::new(),
            admit_seq: 0,
            projected_tokens: 0,
            priority_in_use: false,
            tenant_quota_blocks: Vec::new(),
            tenant_held_blocks: Vec::new(),
            quota_parked: VecDeque::new(),
            quota_denied: Vec::new(),
            park_scratch: Vec::new(),
            quota_extra_scratch: Vec::new(),
            ids_scratch: Vec::new(),
            slice_pool: Vec::new(),
            preemptions: 0,
            completed: 0,
            admissions_closed: false,
            prefix_hit_requests: 0,
            prefix_tokens_saved: 0,
            tenant_prefix_hits: Vec::new(),
            tenant_prefix_saved: Vec::new(),
        }
    }

    /// Arms the prefix-cache tier on this replica's block manager: requests
    /// sharing a prefix id borrow reference-counted cached prefix blocks,
    /// and a cache hit skips the cached prefill tokens at admission. Leaving
    /// the tier disarmed is byte-identical to a build without it.
    ///
    /// # Panics
    ///
    /// Panics if any request was already added (a mid-run arm would let
    /// earlier admissions miss entries that later releases dereference).
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

    /// Arms per-tenant KV block quotas: `quota_blocks[t]` caps the blocks
    /// tenant `t` may hold on this replica *through admission* (decode
    /// growth of already-admitted work is never quota-blocked, mirroring
    /// the watermark philosophy). Tenants at or beyond the slice are
    /// unlimited. A request whose solo admission need already exceeds its
    /// tenant's quota is exempt — otherwise the quota could never admit it
    /// and the queue would deadlock.
    ///
    /// # Panics
    ///
    /// Panics if any request was already added: per-tenant holdings are
    /// only tracked while quotas are armed, so arming mid-run would
    /// under-count pre-existing reservations (and underflow when they
    /// release).
    pub fn set_tenant_quotas(&mut self, quota_blocks: &[u64]) {
        assert!(
            self.requests.is_empty(),
            "tenant quotas must be armed before any request is added"
        );
        self.tenant_quota_blocks = quota_blocks.to_vec();
    }

    /// Per-tenant quota denial counts so far (index = tenant id; empty when
    /// quotas are disabled or nothing was denied yet).
    pub fn quota_denied(&self) -> &[u64] {
        &self.quota_denied
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The KV block manager (read access for metrics).
    pub fn blocks(&self) -> &BlockManager {
        &self.blocks
    }

    /// Enqueues an arriving request at the back of its priority tier.
    ///
    /// # Panics
    ///
    /// Panics if a request with the same id was already added.
    pub fn add_request(&mut self, req: Request) {
        let prev = self.requests.insert(req.id, TrackedRequest::new(req));
        assert!(prev.is_none(), "duplicate request id {}", req.id);
        self.priority_in_use |= req.priority != 0;
        self.enqueue_waiting_back(req.id);
    }

    /// Enqueues a request whose prompt was prefilled on *another* replica
    /// and whose KV-cache has been transferred here (prefill/decode
    /// disaggregation, à la Splitwise/DistServe — paper §2.2). The request
    /// enters the waiting queue already in the decode phase with
    /// `already_decoded` output tokens produced remotely.
    ///
    /// # Panics
    ///
    /// Panics on duplicate ids or if `already_decoded` is not in
    /// `1..=decode_tokens` (the prefill node produces the first token).
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
        self.priority_in_use |= req.priority != 0;
        self.enqueue_waiting_back(req.id);
    }

    /// Inserts `id` at the **back of its priority tier** in the waiting
    /// queue: after every request of its class or a more urgent one, before
    /// the first request of a less urgent class. The queue is always sorted
    /// by (priority, enqueue order), so the scan from the back is O(1)
    /// whenever the new request's class is the least urgent present — the
    /// overwhelmingly common case, and always true in single-priority runs.
    fn enqueue_waiting_back(&mut self, id: RequestId) {
        let p = self.requests[&id].spec.priority;
        let pos = self
            .waiting
            .iter()
            .rposition(|w| self.requests[w].spec.priority <= p)
            .map_or(0, |i| i + 1);
        self.waiting.insert(pos, id);
    }

    /// Inserts `id` at the **front of its priority tier** — the preemption
    /// requeue position: a restarted victim goes back ahead of its own
    /// class but never ahead of a more urgent one. The scan stops at the
    /// first entry in single-priority runs.
    fn enqueue_waiting_front(&mut self, id: RequestId) {
        let p = self.requests[&id].spec.priority;
        let pos = self
            .waiting
            .iter()
            .position(|w| self.requests[w].spec.priority >= p)
            .unwrap_or(self.waiting.len());
        self.waiting.insert(pos, id);
    }

    // ---- per-tenant KV quotas -------------------------------------------

    /// The tenant's quota, or `u64::MAX` when unlimited.
    fn quota_of(&self, tenant: u32) -> u64 {
        self.tenant_quota_blocks
            .get(tenant as usize)
            .copied()
            .unwrap_or(u64::MAX)
    }

    /// Blocks tenant `tenant` currently holds on this replica.
    fn tenant_held(&self, tenant: u32) -> u64 {
        self.tenant_held_blocks
            .get(tenant as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Whether admitting `id` keeps its tenant within quota.
    /// Solo-infeasible requests (need > quota outright) are exempt — see
    /// [`ReplicaScheduler::set_tenant_quotas`].
    fn within_quota(&self, id: RequestId) -> bool {
        if self.tenant_quota_blocks.is_empty() {
            return true;
        }
        let tenant = self.requests[&id].spec.tenant;
        let quota = self.quota_of(tenant);
        if quota == u64::MAX {
            return true;
        }
        let need = self.blocks.blocks_for(self.admission_tokens_for(id));
        if need > quota {
            return true;
        }
        self.tenant_held(tenant) + need <= quota
    }

    /// The blocks-worth of tokens the admission gate reserves for `id`:
    /// the transferred KV plus one token for remote-prefilled requests, the
    /// full footprint for FasterTransformer cohorts, the prompt otherwise.
    fn admission_tokens_for(&self, id: RequestId) -> u64 {
        let r = &self.requests[&id];
        if r.remaining_prefill() == 0 {
            return r.cached_tokens() + 1;
        }
        match self.config.policy {
            BatchPolicyKind::FasterTransformer => r.spec.total_tokens(),
            _ => r.spec.prefill_tokens,
        }
    }

    /// The quota unpark pre-pass, run at the top of every `next_batch`
    /// while quotas are armed: parked requests whose tenant is back under
    /// quota rejoin the front of their priority tier (in original order,
    /// bounded by what actually fits so one release never floods the queue
    /// with requests that would immediately re-park).
    fn apply_quota_parking(&mut self) {
        if self.tenant_quota_blocks.is_empty() || self.quota_parked.is_empty() {
            return;
        }
        self.quota_extra_scratch.clear();
        self.quota_extra_scratch
            .resize(self.tenant_quota_blocks.len(), 0);
        let mut unpark = std::mem::take(&mut self.park_scratch);
        unpark.clear();
        for &id in &self.quota_parked {
            let tenant = self.requests[&id].spec.tenant;
            let quota = self.quota_of(tenant);
            let need = self.blocks.blocks_for(self.admission_tokens_for(id));
            let extra = self
                .quota_extra_scratch
                .get(tenant as usize)
                .copied()
                .unwrap_or(0);
            if need > quota || self.tenant_held(tenant) + extra + need <= quota {
                unpark.push(id);
                if let Some(e) = self.quota_extra_scratch.get_mut(tenant as usize) {
                    *e += need;
                }
            }
        }
        for &id in &unpark {
            let pos = self
                .quota_parked
                .iter()
                .position(|&p| p == id)
                .expect("parked");
            self.quota_parked.remove(pos);
        }
        // Front-of-tier inserts prepend within the tier, so walk the batch
        // backwards to restore original order.
        for &id in unpark.iter().rev() {
            self.enqueue_waiting_front(id);
        }
        self.park_scratch = unpark;
    }

    /// Parks consecutive quota-blocked requests at the waiting front so the
    /// next admissible request surfaces — an over-quota tenant's backlog
    /// must not head-of-line-block other tenants. Called by the admission
    /// gate before it reads the front; no-op while quotas are disarmed.
    fn park_quota_blocked_front(&mut self) {
        if self.tenant_quota_blocks.is_empty() {
            return;
        }
        while let Some(&id) = self.waiting.front() {
            if self.within_quota(id) {
                break;
            }
            self.waiting.pop_front();
            self.quota_parked.push_back(id);
            let tenant = self.requests[&id].spec.tenant;
            *tenant_slot(&mut self.quota_denied, tenant) += 1;
        }
    }

    /// Runs one [`BlockManager`] operation on `id`'s holding and charges the
    /// change in blocks `id` owns to its tenant. Borrowed shared prefix
    /// blocks belong to the cache tier, so they are never charged.
    fn charge_tenant<T>(
        &mut self,
        id: RequestId,
        op: impl FnOnce(&mut BlockManager, &mut KvHolding) -> T,
    ) -> T {
        let r = self.requests.get_mut(&id).expect("tracked");
        let before = r.kv.blocks();
        let out = op(&mut self.blocks, &mut r.kv);
        let delta = r.kv.blocks() as i64 - before as i64;
        if delta != 0 {
            let held = tenant_slot(&mut self.tenant_held_blocks, r.spec.tenant);
            *held = held
                .checked_add_signed(delta)
                .expect("tenant block accounting underflow");
        }
        out
    }

    /// The admission gate: the only way from `waiting` into the running
    /// set. While the replica is open and below its batch-size cap, it
    /// parks quota-blocked requests, then admits the front request if the
    /// caller's `fits` accepts it and `admission_tokens_for` tokens of KV
    /// can be reserved for it. Returns the admitted id.
    ///
    /// `prefetched` selects which requests the caller admits. With `true`
    /// it admits only requests that need **no** prefill, because their KV
    /// arrived from a prefill replica. They enter the decode phase. With
    /// `false` it admits only requests with prefill work left. They enter
    /// the prefill phase, and their reservation borrows cached prefix
    /// blocks on a prefix-cache hit. A policy loop must refuse
    /// remote-prefilled requests: if a preemption frees memory between the
    /// prefetch pass and the policy loop, admitting one there would
    /// re-prefill cached work. That would push `prefilled` past the prompt
    /// length and underflow `remaining_prefill`.
    fn admit_next(
        &mut self,
        prefetched: bool,
        fits: impl FnOnce(&Self, &Request) -> bool,
    ) -> Option<RequestId> {
        if self.admissions_closed || self.num_running() >= self.config.max_batch_size {
            return None;
        }
        self.park_quota_blocked_front();
        let &id = self.waiting.front()?;
        let r = &self.requests[&id];
        let spec = r.spec;
        if (r.remaining_prefill() == 0) != prefetched || !fits(self, &spec) {
            return None;
        }
        debug_assert!(self.within_quota(id), "the park pass admits in quota");
        let tokens = self.admission_tokens_for(id);
        let hit = self.charge_tenant(id, |b, kv| {
            if prefetched {
                b.try_reserve(kv, tokens).then_some(0)
            } else {
                b.try_reserve_prefixed(
                    kv,
                    tokens,
                    spec.prefix_id,
                    spec.prefill_tokens,
                    spec.prefix_len,
                )
            }
        })?;
        self.waiting.pop_front();
        if hit > 0 {
            debug_assert!(hit < spec.prefill_tokens, "a hit leaves prefill work");
            self.requests.get_mut(&id).expect("tracked").prefilled = hit;
            self.prefix_hit_requests += 1;
            self.prefix_tokens_saved += hit;
            *tenant_slot(&mut self.tenant_prefix_hits, spec.tenant) += 1;
            *tenant_slot(&mut self.tenant_prefix_saved, spec.tenant) += hit;
        }
        let phase = if prefetched {
            RequestPhase::Decoding
        } else {
            RequestPhase::Prefilling
        };
        self.enter_running(id, phase);
        Some(id)
    }

    /// Moves `id` (already dequeued from `waiting`) into the running set
    /// under `phase`, assigning its admission sequence and maintaining the
    /// phase lists and the projected-KV counter.
    fn enter_running(&mut self, id: RequestId, phase: RequestPhase) {
        let seq = self.admit_seq;
        self.admit_seq += 1;
        let total = {
            let r = self.requests.get_mut(&id).expect("tracked");
            r.phase = phase;
            r.admit_seq = seq;
            r.spec.total_tokens()
        };
        self.projected_tokens += total;
        let list = match phase {
            RequestPhase::Prefilling => &mut self.prefilling,
            RequestPhase::Decoding => &mut self.decoding,
            _ => unreachable!("requests enter running as Prefilling or Decoding"),
        };
        list.insert_ordered(&mut self.requests, id);
    }

    /// Removes `id` from its phase list and the projected-KV counter (the
    /// shared half of finishing and preempting).
    fn leave_running(&mut self, id: RequestId) {
        let (phase, total) = {
            let r = &self.requests[&id];
            (r.phase, r.spec.total_tokens())
        };
        let list = match phase {
            RequestPhase::Prefilling => &mut self.prefilling,
            RequestPhase::Decoding => &mut self.decoding,
            _ => unreachable!("only running requests leave the running set"),
        };
        list.unlink(&mut self.requests, id);
        self.projected_tokens -= total;
    }

    /// Requests waiting for admission.
    pub fn num_waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Requests admitted and unfinished.
    pub fn num_running(&self) -> usize {
        self.prefilling.len + self.decoding.len
    }

    /// All unfinished requests on this replica (waiting, quota-parked, or
    /// running).
    pub fn outstanding(&self) -> usize {
        self.waiting.len() + self.quota_parked.len() + self.num_running()
    }

    /// Total preemption-restarts so far (the paper's vLLM restart metric).
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Requests fully completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Forms the next batch, or `None` when nothing can run (idle or all
    /// in-flight). Slice storage comes from the recycle pool, so the steady
    /// state allocates nothing.
    pub fn next_batch(&mut self) -> Option<BatchComposition> {
        self.apply_quota_parking();
        // Remote-prefilled requests enter the decode phase before any
        // policy forms its batch.
        while self.admit_next(true, |_, _| true).is_some() {}
        let mut slices = self.slice_pool.pop().unwrap_or_default();
        debug_assert!(slices.is_empty());
        match self.config.policy {
            BatchPolicyKind::Vllm => {
                // Prefill-prioritizing: eagerly admit waiting prompts as a
                // prefill-only batch, otherwise resume every decode.
                self.admit_whole_prompts(&mut slices, false);
                if slices.is_empty() {
                    self.collect_decodes(&mut slices);
                }
            }
            BatchPolicyKind::OrcaPlus => {
                // Mixed iteration-level batching: decodes, then new prompts.
                self.collect_decodes(&mut slices);
                self.admit_whole_prompts(&mut slices, false);
            }
            BatchPolicyKind::LightLlm => {
                // Orca+ plus token-level admission control.
                self.collect_decodes(&mut slices);
                self.admit_whole_prompts(&mut slices, true);
            }
            BatchPolicyKind::SarathiServe { chunk_size } => {
                self.sarathi_batch(chunk_size, &mut slices)
            }
            BatchPolicyKind::FasterTransformer => self.ft_batch(&mut slices),
        }
        debug_assert!(
            slices.len() <= self.num_running() && self.num_running() <= self.config.max_batch_size,
            "every slice is a distinct running request, and the gate caps the running set"
        );
        if slices.is_empty() {
            self.slice_pool.push(slices);
            None
        } else {
            Some(BatchComposition::new(slices))
        }
    }

    /// Returns a retired batch's slice storage to the formation pool so the
    /// next [`ReplicaScheduler::next_batch`] call is allocation-free.
    /// Optional: dropping a batch instead merely costs a reallocation later.
    pub fn recycle_batch(&mut self, batch: BatchComposition) {
        let mut storage = batch.into_slices();
        storage.clear();
        self.slice_pool.push(storage);
    }

    /// Applies the effects of a finished batch, returning per-request events.
    ///
    /// Allocates the event vector; drivers on the hot path should use
    /// [`ReplicaScheduler::complete_batch_into`] with a reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if the batch references unknown requests (a driver bug).
    pub fn complete_batch(&mut self, batch: &BatchComposition) -> Vec<CompletionEvent> {
        let mut events = Vec::with_capacity(batch.num_requests());
        self.complete_batch_into(batch, &mut events);
        events
    }

    /// Applies the effects of a finished batch, writing per-request events
    /// into `events` (cleared first). Steady-state allocation-free when the
    /// buffer's capacity has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if the batch references unknown requests (a driver bug).
    pub fn complete_batch_into(
        &mut self,
        batch: &BatchComposition,
        events: &mut Vec<CompletionEvent>,
    ) {
        events.clear();
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
                debug_assert!(req.prefilled <= req.spec.prefill_tokens);
                if req.prefill_complete() {
                    if req.decoded == 0 {
                        // The prefill iteration yields the first output token.
                        req.decoded = 1;
                        ev.prefill_completed = true;
                        ev.produced_token = true;
                    }
                    self.promote_to_decode(id);
                    if self.requests[&id].finished() {
                        ev.finished = true;
                        self.finish(id);
                    }
                }
            } else {
                req.decoded += 1;
                debug_assert!(req.decoded <= req.spec.decode_tokens);
                ev.produced_token = true;
                if req.finished() {
                    ev.finished = true;
                    self.finish(id);
                }
            }
            events.push(ev);
        }
    }

    /// Moves a request whose prefill just completed from the prefilling list
    /// to the decoding list (same admission sequence, so admission order is
    /// preserved across the phase transition).
    fn promote_to_decode(&mut self, id: RequestId) {
        self.prefilling.unlink(&mut self.requests, id);
        self.requests.get_mut(&id).expect("tracked").phase = RequestPhase::Decoding;
        self.decoding.insert_ordered(&mut self.requests, id);
    }

    fn finish(&mut self, id: RequestId) {
        self.charge_tenant(id, |b, kv| b.release(kv));
        self.leave_running(id);
        self.requests.remove(&id);
        self.completed += 1;
    }

    /// Evicts a running request (vLLM recompute-restart): releases its KV,
    /// resets its prefill progress, and requeues it at the front of its
    /// priority tier in the waiting queue.
    fn evict(&mut self, id: RequestId) {
        self.leave_running(id);
        self.charge_tenant(id, |b, kv| b.release(kv));
        let req = self.requests.get_mut(&id).expect("tracked");
        req.restart();
        self.enqueue_waiting_front(id);
        self.preemptions += 1;
    }

    // ---- crash eviction and graceful drain -------------------------------

    /// Crash eviction: removes **every** request from the replica — waiting,
    /// quota-parked, and running — releasing all KV blocks, and appends their
    /// ids to `out` in deterministic order (waiting FIFO, then quota-parked
    /// FIFO, then the prefilling and decoding lists in admission order).
    /// The caller re-routes the evicted work to surviving replicas; prefill
    /// progress is lost (vLLM recompute semantics), which
    /// [`TrackedRequest::restart`] would also do — here the tracked state is
    /// dropped entirely because the request leaves the replica.
    ///
    /// Does **not** count toward [`ReplicaScheduler::preemptions`]: crash
    /// evictions are accounted separately by the cluster driver.
    pub fn evict_all(&mut self, out: &mut Vec<RequestId>) {
        self.take_queued(out);
        for list in [self.prefilling, self.decoding] {
            let mut cur = list.head;
            while cur != NO_REQ {
                let next = self.requests[&cur].next;
                self.leave_running(cur);
                self.charge_tenant(cur, |b, kv| b.release(kv));
                self.requests.remove(&cur);
                out.push(cur);
                cur = next;
            }
        }
        debug_assert!(
            self.requests.is_empty(),
            "crash eviction must clear the slab"
        );
        debug_assert_eq!(self.projected_tokens, 0);
        // A crash loses the replica's cached prefixes too: with every
        // request released, all entries are unreferenced and reclaimable.
        self.blocks.evict_cached_prefixes();
        debug_assert_eq!(self.blocks.used_blocks(), 0, "all KV reclaimed");
        debug_assert!(
            self.tenant_held_blocks.iter().all(|&h| h == 0),
            "tenant holdings must zero out on crash"
        );
    }

    /// Graceful drain: closes admissions (in-flight and running work keeps
    /// executing to completion) and removes everything that has **not**
    /// started — the waiting queue and the quota-parked set — appending the
    /// ids to `out` (waiting FIFO first, then parked FIFO) for the caller to
    /// re-route. Queued work holds no KV blocks, so nothing is released.
    pub fn drain_queued(&mut self, out: &mut Vec<RequestId>) {
        self.admissions_closed = true;
        self.take_queued(out);
    }

    /// Removes the waiting queue and then the quota-parked set, appending
    /// their ids to `out` in FIFO order. Queued work holds no KV: a
    /// preemption releases its victim's blocks before requeueing it.
    fn take_queued(&mut self, out: &mut Vec<RequestId>) {
        for id in self.waiting.drain(..).chain(self.quota_parked.drain(..)) {
            let r = self.requests.remove(&id).expect("tracked");
            debug_assert_eq!(r.kv, KvHolding::default(), "queued work holds no KV");
            out.push(id);
        }
    }

    /// Reopens admissions after a drain was cancelled or the replica came
    /// back from warm-up.
    pub fn reopen_admissions(&mut self) {
        self.admissions_closed = false;
    }

    /// Preempts (recompute-restarts) one running request that is not in
    /// flight and not `protect`: the **least urgent** (numerically highest)
    /// priority class first, and within that class the most recently
    /// admitted. Returns `true` if a victim was evicted.
    ///
    /// With a single priority class the victim is simply the most recently
    /// admitted eligible request, so the walk merges the two phase lists
    /// tail-first by admission sequence — the same order as the seed's
    /// `rposition` over its single admission-ordered vector — and stops at
    /// the first eligible request. Mixed priorities disable the early exit:
    /// the merged walk continues and keeps the best (priority, admit_seq)
    /// victim seen.
    fn preempt_one(&mut self, protect: RequestId) -> bool {
        let mut dec = self.decoding.tail;
        let mut pre = self.prefilling.tail;
        let mut victim = NO_REQ;
        let mut victim_key = (0u8, 0u64);
        loop {
            let pick_decode = if dec == NO_REQ && pre == NO_REQ {
                break;
            } else if pre == NO_REQ {
                true
            } else if dec == NO_REQ {
                false
            } else {
                self.requests[&dec].admit_seq > self.requests[&pre].admit_seq
            };
            let id = if pick_decode { dec } else { pre };
            let r = &self.requests[&id];
            if id != protect && r.inflight_tokens == 0 {
                let key = (r.spec.priority, r.admit_seq);
                if victim == NO_REQ || key > victim_key {
                    victim = id;
                    victim_key = key;
                }
                // Uniform priority: the first eligible request in the
                // merged tail-first walk is the final answer.
                if !self.priority_in_use {
                    break;
                }
            }
            if pick_decode {
                dec = r.prev;
            } else {
                pre = r.prev;
            }
        }
        if victim == NO_REQ {
            return false;
        }
        self.evict(victim);
        true
    }

    /// Grows `id`'s KV reservation for one appended token, preempting other
    /// requests if necessary (vLLM recompute). If no victim remains, `id`
    /// itself is preempted and `false` is returned. Decode growth is never
    /// quota-blocked.
    fn grow_or_preempt(&mut self, id: RequestId) -> bool {
        let target = self.requests[&id].cached_tokens() + 1;
        loop {
            if self.charge_tenant(id, |b, kv| b.try_grow(kv, target)) {
                return true;
            }
            if !self.preempt_one(id) {
                // Last resort: preempt the request itself.
                self.evict(id);
                return false;
            }
        }
    }

    /// Emits a prefill slice of `take` tokens for running request `id` and
    /// marks it in flight.
    fn push_prefill(&mut self, slices: &mut Vec<RequestSlice>, id: RequestId, take: u64) {
        let r = self.requests.get_mut(&id).expect("tracked");
        slices.push(RequestSlice::prefill(id, take, r.prefilled));
        r.inflight_tokens = take;
    }

    /// Snapshots the ids of `list` that pass `keep` into the scratch buffer
    /// and returns it (swap it back when done). Snapshotting lets formation
    /// passes mutate the lists (growth-driven preemption) mid-iteration.
    fn snapshot_ids(
        &mut self,
        list: &PhaseList,
        keep: impl Fn(&TrackedRequest) -> bool,
    ) -> Vec<RequestId> {
        let mut ids = std::mem::take(&mut self.ids_scratch);
        ids.clear();
        let mut cur = list.head;
        while cur != NO_REQ {
            let r = &self.requests[&cur];
            if keep(r) {
                ids.push(cur);
            }
            cur = r.next;
        }
        ids
    }

    /// Builds decode slices for every schedulable decode request, handling
    /// memory growth with preemption.
    fn collect_decodes(&mut self, slices: &mut Vec<RequestSlice>) {
        let decoding = self.decoding;
        let ids = self.snapshot_ids(&decoding, |r| r.inflight_tokens == 0 && !r.finished());
        for &id in &ids {
            // The request may have been preempted (back to Waiting) by an
            // earlier growth in this same pass.
            if self.requests[&id].phase != RequestPhase::Decoding {
                continue;
            }
            if !self.grow_or_preempt(id) {
                continue;
            }
            let r = self.requests.get_mut(&id).expect("tracked");
            slices.push(RequestSlice::decode(id, r.cached_tokens()));
            r.inflight_tokens = 1;
        }
        self.ids_scratch = ids;
    }

    /// The vLLM, Orca+ and LightLLM admission loop: admits waiting prompts
    /// while each **whole** prompt fits the token budget left after
    /// `slices`, charging the whole prompt even when a prefix-cache hit
    /// shrinks the computed slice. With `kv_bound` (LightLLM) it also
    /// admits only while the projected KV footprint of everything running,
    /// at completion, stays within capacity, avoiding future preemptions.
    fn admit_whole_prompts(&mut self, slices: &mut Vec<RequestSlice>, kv_bound: bool) {
        let budget = self.config.token_budget();
        let capacity_tokens = self.blocks.total_blocks() * self.blocks.block_size() as u64;
        let mut tokens = slices.len() as u64;
        while let Some(id) = self.admit_next(false, |s, spec| {
            tokens + spec.prefill_tokens <= budget
                && (!kv_bound || s.projected_tokens + spec.total_tokens() <= capacity_tokens)
        }) {
            let r = &self.requests[&id];
            tokens += r.spec.prefill_tokens;
            self.push_prefill(slices, id, r.remaining_prefill());
        }
    }

    // ---- Sarathi-Serve: chunked prefills under a token budget ------------

    fn sarathi_batch(&mut self, chunk_size: u64, slices: &mut Vec<RequestSlice>) {
        self.collect_decodes(slices);
        let mut budget = chunk_size.saturating_sub(slices.len() as u64);
        // Continue partially-prefilled running requests first.
        let prefilling = self.prefilling;
        let partial = self.snapshot_ids(&prefilling, |r| r.inflight_tokens == 0);
        for &id in &partial {
            if budget == 0 {
                break;
            }
            let take = self.requests[&id].remaining_prefill().min(budget);
            if take == 0 {
                continue;
            }
            self.push_prefill(slices, id, take);
            budget -= take;
        }
        self.ids_scratch = partial;
        // Admit new requests with the remaining budget, charging only the
        // chunk each one takes (a prefix-cache hit starts the chunked
        // prefill at `prefilled` instead of 0).
        while budget > 0 {
            let Some(id) = self.admit_next(false, |_, _| true) else {
                break;
            };
            let take = self.requests[&id].remaining_prefill().min(budget);
            self.push_prefill(slices, id, take);
            budget -= take;
        }
    }

    // ---- FasterTransformer: cohort (request-level) batching ---------------

    fn ft_batch(&mut self, slices: &mut Vec<RequestSlice>) {
        if self.num_running() == 0 {
            // Admit a fresh cohort. The gate reserves each request's full
            // KV footprint (FT preallocates max sequence length up front);
            // the prefill pass below emits the slices.
            while self.admit_next(false, |_, _| true).is_some() {}
        }
        // Prefill phase: process cohort prompts (token budget may spread
        // them over several iterations).
        let budget = self.config.token_budget();
        let mut tokens = 0u64;
        let prefilling = self.prefilling;
        let pending = self.snapshot_ids(&prefilling, |r| r.inflight_tokens == 0);
        for &id in &pending {
            // `remaining_prefill` equals the full prompt unless a prefix-
            // cache hit pre-filled the shared head at cohort admission.
            let take = self.requests[&id].remaining_prefill();
            if tokens + take > budget && tokens > 0 {
                break;
            }
            self.push_prefill(slices, id, take);
            tokens += take;
        }
        self.ids_scratch = pending;
        if !slices.is_empty() {
            return;
        }
        // Decode phase: everyone decodes until the whole cohort finishes
        // (no new admissions in between — decode prioritizing).
        self.collect_decodes(slices);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidur_core::time::SimTime;

    fn sched(policy: BatchPolicyKind, blocks: u64) -> ReplicaScheduler {
        ReplicaScheduler::new(SchedulerConfig::new(policy, 8), blocks, 16)
    }

    fn req(id: RequestId, prefill: u64, decode: u64) -> Request {
        Request::new(id, SimTime::ZERO, prefill, decode)
    }

    /// Drives the scheduler until all requests finish; returns batch count.
    fn run_to_completion(s: &mut ReplicaScheduler, max_iters: usize) -> usize {
        let mut iters = 0;
        while s.outstanding() > 0 {
            let batch = s.next_batch().expect("progress");
            s.complete_batch(&batch);
            iters += 1;
            assert!(iters <= max_iters, "no convergence after {max_iters} iters");
        }
        iters
    }

    #[test]
    fn vllm_prefill_prioritizes() {
        let mut s = sched(BatchPolicyKind::Vllm, 10_000);
        s.add_request(req(0, 100, 3));
        s.add_request(req(1, 200, 3));
        let b = s.next_batch().unwrap();
        // Both prompts batched together, no decodes.
        assert_eq!(b.num_prefill(), 2);
        assert_eq!(b.total_query_tokens(), 300);
        s.complete_batch(&b);
        // Now a new arrival pauses decodes again.
        s.add_request(req(2, 50, 2));
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.num_prefill(), 1);
        assert_eq!(b2.num_decode(), 0);
    }

    #[test]
    fn vllm_decode_batch_after_prefills() {
        let mut s = sched(BatchPolicyKind::Vllm, 10_000);
        s.add_request(req(0, 100, 5));
        let b = s.next_batch().unwrap();
        let ev = s.complete_batch(&b);
        assert!(ev[0].prefill_completed && ev[0].produced_token && !ev[0].finished);
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.num_decode(), 1);
        assert_eq!(b2.slices()[0].cached_tokens, 101);
    }

    #[test]
    fn vllm_respects_token_budget() {
        let mut s = sched(BatchPolicyKind::Vllm, 100_000);
        s.add_request(req(0, 3000, 2));
        s.add_request(req(1, 2000, 2));
        let b = s.next_batch().unwrap();
        // 3000 + 2000 > 4096: only the first fits.
        assert_eq!(b.num_prefill(), 1);
        assert_eq!(b.total_query_tokens(), 3000);
    }

    #[test]
    fn orca_mixes_prefill_and_decode() {
        let mut s = sched(BatchPolicyKind::OrcaPlus, 10_000);
        s.add_request(req(0, 100, 5));
        let b = s.next_batch().unwrap();
        s.complete_batch(&b);
        s.add_request(req(1, 50, 2));
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.num_decode(), 1, "ongoing decode continues");
        assert_eq!(b2.num_prefill(), 1, "new prompt joins the same batch");
    }

    #[test]
    fn sarathi_chunks_long_prompts() {
        let mut s = ReplicaScheduler::new(
            SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 8),
            10_000,
            16,
        );
        s.add_request(req(0, 2000, 3));
        let b1 = s.next_batch().unwrap();
        assert_eq!(b1.total_query_tokens(), 512);
        assert!(b1.slices()[0].is_prefill);
        s.complete_batch(&b1);
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.total_query_tokens(), 512);
        assert_eq!(b2.slices()[0].cached_tokens, 512, "chunk continues history");
        // Total prefill spread over ceil(2000/512) = 4 iterations.
        s.complete_batch(&b2);
        let b3 = s.next_batch().unwrap();
        s.complete_batch(&b3);
        let b4 = s.next_batch().unwrap();
        assert_eq!(b4.total_query_tokens(), 2000 - 3 * 512);
        let ev = s.complete_batch(&b4);
        assert!(ev[0].prefill_completed);
    }

    #[test]
    fn sarathi_never_pauses_decodes() {
        let mut s = ReplicaScheduler::new(
            SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 256 }, 8),
            10_000,
            16,
        );
        s.add_request(req(0, 100, 10));
        let b = s.next_batch().unwrap();
        s.complete_batch(&b);
        // A long prompt arrives while request 0 decodes.
        s.add_request(req(1, 1000, 2));
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.num_decode(), 1, "decode rides along");
        assert_eq!(b2.num_prefill(), 1);
        // Chunk shrinks by the decode token: 256 - 1 = 255.
        let prefill_tokens: u64 = b2
            .slices()
            .iter()
            .filter(|sl| sl.is_prefill)
            .map(|sl| sl.query_tokens)
            .sum();
        assert_eq!(prefill_tokens, 255);
    }

    #[test]
    fn ft_runs_cohort_to_completion() {
        let mut s = sched(BatchPolicyKind::FasterTransformer, 10_000);
        s.add_request(req(0, 100, 3));
        s.add_request(req(1, 100, 5));
        let b = s.next_batch().unwrap();
        assert_eq!(b.num_prefill(), 2);
        s.complete_batch(&b);
        // Arrival mid-cohort must NOT be admitted.
        s.add_request(req(2, 10, 1));
        for _ in 0..4 {
            let b = s.next_batch().unwrap();
            assert!(
                b.slices().iter().all(|sl| sl.request_id != 2),
                "no admission mid-cohort"
            );
            s.complete_batch(&b);
        }
        // Cohort (0, 1) done; now 2 is admitted.
        assert_eq!(s.completed(), 2);
        let b = s.next_batch().unwrap();
        assert_eq!(b.slices()[0].request_id, 2);
    }

    #[test]
    fn lightllm_token_admission_blocks_oversize() {
        // Capacity: 100 blocks * 16 = 1600 tokens.
        let mut s = sched(BatchPolicyKind::LightLlm, 100);
        s.add_request(req(0, 500, 500)); // projected 1000
        s.add_request(req(1, 500, 500)); // projected 2000 > 1600 => deferred
        let b = s.next_batch().unwrap();
        assert_eq!(b.num_prefill(), 1);
        assert_eq!(s.num_waiting(), 1, "second request deferred");
    }

    #[test]
    fn preemption_on_memory_pressure() {
        // Tiny memory: 8 blocks * 16 = 128 tokens; the two requests need
        // 140 tokens at peak, so decode growth must preempt one of them.
        let mut s = sched(BatchPolicyKind::Vllm, 8);
        s.add_request(req(0, 40, 30));
        s.add_request(req(1, 40, 30));
        let mut saw_preemption = false;
        for _ in 0..400 {
            if s.outstanding() == 0 {
                break;
            }
            if let Some(b) = s.next_batch() {
                s.complete_batch(&b);
            }
            if s.preemptions() > 0 {
                saw_preemption = true;
            }
        }
        assert!(saw_preemption, "expected vLLM recompute preemption");
        assert_eq!(s.completed(), 2, "both requests still finish");
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn all_policies_complete_all_requests() {
        for policy in [
            BatchPolicyKind::Vllm,
            BatchPolicyKind::OrcaPlus,
            BatchPolicyKind::SarathiServe { chunk_size: 512 },
            BatchPolicyKind::FasterTransformer,
            BatchPolicyKind::LightLlm,
        ] {
            let mut s = sched(policy, 10_000);
            for i in 0..20 {
                s.add_request(req(i, 50 + i * 13, 1 + i % 7));
            }
            let iters = run_to_completion(&mut s, 10_000);
            assert!(iters > 0);
            assert_eq!(s.completed(), 20, "{policy}");
            assert_eq!(s.blocks().used_blocks(), 0, "{policy}: all KV released");
        }
    }

    #[test]
    fn inflight_requests_not_double_scheduled() {
        let mut s = sched(BatchPolicyKind::OrcaPlus, 10_000);
        s.add_request(req(0, 100, 5));
        let b1 = s.next_batch().unwrap();
        // Without completing b1, the next batch must not contain request 0.
        assert!(s.next_batch().is_none());
        s.complete_batch(&b1);
        assert!(s.next_batch().is_some());
    }

    #[test]
    fn single_token_decode_finishes_at_prefill() {
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.add_request(req(0, 64, 1));
        let b = s.next_batch().unwrap();
        let ev = s.complete_batch(&b);
        assert!(ev[0].prefill_completed && ev[0].finished);
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn priority_tiers_reorder_admission() {
        let mut s =
            ReplicaScheduler::new(SchedulerConfig::new(BatchPolicyKind::Vllm, 1), 10_000, 16);
        s.add_request(req(0, 100, 2).with_priority(2));
        s.add_request(req(1, 100, 2).with_priority(0));
        let b = s.next_batch().unwrap();
        assert_eq!(b.slices()[0].request_id, 1, "urgent class admits first");
    }

    #[test]
    fn priority_fifo_within_tier() {
        let mut s =
            ReplicaScheduler::new(SchedulerConfig::new(BatchPolicyKind::Vllm, 1), 10_000, 16);
        s.add_request(req(0, 100, 2).with_priority(1));
        s.add_request(req(1, 100, 2).with_priority(1));
        let b = s.next_batch().unwrap();
        assert_eq!(b.slices()[0].request_id, 0, "same class stays FIFO");
    }

    #[test]
    fn preemption_prefers_low_priority_victims() {
        // 10 blocks × 16 = 160 tokens. Admission order (pinned by
        // sequential prefill batches): r0 prio 0 (3 blocks), r1 prio 2,
        // r2 prio 1, r3 prio 0 (2 blocks each) — 9 blocks held, 1 free.
        // First decode pass: r0's growth takes the last block, r1's growth
        // OOMs with r0 already in-flight, so the eligible victims are r2
        // (priority 1) and r3 (priority 0). The seed would evict r3 — the
        // latest admission — but priority-aware selection must take the
        // less urgent r2.
        let mut s = sched(BatchPolicyKind::Vllm, 10);
        for (id, priority, prefill) in [(0u64, 0u8, 48u64), (1, 2, 32), (2, 1, 32), (3, 0, 32)] {
            s.add_request(req(id, prefill, 30).with_priority(priority));
            let b = s.next_batch().unwrap();
            assert_eq!(b.slices()[0].request_id, id);
            s.complete_batch(&b);
        }
        let b = s.next_batch().unwrap();
        s.complete_batch(&b);
        assert_eq!(s.preemptions(), 1, "growth must have preempted once");
        assert_eq!(s.requests[&2].restarts, 1, "r2 is the victim");
        assert_eq!(s.requests[&3].restarts, 0, "urgent r3 survives");
    }

    #[test]
    #[should_panic(expected = "duplicate request id")]
    fn duplicate_ids_rejected() {
        let mut s = sched(BatchPolicyKind::Vllm, 100);
        s.add_request(req(0, 10, 1));
        s.add_request(req(0, 10, 1));
    }

    #[test]
    fn remote_prefilled_requests_decode_without_prefill() {
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.add_remote_prefilled(req(0, 500, 10), 1);
        let b = s.next_batch().expect("decode batch");
        assert_eq!(b.num_prefill(), 0, "no prefill work for transferred KV");
        assert_eq!(b.num_decode(), 1);
        assert_eq!(b.slices()[0].cached_tokens, 501, "prompt + first token");
        let ev = s.complete_batch(&b);
        assert!(ev[0].produced_token && !ev[0].prefill_completed);
        // 10 output tokens total, 1 produced remotely: 9 decode iterations.
        let mut iters = 1;
        while s.outstanding() > 0 {
            let b = s.next_batch().unwrap();
            s.complete_batch(&b);
            iters += 1;
        }
        assert_eq!(iters, 9);
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn remote_prefilled_respects_memory() {
        // 4 blocks * 16 = 64 tokens; a 500-token transferred KV can't fit.
        let mut s = sched(BatchPolicyKind::Vllm, 4);
        s.add_remote_prefilled(req(0, 500, 5), 1);
        assert!(s.next_batch().is_none(), "must wait for memory");
        assert_eq!(s.num_waiting(), 1);
    }

    #[test]
    #[should_panic(expected = "remote prefill")]
    fn remote_prefilled_needs_first_token() {
        let mut s = sched(BatchPolicyKind::Vllm, 100);
        s.add_remote_prefilled(req(0, 10, 5), 0);
    }

    #[test]
    fn quota_parks_over_quota_tenant_without_blocking_others() {
        // 1000 blocks; tenant 0 capped at 8 blocks (128 tokens). Its second
        // request must park while tenant 1 behind it still admits.
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.set_tenant_quotas(&[8]);
        s.add_request(req(0, 100, 50).with_tenant(0)); // 7 blocks
        s.add_request(req(1, 100, 50).with_tenant(0)); // would exceed 8
        s.add_request(req(2, 100, 5).with_tenant(1)); // unlimited tenant
        let b = s.next_batch().unwrap();
        let admitted: Vec<u64> = b.slices().iter().map(|sl| sl.request_id).collect();
        assert_eq!(admitted, vec![0, 2], "request 1 parked, not blocking 2");
        assert_eq!(s.quota_denied(), &[1], "one denial for tenant 0");
        assert_eq!(s.outstanding(), 3, "parked requests stay outstanding");
        s.complete_batch(&b);
        // Drain tenant 0's first request; its blocks free and 1 unparks.
        let mut guard = 0;
        while s.outstanding() > 0 {
            if let Some(b) = s.next_batch() {
                s.complete_batch(&b);
            }
            guard += 1;
            assert!(guard < 1_000, "quota parking must not deadlock");
        }
        assert_eq!(s.completed(), 3);
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn quota_solo_infeasible_request_is_exempt() {
        // Quota 2 blocks but the request alone needs 7: exempt, or the
        // queue would deadlock.
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.set_tenant_quotas(&[2]);
        s.add_request(req(0, 100, 5).with_tenant(0));
        let b = s.next_batch().expect("exempt request admits");
        assert_eq!(b.slices()[0].request_id, 0);
        s.complete_batch(&b);
        while s.outstanding() > 0 {
            let b = s.next_batch().unwrap();
            s.complete_batch(&b);
        }
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn quota_disabled_is_transparent() {
        let drive = |quotas: bool| {
            let mut s = sched(BatchPolicyKind::Vllm, 50);
            if quotas {
                // Quota at full capacity: never binds.
                s.set_tenant_quotas(&[50]);
            }
            for i in 0..10 {
                s.add_request(req(i, 40 + i * 11, 10 + i % 5).with_tenant(0));
            }
            let mut batches = Vec::new();
            let mut guard = 0;
            while s.outstanding() > 0 {
                guard += 1;
                assert!(guard < 10_000);
                if let Some(b) = s.next_batch() {
                    batches.push(b.slices().to_vec());
                    s.complete_batch(&b);
                }
            }
            (batches, s.preemptions())
        };
        assert_eq!(drive(false), drive(true), "full-capacity quota is a no-op");
    }

    #[test]
    fn quota_respects_tenant_isolation_under_pressure() {
        // 20 blocks split 10/10 between two tenants; each floods. Neither
        // tenant's holdings may exceed its quota at admission time.
        let mut s = sched(BatchPolicyKind::Vllm, 20);
        s.set_tenant_quotas(&[10, 10]);
        for i in 0..6 {
            s.add_request(req(i, 40, 10).with_tenant((i % 2) as u32));
        }
        let mut guard = 0;
        while s.outstanding() > 0 {
            guard += 1;
            assert!(guard < 10_000, "no deadlock");
            if let Some(b) = s.next_batch() {
                s.complete_batch(&b);
            }
        }
        assert_eq!(s.completed(), 6);
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn evict_all_reclaims_kv_and_orders_deterministically() {
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.set_tenant_quotas(&[8, u64::MAX]);
        s.add_request(req(0, 100, 50).with_tenant(0)); // admits (7 blocks)
        s.add_request(req(1, 100, 50).with_tenant(0)); // parks (over quota)
        s.add_request(req(2, 100, 5).with_tenant(1)); // admits
        let b = s.next_batch().unwrap();
        s.complete_batch(&b);
        s.add_request(req(3, 40, 2).with_tenant(1)); // still waiting
        let b2 = s.next_batch().unwrap(); // admits 3, decodes 0 and 2
        s.complete_batch(&b2);
        assert!(s.blocks().used_blocks() > 0);
        let mut out = Vec::new();
        s.evict_all(&mut out);
        // Order: waiting FIFO, parked FIFO, then running in admission order.
        assert_eq!(out, vec![1, 0, 2, 3]);
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.blocks().used_blocks(), 0, "all KV reclaimed");
        assert_eq!(s.preemptions(), 0, "crash eviction is not a preemption");
        // The replica accepts the same ids again after eviction (re-route
        // back to a recovered replica) and quota bookkeeping still works.
        s.add_request(req(0, 100, 2).with_tenant(0));
        let b3 = s.next_batch().expect("fresh admission after eviction");
        assert_eq!(b3.slices()[0].request_id, 0);
        s.complete_batch(&b3);
        while s.outstanding() > 0 {
            let b = s.next_batch().unwrap();
            s.complete_batch(&b);
        }
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn drain_queued_closes_admissions_but_finishes_running_work() {
        let mut s = sched(BatchPolicyKind::Vllm, 1_000);
        s.add_request(req(0, 100, 3));
        let b = s.next_batch().unwrap();
        s.complete_batch(&b);
        s.add_request(req(1, 50, 2));
        s.add_request(req(2, 50, 2));
        let mut out = Vec::new();
        s.drain_queued(&mut out);
        assert_eq!(out, vec![1, 2], "queued work migrates in FIFO order");
        assert!(s.admissions_closed);
        // Running request 0 still decodes to completion.
        while s.outstanding() > 0 {
            let b = s.next_batch().expect("running work keeps executing");
            assert!(b.slices().iter().all(|sl| sl.request_id == 0));
            s.complete_batch(&b);
        }
        assert_eq!(s.completed(), 1);
        // New arrivals queue but are not admitted while draining.
        s.add_request(req(3, 40, 1));
        assert!(s.next_batch().is_none(), "admissions are closed");
        s.reopen_admissions();
        assert!(s.next_batch().is_some(), "admissions reopen after warm-up");
    }

    /// The admission gate is the only batch-size check. Under every policy
    /// variant the equivalence proptests cover, with remote-prefilled
    /// arrivals, preemption churn under tight KV, armed tenant quotas and an
    /// armed prefix cache, neither the running set nor a formed batch may
    /// exceed `max_batch_size`.
    #[test]
    fn batch_size_limit_respected() {
        let policies = [
            BatchPolicyKind::Vllm,
            BatchPolicyKind::OrcaPlus,
            BatchPolicyKind::SarathiServe { chunk_size: 128 },
            BatchPolicyKind::SarathiServe { chunk_size: 512 },
            BatchPolicyKind::FasterTransformer,
            BatchPolicyKind::LightLlm,
        ];
        let (mut tight_preemptions, mut denials, mut hits) = (0, 0, 0);
        for policy in policies {
            // (max batch, KV blocks): ample memory, then tight memory whose
            // decode growth must preempt.
            for (max_batch, blocks) in [(4usize, 100_000u64), (3, 40)] {
                for armed in [false, true] {
                    let mut s =
                        ReplicaScheduler::new(SchedulerConfig::new(policy, max_batch), blocks, 16);
                    if armed {
                        s.set_tenant_quotas(&[12, 20]);
                        s.arm_prefix_cache();
                    }
                    let mut inflight = VecDeque::new();
                    let mut next_id = 0u64;
                    let mut reached_cap = false;
                    for step in 0..20_000 {
                        if next_id < 40 && step % 3 != 2 {
                            let mut r = req(next_id, 40 + (next_id * 37) % 260, 2 + next_id % 60)
                                .with_tenant((next_id % 2) as u32);
                            if armed {
                                r = r.with_prefix(next_id % 3, 32);
                            }
                            if next_id % 4 == 3 {
                                s.add_remote_prefilled(r, 1);
                            } else {
                                s.add_request(r);
                            }
                            next_id += 1;
                        }
                        // Up to two batches in flight, as under pipeline
                        // parallelism.
                        if inflight.len() < 2 {
                            if let Some(b) = s.next_batch() {
                                assert!(b.num_requests() <= max_batch, "{policy}: batch over cap");
                                inflight.push_back(b);
                            }
                            assert!(s.num_running() <= max_batch, "{policy}: running over cap");
                            reached_cap |= s.num_running() == max_batch;
                        }
                        if inflight.len() == 2 || (inflight.len() == 1 && step % 2 == 1) {
                            let b = inflight.pop_front().expect("in flight");
                            s.complete_batch(&b);
                        }
                        if next_id == 40 && inflight.is_empty() && s.outstanding() == 0 {
                            break;
                        }
                    }
                    assert_eq!(s.completed(), 40, "{policy}: run must drain");
                    assert!(reached_cap, "{policy}: the cap must bind");
                    if blocks == 40 {
                        tight_preemptions += s.preemptions();
                    }
                    denials += s.quota_denied().iter().sum::<u64>();
                    hits += s.prefix_hit_requests();
                }
            }
        }
        assert!(
            tight_preemptions > 0,
            "tight KV must cause preemption churn"
        );
        assert!(
            denials > 0 && hits > 0,
            "armed quotas and prefix cache must engage"
        );
    }
}
