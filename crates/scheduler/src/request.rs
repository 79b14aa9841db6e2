//! Request lifecycle state.
//!
//! A request arrives with a prompt (`prefill_tokens`) and a known output
//! length (`decode_tokens` — traces record how many tokens each query
//! produced, so the simulator replays exact lengths). The first output token
//! is produced by the iteration that completes the prefill; each subsequent
//! decode iteration produces one more.

use crate::memory::KvHolding;
use serde::{Deserialize, Serialize};
use vidur_core::time::SimTime;

/// Unique request identifier.
pub type RequestId = u64;

/// Sentinel for "no request" in the scheduler's intrusive phase lists.
pub(crate) const NO_REQ: RequestId = RequestId::MAX;

/// Sentinel prefix id for requests that share no prefix (the default).
pub const NO_PREFIX: u64 = u64::MAX;

/// The immutable description of a request, as read from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Unique id.
    pub id: RequestId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Prompt length in tokens (must be ≥ 1).
    pub prefill_tokens: u64,
    /// Output length in tokens (must be ≥ 1; the first is produced at
    /// prefill completion).
    pub decode_tokens: u64,
    /// Tenant index, for per-tenant metrics attribution (scheduling itself
    /// is tenant-agnostic).
    pub tenant: u32,
    /// Priority class: 0 is the most urgent. Admission runs strict tiers —
    /// a lower class is always admitted before a higher one, FIFO within a
    /// class — and preemption evicts the highest class first.
    pub priority: u8,
    /// Shared-prefix identity: requests carrying the same id share their
    /// leading `prefix_len` prompt tokens (system prompt / template).
    /// [`NO_PREFIX`] when the request shares nothing.
    pub prefix_id: u64,
    /// Length of the shared prefix in tokens (`0` when `prefix_id` is
    /// [`NO_PREFIX`]; always ≤ `prefill_tokens` otherwise).
    pub prefix_len: u64,
}

impl Request {
    /// Creates a request (tenant 0, priority 0 — the single-tenant default).
    ///
    /// # Panics
    ///
    /// Panics if `prefill_tokens` or `decode_tokens` is zero.
    pub fn new(id: RequestId, arrival: SimTime, prefill_tokens: u64, decode_tokens: u64) -> Self {
        assert!(prefill_tokens > 0, "request {id} has empty prompt");
        assert!(decode_tokens > 0, "request {id} generates no tokens");
        Request {
            id,
            arrival,
            prefill_tokens,
            decode_tokens,
            tenant: 0,
            priority: 0,
            prefix_id: NO_PREFIX,
            prefix_len: 0,
        }
    }

    /// Declares a shared prefix (builder-style): this request's first `len`
    /// prompt tokens are identical across every request carrying `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id != NO_PREFIX` and `len` is zero or exceeds the prompt.
    pub fn with_prefix(mut self, id: u64, len: u64) -> Self {
        if id != NO_PREFIX {
            assert!(
                len >= 1 && len <= self.prefill_tokens,
                "request {} prefix length {len} outside 1..={}",
                self.id,
                self.prefill_tokens
            );
        }
        self.prefix_id = id;
        self.prefix_len = if id == NO_PREFIX { 0 } else { len };
        self
    }

    /// Sets the priority class (builder-style).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the tenant index (builder-style).
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Total tokens the request will ever hold in KV-cache.
    pub fn total_tokens(&self) -> u64 {
        self.prefill_tokens + self.decode_tokens
    }
}

/// Where a request currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestPhase {
    /// Waiting in the replica queue (never started, or restarted).
    Waiting,
    /// Admitted; prompt partially or fully unprocessed.
    Prefilling,
    /// Prompt done; generating output tokens.
    Decoding,
    /// All output tokens produced.
    Finished,
}

/// Mutable per-request scheduling state tracked by a replica scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackedRequest {
    /// The immutable request description.
    pub spec: Request,
    /// Prompt tokens processed so far.
    pub prefilled: u64,
    /// Output tokens produced so far.
    pub decoded: u64,
    /// Lifecycle phase.
    pub phase: RequestPhase,
    /// Times this request was preempted and restarted (vLLM recompute).
    pub restarts: u32,
    /// Tokens queued in the *current in-flight batch* for this request
    /// (guards against double-scheduling).
    pub inflight_tokens: u64,
    /// Admission sequence number, assigned by the replica scheduler each
    /// time the request (re-)enters the running set. Orders the intrusive
    /// phase lists identically to the seed's single admission-ordered
    /// `running` vector.
    pub(crate) admit_seq: u64,
    /// Intrusive link: previous request in this request's phase list
    /// ([`NO_REQ`] at the head). Maintained by `ReplicaScheduler`.
    pub(crate) prev: RequestId,
    /// Intrusive link: next request in this request's phase list
    /// ([`NO_REQ`] at the tail).
    pub(crate) next: RequestId,
    /// KV blocks held on the replica (see [`BlockManager`](crate::BlockManager)).
    pub kv: KvHolding,
}

impl TrackedRequest {
    /// Wraps a fresh request in its initial state.
    pub fn new(spec: Request) -> Self {
        TrackedRequest {
            spec,
            prefilled: 0,
            decoded: 0,
            phase: RequestPhase::Waiting,
            restarts: 0,
            inflight_tokens: 0,
            admit_seq: 0,
            prev: NO_REQ,
            next: NO_REQ,
            kv: KvHolding::default(),
        }
    }

    /// KV tokens currently cached for this request.
    pub fn cached_tokens(&self) -> u64 {
        self.prefilled + self.decoded
    }

    /// Prompt tokens still to process.
    pub fn remaining_prefill(&self) -> u64 {
        self.spec.prefill_tokens - self.prefilled
    }

    /// Returns `true` once the prompt is fully processed.
    pub fn prefill_complete(&self) -> bool {
        self.prefilled == self.spec.prefill_tokens
    }

    /// Returns `true` when all output tokens are produced.
    pub fn finished(&self) -> bool {
        self.decoded == self.spec.decode_tokens
    }

    /// Resets processing state after a preemption-by-recompute: the KV cache
    /// is discarded and the prompt must be re-processed, but output tokens
    /// already *delivered* to the user are preserved and will be recomputed
    /// as part of the restarted prompt.
    pub fn restart(&mut self) {
        // On recompute, the already-generated tokens become part of the new
        // "prompt" work, but for simplicity (and matching Vidur's model) we
        // re-run the original prefill and continue decoding where we left
        // off; the decoded count is retained.
        self.prefilled = 0;
        self.phase = RequestPhase::Waiting;
        self.restarts += 1;
        self.inflight_tokens = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> Request {
        Request::new(1, SimTime::ZERO, 100, 10)
    }

    #[test]
    fn lifecycle_accounting() {
        let mut t = TrackedRequest::new(req());
        assert_eq!(t.phase, RequestPhase::Waiting);
        assert_eq!(t.remaining_prefill(), 100);
        assert_eq!(t.cached_tokens(), 0);
        t.prefilled = 60;
        t.phase = RequestPhase::Prefilling;
        assert_eq!(t.remaining_prefill(), 40);
        assert!(!t.prefill_complete());
        t.prefilled = 100;
        t.decoded = 1;
        t.phase = RequestPhase::Decoding;
        assert!(t.prefill_complete());
        assert_eq!(t.cached_tokens(), 101);
        t.decoded = 10;
        assert!(t.finished());
    }

    #[test]
    fn restart_preserves_decoded_count() {
        let mut t = TrackedRequest::new(req());
        t.prefilled = 100;
        t.decoded = 5;
        t.phase = RequestPhase::Decoding;
        t.restart();
        assert_eq!(t.prefilled, 0);
        assert_eq!(t.decoded, 5);
        assert_eq!(t.phase, RequestPhase::Waiting);
        assert_eq!(t.restarts, 1);
    }

    #[test]
    #[should_panic(expected = "empty prompt")]
    fn zero_prefill_rejected() {
        Request::new(1, SimTime::ZERO, 0, 1);
    }

    #[test]
    #[should_panic(expected = "generates no tokens")]
    fn zero_decode_rejected() {
        Request::new(1, SimTime::ZERO, 1, 0);
    }

    #[test]
    fn total_tokens() {
        assert_eq!(req().total_tokens(), 110);
    }
}
