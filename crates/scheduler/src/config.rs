//! Replica-scheduler configuration.

use serde::{Deserialize, Serialize};

/// The iteration-level batching policy (paper §4.5 lists exactly these five;
/// §7.3 evaluates vLLM, Orca+ and Sarathi-Serve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BatchPolicyKind {
    /// vLLM: prefill-prioritizing — eagerly schedules prefills (pausing
    /// decodes) to maximize batch size; preempts by recompute on OOM.
    Vllm,
    /// Orca+: iteration-level continuous batching over vLLM's paged
    /// attention; mixes full prefills with ongoing decodes.
    OrcaPlus,
    /// Sarathi-Serve: hybrid batches with *chunked* prefills under a strict
    /// per-iteration token budget, so decodes are never paused.
    SarathiServe {
        /// Token budget per iteration (the paper sweeps 512 / 1024 / 2048).
        chunk_size: u64,
    },
    /// FasterTransformer: request-level (cohort) batching, decode
    /// prioritizing — a batch runs to completion before new admissions.
    FasterTransformer,
    /// LightLLM: continuous batching with token-level admission control
    /// (admission bounded by projected total KV footprint).
    LightLlm,
}

impl BatchPolicyKind {
    /// Short stable identifier for reports.
    pub fn id(&self) -> &'static str {
        match self {
            BatchPolicyKind::Vllm => "vllm",
            BatchPolicyKind::OrcaPlus => "orca+",
            BatchPolicyKind::SarathiServe { .. } => "sarathi-serve",
            BatchPolicyKind::FasterTransformer => "faster-transformer",
            BatchPolicyKind::LightLlm => "lightllm",
        }
    }
}

impl std::fmt::Display for BatchPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchPolicyKind::SarathiServe { chunk_size } => {
                write!(f, "sarathi-serve(chunk={chunk_size})")
            }
            other => f.write_str(other.id()),
        }
    }
}

/// Default per-iteration token cap for vLLM/Orca+ (paper §7.3: "vLLM and
/// Orca+ have a limit of maximum 4096 tokens per iteration").
pub const DEFAULT_MAX_TOKENS_PER_ITER: u64 = 4096;

/// Default KV watermark fraction (vLLM's `watermark` default).
pub const DEFAULT_WATERMARK_FRAC: f64 = 0.01;

/// Complete replica-scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Batching policy.
    pub policy: BatchPolicyKind,
    /// Maximum sequences per batch (paper sweeps 32..512).
    pub max_batch_size: usize,
}

impl SchedulerConfig {
    /// Creates a configuration with the paper-default token cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch_size == 0`.
    pub fn new(policy: BatchPolicyKind, max_batch_size: usize) -> Self {
        assert!(max_batch_size > 0, "batch size must be positive");
        SchedulerConfig {
            policy,
            max_batch_size,
        }
    }

    /// The per-iteration token budget this policy enforces: the chunk size
    /// for Sarathi-Serve, [`DEFAULT_MAX_TOKENS_PER_ITER`] otherwise.
    pub fn token_budget(&self) -> u64 {
        match self.policy {
            BatchPolicyKind::SarathiServe { chunk_size } => chunk_size,
            _ => DEFAULT_MAX_TOKENS_PER_ITER,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_budget_follows_policy() {
        let s = SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 64);
        assert_eq!(s.token_budget(), 512);
        let v = SchedulerConfig::new(BatchPolicyKind::Vllm, 64);
        assert_eq!(v.token_budget(), 4096);
    }

    #[test]
    fn display_ids() {
        assert_eq!(BatchPolicyKind::Vllm.to_string(), "vllm");
        assert_eq!(
            BatchPolicyKind::SarathiServe { chunk_size: 1024 }.to_string(),
            "sarathi-serve(chunk=1024)"
        );
        assert_eq!(BatchPolicyKind::OrcaPlus.id(), "orca+");
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        SchedulerConfig::new(BatchPolicyKind::Vllm, 0);
    }
}
