//! Operator vocabulary and triage classes (paper §4.3 "Operator Triaging").
//!
//! Every batch an LLM serving system executes reduces to invocations of a
//! fixed, small operator set. The runtime of each operator is fully
//! determined by a compact *input descriptor* ([`OpInput`]): token-level
//! operators depend only on the iteration's token count, sequence-level
//! operators also see KV-cache state, and communication operators see bytes.
//! This is what makes sparse profiling + ML interpolation feasible.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Triage class of an operator (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Runtime depends only on tokens processed this iteration.
    TokenLevel,
    /// Runtime depends on per-request KV-cache history.
    SequenceLevel,
    /// Runtime depends only on bytes transferred.
    Communication,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::TokenLevel => "token-level",
            OpClass::SequenceLevel => "sequence-level",
            OpClass::Communication => "communication",
        };
        f.write_str(s)
    }
}

/// The operators Vidur models. One transformer block invokes most of these
/// once (attention and MLP matmuls, norms, residuals); embedding and LM head
/// run once per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Operator {
    /// Token embedding lookup.
    Embedding,
    /// Fused QKV projection matmul.
    QkvProj,
    /// Rotary position embedding application.
    Rope,
    /// Attention over prompt tokens (compute-bound, quadratic in length).
    AttnPrefill,
    /// Attention over cached context for decode tokens (memory-bound).
    AttnDecode,
    /// Appending this iteration's K/V to the cache.
    KvCacheSave,
    /// Attention output projection matmul.
    AttnOutProj,
    /// MLP up projection matmul.
    MlpUpProj,
    /// MLP gate projection matmul (gated MLPs only).
    MlpGateProj,
    /// MLP down projection matmul.
    MlpDownProj,
    /// Pointwise activation (SiLU/GeLU ⊙ gate).
    MlpActivation,
    /// Pre-attention RMSNorm.
    InputNorm,
    /// Pre-MLP RMSNorm.
    PostAttnNorm,
    /// Residual addition (two per block).
    ResidualAdd,
    /// Final RMSNorm before the LM head.
    FinalNorm,
    /// LM head projection onto the vocabulary.
    LmHead,
    /// Tensor-parallel all-reduce.
    AllReduce,
    /// Tensor-parallel all-gather.
    AllGather,
    /// Pipeline-parallel activation send/recv.
    SendRecv,
}

impl Operator {
    /// Number of distinct operators ([`Operator::ALL`]'s length).
    pub const COUNT: usize = 19;

    /// All operators, in canonical order.
    pub const ALL: [Operator; Operator::COUNT] = [
        Operator::Embedding,
        Operator::QkvProj,
        Operator::Rope,
        Operator::AttnPrefill,
        Operator::AttnDecode,
        Operator::KvCacheSave,
        Operator::AttnOutProj,
        Operator::MlpUpProj,
        Operator::MlpGateProj,
        Operator::MlpDownProj,
        Operator::MlpActivation,
        Operator::InputNorm,
        Operator::PostAttnNorm,
        Operator::ResidualAdd,
        Operator::FinalNorm,
        Operator::LmHead,
        Operator::AllReduce,
        Operator::AllGather,
        Operator::SendRecv,
    ];

    /// Position of this operator in [`Operator::ALL`] (stable array index
    /// for per-operator accumulators): its discriminant, since `ALL` lists
    /// the variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Triage class (paper §4.3).
    pub fn class(self) -> OpClass {
        match self {
            Operator::AttnPrefill | Operator::AttnDecode | Operator::KvCacheSave => {
                OpClass::SequenceLevel
            }
            Operator::AllReduce | Operator::AllGather | Operator::SendRecv => {
                OpClass::Communication
            }
            _ => OpClass::TokenLevel,
        }
    }

    /// Returns `true` for dense matrix-multiplication operators (profiled on
    /// the matmul path of the cost oracle, subject to tile quantization).
    pub fn is_matmul(self) -> bool {
        matches!(
            self,
            Operator::QkvProj
                | Operator::AttnOutProj
                | Operator::MlpUpProj
                | Operator::MlpGateProj
                | Operator::MlpDownProj
                | Operator::LmHead
        )
    }

    /// Short stable identifier used in profile tables and reports.
    pub fn id(self) -> &'static str {
        match self {
            Operator::Embedding => "embedding",
            Operator::QkvProj => "qkv_proj",
            Operator::Rope => "rope",
            Operator::AttnPrefill => "attn_prefill",
            Operator::AttnDecode => "attn_decode",
            Operator::KvCacheSave => "kv_cache_save",
            Operator::AttnOutProj => "attn_out_proj",
            Operator::MlpUpProj => "mlp_up_proj",
            Operator::MlpGateProj => "mlp_gate_proj",
            Operator::MlpDownProj => "mlp_down_proj",
            Operator::MlpActivation => "mlp_activation",
            Operator::InputNorm => "input_norm",
            Operator::PostAttnNorm => "post_attn_norm",
            Operator::ResidualAdd => "residual_add",
            Operator::FinalNorm => "final_norm",
            Operator::LmHead => "lm_head",
            Operator::AllReduce => "all_reduce",
            Operator::AllGather => "all_gather",
            Operator::SendRecv => "send_recv",
        }
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// The input descriptor that, together with the operator identity and the
/// (model, parallelism, SKU) context, fully determines a kernel's runtime.
///
/// Exactly one variant applies per operator class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OpInput {
    /// Dense matmul `[m, k] x [k, n]` (already TP-sharded dims).
    Matmul {
        /// Rows of the activation matrix (tokens this iteration).
        m: u64,
        /// Inner dimension.
        k: u64,
        /// Output dimension.
        n: u64,
    },
    /// Pointwise/reduction op over `tokens * width` elements.
    Pointwise {
        /// Tokens this iteration.
        tokens: u64,
        /// Per-token element width (already TP-sharded where applicable).
        width: u64,
    },
    /// Prefill attention with an *equivalent* single-prefill length (paper
    /// §4.3: a batch of prefills of lengths `p_i` with cached context `h_i`
    /// costs like one prefill of length `sqrt(Σ p_i (p_i + 2 h_i))`).
    AttentionPrefill {
        /// Equivalent prefill length in tokens.
        equiv_len: u64,
        /// Number of query heads on this device.
        q_heads: u64,
        /// Per-head dimension.
        head_dim: u64,
    },
    /// Decode attention: memory-bound on total KV bytes fetched.
    AttentionDecode {
        /// Total KV-cache bytes read across the batch (this device).
        kv_bytes: u64,
        /// Decode tokens in the batch (one per running sequence).
        tokens: u64,
    },
    /// Collective/point-to-point communication of `bytes` across `world`
    /// participants.
    Comm {
        /// Payload bytes per participant.
        bytes: u64,
        /// Communicator size (TP degree, or 2 for send/recv).
        world: u32,
    },
}

impl OpInput {
    /// The scalar feature the runtime estimator keys on (paper §4.4 trains
    /// one model per operator over a single size feature).
    pub fn feature(&self) -> f64 {
        match *self {
            OpInput::Matmul { m, .. } => m as f64,
            OpInput::Pointwise { tokens, .. } => tokens as f64,
            OpInput::AttentionPrefill { equiv_len, .. } => equiv_len as f64,
            OpInput::AttentionDecode { kv_bytes, .. } => kv_bytes as f64,
            OpInput::Comm { bytes, .. } => bytes as f64,
        }
    }
}

/// One operator invocation: what runs, on what input, how many times
/// (e.g. once per transformer layer on the device).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpInvocation {
    /// Which operator.
    pub op: Operator,
    /// Its input descriptor.
    pub input: OpInput,
    /// Repetition count within the iteration (layers on device, etc.).
    pub count: u32,
}

impl OpInvocation {
    /// Creates an invocation executed `count` times.
    pub fn new(op: Operator, input: OpInput, count: u32) -> Self {
        OpInvocation { op, input, count }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triage_classes() {
        assert_eq!(Operator::QkvProj.class(), OpClass::TokenLevel);
        assert_eq!(Operator::MlpActivation.class(), OpClass::TokenLevel);
        assert_eq!(Operator::AttnPrefill.class(), OpClass::SequenceLevel);
        assert_eq!(Operator::AttnDecode.class(), OpClass::SequenceLevel);
        assert_eq!(Operator::KvCacheSave.class(), OpClass::SequenceLevel);
        assert_eq!(Operator::AllReduce.class(), OpClass::Communication);
        assert_eq!(Operator::SendRecv.class(), OpClass::Communication);
    }

    #[test]
    fn all_operators_have_unique_ids() {
        let mut ids: Vec<&str> = Operator::ALL.iter().map(|o| o.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Operator::ALL.len());
    }

    #[test]
    fn matmul_set() {
        let matmuls: Vec<Operator> = Operator::ALL
            .into_iter()
            .filter(|o| o.is_matmul())
            .collect();
        assert_eq!(matmuls.len(), 6);
        assert!(matmuls.contains(&Operator::LmHead));
        assert!(!Operator::AttnPrefill.is_matmul());
    }

    #[test]
    fn features_extracted() {
        assert_eq!(OpInput::Matmul { m: 7, k: 1, n: 1 }.feature(), 7.0);
        assert_eq!(
            OpInput::AttentionDecode {
                kv_bytes: 1024,
                tokens: 4
            }
            .feature(),
            1024.0
        );
        assert_eq!(
            OpInput::Comm {
                bytes: 99,
                world: 4
            }
            .feature(),
            99.0
        );
    }

    #[test]
    fn index_roundtrips() {
        for (i, op) in Operator::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }

    #[test]
    fn display_uses_id() {
        assert_eq!(Operator::MlpUpProj.to_string(), "mlp_up_proj");
        assert_eq!(OpClass::SequenceLevel.to_string(), "sequence-level");
    }
}
