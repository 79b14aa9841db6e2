//! Batch composition and its reduction to operator invocations.
//!
//! A batch in iteration-level scheduling mixes prefill chunks and decode
//! tokens from many requests (paper §3 "Varying Iteration Times"). The
//! [`ExecutionPlan`] derived here is the *single* description of the work a
//! batch performs; both the hardware oracle (ground truth) and the runtime
//! estimator (prediction) consume it, so any fidelity gap comes from runtime
//! prediction — exactly the quantity the paper evaluates — and not from
//! disagreeing about what work runs.

use crate::operators::{OpInput, OpInvocation, Operator};
use crate::parallelism::ParallelismConfig;
use crate::shape::BatchShapeKey;
use crate::spec::ModelSpec;
use serde::{Deserialize, Serialize};

/// One request's contribution to a batch iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestSlice {
    /// Opaque request identifier (for metrics attribution).
    pub request_id: u64,
    /// Tokens processed for this request in this iteration: a full or
    /// chunked prefill (> 1) or a single decode token (== 1).
    pub query_tokens: u64,
    /// Tokens already resident in the KV-cache for this request.
    pub cached_tokens: u64,
    /// Whether this slice is part of the prefill phase.
    pub is_prefill: bool,
}

impl RequestSlice {
    /// A prefill slice of `query_tokens` prompt tokens with `cached_tokens`
    /// already processed (non-zero under chunked prefill).
    pub fn prefill(request_id: u64, query_tokens: u64, cached_tokens: u64) -> Self {
        assert!(query_tokens > 0, "prefill slice needs at least one token");
        RequestSlice {
            request_id,
            query_tokens,
            cached_tokens,
            is_prefill: true,
        }
    }

    /// A decode slice: one new token attending over `cached_tokens` history.
    pub fn decode(request_id: u64, cached_tokens: u64) -> Self {
        RequestSlice {
            request_id,
            query_tokens: 1,
            cached_tokens,
            is_prefill: false,
        }
    }

    /// KV tokens this slice reads during attention.
    pub fn kv_read_tokens(&self) -> u64 {
        self.cached_tokens + self.query_tokens
    }
}

/// The composition of one batch iteration.
///
/// # Example
///
/// ```
/// use vidur_model::{BatchComposition, RequestSlice};
///
/// let batch = BatchComposition::new(vec![
///     RequestSlice::prefill(1, 512, 0),
///     RequestSlice::decode(2, 100),
///     RequestSlice::decode(3, 300),
/// ]);
/// assert_eq!(batch.total_query_tokens(), 514);
/// assert_eq!(batch.num_decode(), 2);
/// assert_eq!(batch.prefill_equivalent_length(), 512);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchComposition {
    slices: Vec<RequestSlice>,
}

impl BatchComposition {
    /// Creates a batch from request slices.
    ///
    /// # Panics
    ///
    /// Panics if `slices` is empty: schedulers never emit empty batches.
    pub fn new(slices: Vec<RequestSlice>) -> Self {
        assert!(
            !slices.is_empty(),
            "a batch must contain at least one slice"
        );
        BatchComposition { slices }
    }

    /// The request slices in this batch.
    pub fn slices(&self) -> &[RequestSlice] {
        &self.slices
    }

    /// Consumes the batch, returning its slice storage — lets schedulers
    /// recycle the allocation for the next formed batch.
    pub fn into_slices(self) -> Vec<RequestSlice> {
        self.slices
    }

    /// Number of requests in the batch.
    pub fn num_requests(&self) -> usize {
        self.slices.len()
    }

    /// Number of prefill slices.
    pub fn num_prefill(&self) -> usize {
        self.slices.iter().filter(|s| s.is_prefill).count()
    }

    /// Number of decode slices.
    pub fn num_decode(&self) -> usize {
        self.slices.len() - self.num_prefill()
    }

    /// Total tokens processed this iteration (prefill + decode).
    pub fn total_query_tokens(&self) -> u64 {
        self.slices.iter().map(|s| s.query_tokens).sum()
    }

    /// Equivalent single-prefill length for the batch's prefill attention
    /// cost (paper §4.3): attention on a chunk of `p` new tokens with `h`
    /// cached tokens performs work ∝ `p·(p + 2h)` (each new token attends to
    /// all cached tokens plus the causal half of the chunk), so the batch is
    /// equivalent to one prefill of length `sqrt(Σ p_i (p_i + 2 h_i))`.
    pub fn prefill_equivalent_length(&self) -> u64 {
        let sum_sq: f64 = self
            .slices
            .iter()
            .filter(|s| s.is_prefill)
            .map(|s| (s.query_tokens * (s.query_tokens + 2 * s.cached_tokens)) as f64)
            .sum();
        sum_sq.sqrt().round() as u64
    }

    /// Total KV tokens read by decode attention across the batch.
    pub fn decode_kv_read_tokens(&self) -> u64 {
        self.slices
            .iter()
            .filter(|s| !s.is_prefill)
            .map(|s| s.kv_read_tokens())
            .sum()
    }

    /// Total KV-cache tokens resident for the batch's requests after the
    /// iteration completes (used by the memory manager / metrics).
    pub fn kv_tokens_after(&self) -> u64 {
        self.slices
            .iter()
            .map(|s| s.cached_tokens + s.query_tokens)
            .sum()
    }
}

/// The operator invocations one pipeline stage executes for a batch, plus
/// plan-wide accounting. Produced by [`ExecutionPlan::build`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Invocations per pipeline stage, index 0 = first stage.
    stages: Vec<Vec<OpInvocation>>,
    /// Tokens processed this iteration.
    total_tokens: u64,
    /// Model FLOPs this batch performs across the whole replica (unsharded;
    /// used for MFU).
    model_flops: f64,
}

/// The decode-attention invocation of a shape's per-layer plan, or `None`
/// when the batch has no decode slices.
///
/// This is the only operator that reads
/// [`BatchShapeKey::decode_kv_read_tokens`]; every other invocation of the
/// plan depends on the shape's [`KvInvariantKey`](crate::shape::KvInvariantKey)
/// alone. The plan builder and [`KvInvariantTiming::with_decode`](crate::shape::KvInvariantTiming::with_decode)
/// both call this one function, so the two cannot disagree about the
/// operand.
pub(crate) fn decode_attention(
    model: &ModelSpec,
    par: &ParallelismConfig,
    shape: &BatchShapeKey,
) -> Option<OpInvocation> {
    (shape.num_decode() > 0).then(|| {
        // Bytes fetched per layer on this device: K and V planes.
        let kv_bytes = shape.decode_kv_read_tokens()
            * 2
            * par.kv_dim_per_device(model)
            * model.dtype_bytes as u64;
        OpInvocation::new(
            Operator::AttnDecode,
            OpInput::AttentionDecode {
                kv_bytes,
                tokens: shape.num_decode(),
            },
            par.layers_per_stage(model),
        )
    })
}

/// Builds the per-layer invocations shared by every pipeline stage of a
/// shape's plan. Split out of [`ExecutionPlan::for_shape`] so plan assembly
/// is reusable without duplicating the operator enumeration.
fn layer_invocations(
    model: &ModelSpec,
    par: &ParallelismConfig,
    shape: &BatchShapeKey,
) -> Vec<OpInvocation> {
    let tp = par.tensor_parallel;
    let d = model.embed_dim as u64;
    let dtype = model.dtype_bytes as u64;
    let tokens = shape.total_query_tokens();
    let layers = par.layers_per_stage(model);
    let q_dim = par.q_dim_per_device(model);
    let kv_dim = par.kv_dim_per_device(model);
    let mlp_dim = par.mlp_dim_per_device(model);

    let mut layer_ops: Vec<OpInvocation> = Vec::with_capacity(18);
    let mm = |op, k, n| OpInvocation::new(op, OpInput::Matmul { m: tokens, k, n }, layers);
    let pw = |op, width| OpInvocation::new(op, OpInput::Pointwise { tokens, width }, layers);
    layer_ops.push(pw(Operator::InputNorm, d));
    layer_ops.push(mm(Operator::QkvProj, d, q_dim + 2 * kv_dim));
    layer_ops.push(pw(Operator::Rope, q_dim + kv_dim));
    let equiv = shape.prefill_equivalent_length();
    if equiv > 0 {
        layer_ops.push(OpInvocation::new(
            Operator::AttnPrefill,
            OpInput::AttentionPrefill {
                equiv_len: equiv,
                q_heads: par.q_heads_per_device(model),
                head_dim: model.head_dim as u64,
            },
            layers,
        ));
    }
    if let Some(decode) = decode_attention(model, par, shape) {
        layer_ops.push(decode);
    }
    layer_ops.push(pw(Operator::KvCacheSave, 2 * kv_dim));
    layer_ops.push(mm(Operator::AttnOutProj, q_dim, d));
    if tp > 1 {
        layer_ops.push(OpInvocation::new(
            Operator::AllReduce,
            OpInput::Comm {
                bytes: tokens * d * dtype,
                world: tp,
            },
            layers,
        ));
    }
    layer_ops.push(pw(Operator::ResidualAdd, d));
    layer_ops.push(pw(Operator::PostAttnNorm, d));
    layer_ops.push(mm(Operator::MlpUpProj, d, mlp_dim));
    if model.gated_mlp {
        layer_ops.push(mm(Operator::MlpGateProj, d, mlp_dim));
    }
    layer_ops.push(pw(Operator::MlpActivation, mlp_dim));
    layer_ops.push(mm(Operator::MlpDownProj, mlp_dim, d));
    if tp > 1 {
        layer_ops.push(OpInvocation::new(
            Operator::AllReduce,
            OpInput::Comm {
                bytes: tokens * d * dtype,
                world: tp,
            },
            layers,
        ));
    }
    layer_ops.push(pw(Operator::ResidualAdd, d));
    layer_ops
}

impl ExecutionPlan {
    /// Builds the per-stage operator invocation list for `batch` on a
    /// replica running `model` with parallelism `par`.
    ///
    /// Delegates through the batch's [`BatchShapeKey`]: the plan (and hence
    /// every predicted stage time) is a function of the shape alone, which
    /// is what makes shape-keyed memoization exact.
    ///
    /// # Panics
    ///
    /// Panics if the parallelism configuration is invalid for the model
    /// (validate configurations at construction time).
    pub fn build(model: &ModelSpec, par: &ParallelismConfig, batch: &BatchComposition) -> Self {
        ExecutionPlan::for_shape(model, par, &BatchShapeKey::from_batch(batch))
    }

    /// Builds the plan for a batch *shape* (see [`ExecutionPlan::build`]).
    ///
    /// # Panics
    ///
    /// Panics if the parallelism configuration is invalid for the model.
    pub fn for_shape(model: &ModelSpec, par: &ParallelismConfig, shape: &BatchShapeKey) -> Self {
        par.validate_for(model)
            .expect("parallelism config must be valid for model");
        let d = model.embed_dim as u64;
        let dtype = model.dtype_bytes as u64;
        let tokens = shape.total_query_tokens();
        let num_stages = par.pipeline_parallel as usize;
        let layer_ops = layer_invocations(model, par, shape);

        let mut stages = Vec::with_capacity(num_stages);
        for stage in 0..num_stages {
            let mut ops = Vec::with_capacity(layer_ops.len() + 4);
            if stage == 0 {
                ops.push(OpInvocation::new(
                    Operator::Embedding,
                    OpInput::Pointwise { tokens, width: d },
                    1,
                ));
            }
            ops.extend(layer_ops.iter().copied());
            if stage == num_stages - 1 {
                // Logits are computed only for each sequence's last position.
                let seqs = shape.num_requests();
                ops.push(OpInvocation::new(
                    Operator::FinalNorm,
                    OpInput::Pointwise {
                        tokens: seqs,
                        width: d,
                    },
                    1,
                ));
                ops.push(OpInvocation::new(
                    Operator::LmHead,
                    OpInput::Matmul {
                        m: seqs,
                        k: d,
                        n: par.vocab_per_device(model),
                    },
                    1,
                ));
            } else {
                // Hand activations to the next stage.
                ops.push(OpInvocation::new(
                    Operator::SendRecv,
                    OpInput::Comm {
                        bytes: tokens * d * dtype,
                        world: 2,
                    },
                    1,
                ));
            }
            stages.push(ops);
        }

        let model_flops = crate::flops::shape_flops(model, shape);
        ExecutionPlan {
            stages,
            total_tokens: tokens,
            model_flops,
        }
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Invocations for stage `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stage(&self, i: usize) -> &[OpInvocation] {
        &self.stages[i]
    }

    /// Iterates over all invocations across stages.
    pub fn iter(&self) -> impl Iterator<Item = &OpInvocation> {
        self.stages.iter().flatten()
    }

    /// Enumerates every invocation with its pipeline-stage index, in stage
    /// order — the traversal a per-stage timing sweep performs (see
    /// [`crate::shape::PlanTiming`]), exposed so consumers never rebuild the
    /// plan just to walk it.
    pub fn enumerate(&self) -> impl Iterator<Item = (usize, &OpInvocation)> {
        self.stages
            .iter()
            .enumerate()
            .flat_map(|(stage, ops)| ops.iter().map(move |inv| (stage, inv)))
    }

    /// Tokens processed this iteration.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Whole-replica model FLOPs for MFU accounting.
    pub fn model_flops(&self) -> f64 {
        self.model_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_batch() -> BatchComposition {
        BatchComposition::new(vec![
            RequestSlice::prefill(1, 256, 0),
            RequestSlice::prefill(2, 128, 512), // chunked continuation
            RequestSlice::decode(3, 1000),
            RequestSlice::decode(4, 50),
        ])
    }

    #[test]
    fn batch_accounting() {
        let b = sample_batch();
        assert_eq!(b.total_query_tokens(), 256 + 128 + 2);
        assert_eq!(b.num_prefill(), 2);
        assert_eq!(b.num_decode(), 2);
        assert_eq!(b.decode_kv_read_tokens(), 1001 + 51);
        assert_eq!(b.kv_tokens_after(), 256 + 640 + 1001 + 51);
    }

    #[test]
    fn equivalent_prefill_formula() {
        // Single prefill without history: equivalent length is itself.
        let b = BatchComposition::new(vec![RequestSlice::prefill(1, 512, 0)]);
        assert_eq!(b.prefill_equivalent_length(), 512);
        // Two equal prefills: sqrt(2) * p.
        let b = BatchComposition::new(vec![
            RequestSlice::prefill(1, 300, 0),
            RequestSlice::prefill(2, 300, 0),
        ]);
        assert_eq!(
            b.prefill_equivalent_length(),
            ((2.0f64 * 300.0 * 300.0).sqrt().round()) as u64
        );
        // History makes a chunk more expensive: p(p + 2h).
        let b = BatchComposition::new(vec![RequestSlice::prefill(1, 100, 450)]);
        assert_eq!(
            b.prefill_equivalent_length(),
            ((100.0f64 * (100.0 + 900.0)).sqrt().round()) as u64
        );
    }

    #[test]
    fn decode_only_batch_has_no_prefill_op() {
        let model = ModelSpec::llama2_7b();
        let par = ParallelismConfig::serial();
        let b = BatchComposition::new(vec![RequestSlice::decode(1, 64)]);
        let plan = ExecutionPlan::build(&model, &par, &b);
        assert!(plan.iter().all(|inv| inv.op != Operator::AttnPrefill));
        assert!(plan.iter().any(|inv| inv.op == Operator::AttnDecode));
    }

    #[test]
    fn prefill_only_batch_has_no_decode_op() {
        let model = ModelSpec::llama2_7b();
        let par = ParallelismConfig::serial();
        let b = BatchComposition::new(vec![RequestSlice::prefill(1, 128, 0)]);
        let plan = ExecutionPlan::build(&model, &par, &b);
        assert!(plan.iter().any(|inv| inv.op == Operator::AttnPrefill));
        assert!(plan.iter().all(|inv| inv.op != Operator::AttnDecode));
    }

    #[test]
    fn tp1_has_no_collectives() {
        let model = ModelSpec::llama2_7b();
        let plan = ExecutionPlan::build(&model, &ParallelismConfig::serial(), &sample_batch());
        assert!(plan.iter().all(|inv| inv.op != Operator::AllReduce));
        assert!(plan.iter().all(|inv| inv.op != Operator::SendRecv));
        assert_eq!(plan.num_stages(), 1);
    }

    #[test]
    fn tp2_has_two_allreduce_per_layer() {
        let model = ModelSpec::llama2_7b();
        let plan = ExecutionPlan::build(&model, &ParallelismConfig::new(2, 1), &sample_batch());
        let ar_invocations: Vec<_> = plan
            .iter()
            .filter(|inv| inv.op == Operator::AllReduce)
            .collect();
        assert_eq!(ar_invocations.len(), 2);
        assert!(ar_invocations.iter().all(|inv| inv.count == 32));
    }

    #[test]
    fn pp_stages_have_sendrecv_except_last() {
        let model = ModelSpec::llama2_7b();
        let plan = ExecutionPlan::build(&model, &ParallelismConfig::new(1, 4), &sample_batch());
        assert_eq!(plan.num_stages(), 4);
        for s in 0..3 {
            assert!(plan.stage(s).iter().any(|inv| inv.op == Operator::SendRecv));
        }
        assert!(plan.stage(3).iter().all(|inv| inv.op != Operator::SendRecv));
        // Embedding on the first stage only, LM head on the last only.
        assert!(plan.stage(0).iter().any(|i| i.op == Operator::Embedding));
        assert!(plan.stage(3).iter().any(|i| i.op == Operator::LmHead));
        assert!(plan.stage(1).iter().all(|i| i.op != Operator::Embedding));
        assert!(plan.stage(1).iter().all(|i| i.op != Operator::LmHead));
    }

    #[test]
    fn layer_counts_match_stage_split() {
        let model = ModelSpec::llama2_7b(); // 32 layers
        let plan = ExecutionPlan::build(&model, &ParallelismConfig::new(1, 2), &sample_batch());
        let qkv = plan
            .stage(0)
            .iter()
            .find(|i| i.op == Operator::QkvProj)
            .unwrap();
        assert_eq!(qkv.count, 16);
    }

    #[test]
    fn gated_mlp_toggles_gate_proj() {
        let mut model = ModelSpec::llama2_7b();
        let par = ParallelismConfig::serial();
        let plan = ExecutionPlan::build(&model, &par, &sample_batch());
        assert!(plan.iter().any(|i| i.op == Operator::MlpGateProj));
        model.gated_mlp = false;
        let plan = ExecutionPlan::build(&model, &par, &sample_batch());
        assert!(plan.iter().all(|i| i.op != Operator::MlpGateProj));
    }

    #[test]
    fn matmul_dims_are_sharded() {
        let model = ModelSpec::llama2_70b();
        let par = ParallelismConfig::new(4, 1);
        let plan = ExecutionPlan::build(&model, &par, &sample_batch());
        let mlp_up = plan.iter().find(|i| i.op == Operator::MlpUpProj).unwrap();
        match mlp_up.input {
            OpInput::Matmul { m, k, n } => {
                assert_eq!(m, sample_batch().total_query_tokens());
                assert_eq!(k, 8192);
                assert_eq!(n, 28672 / 4);
            }
            other => panic!("unexpected input {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn empty_batch_panics() {
        BatchComposition::new(Vec::new());
    }

    proptest! {
        #[test]
        fn equiv_len_monotone_in_history(p in 1u64..2048, h1 in 0u64..2048, extra in 1u64..2048) {
            let b1 = BatchComposition::new(vec![RequestSlice::prefill(1, p, h1)]);
            let b2 = BatchComposition::new(vec![RequestSlice::prefill(1, p, h1 + extra)]);
            prop_assert!(b2.prefill_equivalent_length() >= b1.prefill_equivalent_length());
        }

        #[test]
        fn plan_tokens_match_batch(
            prefills in proptest::collection::vec((1u64..1024, 0u64..1024), 0..8),
            decodes in proptest::collection::vec(0u64..4096, 0..32),
        ) {
            prop_assume!(!prefills.is_empty() || !decodes.is_empty());
            let mut slices = Vec::new();
            let mut id = 0;
            for (p, h) in &prefills {
                slices.push(RequestSlice::prefill(id, *p, *h));
                id += 1;
            }
            for h in &decodes {
                slices.push(RequestSlice::decode(id, *h));
                id += 1;
            }
            let b = BatchComposition::new(slices);
            let model = ModelSpec::llama2_7b();
            let plan = ExecutionPlan::build(&model, &ParallelismConfig::serial(), &b);
            prop_assert_eq!(plan.total_tokens(), b.total_query_tokens());
            prop_assert!(plan.model_flops() > 0.0);
        }
    }
}
