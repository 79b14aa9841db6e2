//! Batch *shape* canonicalization and reusable plan timing — the memoization
//! seam of the runtime-prediction pipeline.
//!
//! Stage times depend only on what work a batch performs, never on which
//! requests perform it — and "what work" compresses further than the slice
//! list suggests. Every quantity [`ExecutionPlan::build`] reads from a
//! [`BatchComposition`] is one of six aggregates:
//!
//! * total query tokens (all token-level and communication operators),
//! * the prefill attention work `Σ pᵢ(pᵢ + 2hᵢ)` (paper §4.3's equivalent
//!   prefill length is its rounded square root),
//! * the prompt tokens prefilled (model FLOPs),
//! * total decode KV tokens read (decode attention bytes),
//! * the decode slice count (decode attention's token operand),
//! * the request count (final-norm/LM-head rows).
//!
//! [`BatchShapeKey`] is exactly that tuple: request ids dropped, slice order
//! erased, *and* slice boundaries folded away — two batches whose aggregates
//! match share one execution plan and therefore one set of stage times, even
//! when their per-request splits differ. This makes the key both cheap (one
//! integer pass, no sorting) and far more reusable than a slice multiset.
//!
//! Only decode attention reads the decode KV length, and it is the aggregate
//! that changes every iteration of a decode-heavy batch. [`KvInvariantKey`]
//! is the shape without it; two batches with the same kv-invariant key run
//! the same plan except for the decode-attention operand.
//!
//! [`PlanTiming`] is the other half of the seam: the per-stage /
//! per-operator prediction sweep of one plan. [`KvInvariantTiming`] is that
//! sweep without decode attention, so a cache (see
//! `vidur_simulator::timing::StageTimer`) can compute it once per
//! kv-invariant key and complete it per batch with one decode-attention
//! prediction, bit-exactly.

use crate::batch::{decode_attention, BatchComposition, ExecutionPlan};
use crate::operators::Operator;
use crate::parallelism::ParallelismConfig;
use crate::runtime::RuntimePredictor;
use crate::spec::ModelSpec;

/// Canonical, request-id-free description of the work one batch iteration
/// performs: the exact aggregate features stage times depend on.
///
/// # Example
///
/// ```
/// use vidur_model::{BatchComposition, RequestSlice};
/// use vidur_model::shape::BatchShapeKey;
///
/// let a = BatchComposition::new(vec![
///     RequestSlice::prefill(1, 512, 0),
///     RequestSlice::decode(2, 100),
///     RequestSlice::decode(3, 300),
/// ]);
/// // Different ids, different order, different decode split with the same
/// // aggregate KV traffic: same shape, same stage times.
/// let b = BatchComposition::new(vec![
///     RequestSlice::decode(7, 200),
///     RequestSlice::decode(8, 200),
///     RequestSlice::prefill(9, 512, 0),
/// ]);
/// assert_eq!(BatchShapeKey::from_batch(&a), BatchShapeKey::from_batch(&b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchShapeKey {
    kv_invariant: KvInvariantKey,
    decode_kv_read_tokens: u64,
}

/// A [`BatchShapeKey`] without its decode KV length: the aggregates every
/// operator of the plan reads except decode attention.
///
/// Decode-heavy batches grow their KV reads by one token per request per
/// iteration, so almost every batch has a new full key while its
/// kv-invariant key repeats. Whether the plan has a decode-attention step at
/// all is decided by the decode count, which this key keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KvInvariantKey {
    total_query_tokens: u64,
    num_requests: u64,
    num_decode: u64,
    /// `Σ pᵢ(pᵢ + 2hᵢ)` over prefill slices — the squared equivalent
    /// prefill length (exact, pre-rounding).
    prefill_work: u64,
    prefill_query_tokens: u64,
}

impl BatchShapeKey {
    /// Derives the shape of `batch` in one pass over its slices.
    pub fn from_batch(batch: &BatchComposition) -> Self {
        let mut inv = KvInvariantKey {
            total_query_tokens: 0,
            num_requests: batch.num_requests() as u64,
            num_decode: 0,
            prefill_work: 0,
            prefill_query_tokens: 0,
        };
        let mut decode_kv_read_tokens = 0;
        for s in batch.slices() {
            inv.total_query_tokens += s.query_tokens;
            if s.is_prefill {
                inv.prefill_work += s.query_tokens * (s.query_tokens + 2 * s.cached_tokens);
                inv.prefill_query_tokens += s.query_tokens;
            } else {
                inv.num_decode += 1;
                decode_kv_read_tokens += s.kv_read_tokens();
            }
        }
        BatchShapeKey {
            kv_invariant: inv,
            decode_kv_read_tokens,
        }
    }

    /// This shape without its decode KV length.
    pub fn kv_invariant(&self) -> KvInvariantKey {
        self.kv_invariant
    }

    /// Total tokens processed by a batch of this shape.
    pub fn total_query_tokens(&self) -> u64 {
        self.kv_invariant.total_query_tokens
    }

    /// Requests (slices) in the batch.
    pub fn num_requests(&self) -> u64 {
        self.kv_invariant.num_requests
    }

    /// Decode slices in the batch.
    pub fn num_decode(&self) -> u64 {
        self.kv_invariant.num_decode
    }

    /// `Σ pᵢ(pᵢ + 2hᵢ)` over prefill slices.
    pub fn prefill_work(&self) -> u64 {
        self.kv_invariant.prefill_work
    }

    /// Prompt tokens processed this iteration (prefill slices only).
    pub fn prefill_query_tokens(&self) -> u64 {
        self.kv_invariant.prefill_query_tokens
    }

    /// Total KV tokens read by decode attention.
    pub fn decode_kv_read_tokens(&self) -> u64 {
        self.decode_kv_read_tokens
    }

    /// Equivalent single-prefill length (paper §4.3): `√(Σ pᵢ(pᵢ + 2hᵢ))`,
    /// rounded. Matches [`BatchComposition::prefill_equivalent_length`].
    pub fn prefill_equivalent_length(&self) -> u64 {
        (self.kv_invariant.prefill_work as f64).sqrt().round() as u64
    }
}

/// The predicted timing of one execution plan: per-stage critical-path
/// seconds, the per-operator attribution totals, and plan-wide accounting.
///
/// This is the engine's former inline build-plan/predict/accumulate loop as
/// a value: a shape cache memoizes all of it but decode attention (see
/// [`KvInvariantTiming`]), and replaying `op_secs` reproduces the metrics
/// attribution of a per-invocation replay exactly (and in O(#operators)
/// rather than O(#invocations)).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanTiming {
    stage_secs: Vec<f64>,
    op_secs: [f64; Operator::COUNT],
    model_flops: f64,
    total_tokens: u64,
}

impl PlanTiming {
    /// Sweeps `plan` through `predictor`, accumulating per-stage times and
    /// per-operator attribution totals (indexed by [`Operator::index`], in
    /// invocation order within each operator).
    ///
    /// With `async_pipeline_comm`, inter-stage [`Operator::SendRecv`]
    /// transfers are hidden behind compute: they still appear in `op_secs`
    /// (energy and operator metrics) but leave the stage's critical path.
    pub fn compute(
        plan: &ExecutionPlan,
        predictor: &dyn RuntimePredictor,
        async_pipeline_comm: bool,
    ) -> Self {
        let mut stage_secs = vec![0.0; plan.num_stages()];
        let mut op_secs = [0.0; Operator::COUNT];
        for (stage, inv) in plan.enumerate() {
            let t = predictor.invocation_time(inv);
            op_secs[inv.op.index()] += t;
            if async_pipeline_comm && inv.op == Operator::SendRecv {
                continue;
            }
            stage_secs[stage] += t;
        }
        PlanTiming {
            stage_secs,
            op_secs,
            model_flops: plan.model_flops(),
            total_tokens: plan.total_tokens(),
        }
    }

    /// Builds the plan for `shape` and computes its timing in one step (the
    /// shape-cache miss path: no [`BatchComposition`] needed).
    pub fn for_shape(
        model: &ModelSpec,
        par: &ParallelismConfig,
        shape: &BatchShapeKey,
        predictor: &dyn RuntimePredictor,
        async_pipeline_comm: bool,
    ) -> Self {
        let plan = ExecutionPlan::for_shape(model, par, shape);
        PlanTiming::compute(&plan, predictor, async_pipeline_comm)
    }

    /// Per-stage critical-path seconds (before CPU overhead).
    pub fn stage_secs(&self) -> &[f64] {
        &self.stage_secs
    }

    /// Total predicted seconds per operator, indexed by
    /// [`Operator::index`] (for metrics replay).
    pub fn op_secs(&self) -> &[f64; Operator::COUNT] {
        &self.op_secs
    }

    /// Whole-replica model FLOPs for MFU accounting.
    pub fn model_flops(&self) -> f64 {
        self.model_flops
    }

    /// Tokens processed this iteration.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }
}

/// One pipeline stage of a [`KvInvariantTiming`].
#[derive(Debug)]
struct StagePartial {
    /// Critical-path sum of the invocations before decode attention (the
    /// whole stage when the plan has none).
    prefix: f64,
    /// Times of the critical-path invocations after decode attention, in
    /// plan order.
    rest: Box<[f64]>,
}

/// The part of a [`PlanTiming`] that does not depend on decode KV length:
/// everything [`PlanTiming::compute`] would produce except the
/// decode-attention term, with the stage sums split around it.
///
/// A cache keyed by [`KvInvariantKey`] stores this; each batch then
/// predicts its decode attention once and [`KvInvariantTiming::with_decode`]
/// completes the timing. The completion re-adds the stored terms one by one
/// in plan order, so every `f64` sum is bit-identical to the full sweep.
#[derive(Debug)]
pub struct KvInvariantTiming {
    stages: Box<[StagePartial]>,
    /// Per-operator totals with the decode-attention slot left at zero.
    op_secs: [f64; Operator::COUNT],
    total_tokens: u64,
}

impl KvInvariantTiming {
    /// Builds the plan for `shape` and sweeps it like
    /// [`PlanTiming::compute`], skipping every [`Operator::AttnDecode`]
    /// invocation. Any shape with the same [`KvInvariantKey`] gives the same
    /// value.
    pub fn for_shape(
        model: &ModelSpec,
        par: &ParallelismConfig,
        shape: &BatchShapeKey,
        predictor: &dyn RuntimePredictor,
        async_pipeline_comm: bool,
    ) -> Self {
        let plan = ExecutionPlan::for_shape(model, par, shape);
        let mut op_secs = [0.0; Operator::COUNT];
        let stages = (0..plan.num_stages())
            .map(|stage| {
                let mut prefix = 0.0;
                let mut rest = Vec::new();
                let mut after_decode = false;
                for inv in plan.stage(stage) {
                    if inv.op == Operator::AttnDecode {
                        after_decode = true;
                        continue;
                    }
                    let t = predictor.invocation_time(inv);
                    op_secs[inv.op.index()] += t;
                    if async_pipeline_comm && inv.op == Operator::SendRecv {
                        continue;
                    }
                    if after_decode {
                        rest.push(t);
                    } else {
                        prefix += t;
                    }
                }
                StagePartial {
                    prefix,
                    rest: rest.into_boxed_slice(),
                }
            })
            .collect();
        KvInvariantTiming {
            stages,
            op_secs,
            total_tokens: plan.total_tokens(),
        }
    }

    /// Completes the timing for `shape`, which must share the kv-invariant
    /// key this value was computed for: predicts its decode attention once
    /// and adds it into every stage. Bit-identical to
    /// [`PlanTiming::for_shape`].
    pub fn with_decode(
        &self,
        model: &ModelSpec,
        par: &ParallelismConfig,
        shape: &BatchShapeKey,
        predictor: &dyn RuntimePredictor,
    ) -> PlanTiming {
        debug_assert_eq!(self.total_tokens, shape.total_query_tokens());
        let decode = decode_attention(model, par, shape).map(|inv| predictor.invocation_time(&inv));
        let decode_slot = Operator::AttnDecode.index();
        let mut op_secs = self.op_secs;
        let stage_secs = self
            .stages
            .iter()
            .map(|stage| {
                let mut secs = stage.prefix;
                if let Some(t) = decode {
                    secs += t;
                    op_secs[decode_slot] += t;
                }
                for &t in stage.rest.iter() {
                    secs += t;
                }
                secs
            })
            .collect();
        PlanTiming {
            stage_secs,
            op_secs,
            model_flops: crate::flops::shape_flops(model, shape),
            total_tokens: self.total_tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RequestSlice;
    use crate::operators::OpInvocation;

    /// Charges 1 µs per operator execution.
    struct Flat;
    impl RuntimePredictor for Flat {
        fn op_time(&self, _inv: &OpInvocation) -> f64 {
            1e-6
        }
    }

    fn mixed_batch() -> BatchComposition {
        BatchComposition::new(vec![
            RequestSlice::prefill(10, 256, 0),
            RequestSlice::decode(11, 1000),
            RequestSlice::prefill(12, 128, 512),
            RequestSlice::decode(13, 50),
        ])
    }

    #[test]
    fn key_drops_request_ids_and_order() {
        let a = mixed_batch();
        let mut reversed: Vec<RequestSlice> = a.slices().to_vec();
        reversed.reverse();
        for (i, s) in reversed.iter_mut().enumerate() {
            s.request_id = 1_000 + i as u64;
        }
        let b = BatchComposition::new(reversed);
        assert_eq!(BatchShapeKey::from_batch(&a), BatchShapeKey::from_batch(&b));
    }

    #[test]
    fn key_folds_equivalent_decode_splits() {
        // Same aggregate KV traffic, different per-request split: decode
        // attention reads the same bytes, so stage times coincide.
        let a = BatchComposition::new(vec![
            RequestSlice::decode(1, 100),
            RequestSlice::decode(2, 300),
        ]);
        let b = BatchComposition::new(vec![
            RequestSlice::decode(3, 200),
            RequestSlice::decode(4, 200),
        ]);
        assert_eq!(BatchShapeKey::from_batch(&a), BatchShapeKey::from_batch(&b));
    }

    #[test]
    fn different_work_different_key() {
        let a = BatchComposition::new(vec![RequestSlice::decode(1, 100)]);
        let b = BatchComposition::new(vec![RequestSlice::decode(1, 101)]);
        let (ka, kb) = (BatchShapeKey::from_batch(&a), BatchShapeKey::from_batch(&b));
        assert_ne!(ka, kb);
        // Only the decode KV length differs.
        assert_eq!(ka.kv_invariant(), kb.kv_invariant());
        let c = BatchComposition::new(vec![RequestSlice::prefill(1, 1, 100)]);
        let kc = BatchShapeKey::from_batch(&c);
        assert_ne!(ka, kc);
        assert_ne!(ka.kv_invariant(), kc.kv_invariant());
    }

    #[test]
    fn key_aggregates_match_batch_accounting() {
        let b = mixed_batch();
        let key = BatchShapeKey::from_batch(&b);
        assert_eq!(key.total_query_tokens(), b.total_query_tokens());
        assert_eq!(key.num_requests(), b.num_requests() as u64);
        assert_eq!(key.num_decode(), b.num_decode() as u64);
        assert_eq!(key.decode_kv_read_tokens(), b.decode_kv_read_tokens());
        assert_eq!(
            key.prefill_equivalent_length(),
            b.prefill_equivalent_length()
        );
        assert_eq!(key.prefill_query_tokens(), 256 + 128);
    }

    #[test]
    fn plan_from_shape_equals_plan_from_batch() {
        let model = ModelSpec::llama2_7b();
        for par in [
            ParallelismConfig::serial(),
            ParallelismConfig::new(2, 1),
            ParallelismConfig::new(1, 4),
        ] {
            let batch = mixed_batch();
            let via_batch = ExecutionPlan::build(&model, &par, &batch);
            let via_shape =
                ExecutionPlan::for_shape(&model, &par, &BatchShapeKey::from_batch(&batch));
            assert_eq!(via_batch, via_shape);
        }
    }

    #[test]
    fn timing_matches_manual_stage_sweep() {
        let model = ModelSpec::llama2_7b();
        let par = ParallelismConfig::new(1, 2);
        let plan = ExecutionPlan::build(&model, &par, &mixed_batch());
        let timing = PlanTiming::compute(&plan, &Flat, false);
        assert_eq!(timing.stage_secs().len(), 2);
        for (stage, &secs) in timing.stage_secs().iter().enumerate() {
            let expect: f64 = plan
                .stage(stage)
                .iter()
                .map(|inv| Flat.invocation_time(inv))
                .sum();
            assert!((secs - expect).abs() < 1e-15);
        }
        // Flat charges 1 µs per execution, so total attributed time is the
        // total execution count (invocations × their repeat counts) × 1 µs.
        let total_execs: u64 = plan.enumerate().map(|(_, inv)| inv.count as u64).sum();
        let attributed: f64 = timing.op_secs().iter().sum();
        assert!((attributed - total_execs as f64 * 1e-6).abs() < 1e-9);
        assert_eq!(timing.model_flops(), plan.model_flops());
        assert_eq!(timing.total_tokens(), plan.total_tokens());
    }

    #[test]
    fn async_comm_leaves_critical_path_but_keeps_attribution() {
        let model = ModelSpec::llama2_7b();
        let par = ParallelismConfig::new(1, 4);
        let plan = ExecutionPlan::build(&model, &par, &mixed_batch());
        let sync = PlanTiming::compute(&plan, &Flat, false);
        let asynch = PlanTiming::compute(&plan, &Flat, true);
        // Attribution identical; non-final stages lose SendRecv time.
        assert_eq!(sync.op_secs(), asynch.op_secs());
        for s in 0..3 {
            assert!(asynch.stage_secs()[s] < sync.stage_secs()[s]);
        }
        assert_eq!(asynch.stage_secs()[3], sync.stage_secs()[3]);
    }
}
