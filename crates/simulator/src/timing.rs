//! The memoized stage-time pipeline: runtime source → execution plan →
//! per-stage prediction, with a factored batch-shape cache in the middle.
//!
//! Of all the aggregates in a [`BatchShapeKey`], only decode attention reads
//! the decode KV length — and in decode-heavy serving that is the one that
//! changes every iteration, as each running request's history grows by a
//! token. So [`StageTimer`] splits the prediction in two:
//!
//! * **Per [`KvInvariantKey`]** (the shape without its decode KV length),
//!   cached: plan construction and the predictor sweep over every
//!   invocation except decode attention, stored as a [`KvInvariantTiming`]
//!   — per-operator totals, each stage's critical-path sum up to decode
//!   attention, and the invocation times after it.
//! * **Per batch**: one prediction of the batch's own decode attention,
//!   added into each stage before the stored remaining times are re-added
//!   in plan order, plus the batch's model FLOPs.
//!
//! The per-batch step keeps the `f64` addition order of the full sweep, so
//! a timing is bit-identical with the full sweep [`PlanTiming::for_shape`]
//! of the same shape. The stochastic CPU-overhead jitter of the oracle
//! source is applied by the engine *after* pricing, so the cache never
//! touches the jitter stream.
//!
//! Cloning a `StageTimer` shares its cache: the capacity search clones one
//! timer into every bisection probe of a configuration so later probes
//! reuse the shapes earlier probes (and the offline bounding run) already
//! priced.

use crate::config::ClusterConfig;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use vidur_estimator::RuntimeEstimator;
use vidur_hardware::KernelOracle;
use vidur_model::batch::BatchComposition;
use vidur_model::runtime::RuntimePredictor;
use vidur_model::shape::{BatchShapeKey, KvInvariantKey, KvInvariantTiming, PlanTiming};
use vidur_model::{ModelSpec, ParallelismConfig};

/// Cap on memoized kv-invariant shapes: the cache's memory bound. Long
/// simulations of high-entropy workloads could otherwise grow the table
/// without bound; once full, new shapes are priced directly (still
/// correct, just uncached).
pub const MAX_CACHED_SHAPES: usize = 1 << 20;

/// Where batch runtimes come from.
///
/// `Oracle` is this repo's stand-in for the real testbed: ground-truth
/// analytical kernel times **plus stochastic CPU-overhead jitter** (real
/// serving systems exhibit framework hiccups; the paper attributes the 7B
/// model's elevated error to exactly this). `Estimator` is Vidur proper:
/// trained runtime models and a constant nominal CPU overhead.
///
/// Cloning an estimator only bumps the reference counts of its tables, so
/// `RuntimeSource::Estimator((*onboard(..)).clone())` and every clone of
/// the timer built on it share the one onboarded table set (about 1.1 MB for
/// llama2-7B) rather than copying it.
#[derive(Debug, Clone)]
pub enum RuntimeSource {
    /// Ground truth with jittered CPU overhead (the paper's "Real").
    Oracle(KernelOracle),
    /// Trained estimator with nominal CPU overhead (the paper's
    /// "Predicted").
    Estimator(RuntimeEstimator),
}

impl RuntimeSource {
    pub(crate) fn op_source(&self) -> &dyn RuntimePredictor {
        match self {
            RuntimeSource::Oracle(o) => o,
            RuntimeSource::Estimator(e) => e,
        }
    }

    pub(crate) fn jitters(&self) -> bool {
        matches!(self, RuntimeSource::Oracle(_))
    }
}

/// Hit/miss counters of a shape cache. Every priced batch counts once:
/// a hit when its [`KvInvariantKey`] was already cached (only its decode
/// attention was predicted), a miss when the kv-invariant part had to be
/// priced too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Batches whose kv-invariant timing came from the cache.
    pub hits: u64,
    /// Batches whose kv-invariant timing had to be priced.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type ShapeMap = HashMap<KvInvariantKey, Arc<KvInvariantTiming>>;

/// Prices batches for one (model, parallelism, runtime source) context,
/// memoizing the kv-invariant part of the stage times by
/// [`KvInvariantKey`].
///
/// Timings are always computed from the batch's [`BatchShapeKey`] — the
/// execution plan is a function of the shape alone, so the cached value is
/// independent of request ids and slice ordering, and every timing is
/// bit-identical with the full sweep [`PlanTiming::for_shape`].
#[derive(Clone)]
pub struct StageTimer {
    model: ModelSpec,
    parallelism: ParallelismConfig,
    async_pipeline_comm: bool,
    source: RuntimeSource,
    cache: Arc<Mutex<ShapeMap>>,
    /// Hit/miss counters, shared by plain clones but *detachable* from the
    /// shape map via [`StageTimer::with_fresh_stats`], so a caller holding
    /// a globally shared map still gets exact counters for its own runs.
    stats: Arc<Mutex<CacheStats>>,
}

impl fmt::Debug for StageTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("StageTimer")
            .field("model", &self.model.name)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl StageTimer {
    /// Builds a timer with an empty shape cache.
    pub fn new(
        model: ModelSpec,
        parallelism: ParallelismConfig,
        async_pipeline_comm: bool,
        source: RuntimeSource,
    ) -> Self {
        StageTimer {
            model,
            parallelism,
            async_pipeline_comm,
            source,
            cache: Arc::new(Mutex::new(ShapeMap::default())),
            stats: Arc::new(Mutex::new(CacheStats::default())),
        }
    }

    /// A handle onto the same shape map with *fresh* hit/miss counters.
    ///
    /// Plain `clone()`s share both; `onboard_timer` hands each caller a
    /// fresh-stats handle so per-configuration ledger counts stay exact
    /// even when rayon workers share one process-wide map concurrently.
    pub fn with_fresh_stats(&self) -> StageTimer {
        StageTimer {
            stats: Arc::new(Mutex::new(CacheStats::default())),
            ..self.clone()
        }
    }

    /// Builds the timer for a cluster configuration (the usual entry point).
    pub fn for_config(config: &ClusterConfig, source: RuntimeSource) -> Self {
        StageTimer::new(
            config.model.clone(),
            config.parallelism,
            config.async_pipeline_comm,
            source,
        )
    }

    /// Prices one batch: the kv-invariant timing comes from the cache (or
    /// is priced and stored on a miss), then the batch's own decode
    /// attention completes it.
    ///
    /// CPU-overhead jitter is *not* included — the engine adds it after the
    /// lookup so the oracle's stochastic overhead never depends on cache
    /// state.
    pub fn time_batch(&self, batch: &BatchComposition) -> Arc<PlanTiming> {
        let key = BatchShapeKey::from_batch(batch);
        let invariant = self.kv_invariant_timing(&key);
        Arc::new(invariant.with_decode(
            &self.model,
            &self.parallelism,
            &key,
            self.source.op_source(),
        ))
    }

    /// The cached kv-invariant timing of `key`'s shape, priced on a miss.
    fn kv_invariant_timing(&self, key: &BatchShapeKey) -> Arc<KvInvariantTiming> {
        let invariant = key.kv_invariant();
        if let Some(hit) = self.cache.lock().get(&invariant).map(Arc::clone) {
            self.stats.lock().hits += 1;
            return hit;
        }
        self.stats.lock().misses += 1;
        // Price outside the lock: concurrent misses on the same shape do
        // duplicate (deterministic) work instead of serializing every probe.
        let timing = Arc::new(KvInvariantTiming::for_shape(
            &self.model,
            &self.parallelism,
            key,
            self.source.op_source(),
            self.async_pipeline_comm,
        ));
        let mut guard = self.cache.lock();
        if guard.len() < MAX_CACHED_SHAPES {
            Arc::clone(
                guard
                    .entry(invariant)
                    .or_insert_with(|| Arc::clone(&timing)),
            )
        } else {
            timing
        }
    }

    /// Whether the underlying source adds stochastic CPU-overhead jitter.
    pub fn jitters(&self) -> bool {
        self.source.jitters()
    }

    /// The runtime source backing this timer.
    pub fn source(&self) -> &RuntimeSource {
        &self.source
    }

    /// This handle-family's hit/miss counters (see
    /// [`StageTimer::with_fresh_stats`] for the sharing granularity).
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    /// Distinct kv-invariant shapes currently memoized.
    pub fn cached_shapes(&self) -> usize {
        self.cache.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onboarding::onboard;
    use proptest::prelude::*;
    use vidur_estimator::EstimatorKind;
    use vidur_hardware::GpuSku;
    use vidur_model::RequestSlice;

    fn oracle() -> RuntimeSource {
        RuntimeSource::Oracle(KernelOracle::new(GpuSku::a100_80g()))
    }

    fn estimator(model: &ModelSpec, par: &ParallelismConfig) -> RuntimeSource {
        let est = onboard(model, par, &GpuSku::a100_80g(), EstimatorKind::default());
        RuntimeSource::Estimator((*est).clone())
    }

    fn serial_timer() -> StageTimer {
        StageTimer::new(
            ModelSpec::llama2_7b(),
            ParallelismConfig::serial(),
            false,
            oracle(),
        )
    }

    /// The unmemoized full sweep of `batch`'s shape in `timer`'s context:
    /// the reference every [`StageTimer::time_batch`] result must match.
    fn full_sweep(timer: &StageTimer, batch: &BatchComposition) -> PlanTiming {
        PlanTiming::for_shape(
            &timer.model,
            &timer.parallelism,
            &BatchShapeKey::from_batch(batch),
            timer.source.op_source(),
            timer.async_pipeline_comm,
        )
    }

    /// A timing's observable values as bits: stage secs, op secs, model
    /// FLOPs and total tokens.
    fn bits(t: &PlanTiming) -> (Vec<u64>, Vec<u64>, u64, u64) {
        let v = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            v(t.stage_secs()),
            v(t.op_secs()),
            t.model_flops().to_bits(),
            t.total_tokens(),
        )
    }

    #[test]
    fn cache_hits_replay_identical_timing() {
        let timer = serial_timer();
        let a = BatchComposition::new(vec![
            RequestSlice::prefill(1, 512, 0),
            RequestSlice::decode(2, 300),
        ]);
        // Same shape, different ids and slice order.
        let b = BatchComposition::new(vec![
            RequestSlice::decode(7, 300),
            RequestSlice::prefill(8, 512, 0),
        ]);
        let ta = timer.time_batch(&a);
        let tb = timer.time_batch(&b);
        assert_eq!(bits(&ta), bits(&tb));
        assert_eq!(bits(&tb), bits(&full_sweep(&timer, &b)));
        assert_eq!(timer.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(timer.cached_shapes(), 1);
    }

    #[test]
    fn clones_share_the_cache() {
        let timer = serial_timer();
        let clone = timer.clone();
        let b = BatchComposition::new(vec![RequestSlice::decode(1, 64)]);
        timer.time_batch(&b);
        clone.time_batch(&b);
        assert_eq!(clone.stats(), CacheStats { hits: 1, misses: 1 });
    }

    proptest! {
        /// Memoized timings match the full sweep on the same key bit for
        /// bit across randomized batch compositions, TP/PP configurations,
        /// MHA and GQA models, synchronous and asynchronous pipeline
        /// communication, and both runtime sources. Each batch is priced
        /// twice (the second time a hit), then again with every decode
        /// history shifted, which keeps the kv-invariant key: that batch
        /// must hit and still match its own full sweep.
        #[test]
        fn cached_matches_uncached(
            prefills in proptest::collection::vec((1u64..768, 0u64..768), 0..5),
            decodes in proptest::collection::vec(0u64..4096, 0..24),
            kv_shift in 1u64..512,
            par_idx in 0usize..4,
            gqa in proptest::bool::ANY,
            async_pipeline_comm in proptest::bool::ANY,
            use_estimator in proptest::bool::ANY,
        ) {
            prop_assume!(!prefills.is_empty() || !decodes.is_empty());
            let par = [
                ParallelismConfig::new(1, 1),
                ParallelismConfig::new(2, 1),
                ParallelismConfig::new(1, 2),
                ParallelismConfig::new(2, 4),
            ][par_idx];
            let model = if gqa {
                ModelSpec::llama2_70b()
            } else {
                ModelSpec::llama2_7b()
            };
            let source = if use_estimator {
                estimator(&model, &par)
            } else {
                oracle()
            };
            let timer = StageTimer::new(model, par, async_pipeline_comm, source);
            let batch_with = |shift: u64| {
                let mut slices = Vec::new();
                for (i, (p, h)) in prefills.iter().enumerate() {
                    slices.push(RequestSlice::prefill(i as u64, *p, *h));
                }
                for (i, h) in decodes.iter().enumerate() {
                    slices.push(RequestSlice::decode(1000 + i as u64, h + shift));
                }
                BatchComposition::new(slices)
            };
            let batch = batch_with(0);
            let direct = bits(&full_sweep(&timer, &batch));
            for pass in 0..2 {
                prop_assert_eq!(bits(&timer.time_batch(&batch)), direct.clone(), "pass {}", pass);
            }
            prop_assert_eq!(timer.stats(), CacheStats { hits: 1, misses: 1 });
            let shifted = batch_with(kv_shift);
            prop_assert_eq!(
                bits(&timer.time_batch(&shifted)),
                bits(&full_sweep(&timer, &shifted))
            );
            prop_assert_eq!(timer.stats(), CacheStats { hits: 2, misses: 1 });
            prop_assert_eq!(timer.cached_shapes(), 1);
        }
    }
}
