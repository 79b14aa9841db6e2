//! Model onboarding: profile → train, with a process-wide estimator cache.
//!
//! This is the left half of the paper's Figure 2. Onboarding a (model, TP
//! degree, SKU) triple runs the profiling plan against the hardware oracle
//! and trains the runtime estimator. Because Vidur-Search evaluates hundreds
//! of deployment configurations that share the same triple, onboarded
//! estimators are cached process-wide (the paper similarly reuses compute
//! profiles across the search).

use crate::timing::{RuntimeSource, StageTimer};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use vidur_core::rng::SimRng;
use vidur_estimator::{EstimatorKind, RuntimeEstimator};
use vidur_hardware::{GpuSku, KernelOracle};
use vidur_model::{ModelSpec, ParallelismConfig};
use vidur_profiler::{ProfileCollector, ProfilingPlan};

/// Deterministic base seed for profiling measurement noise.
const PROFILE_SEED: u64 = 0x5EED_0001;
/// Deterministic base seed for estimator training.
const TRAIN_SEED: u64 = 0x5EED_0002;

/// (model, TP, SKU, estimator kind). The kind is keyed by its `Debug`
/// text, which spells out every hyper-parameter; its `Display` name does
/// not (every forest prints as `random-forest`), so keying by it would hand
/// a non-default forest the default's estimator.
type CacheKey = (String, u32, String, String);

static CACHE: Mutex<Option<HashMap<CacheKey, Arc<RuntimeEstimator>>>> = Mutex::new(None);

/// Stage timers are shared one level wider than estimators: the batch-shape
/// cache depends on (model, TP, PP, SKU, estimator kind, async-comm), but
/// *not* on the scheduler policy, batch size, or replica count — so every
/// scheduler variant of a parallelism point in a search grid replays the
/// same cached shapes.
type TimerKey = (String, u32, u32, String, String, bool);

static TIMERS: Mutex<Option<HashMap<TimerKey, StageTimer>>> = Mutex::new(None);

/// Onboards a model: profiles the operators for (model, TP, SKU) against the
/// kernel oracle and trains a runtime estimator of the given kind.
///
/// Results are cached process-wide; repeated calls with the same arguments
/// return the same `Arc`. Cloning the estimator out of it is cheap too: its
/// tables sit behind `Arc`s, so every stage timer and search probe built
/// from one onboarding shares them (a llama2-7B estimator holds about
/// 1.1 MB of tables; a reduced capacity search peaks near 23 MB resident
/// with sharing, 41 MB when each timer held a copy).
///
/// # Panics
///
/// Panics if the parallelism configuration is invalid for the model.
pub fn onboard(
    model: &ModelSpec,
    par: &ParallelismConfig,
    sku: &GpuSku,
    kind: EstimatorKind,
) -> Arc<RuntimeEstimator> {
    let key: CacheKey = (
        model.name.clone(),
        par.tensor_parallel,
        sku.name.clone(),
        format!("{kind:?}"),
    );
    {
        let guard = CACHE.lock();
        if let Some(cache) = guard.as_ref() {
            if let Some(hit) = cache.get(&key) {
                return Arc::clone(hit);
            }
        }
    }
    // Profile + train outside the lock (expensive; duplicate work on a race
    // is harmless because results are deterministic).
    let est = Arc::new(onboard_uncached(model, par, sku, kind));
    let mut guard = CACHE.lock();
    let cache = guard.get_or_insert_with(HashMap::new);
    Arc::clone(cache.entry(key).or_insert(est))
}

/// Uncached onboarding: profiles and trains the estimator [`onboard`]
/// caches.
fn onboard_uncached(
    model: &ModelSpec,
    par: &ParallelismConfig,
    sku: &GpuSku,
    kind: EstimatorKind,
) -> RuntimeEstimator {
    // Only the TP degree matters for operator shapes; normalize PP away so
    // TP4-PP1 and TP4-PP2 share a profile.
    let tp_only = ParallelismConfig::new(par.tensor_parallel, 1);
    let plan = ProfilingPlan::for_model(model, &tp_only);
    let oracle = KernelOracle::new(sku.clone());
    let collector = ProfileCollector::new(oracle);
    let mut rng = SimRng::new(PROFILE_SEED ^ par.tensor_parallel as u64);
    let table = collector.collect(&plan, &mut rng);
    RuntimeEstimator::train(&table, kind, TRAIN_SEED)
}

/// Drops all cached estimators and stage timers (test hygiene / memory
/// reclamation).
pub fn clear_cache() {
    *CACHE.lock() = None;
    *TIMERS.lock() = None;
}

/// Onboards the estimator for `config` and wraps it in a [`StageTimer`] —
/// the full prediction pipeline (profile → train → shape-cached stage
/// times) in one step.
///
/// Both halves are cached process-wide: the estimator by (model, TP, SKU,
/// kind) as [`onboard`] does, and the timer — batch-shape cache included —
/// by (model, TP, PP, SKU, kind, async-comm). Configurations differing only
/// in scheduler policy, batch size, or replica count therefore *share* one
/// shape cache, which is where Vidur-Search's grids recoup most of their
/// stage-time work (cached values are pure functions of the shape, so
/// sharing never changes a report). Timers of different PP degrees hold
/// clones of one estimator and so share its tables as well.
pub fn onboard_timer(config: &crate::config::ClusterConfig, kind: EstimatorKind) -> StageTimer {
    let key: TimerKey = (
        config.model.name.clone(),
        config.parallelism.tensor_parallel,
        config.parallelism.pipeline_parallel,
        config.sku.name.clone(),
        format!("{kind:?}"),
        config.async_pipeline_comm,
    );
    {
        let guard = TIMERS.lock();
        if let Some(timers) = guard.as_ref() {
            if let Some(hit) = timers.get(&key) {
                // Fresh counters per caller: the shape map is shared, but
                // hit/miss stats stay exact per configuration evaluation
                // even under concurrent rayon workers.
                return hit.with_fresh_stats();
            }
        }
    }
    let est = onboard(&config.model, &config.parallelism, &config.sku, kind);
    let timer = StageTimer::for_config(config, RuntimeSource::Estimator((*est).clone()));
    let mut guard = TIMERS.lock();
    let timers = guard.get_or_insert_with(HashMap::new);
    timers.entry(key).or_insert(timer).with_fresh_stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidur_estimator::ForestConfig;

    #[test]
    fn onboard_caches() {
        let model = ModelSpec::llama2_7b();
        let par = ParallelismConfig::serial();
        let sku = GpuSku::a100_80g();
        let a = onboard(&model, &par, &sku, EstimatorKind::default());
        let b = onboard(&model, &par, &sku, EstimatorKind::default());
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
    }

    #[test]
    fn pp_degree_shares_profile_shape() {
        let model = ModelSpec::llama2_7b();
        let sku = GpuSku::a100_80g();
        let a = onboard_uncached(
            &model,
            &ParallelismConfig::new(2, 1),
            &sku,
            EstimatorKind::default(),
        );
        let b = onboard_uncached(
            &model,
            &ParallelismConfig::new(2, 2),
            &sku,
            EstimatorKind::default(),
        );
        assert_eq!(a, b, "PP must not change the profile");
    }

    #[test]
    fn forest_configs_are_distinct_entries() {
        let model = ModelSpec::llama2_7b();
        let par = ParallelismConfig::serial();
        let sku = GpuSku::a100_80g();
        let default = onboard(&model, &par, &sku, EstimatorKind::default());
        let small = EstimatorKind::RandomForest(ForestConfig {
            num_trees: 4,
            ..ForestConfig::default()
        });
        let four = onboard(&model, &par, &sku, small);
        assert!(!Arc::ptr_eq(&default, &four));
        assert_ne!(*default, *four);
        assert_eq!(four.kind(), small);
    }

    #[test]
    fn different_kinds_are_distinct_entries() {
        let model = ModelSpec::llama2_7b();
        let par = ParallelismConfig::serial();
        let sku = GpuSku::a100_80g();
        let rf = onboard(&model, &par, &sku, EstimatorKind::default());
        let nn = onboard(&model, &par, &sku, EstimatorKind::NearestNeighbor);
        assert!(!Arc::ptr_eq(&rf, &nn));
    }
}
