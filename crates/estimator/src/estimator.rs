//! The per-operator runtime estimator (paper §4.4, Figure 2 step ③).
//!
//! Training consumes a [`ProfileTable`] and fits one regressor per operator
//! over its scalar size feature. At simulation time the estimator implements
//! [`RuntimePredictor`], so the end-to-end simulator can swap it for the
//! hardware oracle to measure fidelity.

use crate::forest::{ForestConfig, RandomForest};
use crate::interp::LookupTable;
use crate::poly::PolynomialRegressor;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use vidur_core::rng::SimRng;
use vidur_model::operators::{OpInvocation, Operator};
use vidur_model::runtime::RuntimePredictor;
use vidur_profiler::ProfileTable;

/// Which regression family to train (paper §4.4 compares these).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EstimatorKind {
    /// Random forest regression — the paper's choice.
    RandomForest(ForestConfig),
    /// Polynomial ridge regression of the given degree.
    Polynomial {
        /// Polynomial degree.
        degree: usize,
        /// L2 regularization strength.
        ridge: f64,
    },
    /// Nearest-profiled-point lookup.
    NearestNeighbor,
    /// Piecewise-linear interpolation between profiled points.
    LinearInterpolation,
}

impl Default for EstimatorKind {
    fn default() -> Self {
        EstimatorKind::RandomForest(ForestConfig::default())
    }
}

impl std::fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimatorKind::RandomForest(_) => write!(f, "random-forest"),
            EstimatorKind::Polynomial { degree, .. } => write!(f, "polynomial-deg{degree}"),
            EstimatorKind::NearestNeighbor => write!(f, "nearest-neighbor"),
            EstimatorKind::LinearInterpolation => write!(f, "linear-interpolation"),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum OpModel {
    /// A random forest compiled into a dense lookup table (paper §4.2: the
    /// runtime estimator "produces operation-wise runtime lookup tables that
    /// can be later used during simulation"). The table is the forest
    /// evaluated on a fine grid; simulation-time queries are then O(log n)
    /// interpolations instead of full tree walks — the simulator's hot path.
    CompiledForest(LookupTable),
    Poly(PolynomialRegressor),
    Nearest(LookupTable),
    Linear(LookupTable),
}

impl OpModel {
    fn predict(&self, feature: f64) -> f64 {
        match self {
            OpModel::CompiledForest(t) => t.linear(feature),
            OpModel::Poly(m) => m.predict(feature),
            OpModel::Nearest(t) => t.nearest(feature),
            OpModel::Linear(t) => t.linear(feature),
        }
    }
}

/// Grid on which a trained forest is compiled into its lookup table, in
/// strictly increasing order. Spans up to 8192 step uniformly by
/// `max(span / 4096, 1)`: every integer up to a span of 4096, and at most
/// 4,097 points.
/// Wider (byte-sized) spans step geometrically by 0.4 % from `max(lo, 1)`,
/// and nothing caps them: the grid grows as log(hi/lo)/log(1.004) points,
/// 3,475 for llama2-7b's `attn_decode` range.
fn compile_grid(lo: f64, hi: f64) -> Vec<f64> {
    let lo = lo.max(0.0);
    if hi <= lo {
        return vec![lo];
    }
    let span = hi - lo;
    if span <= 8192.0 {
        let step = (span / 4096.0).max(1.0);
        let mut g: Vec<f64> = Vec::with_capacity(4100);
        let mut v = lo;
        while v < hi {
            g.push(v);
            v += step;
        }
        g.push(hi);
        g
    } else {
        let mut g = Vec::with_capacity(4000);
        if lo < 1.0 {
            g.push(lo);
        }
        let mut v = lo.max(1.0);
        while v < hi {
            g.push(v);
            v *= 1.004;
        }
        g.push(hi);
        g
    }
}

/// A trained runtime estimator: one regressor per operator plus the feature
/// range observed during profiling (predictions clamp into it).
///
/// The tables are immutable once trained and sit behind `Arc`s, so
/// `clone()` shares them: every stage timer and search probe built from one
/// onboarded estimator reads the same tables (about 1.1 MB for llama2-7b)
/// instead of holding a private copy.
///
/// # Example
///
/// ```
/// use vidur_core::rng::SimRng;
/// use vidur_estimator::{EstimatorKind, RuntimeEstimator};
/// use vidur_hardware::{GpuSku, KernelOracle};
/// use vidur_model::{ModelSpec, ParallelismConfig};
/// use vidur_profiler::{ProfileCollector, ProfilingPlan};
///
/// let model = ModelSpec::llama2_7b();
/// let par = ParallelismConfig::serial();
/// let plan = ProfilingPlan::with_limits(&model, &par, 512, 8192);
/// let collector = ProfileCollector::new(KernelOracle::new(GpuSku::a100_80g()));
/// let table = collector.collect(&plan, &mut SimRng::new(1));
/// let est = RuntimeEstimator::train(&table, EstimatorKind::default(), 7);
/// assert!(est.operators().count() > 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeEstimator {
    kind: EstimatorKind,
    models: Arc<BTreeMap<Operator, OpModel>>,
    ranges: Arc<BTreeMap<Operator, (f64, f64)>>,
}

impl RuntimeEstimator {
    /// Trains one regressor per operator in `table`.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn train(table: &ProfileTable, kind: EstimatorKind, seed: u64) -> Self {
        assert!(!table.is_empty(), "cannot train on an empty profile table");
        let mut rng = SimRng::new(seed);
        let mut models = BTreeMap::new();
        let mut ranges = BTreeMap::new();
        for op in table.operators() {
            let pts = table.points_for(op);
            let xs: Vec<f64> = pts.iter().map(|p| p.feature).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.mean_time).collect();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let model = match kind {
                EstimatorKind::RandomForest(cfg) => {
                    let mut op_rng = rng.fork(op as u64);
                    let forest = RandomForest::fit(&xs, &ys, cfg, &mut op_rng);
                    let grid = compile_grid(lo, hi);
                    let values = forest.predict_ascending(&grid);
                    OpModel::CompiledForest(LookupTable::new(
                        grid.into_iter().zip(values).collect(),
                    ))
                }
                EstimatorKind::Polynomial { degree, ridge } => {
                    OpModel::Poly(PolynomialRegressor::fit(&xs, &ys, degree, ridge))
                }
                EstimatorKind::NearestNeighbor => OpModel::Nearest(LookupTable::new(
                    xs.iter().copied().zip(ys.iter().copied()).collect(),
                )),
                EstimatorKind::LinearInterpolation => OpModel::Linear(LookupTable::new(
                    xs.iter().copied().zip(ys.iter().copied()).collect(),
                )),
            };
            models.insert(op, model);
            ranges.insert(op, (lo, hi));
        }
        RuntimeEstimator {
            kind,
            models: Arc::new(models),
            ranges: Arc::new(ranges),
        }
    }

    /// The regression family used.
    pub fn kind(&self) -> EstimatorKind {
        self.kind
    }

    /// Operators the estimator can predict.
    pub fn operators(&self) -> impl Iterator<Item = Operator> + '_ {
        self.models.keys().copied()
    }

    /// Predicts the single-execution time for `op` at `feature`, clamping
    /// into the profiled range.
    ///
    /// # Panics
    ///
    /// Panics if the operator was never profiled — a model-onboarding bug.
    pub fn predict(&self, op: Operator, feature: f64) -> f64 {
        let model = self.models.get(&op).unwrap_or_else(|| {
            panic!("operator {op} was not profiled; regenerate the profiling plan")
        });
        let (lo, hi) = self.ranges[&op];
        let clamped = feature.clamp(lo, hi);
        model.predict(clamped).max(0.0)
    }
}

impl RuntimePredictor for RuntimeEstimator {
    fn op_time(&self, inv: &OpInvocation) -> f64 {
        self.predict(inv.op, inv.input.feature())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidur_hardware::{GpuSku, KernelOracle};
    use vidur_model::parallelism::ParallelismConfig;
    use vidur_model::spec::ModelSpec;
    use vidur_profiler::{ProfileCollector, ProfilingPlan};

    fn trained(kind: EstimatorKind) -> (RuntimeEstimator, KernelOracle, ProfilingPlan) {
        let model = ModelSpec::llama2_7b();
        let par = ParallelismConfig::serial();
        let plan = ProfilingPlan::with_limits(&model, &par, 4096, 1 << 18);
        let oracle = KernelOracle::new(GpuSku::a100_80g());
        let collector = ProfileCollector::new(oracle.clone());
        let table = collector.collect(&plan, &mut SimRng::new(1));
        (RuntimeEstimator::train(&table, kind, 7), oracle, plan)
    }

    /// Mean absolute percentage error of the estimator against the oracle on
    /// off-grid probe invocations.
    fn probe_mape(est: &RuntimeEstimator, oracle: &KernelOracle) -> f64 {
        use vidur_model::operators::OpInput;
        let mut errs = Vec::new();
        // Off-grid token counts (none are powers of two or sample knots).
        for m in [37u64, 211, 733, 1531, 2897, 3803] {
            let inv = OpInvocation::new(
                Operator::MlpUpProj,
                OpInput::Matmul {
                    m,
                    k: 4096,
                    n: 11008,
                },
                1,
            );
            let truth = oracle.op_time(&inv);
            errs.push((est.op_time(&inv) - truth).abs() / truth);
            let inv = OpInvocation::new(
                Operator::AttnPrefill,
                OpInput::AttentionPrefill {
                    equiv_len: m,
                    q_heads: 32,
                    head_dim: 128,
                },
                1,
            );
            let truth = oracle.op_time(&inv);
            errs.push((est.op_time(&inv) - truth).abs() / truth);
            let kv_bytes = m * 524_288; // m kv tokens/layer-ish
            let inv = OpInvocation::new(
                Operator::AttnDecode,
                OpInput::AttentionDecode {
                    kv_bytes,
                    tokens: 16,
                },
                1,
            );
            let truth = oracle.op_time(&inv);
            errs.push((est.op_time(&inv) - truth).abs() / truth);
        }
        errs.iter().sum::<f64>() / errs.len() as f64
    }

    #[test]
    fn forest_interpolates_accurately() {
        let (est, oracle, _) = trained(EstimatorKind::default());
        let mape = probe_mape(&est, &oracle);
        assert!(mape < 0.06, "forest MAPE {mape}");
    }

    #[test]
    fn forest_beats_polynomial() {
        let (forest, oracle, _) = trained(EstimatorKind::default());
        let (poly, _, _) = trained(EstimatorKind::Polynomial {
            degree: 3,
            ridge: 1e-8,
        });
        let f_err = probe_mape(&forest, &oracle);
        let p_err = probe_mape(&poly, &oracle);
        assert!(
            f_err < p_err,
            "forest {f_err} should beat polynomial {p_err}"
        );
    }

    #[test]
    fn linear_interp_is_competitive() {
        let (est, oracle, _) = trained(EstimatorKind::LinearInterpolation);
        let mape = probe_mape(&est, &oracle);
        assert!(mape < 0.10, "linear MAPE {mape}");
    }

    #[test]
    fn covers_all_profiled_operators() {
        let (est, oracle, plan) = trained(EstimatorKind::default());
        for inv in plan.points() {
            let t = est.op_time(inv);
            assert!(t.is_finite() && t >= 0.0);
            let truth = oracle.op_time(inv);
            // At profiled knots the estimate is close to truth.
            let rel = (t - truth).abs() / truth;
            assert!(rel < 0.25, "{}: rel {rel}", inv.op);
        }
    }

    #[test]
    fn out_of_range_features_clamp() {
        let (est, _, _) = trained(EstimatorKind::default());
        let at_max = est.predict(Operator::QkvProj, 4096.0);
        let beyond = est.predict(Operator::QkvProj, 1e12);
        assert_eq!(at_max, beyond);
    }

    #[test]
    #[should_panic(expected = "not profiled")]
    fn unprofiled_operator_panics() {
        let (est, _, _) = trained(EstimatorKind::default());
        // TP1 profile has no AllReduce points.
        est.predict(Operator::AllReduce, 1024.0);
    }

    #[test]
    fn training_is_deterministic() {
        let (a, _, _) = trained(EstimatorKind::default());
        let (b, _, _) = trained(EstimatorKind::default());
        assert_eq!(a, b);
    }

    /// Geometric grids start at 16,384 B for llama2-7b's `attn_decode` and
    /// 8,192 B for its collectives; the low spans cover the token-sized ops.
    #[test]
    fn compile_grid_is_strictly_increasing() {
        let cases = [
            (0.0, 0.0),
            (0.0, 0.5),
            (0.5, 30_000.0),
            (1.0, 4096.0),
            (1.0, 8192.0),
            (8192.0, 1.3e8),
            (16_384.0, 1.1e9),
        ];
        for (lo, hi) in cases {
            let g = compile_grid(lo, hi);
            assert!(
                g.windows(2).all(|w| w[0] < w[1]),
                "grid for [{lo}, {hi}] repeats or falls: {:?}",
                &g[..g.len().min(4)]
            );
            assert_eq!((g[0], g[g.len() - 1]), (lo, hi));
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(EstimatorKind::default().to_string(), "random-forest");
        assert_eq!(
            EstimatorKind::Polynomial {
                degree: 3,
                ridge: 0.0
            }
            .to_string(),
            "polynomial-deg3"
        );
    }
}
