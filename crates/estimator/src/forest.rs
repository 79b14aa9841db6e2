//! Bootstrap-aggregated random forests (paper §4.4).
//!
//! Each tree trains on a bootstrap resample of the profiled points; the
//! forest predicts the mean of its trees. Bagging turns the single tree's
//! high-variance piecewise fit into a smooth, noise-robust interpolator
//! while preserving the ability to model sharp discontinuities.

use crate::tree::{RegressionTree, TreeConfig};
use serde::{Deserialize, Serialize};
use vidur_core::rng::SimRng;

/// Forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub num_trees: u32,
    /// Per-tree growth limits.
    pub tree: TreeConfig,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            num_trees: 24,
            tree: TreeConfig::default(),
        }
    }
}

/// A fitted random forest regressor.
///
/// # Example
///
/// ```
/// use vidur_estimator::{RandomForest, ForestConfig};
/// use vidur_core::rng::SimRng;
///
/// let xs: Vec<f64> = (0..128).map(|i| i as f64).collect();
/// let ys: Vec<f64> = xs.iter().map(|&x| x.sqrt()).collect();
/// let mut rng = SimRng::new(1);
/// let forest = RandomForest::fit(&xs, &ys, ForestConfig::default(), &mut rng);
/// let err = (forest.predict(64.0) - 8.0).abs();
/// assert!(err < 0.5, "{err}");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fits a forest to `(xs, ys)`.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or mismatched (see
    /// [`RegressionTree::fit`]) or `config.num_trees == 0`.
    pub fn fit(xs: &[f64], ys: &[f64], config: ForestConfig, rng: &mut SimRng) -> Self {
        assert!(config.num_trees > 0, "forest needs at least one tree");
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty());
        let n = xs.len();
        let mut trees = Vec::with_capacity(config.num_trees as usize);
        let mut bx = vec![0.0; n];
        let mut by = vec![0.0; n];
        for _ in 0..config.num_trees {
            for i in 0..n {
                let j = rng.next_below(n as u64) as usize;
                bx[i] = xs[j];
                by[i] = ys[j];
            }
            trees.push(RegressionTree::fit(&bx, &by, config.tree));
        }
        RandomForest { trees }
    }

    /// Predicts the mean of all trees at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict(x)).sum();
        sum / self.trees.len() as f64
    }

    /// Predicts every point of the non-decreasing inputs `xs` in one sweep:
    /// bit-identical to calling [`predict`](Self::predict) at each point.
    ///
    /// A tree over one scalar feature is a step function, so each tree is
    /// flattened once into its in-order steps and walked with a cursor
    /// that only moves forward, advancing while `x` exceeds the step's
    /// threshold (the comparison `predict` makes at each split). The
    /// trees' values are then summed in tree order, as `predict` sums them.
    /// One call costs O(trees × (points + leaves)) instead of
    /// O(trees × points × depth) — this is how the runtime estimator
    /// compiles a forest into its lookup table.
    ///
    /// # Example
    ///
    /// ```
    /// use vidur_core::rng::SimRng;
    /// use vidur_estimator::{ForestConfig, RandomForest};
    ///
    /// let xs: Vec<f64> = (0..64).map(|i| (i * i) as f64).collect();
    /// let ys: Vec<f64> = xs.iter().map(|&x| x.sqrt()).collect();
    /// let forest = RandomForest::fit(&xs, &ys, ForestConfig::default(), &mut SimRng::new(1));
    /// let grid: Vec<f64> = (0..5000).map(|i| i as f64).collect();
    /// let swept = forest.predict_ascending(&grid);
    /// for (&x, y) in grid.iter().zip(swept) {
    ///     assert_eq!(y.to_bits(), forest.predict(x).to_bits());
    /// }
    /// ```
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `xs` is not in non-decreasing order (NaN
    /// included).
    pub fn predict_ascending(&self, xs: &[f64]) -> Vec<f64> {
        debug_assert!(
            xs.windows(2).all(|w| w[0] <= w[1]),
            "predict_ascending needs non-decreasing inputs"
        );
        let steps: Vec<Vec<(f64, f64)>> = self.trees.iter().map(RegressionTree::steps).collect();
        let mut cursors = vec![0usize; steps.len()];
        xs.iter()
            .map(|&x| {
                let sum: f64 = steps
                    .iter()
                    .zip(&mut cursors)
                    .map(|(tree, cursor)| {
                        // The last step's threshold is +inf, so this stops.
                        while x > tree[*cursor].0 {
                            *cursor += 1;
                        }
                        tree[*cursor].1
                    })
                    .sum();
                sum / self.trees.len() as f64
            })
            .collect()
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn staircase(x: f64) -> f64 {
        // Tile-quantization-like curve: linear with 64-step jumps.
        let tiles = (x / 64.0).ceil().max(1.0);
        tiles * 64.0 * 1e-6 + 5e-6
    }

    #[test]
    fn fits_staircase_accurately() {
        let xs: Vec<f64> = (1..=2048).step_by(7).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| staircase(x)).collect();
        let mut rng = SimRng::new(42);
        let f = RandomForest::fit(&xs, &ys, ForestConfig::default(), &mut rng);
        let rels: Vec<f64> = (1..2048)
            .step_by(13)
            .map(|probe| {
                let x = probe as f64;
                (f.predict(x) - staircase(x)).abs() / staircase(x)
            })
            .collect();
        let mean = rels.iter().sum::<f64>() / rels.len() as f64;
        let max = rels.iter().cloned().fold(0.0, f64::max);
        // Probes falling between two training samples that straddle a step
        // are intrinsically ambiguous (the 7-step grid under-resolves the
        // 64-wide steps near x=64), so bound the mean tightly and the max
        // by one step height.
        assert!(mean < 0.02, "mean rel err {mean}");
        assert!(max < 0.55, "max rel err {max}");
    }

    #[test]
    fn robust_to_label_noise() {
        let mut rng = SimRng::new(7);
        let xs: Vec<f64> = (1..=512).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| staircase(x) * rng.log_normal(0.0, 0.02))
            .collect();
        let f = RandomForest::fit(&xs, &ys, ForestConfig::default(), &mut rng);
        let mid_err = (f.predict(256.0) - staircase(256.0)).abs() / staircase(256.0);
        assert!(mid_err < 0.05, "{mid_err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| x * 2.0).collect();
        let f1 = RandomForest::fit(&xs, &ys, ForestConfig::default(), &mut SimRng::new(5));
        let f2 = RandomForest::fit(&xs, &ys, ForestConfig::default(), &mut SimRng::new(5));
        assert_eq!(f1, f2);
    }

    #[test]
    fn single_tree_forest_works() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 2.0, 3.0, 4.0];
        let cfg = ForestConfig {
            num_trees: 1,
            tree: TreeConfig::default(),
        };
        let f = RandomForest::fit(&xs, &ys, cfg, &mut SimRng::new(1));
        assert_eq!(f.num_trees(), 1);
        assert!(f.predict(2.5).is_finite());
    }

    proptest! {
        #[test]
        fn sweep_matches_pointwise_predict(
            pts in proptest::collection::vec((0u32..40, -5.0f64..5.0), 1..80),
            num_trees in 1u32..6,
            max_depth in 0u32..8,
            seed in 0u64..1000,
        ) {
            // Features from a small integer set, so most repeat.
            let xs: Vec<f64> = pts.iter().map(|p| p.0 as f64 * 2.5).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let cfg = ForestConfig {
                num_trees,
                tree: TreeConfig { max_depth, min_samples_leaf: 1 },
            };
            let f = RandomForest::fit(&xs, &ys, cfg, &mut SimRng::new(seed));
            // Every split threshold exactly, the training features, and
            // points below and above the range, with repeats.
            let mut grid: Vec<f64> = f
                .trees
                .iter()
                .flat_map(|t| t.steps())
                .map(|(threshold, _)| threshold)
                .filter(|t| t.is_finite())
                .chain(xs.iter().copied())
                .chain([-1e9, -1.0, 0.0, 1.25, 99.0, 200.0, 1e12])
                .collect();
            grid.sort_by(f64::total_cmp);
            let swept = f.predict_ascending(&grid);
            prop_assert_eq!(swept.len(), grid.len());
            for (&x, y) in grid.iter().zip(&swept) {
                prop_assert_eq!(y.to_bits(), f.predict(x).to_bits(), "x={}", x);
            }
        }

        #[test]
        fn predictions_bounded_by_targets(
            pts in proptest::collection::vec((0.0f64..1e4, 0.1f64..10.0), 2..48),
            probe in 0.0f64..2e4,
        ) {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let f = RandomForest::fit(&xs, &ys, ForestConfig::default(), &mut SimRng::new(3));
            let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let p = f.predict(probe);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }
}
