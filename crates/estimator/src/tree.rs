//! CART regression trees over a scalar feature.
//!
//! Trees split greedily on the threshold minimizing the summed squared error
//! of the two children, recursing until a depth or leaf-size floor. On the
//! piecewise-smooth runtime curves the hardware produces (staircase jumps at
//! tile boundaries, kernel-selection quirks at size-bucket boundaries) a
//! tree places its splits exactly at the discontinuities — the property that
//! makes forests fit these curves where polynomials cannot (paper §4.4).

use serde::{Deserialize, Serialize};

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: u32,
    /// Minimum training samples per leaf.
    pub min_samples_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 14,
            min_samples_leaf: 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        threshold: f64,
        left: u32,
        right: u32,
    },
}

/// A fitted regression tree.
///
/// # Example
///
/// ```
/// use vidur_estimator::{RegressionTree, TreeConfig};
/// // A step function: 1.0 below 50, 2.0 above.
/// let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// let ys: Vec<f64> = xs.iter().map(|&x| if x < 50.0 { 1.0 } else { 2.0 }).collect();
/// let tree = RegressionTree::fit(&xs, &ys, TreeConfig::default());
/// assert_eq!(tree.predict(10.0), 1.0);
/// assert_eq!(tree.predict(90.0), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fits a tree to `(xs, ys)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty, have different lengths, or contain
    /// NaN.
    pub fn fit(xs: &[f64], ys: &[f64], config: TreeConfig) -> Self {
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(!xs.is_empty(), "cannot fit a tree to zero samples");
        assert!(
            xs.iter().chain(ys.iter()).all(|v| !v.is_nan()),
            "NaN in training data"
        );
        // Sort once; recursion then works on contiguous index ranges.
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("no NaN"));
        let sx: Vec<f64> = order.iter().map(|&i| xs[i]).collect();
        let sy: Vec<f64> = order.iter().map(|&i| ys[i]).collect();
        // Prefix sums for O(1) SSE of any range.
        let mut pre_y = vec![0.0; sx.len() + 1];
        let mut pre_y2 = vec![0.0; sx.len() + 1];
        for i in 0..sx.len() {
            pre_y[i + 1] = pre_y[i] + sy[i];
            pre_y2[i + 1] = pre_y2[i] + sy[i] * sy[i];
        }
        let mut nodes = Vec::new();
        build(&sx, &pre_y, &pre_y2, 0, sx.len(), 0, config, &mut nodes);
        RegressionTree { nodes }
    }

    /// Predicts the target for feature `x`.
    pub fn predict(&self, x: f64) -> f64 {
        let mut idx = 0usize;
        loop {
            match self.nodes[idx] {
                Node::Leaf { value } => return value,
                Node::Split {
                    threshold,
                    left,
                    right,
                } => {
                    idx = if x <= threshold {
                        left as usize
                    } else {
                        right as usize
                    };
                }
            }
        }
    }

    /// The tree as a step function over `x`: its leaves in order, each
    /// paired with the split threshold that follows it in an in-order walk
    /// (`+∞` after the last leaf). Thresholds never decrease, because every
    /// left subtree's splits lie at or below its parent's and every right
    /// subtree's at or above, so `predict(x)` is the value of the first step
    /// whose threshold is `>= x`.
    pub(crate) fn steps(&self) -> Vec<(f64, f64)> {
        let mut steps = Vec::with_capacity(self.leaf_count());
        self.push_steps(0, f64::INFINITY, &mut steps);
        steps
    }

    fn push_steps(&self, idx: usize, upper: f64, steps: &mut Vec<(f64, f64)>) {
        match self.nodes[idx] {
            Node::Leaf { value } => steps.push((upper, value)),
            Node::Split {
                threshold,
                left,
                right,
            } => {
                self.push_steps(left as usize, threshold, steps);
                self.push_steps(right as usize, upper, steps);
            }
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }
}

/// Builds a subtree over the sorted range `[lo, hi)`; returns its node index.
#[allow(clippy::too_many_arguments)]
fn build(
    sx: &[f64],
    pre_y: &[f64],
    pre_y2: &[f64],
    lo: usize,
    hi: usize,
    depth: u32,
    config: TreeConfig,
    nodes: &mut Vec<Node>,
) -> u32 {
    let n = hi - lo;
    let range_sum = pre_y[hi] - pre_y[lo];
    let mean = range_sum / n as f64;
    let sse = |a: usize, b: usize| -> f64 {
        let cnt = (b - a) as f64;
        if cnt == 0.0 {
            return 0.0;
        }
        let s = pre_y[b] - pre_y[a];
        let s2 = pre_y2[b] - pre_y2[a];
        s2 - s * s / cnt
    };
    let make_leaf = |nodes: &mut Vec<Node>| -> u32 {
        nodes.push(Node::Leaf { value: mean });
        (nodes.len() - 1) as u32
    };
    if depth >= config.max_depth || n < 2 * config.min_samples_leaf || n < 2 {
        return make_leaf(nodes);
    }
    // Best split position: i means left = [lo, i), right = [i, hi).
    let mut best: Option<(usize, f64)> = None;
    let parent_sse = sse(lo, hi);
    for i in (lo + config.min_samples_leaf)..=(hi - config.min_samples_leaf) {
        if i == lo || i == hi {
            continue;
        }
        // Cannot split between identical feature values.
        if sx[i - 1] == sx[i] {
            continue;
        }
        let total = sse(lo, i) + sse(i, hi);
        if best.is_none_or(|(_, b)| total < b) {
            best = Some((i, total));
        }
    }
    match best {
        Some((i, total)) if total < parent_sse - 1e-18 => {
            let threshold = 0.5 * (sx[i - 1] + sx[i]);
            let node_idx = nodes.len() as u32;
            nodes.push(Node::Leaf { value: mean }); // placeholder
            let left = build(sx, pre_y, pre_y2, lo, i, depth + 1, config, nodes);
            let right = build(sx, pre_y, pre_y2, i, hi, depth + 1, config, nodes);
            nodes[node_idx as usize] = Node::Split {
                threshold,
                left,
                right,
            };
            node_idx
        }
        _ => make_leaf(nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fits_constant() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 5.0];
        let t = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        assert_eq!(t.predict(0.0), 5.0);
        assert_eq!(t.predict(10.0), 5.0);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn fits_linear_within_resolution() {
        let xs: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x + 1.0).collect();
        let t = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        for &x in &[10.0, 100.0, 200.0] {
            let err = (t.predict(x) - (3.0 * x + 1.0)).abs();
            assert!(err < 3.0, "x={x} err={err}");
        }
    }

    #[test]
    fn finds_step_discontinuity() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| if x < 63.5 { 10.0 } else { 20.0 })
            .collect();
        let t = RegressionTree::fit(
            &xs,
            &ys,
            TreeConfig {
                max_depth: 2,
                min_samples_leaf: 1,
            },
        );
        assert_eq!(t.predict(63.0), 10.0);
        assert_eq!(t.predict(64.0), 20.0);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| x * x).collect();
        let t = RegressionTree::fit(
            &xs,
            &ys,
            TreeConfig {
                max_depth: 20,
                min_samples_leaf: 5,
            },
        );
        assert!(t.leaf_count() <= 2);
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 2.0, 3.0, 4.0];
        let t = RegressionTree::fit(
            &xs,
            &ys,
            TreeConfig {
                max_depth: 0,
                min_samples_leaf: 1,
            },
        );
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.predict(2.0), 2.5);
    }

    #[test]
    fn duplicate_features_do_not_split() {
        let xs = [1.0, 1.0, 1.0, 1.0];
        let ys = [1.0, 2.0, 3.0, 4.0];
        let t = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.predict(1.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_input_panics() {
        RegressionTree::fit(&[], &[], TreeConfig::default());
    }

    #[test]
    fn extrapolates_edge_leaves() {
        let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.clone();
        let t = RegressionTree::fit(&xs, &ys, TreeConfig::default());
        // Outside the training range, predictions clamp to edge leaves.
        assert!(t.predict(-100.0) <= 1.0);
        assert!(t.predict(1000.0) >= 62.0);
    }

    proptest! {
        #[test]
        fn training_points_fit_well(
            pts in proptest::collection::vec((0.0f64..1e4, 0.0f64..1.0), 2..64)
        ) {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let t = RegressionTree::fit(&xs, &ys, TreeConfig {
                max_depth: 32,
                min_samples_leaf: 1,
            });
            // With unlimited depth each distinct x gets its own leaf; the
            // prediction equals the mean of ys at that x.
            for (i, &x) in xs.iter().enumerate() {
                let same: Vec<f64> = xs.iter().zip(&ys)
                    .filter(|(xx, _)| **xx == x)
                    .map(|(_, y)| *y)
                    .collect();
                let mean = same.iter().sum::<f64>() / same.len() as f64;
                prop_assert!((t.predict(x) - mean).abs() < 1e-9,
                    "i={i} x={x} pred={} mean={mean}", t.predict(x));
            }
        }

        #[test]
        fn predictions_within_target_range(
            pts in proptest::collection::vec((0.0f64..1e4, -5.0f64..5.0), 1..64),
            probe in -1e5f64..1e5,
        ) {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let t = RegressionTree::fit(&xs, &ys, TreeConfig::default());
            let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let p = t.predict(probe);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }
}
