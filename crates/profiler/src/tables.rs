//! Profile tables: the persisted output of a profiling run.
//!
//! A [`ProfileTable`] is keyed by operator and holds `(feature, mean time)`
//! samples plus measurement spread — everything the runtime estimator needs
//! to train, and the artifact a user would ship alongside a model onboarding
//! (paper Figure 2: "Compute Profiles").

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vidur_model::operators::{OpInput, Operator};

/// One profiled data point for an operator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfilePoint {
    /// The scalar size feature (tokens, equivalent length, bytes...).
    pub feature: f64,
    /// Mean measured execution time in seconds.
    pub mean_time: f64,
    /// Standard deviation across repeated measurements.
    pub std_dev: f64,
    /// Number of repeated measurements averaged.
    pub repeats: u32,
    /// The full input descriptor measured (for audit/debug).
    pub input: OpInput,
}

/// All profiled points for one (model, TP degree, SKU) context.
///
/// # Example
///
/// ```
/// use vidur_profiler::{ProfilePoint, ProfileTable};
/// use vidur_model::operators::{OpInput, Operator};
///
/// let mut table = ProfileTable::new("llama2-7b", 1, "a100-80g");
/// table.push(Operator::QkvProj, ProfilePoint {
///     feature: 128.0,
///     mean_time: 42e-6,
///     std_dev: 1e-6,
///     repeats: 5,
///     input: OpInput::Matmul { m: 128, k: 4096, n: 12288 },
/// });
/// assert_eq!(table.points_for(Operator::QkvProj).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileTable {
    /// Model the table was collected for.
    pub model_name: String,
    /// TP degree operators were sharded at.
    pub tensor_parallel: u32,
    /// SKU the measurements were taken on.
    pub sku_name: String,
    points: BTreeMap<Operator, Vec<ProfilePoint>>,
}

impl ProfileTable {
    /// Creates an empty table for a profiling context.
    pub fn new(
        model_name: impl Into<String>,
        tensor_parallel: u32,
        sku_name: impl Into<String>,
    ) -> Self {
        ProfileTable {
            model_name: model_name.into(),
            tensor_parallel,
            sku_name: sku_name.into(),
            points: BTreeMap::new(),
        }
    }

    /// Appends a measured point for `op`.
    pub fn push(&mut self, op: Operator, point: ProfilePoint) {
        self.points.entry(op).or_default().push(point);
    }

    /// The points collected for `op` (empty slice if none).
    pub fn points_for(&self, op: Operator) -> &[ProfilePoint] {
        self.points.get(&op).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Operators present in the table.
    pub fn operators(&self) -> impl Iterator<Item = Operator> + '_ {
        self.points.keys().copied()
    }

    /// Total number of points across all operators.
    pub fn len(&self) -> usize {
        self.points.values().map(Vec::len).sum()
    }

    /// Returns `true` if no points were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorts each operator's points by feature (training expects this).
    pub fn sort(&mut self) {
        for pts in self.points.values_mut() {
            pts.sort_by(|a, b| a.feature.partial_cmp(&b.feature).expect("no NaN features"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(f: f64) -> ProfilePoint {
        ProfilePoint {
            feature: f,
            mean_time: f * 1e-9,
            std_dev: 0.0,
            repeats: 3,
            input: OpInput::Pointwise {
                tokens: f as u64,
                width: 1,
            },
        }
    }

    #[test]
    fn push_and_query() {
        let mut t = ProfileTable::new("m", 1, "a100-80g");
        t.push(Operator::Rope, point(1.0));
        t.push(Operator::Rope, point(2.0));
        assert_eq!(t.points_for(Operator::Rope).len(), 2);
        assert_eq!(t.points_for(Operator::LmHead).len(), 0);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn sort_orders_by_feature() {
        let mut t = ProfileTable::new("m", 1, "a100-80g");
        t.push(Operator::Rope, point(5.0));
        t.push(Operator::Rope, point(1.0));
        t.push(Operator::Rope, point(3.0));
        t.sort();
        let feats: Vec<f64> = t
            .points_for(Operator::Rope)
            .iter()
            .map(|p| p.feature)
            .collect();
        assert_eq!(feats, vec![1.0, 3.0, 5.0]);
    }
}
