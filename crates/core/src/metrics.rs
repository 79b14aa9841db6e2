//! Metric primitives: an exact quantile digest and the quantile-mode switch.
//!
//! Vidur reports request-level distributions (TTFT, TBT, normalized latency —
//! median/P90/P95/P99) and cluster-level utilization (MFU, MBU, KV-cache
//! occupancy over time). This module provides the exact digest the latency
//! distributions are built from; the utilization metrics are running sums
//! kept by the simulator's metrics collector.

use serde::{Deserialize, Serialize};

/// An exact quantile digest: stores every sample; reads require sorted
/// (sealed) storage.
///
/// Vidur simulations track at most a few hundred thousand requests, so exact
/// quantiles are affordable and avoid the sketch-accuracy caveats that would
/// otherwise muddy fidelity comparisons. For very long runs,
/// [`QuantileMode::Mergeable`] bounds metrics memory with t-digests instead.
///
/// Sorting is an explicit `&mut` operation: call [`QuantileDigest::seal`]
/// after the last `record` and before the first `quantile` read. The dirty
/// flag amortizes away for monotone streams (recording in non-decreasing
/// order keeps the digest sealed), and [`FromIterator`] seals on collect, so
/// the common paths never pay a sort. Reading an unsealed digest panics
/// rather than silently sorting a temporary copy.
///
/// # Example
///
/// ```
/// use vidur_core::metrics::QuantileDigest;
/// let mut d = QuantileDigest::new();
/// for i in 1..=100 {
///     d.record(i as f64);
/// }
/// d.seal();
/// assert_eq!(d.quantile(0.5), Some(50.5));
/// assert_eq!(d.min(), Some(1.0));
/// assert_eq!(d.max(), Some(100.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileDigest {
    samples: Vec<f64>,
    /// Whether `samples` is known to be in non-decreasing order. Skipped by
    /// serde: a deserialized digest conservatively re-seals before reads.
    #[serde(skip)]
    sorted: bool,
    sum: f64,
}

impl Default for QuantileDigest {
    fn default() -> Self {
        QuantileDigest::new()
    }
}

impl QuantileDigest {
    /// Creates an empty digest.
    pub fn new() -> Self {
        QuantileDigest {
            samples: Vec::new(),
            sorted: true,
            sum: 0.0,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN sample");
        if self.sorted {
            if let Some(&last) = self.samples.last() {
                if value < last {
                    self.sorted = false;
                }
            }
        }
        self.samples.push(value);
        self.sum += value;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum / self.samples.len() as f64)
        }
    }

    /// Sorts the backing storage so `quantile` reads are valid. A no-op when
    /// the digest is already sorted (monotone record streams, fresh
    /// collects). Called by the report builders before summarizing.
    ///
    /// The sort is unstable and orders by [`f64::total_cmp`]. `record`
    /// rejects NaN, so the only samples it can order differently from a
    /// stable numeric sort are zeros of both signs: `-0.0` now sorts before
    /// `+0.0`. The simulator's collectors never record `-0.0` (their
    /// durations come from integer `SimTime`), so their quantiles keep
    /// their bits.
    pub fn seal(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Returns the `q`-quantile (0 ≤ q ≤ 1) with linear interpolation, or
    /// `None` if the digest is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`, or if samples were recorded out of
    /// order and the digest was not [sealed](Self::seal) since.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        assert!(
            self.sorted,
            "quantile read on an unsealed digest: call seal() after recording"
        );
        let sorted = &self.samples;
        let n = sorted.len();
        if n == 1 {
            return Some(sorted[0]);
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .min_by(|a, b| a.partial_cmp(b).expect("no NaN"))
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .max_by(|a, b| a.partial_cmp(b).expect("no NaN"))
    }
}

impl FromIterator<f64> for QuantileDigest {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut d = QuantileDigest::new();
        for x in iter {
            d.record(x);
        }
        d.seal();
        d
    }
}

/// How a metrics collector aggregates latency distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum QuantileMode {
    /// Store every sample in a [`QuantileDigest`] (the default): quantiles
    /// are exact and reports are bit-reproducible, at O(samples) memory.
    #[default]
    Exact,
    /// Fold samples into t-digests ([`crate::mergeable::TDigest`]) with
    /// exact running sums: O(1) memory per distribution, approximate
    /// mid-quantiles, exact count/sum/min/max, and per-request records
    /// retired at completion. Metrics memory then grows neither with
    /// batches nor with decode tokens, and per-request state spans the ids
    /// from the oldest unretired request to the newest. Latency
    /// quantiles and means are not bit-comparable with exact mode; every
    /// other report field is.
    Mergeable,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn digest_quantiles_exact() {
        let d: QuantileDigest = (1..=5).map(|x| x as f64).collect();
        assert_eq!(d.quantile(0.0), Some(1.0));
        assert_eq!(d.quantile(1.0), Some(5.0));
        assert_eq!(d.quantile(0.5), Some(3.0));
        assert_eq!(d.quantile(0.25), Some(2.0));
    }

    #[test]
    fn digest_interpolates() {
        let d: QuantileDigest = vec![0.0, 10.0].into_iter().collect();
        assert_eq!(d.quantile(0.5), Some(5.0));
        assert_eq!(d.quantile(0.9), Some(9.0));
    }

    #[test]
    fn digest_empty() {
        let d = QuantileDigest::new();
        assert!(d.is_empty());
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(d.mean(), None);
    }

    #[test]
    fn digest_stats() {
        let d: QuantileDigest = vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(d.mean(), Some(5.0));
        assert_eq!(d.sum(), 40.0);
    }

    #[test]
    fn digest_seal_then_query() {
        let mut d: QuantileDigest = vec![3.0, 1.0, 2.0].into_iter().collect();
        d.seal();
        assert_eq!(d.quantile(0.5), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn digest_rejects_nan() {
        QuantileDigest::new().record(f64::NAN);
    }

    #[test]
    fn monotone_records_stay_sealed() {
        let mut d = QuantileDigest::new();
        for x in [1.0, 2.0, 2.0, 5.0] {
            d.record(x);
        }
        // Reading an unsealed digest panics, so this read proves the
        // non-decreasing stream needed no sort.
        assert_eq!(d.quantile(0.5), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "unsealed")]
    fn unsealed_digest_read_panics() {
        let mut d = QuantileDigest::new();
        d.record(2.0);
        d.record(1.0);
        let _ = d.quantile(0.5);
    }

    proptest! {
        #[test]
        fn quantiles_are_monotone(mut xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
            let d: QuantileDigest = xs.drain(..).collect();
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
            let vals: Vec<f64> = qs.iter().map(|&q| d.quantile(q).unwrap()).collect();
            for w in vals.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-9);
            }
            prop_assert_eq!(d.quantile(0.0).unwrap(), d.min().unwrap());
            prop_assert_eq!(d.quantile(1.0).unwrap(), d.max().unwrap());
        }

        #[test]
        fn seal_matches_stable_sort(
            ints in proptest::collection::vec(0u32..50, 2..400),
            scale in 1e-3f64..1e3,
        ) {
            // Few distinct values, so most samples have duplicates.
            let xs: Vec<f64> = ints.iter().map(|&i| i as f64 * scale).collect();
            let mut d = QuantileDigest::new();
            for &x in &xs {
                d.record(x);
            }
            d.seal();
            let mut stable = xs;
            stable.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let old: QuantileDigest = stable.into_iter().collect();
            for q in [0.5, 0.9, 0.95, 0.99] {
                prop_assert_eq!(
                    d.quantile(q).unwrap().to_bits(),
                    old.quantile(q).unwrap().to_bits()
                );
            }
        }

        #[test]
        fn mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let d: QuantileDigest = xs.iter().copied().collect();
            let mean = d.mean().unwrap();
            prop_assert!(mean >= d.min().unwrap() - 1e-6);
            prop_assert!(mean <= d.max().unwrap() + 1e-6);
        }
    }
}
