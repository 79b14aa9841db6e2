//! Metric primitives: quantile digests, time-weighted series, histograms.
//!
//! Vidur reports request-level distributions (TTFT, TBT, normalized latency —
//! median/P90/P95/P99) and cluster-level utilization (MFU, MBU, KV-cache
//! occupancy over time). This module provides the small set of statistics
//! containers those reports are built from.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// An exact quantile digest: stores every sample; reads require sorted
/// (sealed) storage.
///
/// Vidur simulations track at most a few hundred thousand requests, so exact
/// quantiles are affordable and avoid the sketch-accuracy caveats that would
/// otherwise muddy fidelity comparisons. For per-token streams on very long
/// runs, [`StreamingSummary`] provides a bounded-memory alternative.
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

    /// Records a duration sample in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
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
    pub fn seal(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN in digest"));
            self.sorted = true;
        }
    }

    /// Whether the digest is sealed (reads allowed).
    pub fn is_sealed(&self) -> bool {
        self.sorted
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

    /// Median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
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

    /// Population standard deviation, or `None` if empty.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / self.samples.len() as f64;
        Some(var.sqrt())
    }

    /// Immutable view of the raw samples (sorted iff sealed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges another digest into this one. Stays sealed when simple
    /// concatenation preserves order; otherwise [`seal`](Self::seal) again
    /// before reading quantiles.
    pub fn merge(&mut self, other: &QuantileDigest) {
        let joined_in_order = match (self.samples.last(), other.samples.first()) {
            (Some(&a), Some(&b)) => self.sorted && other.sorted && a <= b,
            _ => self.sorted && other.sorted,
        };
        self.samples.extend_from_slice(&other.samples);
        self.sum += other.sum;
        self.sorted = joined_in_order;
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

impl Extend<f64> for QuantileDigest {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

/// How a metrics collector aggregates latency distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum QuantileMode {
    /// Store every sample in a [`QuantileDigest`] (the default): quantiles
    /// are exact and reports are bit-reproducible, at O(samples) memory.
    #[default]
    Exact,
    /// Stream samples through P² marker sketches ([`StreamingSummary`]):
    /// O(1) memory per distribution, approximate mid-quantiles, exact
    /// count/sum/min/max. For very long runs (per-token TBT streams).
    Sketch,
    /// Fold samples into mergeable t-digests ([`crate::mergeable::TDigest`]):
    /// bounded memory, approximate mid-quantiles, exact
    /// count/sum/min/max — and collectors can be *merged*. Reports are
    /// invariant under merge order (any shard count yields identical bytes)
    /// but are not bit-comparable with the other two modes.
    Mergeable,
}

/// A single-quantile P² estimator (Jain & Chlamtac, 1985): approximates one
/// quantile of a stream with five markers and no stored samples.
///
/// The five marker heights track the minimum, the target quantile, the
/// midpoints on either side, and the maximum; marker positions are nudged
/// toward their ideal locations with a piecewise-parabolic (P²) height
/// update on every observation.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    count: u64,
    /// Marker heights; doubles as the initial observation buffer while
    /// `count < 5`.
    q: [f64; 5],
    /// Actual marker positions (1-based ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
}

impl P2Quantile {
    /// Creates an estimator for the `p`-quantile.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "P² quantile must be in (0, 1): {p}");
        P2Quantile {
            p,
            count: 0,
            q: [0.0; 5],
            n: [0.0; 5],
            np: [0.0; 5],
        }
    }

    /// The tracked quantile.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Observations seen.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN sample");
        if self.count < 5 {
            self.q[self.count as usize] = value;
            self.count += 1;
            if self.count == 5 {
                self.q.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
                self.n = [1.0, 2.0, 3.0, 4.0, 5.0];
                let p = self.p;
                self.np = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0];
            }
            return;
        }
        // Locate the cell k with q[k] <= value < q[k+1], clamping the ends.
        let k = if value < self.q[0] {
            self.q[0] = value;
            0
        } else if value >= self.q[4] {
            self.q[4] = value.max(self.q[4]);
            3
        } else {
            (0..4)
                .rev()
                .find(|&i| self.q[i] <= value)
                .expect("value within [q0, q4)")
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        let p = self.p;
        let dnp = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0];
        for (np, d) in self.np.iter_mut().zip(dnp) {
            *np += d;
        }
        // Nudge interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            let right_gap = self.n[i + 1] - self.n[i];
            let left_gap = self.n[i - 1] - self.n[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let parabolic = self.q[i]
                    + d / (self.n[i + 1] - self.n[i - 1])
                        * ((self.n[i] - self.n[i - 1] + d) * (self.q[i + 1] - self.q[i])
                            / (self.n[i + 1] - self.n[i])
                            + (self.n[i + 1] - self.n[i] - d) * (self.q[i] - self.q[i - 1])
                                / (self.n[i] - self.n[i - 1]));
                self.q[i] = if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    parabolic
                } else {
                    // Linear fallback toward the neighbor in direction d.
                    let j = if d > 0.0 { i + 1 } else { i - 1 };
                    self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
                };
                self.n[i] += d;
            }
        }
        self.count += 1;
    }

    /// The current quantile estimate, or `None` if empty. Exact while fewer
    /// than five observations have been seen.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count < 5 {
            let mut head = [0.0; 5];
            let n = self.count as usize;
            head[..n].copy_from_slice(&self.q[..n]);
            let head = &mut head[..n];
            head.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let pos = self.p * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            return Some(head[lo] * (1.0 - frac) + head[hi] * frac);
        }
        Some(self.q[2])
    }
}

/// The report quantiles a [`StreamingSummary`] tracks.
pub const SUMMARY_QUANTILES: [f64; 4] = [0.5, 0.9, 0.95, 0.99];

/// Bounded-memory counterpart of [`QuantileDigest`]: exact count, sum, min
/// and max, plus one [`P2Quantile`] marker sketch per report quantile
/// (p50/p90/p95/p99). Memory is O(1) regardless of stream length.
///
/// # Example
///
/// ```
/// use vidur_core::metrics::StreamingSummary;
/// let mut s = StreamingSummary::new();
/// for i in 1..=1000 {
///     s.record(i as f64);
/// }
/// assert_eq!(s.len(), 1000);
/// assert_eq!(s.max(), Some(1000.0));
/// let p50 = s.quantile(0.5).unwrap();
/// assert!((p50 - 500.0).abs() < 25.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSummary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    sketches: [P2Quantile; 4],
}

impl Default for StreamingSummary {
    fn default() -> Self {
        StreamingSummary::new()
    }
}

impl StreamingSummary {
    /// Creates an empty summary tracking [`SUMMARY_QUANTILES`].
    pub fn new() -> Self {
        StreamingSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sketches: SUMMARY_QUANTILES.map(P2Quantile::new),
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN sample");
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        for s in &mut self.sketches {
            s.record(value);
        }
    }

    /// Records a duration sample in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (exact), or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Smallest sample (exact).
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample (exact).
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// The estimated `q`-quantile for one of [`SUMMARY_QUANTILES`], or
    /// `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not one of the tracked quantiles.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let idx = SUMMARY_QUANTILES
            .iter()
            .position(|&t| t == q)
            .unwrap_or_else(|| panic!("untracked quantile {q}; see SUMMARY_QUANTILES"));
        self.sketches[idx].estimate()
    }
}

/// A step function of time used for utilization metrics (KV occupancy, busy
/// GPUs, outstanding requests). Values are weighted by how long they persist.
///
/// # Example
///
/// ```
/// use vidur_core::metrics::TimeWeightedSeries;
/// use vidur_core::time::SimTime;
///
/// let mut s = TimeWeightedSeries::new();
/// s.record(SimTime::from_secs_f64(0.0), 0.0);
/// s.record(SimTime::from_secs_f64(1.0), 1.0);
/// s.record(SimTime::from_secs_f64(3.0), 0.0);
/// // value was 0 for 1s and 1 for 2s => mean 2/3
/// let mean = s.time_weighted_mean(SimTime::from_secs_f64(3.0)).unwrap();
/// assert!((mean - 2.0 / 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeWeightedSeries {
    /// (time, value) change-points, non-decreasing in time.
    points: Vec<(SimTime, f64)>,
}

impl TimeWeightedSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeWeightedSeries { points: Vec::new() }
    }

    /// Records that the tracked value changed to `value` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous change-point.
    pub fn record(&mut self, time: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(time >= last, "series updates must be in time order");
        }
        self.points.push((time, value));
    }

    /// Number of change-points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if no change-points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Latest recorded value.
    pub fn current(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Time-weighted mean of the value from the first change-point to `end`.
    /// Returns `None` if the series is empty or `end` precedes the first
    /// change-point.
    pub fn time_weighted_mean(&self, end: SimTime) -> Option<f64> {
        let first = self.points.first()?.0;
        if end <= first {
            return None;
        }
        let total = end.duration_since(first).as_secs_f64();
        let mut acc = 0.0;
        for w in self.points.windows(2) {
            let (t0, v) = w[0];
            let t1 = w[1].0.min(end);
            if t1 > t0 {
                acc += v * t1.duration_since(t0).as_secs_f64();
            }
            if w[1].0 >= end {
                return Some(acc / total);
            }
        }
        let (t_last, v_last) = *self.points.last()?;
        if end > t_last {
            acc += v_last * end.duration_since(t_last).as_secs_f64();
        }
        Some(acc / total)
    }

    /// Time-weighted mean of the value over the window `[start, end)`.
    /// The integration starts at `max(start, first change-point)`; returns
    /// `None` when that leaves an empty span (series empty, or `end` not
    /// after the first change-point / `start`).
    pub fn window_mean(&self, start: SimTime, end: SimTime) -> Option<f64> {
        let first = self.points.first()?.0;
        let lo = start.max(first);
        if end <= lo {
            return None;
        }
        let total = end.duration_since(lo).as_secs_f64();
        let mut acc = 0.0;
        for w in self.points.windows(2) {
            let t0 = w[0].0.max(lo);
            let t1 = w[1].0.min(end);
            if t1 > t0 {
                acc += w[0].1 * t1.duration_since(t0).as_secs_f64();
            }
            if w[1].0 >= end {
                return Some(acc / total);
            }
        }
        let (t_last, v_last) = *self.points.last()?;
        let t0 = t_last.max(lo);
        if end > t0 {
            acc += v_last * end.duration_since(t0).as_secs_f64();
        }
        Some(acc / total)
    }

    /// Maximum recorded value.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .max_by(|a, b| a.partial_cmp(b).expect("no NaN"))
    }

    /// Immutable view of the change-points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }
}

/// A fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
///
/// Used for operator-level runtime distributions and batch-size profiles.
///
/// # Example
///
/// ```
/// use vidur_core::metrics::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// h.record(0.5);
/// h.record(9.5);
/// h.record(42.0); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.bucket_count(9), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `n` equal-width buckets.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `n == 0`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo < hi, "histogram bounds must satisfy lo < hi");
        assert!(n > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total observations including under/overflow.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Observations in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Lower edge of bucket `i`.
    pub fn bucket_lo(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        self.lo + width * i as f64
    }
}

/// A running counter pair for utilization ratios such as MFU/MBU:
/// `achieved / peak` aggregated over time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UtilizationAccumulator {
    achieved: f64,
    available: f64,
}

impl UtilizationAccumulator {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one interval: `achieved` units of useful work out of `available`
    /// deliverable units.
    ///
    /// # Panics
    ///
    /// Panics if either quantity is negative.
    pub fn add(&mut self, achieved: f64, available: f64) {
        assert!(achieved >= 0.0 && available >= 0.0);
        self.achieved += achieved;
        self.available += available;
    }

    /// Utilization in `[0, 1]`, or `None` if nothing was available.
    pub fn ratio(&self) -> Option<f64> {
        if self.available > 0.0 {
            Some((self.achieved / self.available).min(1.0))
        } else {
            None
        }
    }

    /// Total achieved units.
    pub fn achieved(&self) -> f64 {
        self.achieved
    }

    /// Total available units.
    pub fn available(&self) -> f64 {
        self.available
    }
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
        assert_eq!(d.median(), Some(3.0));
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
        assert_eq!(d.std_dev(), None);
    }

    #[test]
    fn digest_stats() {
        let d: QuantileDigest = vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(d.mean(), Some(5.0));
        assert_eq!(d.std_dev(), Some(2.0));
        assert_eq!(d.sum(), 40.0);
    }

    #[test]
    fn digest_merge() {
        let mut a: QuantileDigest = vec![1.0, 2.0].into_iter().collect();
        let b: QuantileDigest = vec![3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.median(), Some(2.5));
    }

    #[test]
    fn digest_seal_then_query() {
        let mut d: QuantileDigest = vec![3.0, 1.0, 2.0].into_iter().collect();
        d.seal();
        assert_eq!(d.median(), Some(2.0));
        assert_eq!(d.samples(), &[1.0, 2.0, 3.0]);
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
        assert!(d.is_sealed(), "non-decreasing stream needs no sort");
        assert_eq!(d.median(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "unsealed")]
    fn unsealed_digest_read_panics() {
        let mut d = QuantileDigest::new();
        d.record(2.0);
        d.record(1.0);
        let _ = d.quantile(0.5);
    }

    #[test]
    fn merge_tracks_seal_state() {
        let mut a: QuantileDigest = vec![1.0, 2.0].into_iter().collect();
        let b: QuantileDigest = vec![3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert!(a.is_sealed(), "in-order concatenation stays sealed");
        let c: QuantileDigest = vec![0.5].into_iter().collect();
        a.merge(&c);
        assert!(!a.is_sealed());
        a.seal();
        assert_eq!(a.min(), Some(0.5));
        assert_eq!(a.quantile(1.0), Some(4.0));
    }

    #[test]
    fn p2_small_streams_are_exact() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), None);
        for x in [3.0, 1.0, 2.0] {
            p.record(x);
        }
        assert_eq!(p.estimate(), Some(2.0));
    }

    #[test]
    fn p2_converges_on_uniform() {
        let mut p = P2Quantile::new(0.9);
        // Deterministic low-discrepancy stream over [0, 1).
        let mut x = 0.0f64;
        for _ in 0..10_000 {
            x = (x + 0.754_877_666) % 1.0;
            p.record(x);
        }
        let est = p.estimate().unwrap();
        assert!((est - 0.9).abs() < 0.02, "p90 estimate {est}");
    }

    #[test]
    fn streaming_summary_tracks_exact_moments() {
        let mut s = StreamingSummary::new();
        for i in 1..=100 {
            s.record(i as f64);
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.sum(), 5050.0);
        assert_eq!(s.mean(), Some(50.5));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
        for q in SUMMARY_QUANTILES {
            let exact = q * 99.0 + 1.0;
            let est = s.quantile(q).unwrap();
            assert!(
                (est - exact).abs() <= 5.0,
                "q{q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "untracked quantile")]
    fn streaming_summary_rejects_untracked() {
        let mut s = StreamingSummary::new();
        s.record(1.0);
        let _ = s.quantile(0.42);
    }

    #[test]
    fn streaming_summary_empty() {
        let s = StreamingSummary::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn series_mean_with_tail() {
        let mut s = TimeWeightedSeries::new();
        s.record(SimTime::ZERO, 2.0);
        s.record(SimTime::from_secs_f64(1.0), 4.0);
        // 2.0 for 1s, then 4.0 for 3s => (2 + 12) / 4
        let m = s.time_weighted_mean(SimTime::from_secs_f64(4.0)).unwrap();
        assert!((m - 3.5).abs() < 1e-9);
    }

    #[test]
    fn series_end_before_start() {
        let mut s = TimeWeightedSeries::new();
        s.record(SimTime::from_secs_f64(5.0), 1.0);
        assert_eq!(s.time_weighted_mean(SimTime::from_secs_f64(2.0)), None);
    }

    #[test]
    fn series_end_mid_window() {
        let mut s = TimeWeightedSeries::new();
        s.record(SimTime::ZERO, 1.0);
        s.record(SimTime::from_secs_f64(2.0), 3.0);
        s.record(SimTime::from_secs_f64(10.0), 100.0);
        let m = s.time_weighted_mean(SimTime::from_secs_f64(4.0)).unwrap();
        // 1.0 for 2s + 3.0 for 2s over 4s = 2.0
        assert!((m - 2.0).abs() < 1e-9);
    }

    #[test]
    fn series_window_mean() {
        let mut s = TimeWeightedSeries::new();
        s.record(SimTime::from_secs_f64(1.0), 2.0);
        s.record(SimTime::from_secs_f64(3.0), 6.0);
        // Window [2, 5): 2.0 for 1s + 6.0 for 2s over 3s.
        let m = s
            .window_mean(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(5.0))
            .unwrap();
        assert!((m - 14.0 / 3.0).abs() < 1e-9);
        // Window entirely before the first change-point.
        assert_eq!(
            s.window_mean(SimTime::ZERO, SimTime::from_secs_f64(1.0)),
            None
        );
        // Window clipped to start at the first change-point.
        let clipped = s
            .window_mean(SimTime::ZERO, SimTime::from_secs_f64(3.0))
            .unwrap();
        assert!((clipped - 2.0).abs() < 1e-9);
        // Window after the last change-point takes the tail value.
        let tail = s
            .window_mean(SimTime::from_secs_f64(10.0), SimTime::from_secs_f64(11.0))
            .unwrap();
        assert!((tail - 6.0).abs() < 1e-9);
        assert_eq!(
            TimeWeightedSeries::new().window_mean(SimTime::ZERO, SimTime::MAX),
            None
        );
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn series_rejects_backwards_time() {
        let mut s = TimeWeightedSeries::new();
        s.record(SimTime::from_secs_f64(1.0), 0.0);
        s.record(SimTime::ZERO, 0.0);
    }

    #[test]
    fn series_current_and_max() {
        let mut s = TimeWeightedSeries::new();
        s.record(SimTime::ZERO, 1.0);
        s.record(SimTime::from_secs_f64(1.0), 5.0);
        s.record(SimTime::from_secs_f64(2.0), 3.0);
        assert_eq!(s.current(), Some(3.0));
        assert_eq!(s.max_value(), Some(5.0));
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new(0.0, 100.0, 4);
        for v in [5.0, 30.0, 55.0, 80.0, -1.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.bucket_count(3), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bucket_lo(2), 50.0);
    }

    #[test]
    fn utilization_accumulator() {
        let mut u = UtilizationAccumulator::new();
        assert_eq!(u.ratio(), None);
        u.add(30.0, 100.0);
        u.add(20.0, 100.0);
        assert_eq!(u.ratio(), Some(0.25));
        assert_eq!(u.achieved(), 50.0);
        assert_eq!(u.available(), 200.0);
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
        fn sketch_tracks_exact_within_tolerance(
            xs in proptest::collection::vec(0f64..1000.0, 100..1500)
        ) {
            let exact: QuantileDigest = xs.iter().copied().collect();
            let mut sketch = StreamingSummary::new();
            for &x in &xs {
                sketch.record(x);
            }
            // Moments are exact (same accumulation order => same bits).
            prop_assert_eq!(sketch.sum(), exact.sum());
            prop_assert_eq!(sketch.min(), exact.min());
            prop_assert_eq!(sketch.max(), exact.max());
            prop_assert_eq!(sketch.len() as usize, exact.len());
            // Mid-quantiles are approximate: within 20% of the spread.
            let spread = exact.max().unwrap() - exact.min().unwrap();
            for q in SUMMARY_QUANTILES {
                let e = exact.quantile(q).unwrap();
                let s = sketch.quantile(q).unwrap();
                prop_assert!(
                    (e - s).abs() <= 0.2 * spread + 1e-9,
                    "q{}: exact {} sketch {}", q, e, s
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

        #[test]
        fn histogram_conserves_count(xs in proptest::collection::vec(-10f64..110.0, 0..256)) {
            let mut h = Histogram::new(0.0, 100.0, 7);
            for &x in &xs {
                h.record(x);
            }
            prop_assert_eq!(h.count() as usize, xs.len());
        }

        #[test]
        fn series_mean_bounded(vals in proptest::collection::vec(0f64..100.0, 1..50)) {
            let mut s = TimeWeightedSeries::new();
            for (i, &v) in vals.iter().enumerate() {
                s.record(SimTime::from_secs_f64(i as f64), v);
            }
            let end = SimTime::from_secs_f64(vals.len() as f64);
            let m = s.time_weighted_mean(end).unwrap();
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }
}
