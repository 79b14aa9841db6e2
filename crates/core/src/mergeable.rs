//! A bounded-memory summary sketch: a deterministic t-digest.
//!
//! The exact metrics path ([`crate::metrics::QuantileDigest`]) stores every
//! sample. [`TDigest`] is the bounded-memory quantile sketch behind the
//! collector's mergeable mode: Dunning's t-digest with the k1 arcsine scale
//! function. It is *deterministic*: local compressions trigger at fixed
//! buffer sizes, and [`TDigest::seal`] performs one canonical compression
//! over the sorted centroid list, so a given sample sequence always yields
//! the same quantile reads.
//!
//! The t-digest keeps no running `f64` sum: callers that report a mean keep
//! the exact sum alongside it.

/// One t-digest cluster: a weighted point mass.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Centroid {
    /// Weighted mean of the samples folded into this cluster.
    mean: f64,
    /// Number of samples folded into this cluster.
    weight: u64,
}

/// Compression parameter δ. With the k1 scale the sealed digest holds at
/// most ~δ/2 centroids; δ = 200 keeps mid-quantile rank error well under
/// 1% in practice.
pub const DEFAULT_COMPRESSION: f64 = 200.0;

/// How many centroids may accumulate (relative to δ) before `record`
/// triggers a local compression. Larger factors amortize the sort better;
/// the trigger is a deterministic function of the stream, so a given
/// sample sequence always produces the same centroid list.
const BUFFER_FACTOR: usize = 8;

/// A deterministic t-digest (Dunning's merging sketch, k1 scale function,
/// compression [`DEFAULT_COMPRESSION`]).
///
/// Contract:
/// - `record` appends a weight-1 centroid and compresses locally when the
///   buffer exceeds `BUFFER_FACTOR × δ` entries. The trigger depends only
///   on the sample sequence, so identical streams yield identical state.
/// - `seal` sorts the centroid list by `(mean, weight)` and runs one
///   greedy k1-scale compression pass.
/// - `quantile` reads only sealed digests (panics otherwise), exactly like
///   [`crate::metrics::QuantileDigest`].
///
/// `count`, `min`, and `max` are tracked exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct TDigest {
    centroids: Vec<Centroid>,
    count: u64,
    min: f64,
    max: f64,
    sealed: bool,
}

impl Default for TDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl TDigest {
    /// An empty digest.
    pub fn new() -> Self {
        Self {
            centroids: Vec::new(),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sealed: false,
        }
    }

    /// Fold one sample into the digest.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        self.centroids.push(Centroid {
            mean: value,
            weight: 1,
        });
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sealed = false;
        if self.centroids.len() >= BUFFER_FACTOR * DEFAULT_COMPRESSION as usize {
            self.compress();
        }
    }

    /// Canonically compress the digest: sort centroids by `(mean, weight)`
    /// and run one greedy k1-scale merge pass. Idempotent: sealing a sealed
    /// digest is a no-op, so repeated reads stay stable.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.compress();
        self.sealed = true;
    }

    /// Number of samples recorded (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether any samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (exact). `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (exact). `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Number of centroids currently held (sealed: at most ~δ/2).
    pub fn num_centroids(&self) -> usize {
        self.centroids.len()
    }

    /// Approximate q-quantile (`0.0 ≤ q ≤ 1.0`) by linear interpolation
    /// over cumulative centroid weights, clamped to the exact min/max.
    /// `None` when empty.
    ///
    /// Panics when unsealed or when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(self.sealed, "quantile(): seal() the digest first");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        let total = self.count as f64;
        let rank = q * total;
        // Each centroid "sits" at the midpoint of its cumulative weight
        // span; interpolate piecewise-linearly between (0, min),
        // (mid_i, mean_i)…, (total, max).
        let mut cum = 0.0;
        let mut prev_pos = 0.0;
        let mut prev_val = self.min;
        for c in &self.centroids {
            let w = c.weight as f64;
            let center = cum + w / 2.0;
            if rank < center {
                let span = center - prev_pos;
                let t = if span > 0.0 {
                    (rank - prev_pos) / span
                } else {
                    0.0
                };
                return Some((prev_val + t * (c.mean - prev_val)).clamp(self.min, self.max));
            }
            cum += w;
            prev_pos = center;
            prev_val = c.mean;
        }
        let span = total - prev_pos;
        let t = if span > 0.0 {
            (rank - prev_pos) / span
        } else {
            1.0
        };
        Some((prev_val + t * (self.max - prev_val)).clamp(self.min, self.max))
    }

    /// k1 scale function: k(q) = δ/(2π) · asin(2q − 1). Cluster sizes obey
    /// k(q_right) − k(q_left) ≤ 1, which concentrates small clusters at the
    /// tails where quantile accuracy matters most.
    fn k_scale(&self, q: f64) -> f64 {
        DEFAULT_COMPRESSION / (2.0 * std::f64::consts::PI) * (2.0 * q - 1.0).asin()
    }

    /// Sort centroids by `(mean, weight)` and greedily merge neighbours
    /// while the combined cluster stays within one k-unit. The sort makes
    /// the pass a pure function of the centroid multiset. It merges in
    /// place: the write index never passes the read index.
    fn compress(&mut self) {
        if self.centroids.len() <= 1 {
            return;
        }
        self.centroids.sort_unstable_by(|a, b| {
            a.mean
                .partial_cmp(&b.mean)
                .expect("centroid means are never NaN")
                .then(a.weight.cmp(&b.weight))
        });
        let total = self.count as f64;
        let mut written = 0;
        let mut cur = self.centroids[0];
        let mut emitted: u64 = 0;
        for read in 1..self.centroids.len() {
            let c = self.centroids[read];
            let proposed = cur.weight + c.weight;
            let q_left = emitted as f64 / total;
            let q_right = (emitted + proposed) as f64 / total;
            if self.k_scale(q_right) - self.k_scale(q_left) <= 1.0 {
                // Weighted-mean update over the sorted sequence is
                // deterministic given the multiset.
                cur.mean += (c.mean - cur.mean) * (c.weight as f64 / proposed as f64);
                cur.weight = proposed;
            } else {
                emitted += cur.weight;
                self.centroids[written] = cur;
                written += 1;
                cur = c;
            }
        }
        self.centroids[written] = cur;
        self.centroids.truncate(written + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let idx = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// Rank error of an estimate: |#(samples ≤ est)/N − q|.
    fn rank_error(sorted: &[f64], est: f64, q: f64) -> f64 {
        let below = sorted.partition_point(|&v| v <= est);
        (below as f64 / sorted.len() as f64 - q).abs()
    }

    #[test]
    fn empty_digest_reads_none() {
        let mut d = TDigest::new();
        d.seal();
        assert!(d.is_empty());
        assert_eq!(d.count(), 0);
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(d.min(), None);
        assert_eq!(d.max(), None);
    }

    #[test]
    #[should_panic(expected = "seal() the digest first")]
    fn unsealed_quantile_panics() {
        let mut d = TDigest::new();
        d.record(1.0);
        let _ = d.quantile(0.5);
    }

    #[test]
    fn small_digest_is_exact_at_extremes() {
        let mut d = TDigest::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            d.record(v);
        }
        d.seal();
        assert_eq!(d.count(), 5);
        assert_eq!(d.min(), Some(1.0));
        assert_eq!(d.max(), Some(5.0));
        assert_eq!(d.quantile(0.0), Some(1.0));
        assert_eq!(d.quantile(1.0), Some(5.0));
        let p50 = d.quantile(0.5).unwrap();
        assert!((2.0..=4.0).contains(&p50), "p50 {p50} out of range");
    }

    #[test]
    fn constant_distribution_is_exact() {
        let mut d = TDigest::new();
        for _ in 0..10_000 {
            d.record(7.25);
        }
        d.seal();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(d.quantile(q), Some(7.25), "q={q}");
        }
    }

    /// Adversarial shapes: rank error must stay within the documented
    /// bound at the summary quantiles.
    #[test]
    fn adversarial_distributions_within_rank_error() {
        let n = 20_000usize;
        let mut rng = SimRng::new(17);
        let shapes: Vec<(&str, Vec<f64>)> = vec![
            ("monotone ramp", (0..n).map(|i| i as f64).collect()),
            ("reverse ramp", (0..n).map(|i| (n - i) as f64).collect()),
            (
                "bimodal",
                (0..n)
                    .map(|i| {
                        if i % 2 == 0 {
                            1.0 + rng.next_f64()
                        } else {
                            1_000.0 + rng.next_f64()
                        }
                    })
                    .collect(),
            ),
            (
                "heavy tail",
                (0..n)
                    .map(|_| (-(1.0 - rng.next_f64()).ln()).powi(3))
                    .collect(),
            ),
        ];
        for (name, samples) in shapes {
            let mut d = TDigest::new();
            for &v in &samples {
                d.record(v);
            }
            d.seal();
            let mut sorted = samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for q in [0.5, 0.9, 0.95, 0.99] {
                let est = d.quantile(q).unwrap();
                let err = rank_error(&sorted, est, q);
                assert!(
                    err <= 0.02,
                    "{name}: rank error {err:.4} at q={q} (est {est}, exact {})",
                    exact_quantile(&sorted, q)
                );
            }
            assert!(
                d.num_centroids() <= 2 * DEFAULT_COMPRESSION as usize,
                "{name}: {} centroids after seal",
                d.num_centroids()
            );
        }
    }

    #[test]
    fn seal_is_idempotent() {
        let mut d = TDigest::new();
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            d.record(rng.next_f64());
        }
        d.seal();
        let snapshot = d.clone();
        d.seal();
        assert_eq!(d, snapshot);
    }
}
