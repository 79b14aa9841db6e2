//! Deterministic random number generation for simulations.
//!
//! Every stochastic component of Vidur (arrival processes, workload length
//! sampling, hardware measurement noise, random-forest bootstrapping) draws
//! from a [`SimRng`], a self-contained xoshiro256** generator seeded via
//! SplitMix64. Identical seeds produce identical simulations on every
//! platform, which is what makes fidelity experiments and configuration
//! searches reproducible.
//!
//! The distribution helpers implemented here are exactly the ones the rest of
//! the framework needs: uniform, normal (Box–Muller), log-normal, exponential
//! (inverse CDF), gamma (Marsaglia–Tsang), and weighted discrete choice.

use serde::{Deserialize, Serialize};

/// A deterministic pseudo-random number generator (xoshiro256**).
///
/// # Example
///
/// ```
/// use vidur_core::rng::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed.
    ///
    /// The seed is expanded through SplitMix64 so that small or correlated
    /// seeds (0, 1, 2, ...) still produce well-distributed initial states.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent child generator.
    ///
    /// Used to give each replica / operator / trace its own stream so that
    /// adding a consumer does not perturb the draws seen by others.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(base ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        // Lemire's multiply-shift with rejection for unbiased output.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns `true` with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal draw (Box–Muller, one value per call).
    pub fn normal(&mut self) -> f64 {
        // Avoid log(0) by nudging u away from zero.
        let u = (self.next_f64()).max(f64::MIN_POSITIVE);
        let v = self.next_f64();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Log-normal draw parameterized by the *underlying* normal's `mu` and
    /// `sigma` (i.e. the result is `exp(N(mu, sigma^2))`).
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential draw with the given rate (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        -u.ln() / rate
    }

    /// Gamma draw with shape `k` and scale `theta` (Marsaglia–Tsang).
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0` or `theta <= 0`.
    pub fn gamma(&mut self, k: f64, theta: f64) -> f64 {
        assert!(k > 0.0 && theta > 0.0, "gamma parameters must be positive");
        if k < 1.0 {
            // Boost: Gamma(k) = Gamma(k+1) * U^(1/k).
            let u = self.next_f64().max(f64::MIN_POSITIVE);
            return self.gamma(k + 1.0, theta) * u.powf(1.0 / k);
        }
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal();
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = self.next_f64().max(f64::MIN_POSITIVE);
            if u.ln() < 0.5 * x * x + d - d * v3 + d * v3.ln() {
                return d * v3 * theta;
            }
        }
    }

    /// Samples an index from a discrete distribution given by `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weighted_index needs positive total weight"
        );
        let mut u = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            u -= w;
            if u < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_mean_std(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn determinism() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SimRng::new(3);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = SimRng::new(11);
        for _ in 0..10_000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn next_below_covers_range() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.next_below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(13);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.normal()).collect();
        let (mean, std) = sample_mean_std(&samples);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((std - 1.0).abs() < 0.02, "std {std}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(17);
        let rate = 4.0;
        let samples: Vec<f64> = (0..50_000).map(|_| rng.exponential(rate)).collect();
        let (mean, _) = sample_mean_std(&samples);
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gamma_moments() {
        let mut rng = SimRng::new(19);
        let (k, theta) = (3.0, 2.0);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.gamma(k, theta)).collect();
        let (mean, std) = sample_mean_std(&samples);
        assert!((mean - k * theta).abs() < 0.15, "mean {mean}");
        assert!((std - (k).sqrt() * theta).abs() < 0.15, "std {std}");
    }

    #[test]
    fn gamma_shape_below_one() {
        let mut rng = SimRng::new(23);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.gamma(0.5, 1.0)).collect();
        let (mean, _) = sample_mean_std(&samples);
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn log_normal_median() {
        let mut rng = SimRng::new(31);
        let mut samples: Vec<f64> = (0..50_001).map(|_| rng.log_normal(1.0, 0.8)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[25_000];
        assert!((median - 1.0_f64.exp()).abs() < 0.1, "median {median}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(37);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    proptest! {
        #[test]
        fn next_f64_in_unit_interval(seed in any::<u64>()) {
            let mut rng = SimRng::new(seed);
            for _ in 0..32 {
                let x = rng.next_f64();
                prop_assert!((0.0..1.0).contains(&x));
            }
        }

        #[test]
        fn next_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
            let mut rng = SimRng::new(seed);
            for _ in 0..16 {
                prop_assert!(rng.next_below(n) < n);
            }
        }

        #[test]
        fn exponential_positive(seed in any::<u64>(), rate in 0.001f64..1000.0) {
            let mut rng = SimRng::new(seed);
            prop_assert!(rng.exponential(rate) >= 0.0);
        }
    }
}
