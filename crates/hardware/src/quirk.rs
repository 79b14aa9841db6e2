//! Deterministic kernel quirks and measurement noise.
//!
//! Real kernel libraries (cuBLAS, FlashAttention) select different kernels
//! for different problem sizes, producing *systematic*, repeatable runtime
//! deviations of a few percent that are not smooth functions of size. These
//! quirks are exactly why the paper chose random-forest regressors over
//! polynomials (§4.4). We reproduce the effect with a hash-derived
//! multiplicative factor that is deterministic per (operator, size-bucket),
//! plus log-normal run-to-run noise applied only when "measuring".

use vidur_core::rng::SimRng;

/// Relative amplitude of the deterministic per-bucket quirk (± this fraction).
pub const QUIRK_AMPLITUDE: f64 = 0.04;

/// Log-normal sigma of run-to-run measurement noise.
pub const MEASUREMENT_SIGMA: f64 = 0.015;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over `bytes`. Feeding a byte string in
/// pieces gives the same hash as feeding it whole.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic multiplicative quirk factor in
/// `[1 - QUIRK_AMPLITUDE, 1 + QUIRK_AMPLITUDE]` for an operator at a given
/// input size.
///
/// Sizes are bucketed geometrically (~11 buckets per decade) so nearby sizes
/// share a kernel choice, exactly like real dispatch heuristics: the runtime
/// curve is piecewise-smooth with jumps at bucket boundaries.
pub fn quirk_factor(op_id: &str, size: f64) -> f64 {
    let bucket = if size <= 1.0 {
        0i64
    } else {
        (size.log2() * 4.0).floor() as i64
    };
    // The hash of the op id followed by the bucket, without building the
    // concatenated key: this runs on every oracle operator prediction.
    let h = fnv1a(fnv1a(FNV_OFFSET, op_id.as_bytes()), &bucket.to_le_bytes());
    // Map hash to [-1, 1).
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
    1.0 + QUIRK_AMPLITUDE * unit
}

/// One noisy "measurement" of a true runtime: multiplies by log-normal
/// run-to-run noise. Used by the profiler path only.
pub fn noisy_measurement(true_time: f64, rng: &mut SimRng) -> f64 {
    true_time * rng.log_normal(0.0, MEASUREMENT_SIGMA)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quirk_is_deterministic() {
        assert_eq!(
            quirk_factor("qkv_proj", 512.0),
            quirk_factor("qkv_proj", 512.0)
        );
    }

    #[test]
    fn quirk_within_amplitude() {
        for size in [1.0, 17.0, 256.0, 4096.0, 1e9] {
            let q = quirk_factor("mlp_up_proj", size);
            assert!(
                (1.0 - QUIRK_AMPLITUDE..=1.0 + QUIRK_AMPLITUDE).contains(&q),
                "{q}"
            );
        }
    }

    #[test]
    fn nearby_sizes_share_bucket() {
        // Buckets span a 2^(1/4) ≈ 19% size range: 900 and 1000 both fall in
        // the [2^9.75, 2^10) bucket.
        assert_eq!(
            quirk_factor("attn_decode", 900.0),
            quirk_factor("attn_decode", 1000.0)
        );
    }

    #[test]
    fn distant_sizes_usually_differ() {
        let diffs = [10.0, 100.0, 1000.0, 10_000.0, 100_000.0]
            .windows(2)
            .filter(|w| quirk_factor("lm_head", w[0]) != quirk_factor("lm_head", w[1]))
            .count();
        assert!(diffs >= 3, "quirks too uniform across decades");
    }

    #[test]
    fn ops_have_independent_quirks() {
        let same = ["a", "b", "c", "d", "e", "f", "g", "h"]
            .iter()
            .filter(|id| quirk_factor(id, 512.0) == quirk_factor("reference", 512.0))
            .count();
        assert!(same <= 1);
    }

    /// `quirk_factor` as it was when it hashed a concatenated key vector in
    /// one pass; the streamed hash must reproduce it exactly.
    fn quirk_factor_concatenated(op_id: &str, size: f64) -> f64 {
        fn fnv1a_whole(bytes: &[u8]) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
        let bucket = if size <= 1.0 {
            0i64
        } else {
            (size.log2() * 4.0).floor() as i64
        };
        let mut key = Vec::with_capacity(op_id.len() + 8);
        key.extend_from_slice(op_id.as_bytes());
        key.extend_from_slice(&bucket.to_le_bytes());
        let h = fnv1a_whole(&key);
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        1.0 + QUIRK_AMPLITUDE * unit
    }

    #[test]
    fn streamed_hash_matches_concatenated_key() {
        let sizes =
            std::iter::successors(Some(0.5f64), |s| Some(s * 1.37)).take_while(|&s| s < 1e13);
        for size in sizes.chain([0.0, 1.0, 2.0]) {
            for op in vidur_model::Operator::ALL {
                assert_eq!(
                    quirk_factor(op.id(), size).to_bits(),
                    quirk_factor_concatenated(op.id(), size).to_bits(),
                    "{op:?} at {size}"
                );
            }
        }
    }

    #[test]
    fn noise_centers_on_truth() {
        let mut rng = SimRng::new(7);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| noisy_measurement(1.0, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.005, "{mean}");
    }

    #[test]
    fn noise_is_positive() {
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            assert!(noisy_measurement(1e-6, &mut rng) > 0.0);
        }
    }
}
