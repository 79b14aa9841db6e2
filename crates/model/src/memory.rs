//! Memory planner (paper §4.5: "the replica scheduler contains a memory
//! planner, which uses the model specification and parallelism configuration
//! to compute the memory available for KV-Cache").
//!
//! The planner answers one question: given a GPU's memory capacity, how many
//! paged KV-cache blocks fit after model weights and an activation workspace
//! are reserved? The answer bounds every batching policy's admission logic.

use crate::parallelism::ParallelismConfig;
use crate::spec::{ModelSpec, SpecError};
use serde::{Deserialize, Serialize};

/// Default tokens per KV-cache block (vLLM's default page size).
pub const DEFAULT_BLOCK_SIZE: u32 = 16;

/// Fraction of post-weight memory reserved for activations/workspace.
pub const DEFAULT_ACTIVATION_RESERVE: f64 = 0.10;

/// The result of memory planning for one replica.
///
/// # Example
///
/// ```
/// use vidur_model::{MemoryPlan, ModelSpec, ParallelismConfig};
///
/// let model = ModelSpec::llama2_7b();
/// let par = ParallelismConfig::serial();
/// // 80 GB A100-class device
/// let plan = MemoryPlan::compute(&model, &par, 80.0e9, 16).unwrap();
/// assert!(plan.num_kv_blocks > 1_000);
/// assert!(plan.max_tokens() > 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryPlan {
    /// Bytes of weights per device.
    pub weight_bytes: f64,
    /// Bytes reserved for activations/workspace per device.
    pub activation_bytes: f64,
    /// Bytes available for KV-cache per device.
    pub kv_cache_bytes: f64,
    /// KV bytes per token per device.
    pub kv_bytes_per_token: u64,
    /// Tokens per block.
    pub block_size: u32,
    /// Number of whole KV blocks that fit.
    pub num_kv_blocks: u64,
}

impl MemoryPlan {
    /// Plans memory for one replica device.
    ///
    /// The binding constraint is the *most loaded* pipeline stage; all
    /// devices within a stage are symmetric under TP.
    ///
    /// # Errors
    ///
    /// Returns an error if the parallelism configuration is invalid for the
    /// model or if the weights alone exceed device memory.
    pub fn compute(
        model: &ModelSpec,
        par: &ParallelismConfig,
        device_memory_bytes: f64,
        block_size: u32,
    ) -> Result<MemoryPlan, SpecError> {
        assert!(block_size > 0, "block size must be positive");
        par.validate_for(model)?;
        let weight_bytes = par.weight_bytes_per_device(model);
        if weight_bytes >= device_memory_bytes {
            return Err(SpecError::new(format!(
                "model weights ({:.1} GB/device) exceed device memory ({:.1} GB); \
                 increase TP/PP or pick a larger SKU",
                weight_bytes / 1e9,
                device_memory_bytes / 1e9
            )));
        }
        let after_weights = device_memory_bytes - weight_bytes;
        let activation_bytes = after_weights * DEFAULT_ACTIVATION_RESERVE;
        let kv_cache_bytes = after_weights - activation_bytes;
        let kv_bytes_per_token = par.kv_bytes_per_token_per_device(model);
        let block_bytes = kv_bytes_per_token * block_size as u64;
        let num_kv_blocks = if block_bytes == 0 {
            0
        } else {
            (kv_cache_bytes / block_bytes as f64).floor() as u64
        };
        if num_kv_blocks == 0 {
            return Err(SpecError::new(
                "no memory left for KV cache after weights and activations",
            ));
        }
        Ok(MemoryPlan {
            weight_bytes,
            activation_bytes,
            kv_cache_bytes,
            kv_bytes_per_token,
            block_size,
            num_kv_blocks,
        })
    }

    /// Maximum cached tokens per device.
    pub fn max_tokens(&self) -> u64 {
        self.num_kv_blocks * self.block_size as u64
    }

    /// Fraction of KV capacity consumed by `tokens` cached tokens.
    pub fn utilization(&self, tokens: u64) -> f64 {
        if self.max_tokens() == 0 {
            0.0
        } else {
            tokens as f64 / self.max_tokens() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const GB: f64 = 1e9;

    #[test]
    fn llama7b_fits_on_one_a100() {
        let plan = MemoryPlan::compute(
            &ModelSpec::llama2_7b(),
            &ParallelismConfig::serial(),
            80.0 * GB,
            DEFAULT_BLOCK_SIZE,
        )
        .unwrap();
        // ~13.5 GB of weights leaves tens of GB of KV blocks.
        assert!(plan.weight_bytes > 12.0 * GB && plan.weight_bytes < 15.0 * GB);
        assert!(plan.max_tokens() > 100_000);
    }

    #[test]
    fn llama70b_needs_sharding() {
        let model = ModelSpec::llama2_70b();
        let err = MemoryPlan::compute(&model, &ParallelismConfig::serial(), 80.0 * GB, 16);
        assert!(err.is_err(), "70B cannot fit on one 80GB device");
        let ok = MemoryPlan::compute(&model, &ParallelismConfig::new(4, 1), 80.0 * GB, 16);
        assert!(ok.is_ok(), "70B fits at TP4: {ok:?}");
    }

    #[test]
    fn qwen_has_less_kv_capacity_than_llama70b() {
        let par = ParallelismConfig::new(4, 1);
        let qwen = MemoryPlan::compute(&ModelSpec::qwen_72b(), &par, 80.0 * GB, 16).unwrap();
        let llama = MemoryPlan::compute(&ModelSpec::llama2_70b(), &par, 80.0 * GB, 16).unwrap();
        // MHA means 8x KV bytes/token, so far fewer tokens fit.
        assert!(
            qwen.max_tokens() < llama.max_tokens() / 4,
            "qwen {} vs llama {}",
            qwen.max_tokens(),
            llama.max_tokens()
        );
    }

    #[test]
    fn utilization_bounds() {
        let plan = MemoryPlan::compute(
            &ModelSpec::llama2_7b(),
            &ParallelismConfig::serial(),
            80.0 * GB,
            16,
        )
        .unwrap();
        assert_eq!(plan.utilization(0), 0.0);
        assert!((plan.utilization(plan.max_tokens()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_tp_means_more_kv_blocks() {
        let model = ModelSpec::llama2_70b();
        let p4 = MemoryPlan::compute(&model, &ParallelismConfig::new(4, 1), 80.0 * GB, 16).unwrap();
        let p8 = MemoryPlan::compute(&model, &ParallelismConfig::new(8, 1), 80.0 * GB, 16).unwrap();
        // TP8 halves both weights and KV bytes/token per device, so more
        // tokens fit per device.
        assert!(p8.max_tokens() > p4.max_tokens());
    }

    proptest! {
        #[test]
        fn kv_accounting_consistent(mem_gb in 20.0f64..200.0, block_size in 1u32..64) {
            let model = ModelSpec::llama2_7b();
            let par = ParallelismConfig::serial();
            if let Ok(plan) = MemoryPlan::compute(&model, &par, mem_gb * GB, block_size) {
                let used = plan.num_kv_blocks as f64
                    * (plan.kv_bytes_per_token * block_size as u64) as f64;
                prop_assert!(used <= plan.kv_cache_bytes + 1.0);
                prop_assert!(plan.weight_bytes + plan.activation_bytes + plan.kv_cache_bytes
                    <= mem_gb * GB + 1.0);
            }
        }
    }
}
