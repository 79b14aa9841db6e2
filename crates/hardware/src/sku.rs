//! GPU SKU specifications.
//!
//! The paper evaluates on Azure `Standard_NC96ads_A100_v4` VMs (4× A100
//! 80 GB, pairwise NVLink) and equivalent 4× H100 VMs. Peak numbers below
//! are the public dense-FP16 figures for the SXM parts.

use serde::{Deserialize, Serialize};

/// A GPU stock-keeping unit with the peak capabilities the roofline oracle
/// needs.
///
/// # Example
///
/// ```
/// use vidur_hardware::GpuSku;
/// let a100 = GpuSku::a100_80g();
/// let h100 = GpuSku::h100_80g();
/// assert!(h100.peak_fp16_flops > 2.0 * a100.peak_fp16_flops);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSku {
    /// SKU name, e.g. `"a100-80g"`.
    pub name: String,
    /// Peak dense FP16/BF16 throughput in FLOP/s.
    pub peak_fp16_flops: f64,
    /// Peak HBM bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Device memory in bytes.
    pub memory_bytes: f64,
    /// Streaming multiprocessor count (for wave quantization).
    pub sm_count: u32,
    /// Per-direction NVLink bandwidth between paired GPUs, bytes/s.
    pub nvlink_bandwidth: f64,
    /// PCIe/fallback interconnect bandwidth, bytes/s.
    pub pcie_bandwidth: f64,
    /// Base kernel launch overhead in seconds.
    pub kernel_launch_overhead: f64,
    /// Rental price in dollars per GPU-hour (representative Azure list
    /// price; only relative cost matters for QPS/$ rankings).
    pub price_per_gpu_hour: f64,
    /// Board power at full load (TDP), watts — for the energy metrics the
    /// paper plans as a Vidur-Bench extension (§5.2).
    pub tdp_watts: f64,
    /// Board power when idle, watts.
    pub idle_watts: f64,
}

impl GpuSku {
    /// NVIDIA A100 80 GB SXM.
    pub fn a100_80g() -> Self {
        GpuSku {
            name: "a100-80g".to_string(),
            peak_fp16_flops: 312e12,
            mem_bandwidth: 2.039e12,
            memory_bytes: 80e9,
            sm_count: 108,
            nvlink_bandwidth: 300e9, // per direction, pairwise NVLink
            pcie_bandwidth: 32e9,
            kernel_launch_overhead: 4.5e-6,
            price_per_gpu_hour: 2.21,
            tdp_watts: 400.0,
            idle_watts: 60.0,
        }
    }

    /// NVIDIA H100 80 GB SXM.
    pub fn h100_80g() -> Self {
        GpuSku {
            name: "h100-80g".to_string(),
            peak_fp16_flops: 989e12,
            mem_bandwidth: 3.35e12,
            memory_bytes: 80e9,
            sm_count: 132,
            nvlink_bandwidth: 450e9,
            pcie_bandwidth: 64e9,
            kernel_launch_overhead: 4.0e-6,
            price_per_gpu_hour: 4.10,
            tdp_watts: 700.0,
            idle_watts: 75.0,
        }
    }

    /// The SKUs the paper's search explores.
    pub fn paper_skus() -> Vec<GpuSku> {
        vec![Self::a100_80g(), Self::h100_80g()]
    }

    /// Looks a paper SKU up by (case-insensitive) name, accepting both
    /// `"a100"` and `"a100-80g"` forms.
    pub fn by_name(name: &str) -> Option<GpuSku> {
        let lower = name.to_ascii_lowercase();
        Self::paper_skus()
            .into_iter()
            .find(|s| s.name == lower || s.name.starts_with(&lower))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h100_outclasses_a100() {
        let a = GpuSku::a100_80g();
        let h = GpuSku::h100_80g();
        assert!(h.peak_fp16_flops > a.peak_fp16_flops);
        assert!(h.mem_bandwidth > a.mem_bandwidth);
        assert!(h.price_per_gpu_hour > a.price_per_gpu_hour);
    }

    #[test]
    fn by_name_prefix() {
        assert_eq!(GpuSku::by_name("A100").unwrap().name, "a100-80g");
        assert_eq!(GpuSku::by_name("h100-80g").unwrap().name, "h100-80g");
        assert!(GpuSku::by_name("tpu").is_none());
    }

    #[test]
    fn power_specs_sane() {
        for sku in GpuSku::paper_skus() {
            assert!(sku.idle_watts > 0.0 && sku.idle_watts < sku.tdp_watts);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let s = GpuSku::a100_80g();
        let json = serde_json::to_string(&s).unwrap();
        let back: GpuSku = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
