//! Collective-communication cost model (paper §4.3 "Profiling Communication
//! Operators").
//!
//! The three collectives LLM inference uses are modeled with standard ring
//! formulas: an all-reduce of `B` bytes over `n` ranks moves
//! `2·B·(n-1)/n` bytes per rank, an all-gather moves `B·(n-1)/n`, and a
//! pipeline send/recv moves `B` point-to-point. Per-hop latency is added per
//! algorithm step. These operators are model-agnostic — the paper profiles
//! them once per topology, and so do we.

use crate::sku::GpuSku;
use serde::{Deserialize, Serialize};

/// Per-hop latency of a NVLink/NCCL step in seconds.
pub const HOP_LATENCY: f64 = 6.0e-6;

/// Link efficiency: achievable fraction of peak link bandwidth.
pub const LINK_EFFICIENCY: f64 = 0.75;

/// Cost model for collectives on a replica's interconnect topology.
///
/// The paper's testbed has pairwise NVLink within a 4-GPU VM; communicators
/// of size ≤ `nvlink_span` use NVLink bandwidth, larger ones fall back to
/// PCIe-class links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveModel {
    /// Per-direction fast-link bandwidth (bytes/s).
    nvlink_bandwidth: f64,
    /// Fallback link bandwidth (bytes/s).
    pcie_bandwidth: f64,
    /// Largest communicator size fully connected by fast links.
    nvlink_span: u32,
}

impl CollectiveModel {
    /// Builds the collective model for a SKU, assuming the paper's 4-GPU
    /// NVLink islands.
    pub fn for_sku(sku: &GpuSku) -> Self {
        CollectiveModel {
            nvlink_bandwidth: sku.nvlink_bandwidth,
            pcie_bandwidth: sku.pcie_bandwidth,
            nvlink_span: 4,
        }
    }

    fn link_bandwidth(&self, world: u32) -> f64 {
        if world <= self.nvlink_span {
            self.nvlink_bandwidth * LINK_EFFICIENCY
        } else {
            self.pcie_bandwidth * LINK_EFFICIENCY
        }
    }

    /// Ring all-reduce time for `bytes` per rank over `world` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn all_reduce(&self, bytes: u64, world: u32) -> f64 {
        assert!(world > 0);
        if world == 1 {
            return 0.0;
        }
        let n = world as f64;
        let steps = 2.0 * (n - 1.0);
        let volume = 2.0 * bytes as f64 * (n - 1.0) / n;
        volume / self.link_bandwidth(world) + steps * HOP_LATENCY
    }

    /// Ring all-gather time for `bytes` per rank over `world` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn all_gather(&self, bytes: u64, world: u32) -> f64 {
        assert!(world > 0);
        if world == 1 {
            return 0.0;
        }
        let n = world as f64;
        let steps = n - 1.0;
        let volume = bytes as f64 * (n - 1.0) / n;
        volume / self.link_bandwidth(world) + steps * HOP_LATENCY
    }

    /// Point-to-point send/recv time for `bytes` between adjacent pipeline
    /// stages.
    pub fn send_recv(&self, bytes: u64) -> f64 {
        bytes as f64 / self.link_bandwidth(2) + HOP_LATENCY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> CollectiveModel {
        CollectiveModel::for_sku(&GpuSku::a100_80g())
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let m = model();
        assert_eq!(m.all_reduce(1 << 20, 1), 0.0);
        assert_eq!(m.all_gather(1 << 20, 1), 0.0);
    }

    #[test]
    fn all_reduce_twice_all_gather_volume() {
        let m = model();
        let bytes = 64 << 20;
        let ar = m.all_reduce(bytes, 4);
        let ag = m.all_gather(bytes, 4);
        // Ignoring latency, AR moves exactly 2x AG volume.
        let ar_bw = ar - 6.0 * HOP_LATENCY;
        let ag_bw = ag - 3.0 * HOP_LATENCY;
        assert!((ar_bw / ag_bw - 2.0).abs() < 1e-9);
    }

    #[test]
    fn send_recv_scales_with_bytes() {
        let m = model();
        let t1 = m.send_recv(1 << 20);
        let t2 = m.send_recv(2 << 20);
        assert!(t2 > t1);
        assert!((t2 - HOP_LATENCY) / (t1 - HOP_LATENCY) > 1.9);
    }

    #[test]
    fn large_world_falls_back_to_slow_links() {
        let m = model();
        let fast = m.all_reduce(1 << 24, 4);
        let slow = m.all_reduce(1 << 24, 8);
        // 8-way spans beyond the NVLink island: much slower despite less
        // volume per rank difference.
        assert!(slow > fast * 2.0, "fast={fast} slow={slow}");
    }

    #[test]
    fn latency_floor_for_tiny_messages() {
        let m = model();
        let t = m.all_reduce(16, 4);
        assert!(t >= 6.0 * HOP_LATENCY);
    }

    proptest! {
        #[test]
        fn all_reduce_monotone_in_bytes(b1 in 1u64..1 << 28, delta in 1u64..1 << 20) {
            let m = model();
            prop_assert!(m.all_reduce(b1 + delta, 4) >= m.all_reduce(b1, 4));
        }

        #[test]
        fn collectives_nonnegative(bytes in 0u64..1 << 30, world in 1u32..16) {
            let m = model();
            prop_assert!(m.all_reduce(bytes, world) >= 0.0);
            prop_assert!(m.all_gather(bytes, world) >= 0.0);
            prop_assert!(m.send_recv(bytes) >= 0.0);
        }
    }
}
