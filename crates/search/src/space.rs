//! Deployment configuration space enumeration (paper §6 "Search space" and
//! §7.3 "Deployment Configurations").
//!
//! Every enumerated configuration routes round-robin. A search over routing
//! passes its own config list (copies with `ClusterConfig::global_policy`
//! set) to [`crate::run_search`], which probes the full replica set for
//! non-round-robin configs.

use serde::{Deserialize, Serialize};
use vidur_hardware::GpuSku;
use vidur_model::{ModelSpec, ParallelismConfig};
use vidur_scheduler::{BatchPolicyKind, SchedulerConfig};
use vidur_simulator::ClusterConfig;

/// The knobs Vidur-Search sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Candidate GPU SKUs.
    pub skus: Vec<GpuSku>,
    /// Candidate tensor-parallel degrees.
    pub tp_degrees: Vec<u32>,
    /// Candidate pipeline-parallel degrees.
    pub pp_degrees: Vec<u32>,
    /// Candidate batching policies (Sarathi appears once per chunk size).
    pub schedulers: Vec<BatchPolicyKind>,
    /// Candidate maximum batch sizes.
    pub batch_sizes: Vec<usize>,
    /// GPU budget across all replicas (paper: 16).
    pub max_gpus: u32,
}

impl SearchSpace {
    /// The paper's §7.3 space: A100/H100, TP/PP ∈ {1,2,4}, vLLM / Orca+ /
    /// Sarathi-Serve (chunks 512/1K/2K), batch sizes 32..512, 16 GPUs.
    pub fn paper() -> Self {
        SearchSpace {
            skus: GpuSku::paper_skus(),
            tp_degrees: vec![1, 2, 4],
            pp_degrees: vec![1, 2, 4],
            schedulers: vec![
                BatchPolicyKind::Vllm,
                BatchPolicyKind::OrcaPlus,
                BatchPolicyKind::SarathiServe { chunk_size: 512 },
                BatchPolicyKind::SarathiServe { chunk_size: 1024 },
                BatchPolicyKind::SarathiServe { chunk_size: 2048 },
            ],
            batch_sizes: vec![32, 64, 128, 256, 512],
            max_gpus: 16,
        }
    }

    /// A reduced space for fast regeneration runs and CI: one chunk size,
    /// three batch sizes, TP/PP ∈ {1,2,4}.
    pub fn reduced() -> Self {
        SearchSpace {
            skus: GpuSku::paper_skus(),
            tp_degrees: vec![1, 2, 4],
            pp_degrees: vec![1, 2],
            schedulers: vec![
                BatchPolicyKind::Vllm,
                BatchPolicyKind::OrcaPlus,
                BatchPolicyKind::SarathiServe { chunk_size: 512 },
            ],
            batch_sizes: vec![64, 256],
            max_gpus: 16,
        }
    }

    /// Enumerates every *valid* deployment configuration for `model`:
    /// parallelism must shard the model, weights must fit device memory,
    /// and the replica must fit the GPU budget (replicas fill it).
    pub fn enumerate(&self, model: &ModelSpec) -> Vec<ClusterConfig> {
        let mut out = Vec::new();
        for sku in &self.skus {
            for &tp in &self.tp_degrees {
                for &pp in &self.pp_degrees {
                    let par = ParallelismConfig::new(tp, pp);
                    if par.validate_for(model).is_err() {
                        continue;
                    }
                    let gpus = par.gpus_per_replica();
                    if gpus > self.max_gpus {
                        continue;
                    }
                    let replicas = (self.max_gpus / gpus) as usize;
                    for &policy in &self.schedulers {
                        for &bs in &self.batch_sizes {
                            // Paper: "the batch size gets divided by number
                            // of microbatches with PP".
                            let effective_bs = (bs / pp as usize).max(1);
                            let config = ClusterConfig::new(
                                model.clone(),
                                sku.clone(),
                                par,
                                replicas,
                                SchedulerConfig::new(policy, effective_bs),
                            );
                            if config.memory_plan().is_ok() {
                                out.push(config);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_size_is_hundreds() {
        let n = SearchSpace::paper()
            .enumerate(&ModelSpec::llama2_7b())
            .len();
        assert!(n > 100, "{n}");
        assert!(n < 2_000, "{n}");
    }

    #[test]
    fn enumeration_filters_memory_misfits() {
        let configs = SearchSpace::paper().enumerate(&ModelSpec::llama2_70b());
        // 70B cannot run at TP1-PP1 on one 80 GB GPU.
        assert!(configs.iter().all(|c| c.parallelism.gpus_per_replica() > 1));
        assert!(!configs.is_empty());
    }

    #[test]
    fn replicas_fill_gpu_budget() {
        let configs = SearchSpace::paper().enumerate(&ModelSpec::llama2_7b());
        for c in &configs {
            assert_eq!(c.total_gpus(), 16, "{}", c.label());
        }
    }

    #[test]
    fn pp_divides_batch_size() {
        let space = SearchSpace {
            pp_degrees: vec![4],
            tp_degrees: vec![1],
            batch_sizes: vec![128],
            ..SearchSpace::paper()
        };
        let configs = space.enumerate(&ModelSpec::llama2_7b());
        assert!(!configs.is_empty());
        for c in &configs {
            assert_eq!(c.scheduler.max_batch_size, 32);
        }
    }

    #[test]
    fn qwen_needs_multiple_gpus() {
        // Qwen-72B weights (~145 GB fp16) cannot fit one 80 GB device; at
        // least two-way sharding is required.
        let configs = SearchSpace::paper().enumerate(&ModelSpec::qwen_72b());
        assert!(!configs.is_empty());
        assert!(configs
            .iter()
            .all(|c| c.parallelism.gpus_per_replica() >= 2));
    }
}
