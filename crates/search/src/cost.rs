//! Search-cost accounting (paper Table 2).
//!
//! Every simulation run stands in for a real deployment experiment: the
//! experiment would have occupied `simulated_makespan × total_gpus` GPU-time
//! at the SKU's rental price. The ledger accumulates that *projected actual
//! cost* alongside the measured simulation wall-clock, priced at the paper's
//! 96-core CPU machine rate ($9.93/hour on Azure), yielding the savings
//! factors Table 2 reports.

use serde::{Deserialize, Serialize};
use vidur_simulator::{ClusterConfig, SimulationReport};

/// Azure 96-core CPU machine rental price per hour (paper §1/§6).
pub const CPU_MACHINE_PRICE_PER_HOUR: f64 = 9.93;

/// Accumulates projected-actual vs simulated search costs, plus the
/// stage-time cache hit/miss counters of the runs it priced (one count per
/// priced batch; a hit means the batch's kv-invariant timing was cached).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostLedger {
    runs: u64,
    projected_gpu_hours: f64,
    projected_dollars: f64,
    wall_clock_secs: f64,
    cache_hits: u64,
    cache_misses: u64,
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one simulation run's projected hardware cost.
    pub fn record_run(&mut self, report: &SimulationReport, config: &ClusterConfig) {
        self.runs += 1;
        let gpu_hours = report.makespan_secs / 3600.0 * config.total_gpus() as f64;
        self.projected_gpu_hours += gpu_hours;
        self.projected_dollars += gpu_hours * config.sku.price_per_gpu_hour;
    }

    /// Adds measured simulation wall-clock seconds.
    pub fn add_wall_clock(&mut self, secs: f64) {
        self.wall_clock_secs += secs;
    }

    /// Records a stage-timer cache's hit/miss counters (see
    /// [`vidur_simulator::CacheStats`]).
    pub fn record_cache(&mut self, stats: vidur_simulator::CacheStats) {
        self.cache_hits += stats.hits;
        self.cache_misses += stats.misses;
    }

    /// Priced batches whose kv-invariant timing was cached, across
    /// recorded runs.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Priced batches whose kv-invariant timing had to be computed, across
    /// recorded runs.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Fraction of priced batches whose kv-invariant timing came from the
    /// cache (0 when no lookups were recorded).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Simulation runs recorded.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Projected GPU-hours a hardware-based search would have used.
    pub fn projected_gpu_hours(&self) -> f64 {
        self.projected_gpu_hours
    }

    /// Projected dollars a hardware-based search would have cost.
    pub fn projected_dollars(&self) -> f64 {
        self.projected_dollars
    }

    /// Measured simulation wall-clock in seconds.
    pub fn wall_clock_secs(&self) -> f64 {
        self.wall_clock_secs
    }

    /// Simulation cost in dollars at the paper's CPU machine price.
    pub fn simulation_dollars(&self) -> f64 {
        self.wall_clock_secs / 3600.0 * CPU_MACHINE_PRICE_PER_HOUR
    }

    /// Actual/simulated cost savings factor (Table 2 rightmost column).
    pub fn savings_factor(&self) -> f64 {
        let sim = self.simulation_dollars();
        if sim <= 0.0 {
            f64::INFINITY
        } else {
            self.projected_dollars / sim
        }
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        self.runs += other.runs;
        self.projected_gpu_hours += other.projected_gpu_hours;
        self.projected_dollars += other.projected_dollars;
        self.wall_clock_secs += other.wall_clock_secs;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidur_hardware::GpuSku;
    use vidur_model::{ModelSpec, ParallelismConfig};
    use vidur_scheduler::{BatchPolicyKind, SchedulerConfig};
    use vidur_simulator::metrics::DigestSummary;

    fn fake_report(makespan: f64) -> SimulationReport {
        SimulationReport {
            num_requests: 1,
            completed: 1,
            makespan_secs: makespan,
            throughput_qps: 1.0,
            scheduling_delay: DigestSummary::default(),
            ttft: DigestSummary::default(),
            tbt: DigestSummary::default(),
            normalized_e2e: DigestSummary::default(),
            normalized_exec: DigestSummary::default(),
            e2e: DigestSummary::default(),
            mfu: 0.0,
            mbu: 0.0,
            kv_utilization: 0.0,
            preemptions: 0,
            total_batches: 0,
            total_tokens: 0,
            mean_batch_tokens: 0.0,
            mean_batch_size: 0.0,
            energy_kwh: 0.0,
            mean_power_watts: 0.0,
            energy_wh_per_request: 0.0,
            operator_time_breakdown: Vec::new(),
            per_tenant: Vec::new(),
            timeseries: Vec::new(),
            retries: 0,
            requeued: 0,
            evicted_by_crash: 0,
            replica_hours: 0.0,
            replica_availability: Vec::new(),
            prefix_hits: 0,
            prefix_tokens_saved: 0,
            prefix_hit_rate: 0.0,
        }
    }

    fn config() -> ClusterConfig {
        ClusterConfig::new(
            ModelSpec::llama2_7b(),
            GpuSku::a100_80g(),
            ParallelismConfig::serial(),
            4,
            SchedulerConfig::new(BatchPolicyKind::Vllm, 32),
        )
    }

    #[test]
    fn gpu_hours_projection() {
        let mut l = CostLedger::new();
        // 4 GPUs for 3600 simulated seconds = 4 GPU-hours.
        l.record_run(&fake_report(3600.0), &config());
        assert!((l.projected_gpu_hours() - 4.0).abs() < 1e-9);
        assert!((l.projected_dollars() - 4.0 * 2.21).abs() < 1e-9);
        assert_eq!(l.runs(), 1);
    }

    #[test]
    fn savings_factor_huge_for_fast_sims() {
        let mut l = CostLedger::new();
        l.record_run(&fake_report(36_000.0), &config()); // 40 GPU-hours
        l.add_wall_clock(1.0); // one second of CPU
        assert!(l.savings_factor() > 1_000.0, "{}", l.savings_factor());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CostLedger::new();
        a.record_run(&fake_report(100.0), &config());
        a.add_wall_clock(2.0);
        let mut b = CostLedger::new();
        b.record_run(&fake_report(200.0), &config());
        b.add_wall_clock(3.0);
        a.merge(&b);
        assert_eq!(a.runs(), 2);
        assert!((a.wall_clock_secs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_infinite_savings() {
        assert!(CostLedger::new().savings_factor().is_infinite());
    }

    #[test]
    fn cache_stats_accumulate_and_merge() {
        use vidur_simulator::CacheStats;
        let mut a = CostLedger::new();
        assert_eq!(a.cache_hit_rate(), 0.0);
        a.record_cache(CacheStats {
            hits: 30,
            misses: 10,
        });
        let mut b = CostLedger::new();
        b.record_cache(CacheStats {
            hits: 10,
            misses: 0,
        });
        a.merge(&b);
        assert_eq!(a.cache_hits(), 40);
        assert_eq!(a.cache_misses(), 10);
        assert!((a.cache_hit_rate() - 0.8).abs() < 1e-12);
    }
}
