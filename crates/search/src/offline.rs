//! Offline (batch-inference) search: the makespan objective (paper §6,
//! closing note).
//!
//! For batch jobs — nightly summarization runs, dataset translation — there
//! is no arrival process: all requests are ready at t=0 and the operator
//! wants either the shortest wall-clock (makespan) or the cheapest total
//! run (makespan × cluster $/hour).

use crate::cost::CostLedger;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use vidur_core::rng::SimRng;
use vidur_estimator::EstimatorKind;
use vidur_simulator::cluster::RuntimeSource;
use vidur_simulator::{onboard, ClusterConfig, ClusterSimulator};
use vidur_workload::{ArrivalProcess, Trace};

/// One configuration's offline-run evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OfflineEvaluation {
    /// The evaluated configuration.
    pub config: ClusterConfig,
    /// Human-readable label.
    pub label: String,
    /// Time to drain the whole batch, seconds.
    pub makespan_secs: f64,
    /// Total run cost: makespan × cluster rental rate.
    pub cost_dollars: f64,
    /// Model FLOPs utilization during the run.
    pub mfu: f64,
    /// Energy consumed, kWh.
    pub energy_kwh: f64,
}

/// Evaluates every configuration on the batch job (static arrivals) and
/// returns evaluations sorted by makespan (a NaN makespan ranks last), plus
/// the cost ledger.
pub fn run_offline_search(
    configs: &[ClusterConfig],
    job: &Trace,
    kind: EstimatorKind,
    seed: u64,
) -> (Vec<OfflineEvaluation>, CostLedger) {
    let results: Vec<(Option<OfflineEvaluation>, CostLedger)> = configs
        .par_iter()
        .map(|config| {
            let mut ledger = CostLedger::new();
            if config.memory_plan().is_err() {
                return (None, ledger);
            }
            let est = onboard(&config.model, &config.parallelism, &config.sku, kind);
            let mut rng = SimRng::new(seed);
            let trace = job.with_arrivals(&ArrivalProcess::Static, &mut rng);
            let report = ClusterSimulator::new(
                config.clone(),
                trace,
                RuntimeSource::Estimator((*est).clone()),
                seed,
            )
            .run();
            ledger.record_run(&report, config);
            if report.completed < report.num_requests {
                return (None, ledger);
            }
            let eval = OfflineEvaluation {
                label: config.label(),
                makespan_secs: report.makespan_secs,
                cost_dollars: report.makespan_secs / 3600.0 * config.dollars_per_hour(),
                mfu: report.mfu,
                energy_kwh: report.energy_kwh,
                config: config.clone(),
            };
            (Some(eval), ledger)
        })
        .collect();
    let mut ledger = CostLedger::new();
    let mut evals = Vec::new();
    for (eval, l) in results {
        ledger.merge(&l);
        if let Some(e) = eval {
            evals.push(e);
        }
    }
    rank_by_makespan(&mut evals);
    (evals, ledger)
}

/// Sorts `evals` fastest first. A NaN makespan ranks after every number.
fn rank_by_makespan(evals: &mut [OfflineEvaluation]) {
    evals.sort_by(|a, b| {
        let (a, b) = (a.makespan_secs, b.makespan_secs);
        a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(&b))
    });
}

/// The cheapest-total-cost evaluation, if any. A NaN cost never wins.
pub fn best_by_cost(evals: &[OfflineEvaluation]) -> Option<&OfflineEvaluation> {
    evals
        .iter()
        .filter(|e| !e.cost_dollars.is_nan())
        .min_by(|a, b| a.cost_dollars.total_cmp(&b.cost_dollars))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidur_hardware::GpuSku;
    use vidur_model::{ModelSpec, ParallelismConfig};
    use vidur_scheduler::{BatchPolicyKind, SchedulerConfig};
    use vidur_workload::TraceWorkload;

    fn job(n: usize) -> Trace {
        let mut rng = SimRng::new(31);
        TraceWorkload::arxiv_4k().generate(n, &ArrivalProcess::Static, &mut rng)
    }

    fn configs() -> Vec<ClusterConfig> {
        vec![
            ClusterConfig::new(
                ModelSpec::llama2_7b(),
                GpuSku::a100_80g(),
                ParallelismConfig::serial(),
                1,
                SchedulerConfig::new(BatchPolicyKind::Vllm, 64),
            ),
            ClusterConfig::new(
                ModelSpec::llama2_7b(),
                GpuSku::a100_80g(),
                ParallelismConfig::serial(),
                2,
                SchedulerConfig::new(BatchPolicyKind::Vllm, 64),
            ),
            ClusterConfig::new(
                ModelSpec::llama2_7b(),
                GpuSku::h100_80g(),
                ParallelismConfig::serial(),
                1,
                SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 1024 }, 64),
            ),
        ]
    }

    #[test]
    fn offline_search_ranks_by_makespan() {
        let (evals, ledger) = run_offline_search(&configs(), &job(30), EstimatorKind::default(), 1);
        assert_eq!(evals.len(), 3);
        assert!(evals
            .windows(2)
            .all(|w| w[0].makespan_secs <= w[1].makespan_secs));
        assert_eq!(ledger.runs(), 3);
        // Two replicas must drain faster than one on the same SKU/scheduler.
        let one = evals
            .iter()
            .find(|e| e.label.contains("/r1") && e.label.contains("a100"))
            .unwrap();
        let two = evals.iter().find(|e| e.label.contains("/r2")).unwrap();
        assert!(two.makespan_secs < one.makespan_secs);
    }

    #[test]
    fn cheapest_is_not_necessarily_fastest() {
        let (evals, _) = run_offline_search(&configs(), &job(30), EstimatorKind::default(), 2);
        let cheapest = best_by_cost(&evals).unwrap();
        let fastest = &evals[0];
        // Both selections exist; cost ranking may differ from speed ranking
        // (2 replicas halve time but double $/hr).
        assert!(cheapest.cost_dollars <= fastest.cost_dollars + 1e-9);
    }

    /// An evaluation with every objective set to `value`.
    fn eval(label: &str, value: f64) -> OfflineEvaluation {
        OfflineEvaluation {
            config: configs()[0].clone(),
            label: label.to_string(),
            makespan_secs: value,
            cost_dollars: value,
            mfu: 0.3,
            energy_kwh: 1.0,
        }
    }

    #[test]
    fn nan_makespan_ranks_last() {
        let mut evals = vec![eval("nan", f64::NAN), eval("slow", 2.0), eval("fast", 1.0)];
        evals.push(eval("neg-nan", -f64::NAN));
        rank_by_makespan(&mut evals);
        let labels: Vec<&str> = evals.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["fast", "slow", "neg-nan", "nan"]);
    }

    #[test]
    fn nan_cost_never_wins() {
        let evals = [eval("nan", f64::NAN), eval("dear", 2.0), eval("cheap", 1.0)];
        assert_eq!(best_by_cost(&evals).unwrap().label, "cheap");
        assert!(best_by_cost(&[eval("nan", -f64::NAN)]).is_none());
    }

    #[test]
    fn infeasible_configs_skipped() {
        let big = ClusterConfig::new(
            ModelSpec::llama2_70b(),
            GpuSku::a100_80g(),
            ParallelismConfig::serial(), // cannot fit
            1,
            SchedulerConfig::new(BatchPolicyKind::Vllm, 64),
        );
        let (evals, _) = run_offline_search(&[big], &job(5), EstimatorKind::default(), 3);
        assert!(evals.is_empty());
    }
}
