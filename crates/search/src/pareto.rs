//! SLO constraints and Pareto-frontier analysis (paper §7.3, Figure 5).

use crate::runner::ConfigEvaluation;
use serde::{Deserialize, Serialize};

/// Latency service-level objectives (paper §7.3: TTFT P90 < 2 s,
/// TBT P99 < 200 ms).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloConstraints {
    /// Maximum P90 time-to-first-token in seconds.
    pub ttft_p90_max: f64,
    /// Maximum P99 time-between-tokens in seconds.
    pub tbt_p99_max: f64,
}

impl Default for SloConstraints {
    fn default() -> Self {
        SloConstraints {
            ttft_p90_max: 2.0,
            tbt_p99_max: 0.2,
        }
    }
}

impl SloConstraints {
    /// Whether an evaluation satisfies both SLOs.
    pub fn satisfied_by(&self, eval: &ConfigEvaluation) -> bool {
        eval.ttft_p90 <= self.ttft_p90_max && eval.tbt_p99 <= self.tbt_p99_max
    }
}

/// Computes the Pareto frontier over (latency, QPS/$): evaluations not
/// dominated by any other with both lower `latency_of` and higher QPS/$.
/// An evaluation with a NaN latency or QPS/$ is never on the frontier.
///
/// Returns indices into `evals`, sorted by latency ascending.
pub fn pareto_frontier(
    evals: &[ConfigEvaluation],
    latency_of: impl Fn(&ConfigEvaluation) -> f64,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..evals.len())
        .filter(|&i| !latency_of(&evals[i]).is_nan())
        .collect();
    order.sort_by(|&a, &b| latency_of(&evals[a]).total_cmp(&latency_of(&evals[b])));
    let mut frontier = Vec::new();
    let mut best_qpd = f64::NEG_INFINITY;
    for idx in order {
        let q = evals[idx].qps_per_dollar;
        if q > best_qpd {
            frontier.push(idx);
            best_qpd = q;
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ConfigEvaluation;

    fn eval(label: &str, qpd: f64, ttft: f64, tbt: f64) -> ConfigEvaluation {
        ConfigEvaluation {
            config: None,
            label: label.to_string(),
            capacity_qps: qpd * 10.0,
            qps_per_dollar: qpd,
            ttft_p90: ttft,
            tbt_p99: tbt,
            sched_delay_p99: 0.1,
            mfu: 0.3,
            kv_utilization: 0.5,
            dollars_per_hour: 10.0,
        }
    }

    #[test]
    fn slo_filtering() {
        let slo = SloConstraints::default();
        assert!(slo.satisfied_by(&eval("ok", 1.0, 1.5, 0.1)));
        assert!(!slo.satisfied_by(&eval("slow-ttft", 1.0, 2.5, 0.1)));
        assert!(!slo.satisfied_by(&eval("slow-tbt", 1.0, 1.5, 0.3)));
    }

    #[test]
    fn frontier_excludes_dominated() {
        let evals = vec![
            eval("a", 1.0, 1.0, 0.1), // frontier: cheapest latency
            eval("b", 2.0, 2.0, 0.1), // frontier: better qpd at higher lat
            eval("c", 1.5, 3.0, 0.1), // dominated by b (worse both)
            eval("d", 3.0, 4.0, 0.1), // frontier
        ];
        let f = pareto_frontier(&evals, |e| e.ttft_p90);
        let labels: Vec<&str> = f.iter().map(|&i| evals[i].label.as_str()).collect();
        assert_eq!(labels, vec!["a", "b", "d"]);
    }

    #[test]
    fn frontier_skips_nan() {
        let evals = vec![
            eval("a", 1.0, 1.0, 0.1),
            eval("nan-latency", 9.0, f64::NAN, 0.1),
            eval("nan-qpd", f64::NAN, 0.5, 0.1),
            eval("b", 2.0, 2.0, 0.1),
        ];
        let f = pareto_frontier(&evals, |e| e.ttft_p90);
        let labels: Vec<&str> = f.iter().map(|&i| evals[i].label.as_str()).collect();
        assert_eq!(labels, vec!["a", "b"]);
    }

    #[test]
    fn frontier_single_point() {
        let evals = vec![eval("only", 1.0, 1.0, 0.1)];
        assert_eq!(pareto_frontier(&evals, |e| e.tbt_p99), vec![0]);
    }

    #[test]
    fn frontier_empty() {
        let evals: Vec<ConfigEvaluation> = Vec::new();
        assert!(pareto_frontier(&evals, |e| e.ttft_p90).is_empty());
    }
}
