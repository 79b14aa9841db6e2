//! Integration tests for the Vidur-Search pipeline: enumeration →
//! capacity search → SLO/Pareto selection, and its reproducibility.

use vidur::prelude::*;

fn base_trace(n: usize, seed: u64) -> Trace {
    let mut rng = SimRng::new(seed);
    TraceWorkload::chat_1m().generate(n, &ArrivalProcess::Static, &mut rng)
}

fn small_configs() -> Vec<ClusterConfig> {
    let space = SearchSpace {
        skus: vec![GpuSku::a100_80g()],
        tp_degrees: vec![1],
        pp_degrees: vec![1],
        schedulers: vec![
            BatchPolicyKind::Vllm,
            BatchPolicyKind::SarathiServe { chunk_size: 512 },
        ],
        batch_sizes: vec![32, 128],
        max_gpus: 2,
    };
    space.enumerate(&ModelSpec::llama2_7b())
}

#[test]
fn search_produces_ranked_feasible_configs() {
    let params = CapacityParams {
        bisect_iters: 4,
        ..CapacityParams::default()
    };
    let outcome = run_search(
        &small_configs(),
        &base_trace(40, 21),
        &params,
        EstimatorKind::default(),
    );
    assert_eq!(outcome.evaluations.len(), 4);
    let best = outcome.best_unconstrained().expect("has configs");
    for e in &outcome.evaluations {
        assert!(best.qps_per_dollar >= e.qps_per_dollar);
        assert!(e.capacity_qps > 0.0);
        assert!(e.sched_delay_p99 < 5.0, "constraint held at capacity");
    }
    // Ledger accounted every probe of every config.
    assert!(outcome.ledger.runs() as usize >= 2 * outcome.evaluations.len());
    assert!(outcome.ledger.projected_dollars() > 0.0);
}

#[test]
fn search_is_reproducible() {
    let params = CapacityParams {
        bisect_iters: 3,
        ..CapacityParams::default()
    };
    let a = run_search(
        &small_configs(),
        &base_trace(30, 22),
        &params,
        EstimatorKind::default(),
    );
    let b = run_search(
        &small_configs(),
        &base_trace(30, 22),
        &params,
        EstimatorKind::default(),
    );
    // Wall-clock differs; everything else must match.
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(a.ledger.runs(), b.ledger.runs());
}

#[test]
fn pareto_frontier_subset_of_evaluations() {
    let params = CapacityParams {
        bisect_iters: 3,
        ..CapacityParams::default()
    };
    let outcome = run_search(
        &small_configs(),
        &base_trace(30, 23),
        &params,
        EstimatorKind::default(),
    );
    let frontier = pareto_frontier(&outcome.evaluations, |e| e.ttft_p90);
    assert!(!frontier.is_empty());
    assert!(frontier.len() <= outcome.evaluations.len());
    // Frontier is sorted by latency and strictly improving in QPS/$.
    for w in frontier.windows(2) {
        let (a, b) = (&outcome.evaluations[w[0]], &outcome.evaluations[w[1]]);
        assert!(a.ttft_p90 <= b.ttft_p90);
        assert!(a.qps_per_dollar < b.qps_per_dollar);
    }
}

#[test]
fn misconfig_matrix_diagonal_unity() {
    let mut rng = SimRng::new(24);
    let traces: Vec<Trace> = [TraceWorkload::chat_1m(), TraceWorkload::bwb_4k()]
        .iter()
        .map(|w| w.generate(25, &ArrivalProcess::Static, &mut rng))
        .collect();
    let cfgs = small_configs();
    let optima = vec![cfgs[0].clone(), cfgs[1].clone()];
    let params = CapacityParams {
        bisect_iters: 3,
        ..CapacityParams::default()
    };
    let m = misconfiguration_matrix(&optima, &traces, &params, EstimatorKind::default());
    for i in 0..2 {
        assert!((m.ratios[i][i] - 1.0).abs() < 1e-9);
        for j in 0..2 {
            assert!(m.ratios[i][j] > 0.0);
        }
    }
}
