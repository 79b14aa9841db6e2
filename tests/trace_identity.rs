//! A request's identity inside the engines is its index in the trace, not
//! the trace's own `id` field: a trace whose ids are sparse and descending
//! must report exactly what the same trace renumbered `0..n` reports, on
//! the aggregated engine, through a crash that requeues work, and on the
//! disaggregated engine.

use vidur::prelude::*;

fn base_config(replicas: usize) -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        ParallelismConfig::serial(),
        replicas,
        SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 64),
    )
}

fn oracle() -> RuntimeSource {
    RuntimeSource::Oracle(KernelOracle::new(GpuSku::a100_80g()))
}

/// A generated trace (ids `0..n`) and the same trace with sparse,
/// descending ids.
fn trace_pair(n: usize, qps: f64, seed: u64) -> (Trace, Trace) {
    let mut rng = SimRng::new(seed);
    let dense = TraceWorkload::chat_1m().generate(n, &ArrivalProcess::Poisson { qps }, &mut rng);
    for (i, r) in dense.requests.iter().enumerate() {
        assert_eq!(r.id, i as u64, "generated traces number requests 0..n");
    }
    let mut sparse = dense.clone();
    for (i, r) in sparse.requests.iter_mut().enumerate() {
        r.id = 1_000_000 - 7 * i as u64;
    }
    (dense, sparse)
}

#[test]
fn sparse_descending_ids_report_as_renumbered() {
    let (dense, sparse) = trace_pair(120, 4.0, 3);
    let run = |trace| ClusterSimulator::new(base_config(2), trace, oracle(), 9).run();
    let (a, b) = (run(dense), run(sparse));
    assert_eq!(a.completed, 120);
    assert_eq!(a, b);
}

#[test]
fn crash_requeue_keys_requests_by_trace_index() {
    let mut cfg = base_config(2);
    cfg.faults = FaultSchedule {
        records: vec![
            FaultRecord {
                at: SimTime::from_secs_f64(8.0),
                replica: 0,
                action: FaultAction::Crash,
            },
            FaultRecord {
                at: SimTime::from_secs_f64(30.0),
                replica: 0,
                action: FaultAction::Recover,
            },
        ],
    };
    let (dense, sparse) = trace_pair(150, 6.0, 37);
    let run = |trace| ClusterSimulator::new(cfg.clone(), trace, oracle(), 5).run();
    let (a, b) = (run(dense), run(sparse));
    assert_eq!(a.completed, 150);
    assert!(a.evicted_by_crash > 0, "the crash must requeue live work");
    assert_eq!(a, b);
}

#[test]
fn disaggregated_run_keys_requests_by_trace_index() {
    let (dense, sparse) = trace_pair(100, 5.0, 11);
    let run = |trace| {
        let cfg = DisaggConfig::new(base_config(1), 1, 2);
        DisaggSimulator::new(cfg, trace, oracle(), 42).run()
    };
    let (a, b) = (run(dense), run(sparse));
    assert_eq!(a.completed, 100);
    assert_eq!(a, b);
}
