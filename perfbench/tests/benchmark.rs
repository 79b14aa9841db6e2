//! Benchmark-side tests: the traced loop is the engine, the seed fixes the
//! inputs, and the printed metrics are the ones `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::catalogue::{self, Metrics};
use perfbench::inputs;
use perfbench::traced::run_traced;
use perfbench::tracer::{Family, Tracer};
use perfbench::workloads::{same_bytes, Replay};
use vidur_estimator::EstimatorKind;
use vidur_hardware::GpuSku;
use vidur_model::{ModelSpec, ParallelismConfig};
use vidur_scheduler::{BatchPolicyKind, SchedulerConfig};
use vidur_simulator::{onboard, ClusterConfig, ClusterSimulator, RuntimeSource, StageTimer};
use vidur_workload::Trace;

fn timer(config: &ClusterConfig) -> StageTimer {
    let est = onboard(
        &config.model,
        &config.parallelism,
        &config.sku,
        EstimatorKind::default(),
    );
    StageTimer::for_config(config, RuntimeSource::Estimator((*est).clone()))
}

/// The traced loop's report equals `ClusterSimulator::run`'s byte for byte,
/// and its spans tile the run.
fn assert_traced_matches(config: &ClusterConfig, trace: &Trace, seed: u64) {
    let reference =
        ClusterSimulator::with_timer(config.clone(), trace.clone(), timer(config), seed).run();
    let mut tracer = Tracer::default();
    let run = run_traced(config, trace, timer(config), seed, &mut tracer);
    assert!(
        same_bytes(&run.report, &reference),
        "traced loop drifted from ClusterSimulator::run on {}",
        config.label()
    );
    assert_eq!(run.report.completed, trace.len());
    assert_eq!(tracer.events(), run.events);
    let pops = tracer.stats(Family::EventPop).calls;
    assert_eq!(pops, run.events, "one pop per handled event");
    let unattributed = 1.0 - tracer.attributed_ns() as f64 / 1e9 / run.wall_s;
    assert!(unattributed < 0.10, "unattributed share {unattributed}");
}

#[test]
fn traced_loop_matches_engine_on_online_mix() {
    let trace = inputs::online_mix_trace(5, 200);
    assert_traced_matches(&inputs::online_mix_config(1), &trace, 5);
}

#[test]
fn traced_loop_matches_engine_on_shared_prefix() {
    let trace = inputs::shared_prefix_trace(5, 300);
    let config = inputs::shared_prefix_config();
    assert_traced_matches(&config, &trace, 5);
}

#[test]
fn traced_loop_matches_engine_with_pipeline_and_tensor_parallelism() {
    let config = ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::h100_80g(),
        ParallelismConfig::new(2, 2),
        2,
        SchedulerConfig::new(BatchPolicyKind::OrcaPlus, 32),
    );
    assert_traced_matches(&config, &inputs::probe_trace(3), 3);
}

#[test]
fn a_seed_fixes_the_inputs_and_another_changes_them() {
    for replay in [Replay::OnlineMix, Replay::SharedPrefix] {
        assert_eq!(replay.trace(7, 0), replay.trace(7, 0), "{replay:?}");
        assert_ne!(replay.trace(7, 0), replay.trace(8, 0), "{replay:?}");
        assert_ne!(replay.trace(7, 0), replay.trace(7, 1), "{replay:?}");
    }
    assert_eq!(
        Replay::OnlineMix.trace(7, 3),
        Replay::OnlineMixSharded.trace(7, 3),
        "the sharded workload replays the identical trace"
    );
    assert_eq!(inputs::probe_trace(7), inputs::probe_trace(7));
    assert_ne!(inputs::probe_trace(7), inputs::probe_trace(8));
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares, in file order.
fn declared_metrics() -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let field = |s: &str, key: &str| -> Option<(String, usize)> {
        let tag = format!("\"{key}\": \"");
        let start = s.find(&tag)? + tag.len();
        let len = s[start..].find('"')?;
        Some((s[start..start + len].to_string(), start + len))
    };
    let mut out = Vec::new();
    let mut rest = text.as_str();
    while let Some((name, end)) = field(rest, "name") {
        rest = &rest[end..];
        let next_name = rest.find("\"name\"").unwrap_or(rest.len());
        if let Some((unit, _)) = field(&rest[..next_name], "unit") {
            out.push((name, unit));
        }
    }
    out
}

#[test]
fn every_printed_metric_is_declared() {
    let printed: Vec<(String, String)> = catalogue::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .chain(
            catalogue::per_layer()
                .into_iter()
                .map(|(n, u)| (n, u.to_string())),
        )
        .collect();
    assert_eq!(declared_metrics(), printed);
}

#[test]
fn rendering_refuses_missing_unknown_and_repeated_metrics() {
    let catalogue: Vec<(String, &str)> = vec![("a".into(), "s"), ("b".into(), "count")];
    let mut m = Metrics::default();
    m.set("a", 1.5);
    assert!(m.render(&catalogue).is_err(), "b is missing");
    m.set("b", 2.0);
    let (json, _) = m.render(&catalogue).expect("complete");
    assert_eq!(
        json,
        "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}"
    );
    m.set("c", 0.0);
    assert!(m.render(&catalogue).is_err(), "c is unknown");
    let mut twice = Metrics::default();
    for name in ["a", "b", "a"] {
        twice.set(name, 1.0);
    }
    assert!(twice.render(&catalogue).is_err(), "a is set twice");
}
