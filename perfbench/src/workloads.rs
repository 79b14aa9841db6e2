//! The four workloads, each run untraced (end-to-end metrics) or traced
//! (per-layer metrics).
//!
//! A replay workload draws [`REPLAY_INPUTS`] independent traces from its
//! seed and replays them in turn, over and over, until the timed phases add
//! up to `--seconds` (and every input ran [`MIN_REPS`] times). The
//! capacity search repeats its one search the same way. Estimators and
//! stage timers are cached process-wide: the first pass over the inputs
//! (and every search) clears those caches, so its set-ups onboard from
//! scratch as a fresh `vidur` invocation would. Every timed phase starts
//! with cold shape caches.

use crate::catalogue::Metrics;
use crate::inputs::{self, input_seed, PROBE_REQUESTS, REPLAY_INPUTS};
use crate::traced::{run_traced, TracedRun};
use crate::tracer::{chrome_trace_json, Family, FamilyStats, Tracer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use vidur_core::rng::SimRng;
use vidur_estimator::{EstimatorKind, RuntimeEstimator};
use vidur_search::runner::evaluate_config;
use vidur_search::{
    run_search, CapacityParams, ConfigEvaluation, CostLedger, SearchOutcome, SloConstraints,
};
use vidur_simulator::onboarding::clear_cache;
use vidur_simulator::{
    onboard, onboard_timer, run_fidelity_pair, ClusterConfig, ClusterSimulator, RunStats,
    RuntimeSource, SimulationReport, StageTimer,
};
use vidur_workload::{ArrivalProcess, Trace, NO_PREFIX};

/// Fewest repetitions a run makes of each input.
pub const MIN_REPS: usize = 3;
/// The paper's fidelity bound: simulated latency error under 9%.
pub const FIDELITY_BOUND_PCT: f64 = 9.0;
/// Seeds of the fixed `online_mix` inputs the fidelity pairs run on.
pub const FIDELITY_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// What one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: simulation runs and `evaluate_config` calls.
    pub attempted: u64,
    /// Operations whose output checks failed.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Metrics,
    /// Sampled spans as Chrome trace-event JSON (traced runs only).
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// Counts one operation, failed when any of `failures` is present.
    fn record(&mut self, what: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("check failed: {what}: {f}");
            }
        }
    }
}

/// Runs `workload` for `seconds` of timed work from `seed`, traced or not.
///
/// # Errors
///
/// Names an unknown workload.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let replay = match workload {
        "online_mix" => Replay::OnlineMix,
        "online_mix_sharded" => Replay::OnlineMixSharded,
        "shared_prefix" => Replay::SharedPrefix,
        "capacity_search" if trace => return Ok(search_traced(seed, seconds)),
        "capacity_search" => return Ok(search_untraced(seed, seconds)),
        other => return Err(format!("unknown workload '{other}'")),
    };
    Ok(if trace {
        replay_traced(replay, seed, seconds)
    } else {
        replay_untraced(replay, seed, seconds)
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The fastest of a run's repetitions. The work is deterministic, so a
/// slower repetition differs only by interference from outside the
/// process; on a shared host that interference drifts over seconds to
/// minutes, and the fastest repetition is the estimate of the program's own
/// cost that drifts least with it.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Sum over inputs of `estimate` applied to each input's samples.
fn per_input_sum(samples: &[Vec<f64>], estimate: fn(&[f64]) -> f64) -> f64 {
    samples.iter().map(|s| estimate(s)).sum()
}

/// Whether repetition `rep` is still due after `timed` seconds, with each
/// of `inputs` inputs owed [`MIN_REPS`] repetitions.
fn more(rep: usize, inputs: usize, timed: f64, seconds: f64) -> bool {
    rep < inputs * MIN_REPS || timed < seconds
}

/// Peak resident memory of this process so far (VmHWM), MB. Runs read it
/// at the end of their timed phase, before the fidelity runs, so it is the
/// workload's own peak.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reports compared byte for byte (their full `Debug` rendering, which
/// prints every float with round-trip precision).
pub fn same_bytes(a: &SimulationReport, b: &SimulationReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Every request completed and routed through the tier exactly once.
fn replay_checks(report: &SimulationReport) -> Vec<String> {
    let mut failures = Vec::new();
    if report.completed != report.num_requests {
        failures.push(format!(
            "completed {} of {} requests",
            report.completed, report.num_requests
        ));
    }
    let routed: u64 = report.per_tenant.iter().map(|t| t.routed).sum();
    if routed as usize != report.num_requests {
        failures.push(format!(
            "tenants routed {routed} of {} requests",
            report.num_requests
        ));
    }
    failures
}

/// Per-tenant prefix hits and savings sum to their totals, and some hit.
fn prefix_checks(report: &SimulationReport) -> Vec<String> {
    let mut failures = Vec::new();
    let hits: u64 = report.per_tenant.iter().map(|t| t.prefix_hits).sum();
    let saved: u64 = report
        .per_tenant
        .iter()
        .map(|t| t.prefix_tokens_saved)
        .sum();
    if hits != report.prefix_hits {
        failures.push(format!(
            "tenant hits {hits} != total {}",
            report.prefix_hits
        ));
    }
    if saved != report.prefix_tokens_saved {
        failures.push(format!(
            "tenant savings {saved} != total {}",
            report.prefix_tokens_saved
        ));
    }
    if report.prefix_hit_rate <= 0.0 {
        failures.push("prefix hit rate is 0".to_string());
    }
    failures
}

fn eval_checks(eval: &ConfigEvaluation) -> Vec<String> {
    if eval.capacity_qps > 0.0 {
        Vec::new()
    } else {
        vec![format!(
            "{}: capacity {} is not positive",
            eval.label, eval.capacity_qps
        )]
    }
}

/// The paired oracle/estimator fidelity runs (paper Fig. 4) on the
/// `online_mix` trace and configuration: `(|p50 error|, |p95 error|)` in
/// percent, each the mean over [`FIDELITY_SEEDS`]. The inputs do not depend
/// on the workload seed, so the result is a deterministic property of the
/// code: a change to the simulator's accuracy moves it, and nothing else
/// does. The pairs run on the available cores, outside every timed phase.
fn fidelity(out: &mut Outcome) -> (f64, f64) {
    use rayon::prelude::*;
    let config = inputs::online_mix_config(1);
    let pairs: Vec<_> = FIDELITY_SEEDS
        .par_iter()
        .map(|&seed| {
            let trace = inputs::online_mix_trace(seed, inputs::FIDELITY_REQUESTS);
            run_fidelity_pair(&config, &trace, EstimatorKind::default(), seed)
        })
        .collect();
    let (mut p50, mut p95) = (0.0, 0.0);
    for (seed, pair) in FIDELITY_SEEDS.iter().zip(&pairs) {
        let errors = [
            ("p50", pair.err_norm_e2e_p50().abs()),
            ("p95", pair.err_norm_e2e_p95().abs()),
        ];
        out.record("fidelity: oracle run", replay_checks(&pair.real));
        let mut failures = replay_checks(&pair.predicted);
        for (name, err) in errors {
            if err.is_nan() || err >= FIDELITY_BOUND_PCT {
                failures.push(format!(
                    "seed {seed}: e2e {name} error {err:.2}% not under {FIDELITY_BOUND_PCT}%"
                ));
            }
        }
        out.record("fidelity: estimator run", failures);
        p50 += errors[0].1;
        p95 += errors[1].1;
    }
    let n = FIDELITY_SEEDS.len() as f64;
    (p50 / n, p95 / n)
}

// ---- replay workloads ------------------------------------------------------

/// The three trace-replay workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// Online multi-tenant mix, sequential engine.
    OnlineMix,
    /// The same inputs on two shards.
    OnlineMixSharded,
    /// Shared-prefix traffic with the prefix tier and KV-aware routing.
    SharedPrefix,
}

impl Replay {
    /// The workload's trace `input` for `seed`.
    pub fn trace(self, seed: u64, input: usize) -> Trace {
        let seed = input_seed(seed, input);
        match self {
            Replay::OnlineMix | Replay::OnlineMixSharded => {
                inputs::online_mix_trace(seed, inputs::ONLINE_MIX_REQUESTS)
            }
            Replay::SharedPrefix => {
                inputs::shared_prefix_trace(seed, inputs::SHARED_PREFIX_REQUESTS)
            }
        }
    }

    /// The configuration the workload runs.
    pub fn config(self) -> ClusterConfig {
        match self {
            Replay::OnlineMix => inputs::online_mix_config(1),
            Replay::OnlineMixSharded => inputs::online_mix_config(2),
            Replay::SharedPrefix => inputs::shared_prefix_config(),
        }
    }

    fn checks(self, report: &SimulationReport) -> Vec<String> {
        let mut failures = replay_checks(report);
        if self == Replay::SharedPrefix {
            failures.extend(prefix_checks(report));
        }
        failures
    }
}

/// One replay's inputs, ready to run.
struct ReplaySetup {
    config: ClusterConfig,
    trace: Trace,
    estimator: Arc<RuntimeEstimator>,
    /// The workload's simulator (sharded on `online_mix_sharded`).
    sim: ClusterSimulator,
    setup_s: f64,
    generate_s: f64,
    onboard_s: f64,
}

impl ReplaySetup {
    /// Synthesizes the trace, onboards the estimator and builds the
    /// simulator, timing each step. The simulation seed is the workload
    /// seed. A `cold` set-up first clears the process-wide caches, so it
    /// onboards from scratch; the others reuse the onboarded estimator.
    fn new(replay: Replay, seed: u64, input: usize, cold: bool) -> Self {
        if cold {
            clear_cache();
        }
        let started = Instant::now();
        let trace = replay.trace(seed, input);
        let generate_s = started.elapsed().as_secs_f64();
        let config = replay.config();
        let onboard_started = Instant::now();
        let estimator = onboard(
            &config.model,
            &config.parallelism,
            &config.sku,
            EstimatorKind::default(),
        );
        let onboard_s = onboard_started.elapsed().as_secs_f64();
        let timer = estimator_timer(&config, &estimator);
        let mut setup_s = started.elapsed().as_secs_f64();
        // The kept copy serves the reference and traced runs; cloning it is
        // not part of what a user's set-up pays.
        let kept = trace.clone();
        let built = Instant::now();
        let sim = ClusterSimulator::with_timer(config.clone(), trace, timer, seed);
        setup_s += built.elapsed().as_secs_f64();
        ReplaySetup {
            config,
            trace: kept,
            estimator,
            sim,
            setup_s,
            generate_s,
            onboard_s,
        }
    }

    /// The workload's configuration on the sequential engine.
    fn sequential_config(&self) -> ClusterConfig {
        let mut config = self.config.clone();
        config.shards = 1;
        config
    }

    /// A fresh sequential simulator over the same inputs, on a cold timer.
    fn sequential(&self, seed: u64) -> ClusterSimulator {
        let config = self.sequential_config();
        let timer = estimator_timer(&config, &self.estimator);
        ClusterSimulator::with_timer(config, self.trace.clone(), timer, seed)
    }
}

fn estimator_timer(config: &ClusterConfig, estimator: &RuntimeEstimator) -> StageTimer {
    StageTimer::for_config(config, RuntimeSource::Estimator(estimator.clone()))
}

fn sharded_checks(
    stats: &RunStats,
    report: &SimulationReport,
    sequential: &SimulationReport,
) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(reason) = stats.fallback_reason {
        failures.push(format!("sharded run fell back: {reason}"));
    }
    if stats.shards != 2 {
        failures.push(format!("ran on {} shards, not 2", stats.shards));
    }
    if !same_bytes(report, sequential) {
        failures.push("sharded report differs from the sequential report".to_string());
    }
    failures
}

fn replay_untraced(replay: Replay, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut walls = vec![Vec::new(); REPLAY_INPUTS];
    let mut completed = [0usize; REPLAY_INPUTS];
    let mut sequential: Vec<Option<SimulationReport>> = vec![None; REPLAY_INPUTS];
    let (mut setup, mut timed, mut rep) = (Vec::new(), 0.0, 0);
    while more(rep, REPLAY_INPUTS, timed, seconds) {
        let input = rep % REPLAY_INPUTS;
        let cold = rep < REPLAY_INPUTS;
        let s = ReplaySetup::new(replay, seed, input, cold);
        if cold {
            setup.push(s.setup_s);
        }
        if replay == Replay::OnlineMixSharded && sequential[input].is_none() {
            let report = s.sequential(seed).run();
            out.record("sequential reference replay", replay_checks(&report));
            sequential[input] = Some(report);
        }
        let started = Instant::now();
        let (report, stats) = s.sim.run_with_stats();
        let wall = started.elapsed().as_secs_f64();
        walls[input].push(wall);
        timed += wall;
        let mut failures = replay.checks(&report);
        if let Some(seq) = &sequential[input] {
            failures.extend(sharded_checks(&stats, &report, seq));
        }
        out.record("timed replay", failures);
        completed[input] = report.completed;
        rep += 1;
    }
    let peak_rss = peak_rss_mb();
    let (p50, p95) = fidelity(&mut out);
    let pass_s = per_input_sum(&walls, fastest);
    let m = &mut out.metrics;
    m.set(
        "sim_req_per_s",
        completed.iter().sum::<usize>() as f64 / pass_s,
    );
    m.set("search_s", pass_s);
    m.set("setup_s", fastest(&setup));
    m.set("peak_rss_mb", peak_rss);
    m.set("fidelity_e2e_p50_err_pct", p50);
    m.set("fidelity_e2e_p95_err_pct", p95);
    out
}

/// Traced-loop samples of one input, one entry per repetition.
#[derive(Default)]
struct LoopSamples {
    families: Vec<Vec<FamilyStats>>,
    traced_wall: Vec<f64>,
    untraced_wall: Vec<f64>,
    unattributed: Vec<f64>,
    events: u64,
    cached_shapes: usize,
}

impl LoopSamples {
    fn push(&mut self, tracer: &Tracer, run: &TracedRun, untraced_wall: f64) {
        self.families.push(
            Family::ALL
                .iter()
                .map(|&f| tracer.stats(f).clone())
                .collect(),
        );
        self.traced_wall.push(run.wall_s);
        self.untraced_wall.push(untraced_wall);
        let attributed = tracer.attributed_ns() as f64 / 1e9;
        self.unattributed
            .push(((run.wall_s - attributed) / run.wall_s).max(0.0));
        self.events = run.events;
        self.cached_shapes = run.cached_shapes;
    }

    fn calls(&self, family: Family) -> u64 {
        self.families[0][family as usize].calls
    }
}

/// The call families and the event count of one pass over the inputs:
/// calls and events summed over inputs, self time the sum of each input's
/// median, latency percentiles over every call of every repetition.
fn emit_families(m: &mut Metrics, inputs: &[LoopSamples]) {
    for family in Family::ALL {
        let i = family as usize;
        let mut merged = FamilyStats::default();
        for rep in inputs.iter().flat_map(|s| &s.families) {
            merged.merge(&rep[i]);
        }
        let self_s: Vec<Vec<f64>> = inputs
            .iter()
            .map(|s| {
                s.families
                    .iter()
                    .map(|rep| rep[i].self_ns as f64 / 1e9)
                    .collect()
            })
            .collect();
        let calls: u64 = inputs.iter().map(|s| s.calls(family)).sum();
        let name = family.name();
        m.set(format!("{name}.calls"), calls as f64);
        m.set(format!("{name}.self_s"), per_input_sum(&self_s, median));
        m.set(format!("{name}.p50_ns"), merged.hist.quantile(0.5));
        m.set(format!("{name}.p99_ns"), merged.hist.quantile(0.99));
    }
    let events: u64 = inputs.iter().map(|s| s.events).sum();
    m.set("trace.events", events as f64);
}

/// `trace.*` from traced and untraced wall times per input and the
/// per-repetition unattributed shares.
fn emit_trace(m: &mut Metrics, traced: &[Vec<f64>], untraced: &[Vec<f64>], unattributed: &[f64]) {
    let traced = per_input_sum(traced, median);
    m.set("trace.wall_s", traced);
    m.set(
        "trace.overhead_share",
        traced / per_input_sum(untraced, median) - 1.0,
    );
    m.set("trace.unattributed_share", median(unattributed));
}

fn emit_sharded(m: &mut Metrics, stats: &[RunStats], sequential_events: u64) {
    let sum = |f: fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let windows = sum(|s| s.spec_windows);
    let mispredictions = sum(|s| s.mispredictions);
    let rollback = sum(|s| s.rollback_events);
    let values = [
        ("sharded.windows", windows),
        ("sharded.mispredictions", mispredictions),
        (
            "sharded.clean_window_share",
            (windows - mispredictions) / windows.max(1.0),
        ),
        ("sharded.rollback_events", rollback),
        (
            "sharded.rollback_share",
            rollback / (sequential_events as f64).max(1.0),
        ),
        ("sharded.streamed_effects", sum(|s| s.streamed_effects)),
        (
            "sharded.fallback",
            sum(|s| u64::from(s.fallback_reason.is_some())),
        ),
    ];
    for (name, value) in values {
        m.set(name, value);
    }
}

/// `search.*` from the evaluations' ledger and per-configuration wall times.
fn emit_search(
    m: &mut Metrics,
    configs: usize,
    feasible: usize,
    ledger: &CostLedger,
    evals: &[f64],
) {
    m.set("search.configs", configs as f64);
    m.set("search.feasible", feasible as f64);
    m.set("search.probes", ledger.runs() as f64);
    m.set(
        "search.probe_requests",
        (ledger.runs() * PROBE_REQUESTS as u64) as f64,
    );
    m.set("search.evaluate.p50_s", median(evals));
    m.set(
        "search.evaluate.max_s",
        evals.iter().copied().fold(0.0, f64::max),
    );
}

/// `replica.*` and `memory.*` over `reports`, with `prefixed` requests
/// carrying a shared prefix.
fn emit_replica_memory(m: &mut Metrics, reports: &[&SimulationReport], prefixed: usize) {
    let batches: f64 = reports.iter().map(|r| r.total_batches as f64).sum();
    let weighted = |f: fn(&SimulationReport) -> f64| {
        reports
            .iter()
            .map(|r| f(r) * r.total_batches as f64)
            .sum::<f64>()
            / batches.max(1.0)
    };
    let sum = |f: fn(&SimulationReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    m.set("replica.batch_size_mean", weighted(|r| r.mean_batch_size));
    m.set(
        "replica.batch_tokens_mean",
        weighted(|r| r.mean_batch_tokens),
    );
    m.set("replica.preemptions", sum(|r| r.preemptions));
    m.set(
        "memory.prefix_hit_rate",
        sum(|r| r.prefix_hits) / (prefixed as f64).max(1.0),
    );
    m.set("memory.prefix_tokens_saved", sum(|r| r.prefix_tokens_saved));
}

fn replay_traced(replay: Replay, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut loops: Vec<LoopSamples> = (0..REPLAY_INPUTS).map(|_| LoopSamples::default()).collect();
    let (mut generate, mut onboarding) = (
        vec![Vec::new(); REPLAY_INPUTS],
        vec![Vec::new(); REPLAY_INPUTS],
    );
    let mut reports: Vec<Option<SimulationReport>> = vec![None; REPLAY_INPUTS];
    let mut sharded: Vec<RunStats> = Vec::new();
    let (mut prefixed, mut spans, mut probe_input) = (0, None, None);
    let (mut timed, mut rep) = (0.0, 0);
    while more(rep, REPLAY_INPUTS, timed, seconds) {
        let input = rep % REPLAY_INPUTS;
        let cold = rep < REPLAY_INPUTS;
        rep += 1;
        let s = ReplaySetup::new(replay, seed, input, cold);
        generate[input].push(s.generate_s);
        if cold {
            onboarding[input].push(s.onboard_s);
        }
        let started = Instant::now();
        let reference = s.sequential(seed).run();
        let untraced_wall = started.elapsed().as_secs_f64();
        out.record("untraced replay", replay.checks(&reference));
        let mut tracer = Tracer::default();
        let config = s.sequential_config();
        let timer = estimator_timer(&config, &s.estimator);
        let run = run_traced(&config, &s.trace, timer, seed, &mut tracer);
        let mut failures = replay.checks(&run.report);
        if !same_bytes(&run.report, &reference) {
            failures.push("traced report differs from ClusterSimulator::run".to_string());
        }
        out.record("traced replay", failures);
        loops[input].push(&tracer, &run, untraced_wall);
        spans.get_or_insert_with(|| chrome_trace_json(tracer.spans()));
        timed += untraced_wall + run.wall_s;
        if replay == Replay::OnlineMixSharded {
            let started = Instant::now();
            let (report, stats) = s.sim.run_with_stats();
            timed += started.elapsed().as_secs_f64();
            out.record(
                "sharded replay",
                sharded_checks(&stats, &report, &reference),
            );
            if rep <= REPLAY_INPUTS {
                sharded.push(stats);
            }
        }
        if reports[input].is_none() {
            prefixed += s
                .trace
                .requests
                .iter()
                .filter(|r| r.prefix_id != NO_PREFIX)
                .count();
            reports[input] = Some(reference);
        }
        probe_input.get_or_insert((config, s.trace));
    }
    let m = &mut out.metrics;
    emit_families(m, &loops);
    let hits: u64 = loops.iter().map(|s| s.calls(Family::TimingHit)).sum();
    let misses: u64 = loops.iter().map(|s| s.calls(Family::TimingMiss)).sum();
    m.set(
        "timing.hit_rate",
        hits as f64 / ((hits + misses) as f64).max(1.0),
    );
    let shapes: usize = loops.iter().map(|s| s.cached_shapes).sum();
    m.set("timing.cached_shapes", shapes as f64);
    let per_input = |f: fn(&LoopSamples) -> &Vec<f64>| -> Vec<Vec<f64>> {
        loops.iter().map(|s| f(s).clone()).collect()
    };
    let unattributed: Vec<f64> = loops.iter().flat_map(|s| s.unattributed.clone()).collect();
    emit_trace(
        m,
        &per_input(|s| &s.traced_wall),
        &per_input(|s| &s.untraced_wall),
        &unattributed,
    );
    let events: u64 = loops.iter().map(|s| s.events).sum();
    emit_sharded(m, &sharded, events);
    let reports: Vec<&SimulationReport> = reports.iter().flatten().collect();
    emit_replica_memory(m, &reports, prefixed);
    m.set("onboarding.calls", REPLAY_INPUTS as f64);
    m.set("onboarding.self_s", per_input_sum(&onboarding, median));
    let requests: usize = reports.iter().map(|r| r.num_requests).sum();
    m.set("workload.requests", requests as f64);
    m.set("workload.generate_s", per_input_sum(&generate, median));
    // The search layer on a replay: one capacity evaluation of the
    // workload's own deployment, probing with the first requests of its
    // first input.
    let (config, trace) = probe_input.expect("at least one repetition ran");
    let probe = Trace {
        requests: trace.requests[..PROBE_REQUESTS].to_vec(),
        ..trace
    };
    let started = Instant::now();
    let (eval, ledger) = evaluate_config(
        &config,
        &probe,
        &CapacityParams::default(),
        EstimatorKind::default(),
    );
    let eval_s = started.elapsed().as_secs_f64();
    out.record(
        "evaluate_config",
        eval.as_ref().map_or_else(Vec::new, eval_checks),
    );
    emit_search(
        &mut out.metrics,
        1,
        usize::from(eval.is_some()),
        &ledger,
        &[eval_s],
    );
    out.chrome_trace = spans;
    out
}

// ---- capacity search -------------------------------------------------------

/// The search's inputs, with every needed triple onboarded.
struct SearchSetup {
    probe: Trace,
    configs: Vec<ClusterConfig>,
    setup_s: f64,
    generate_s: f64,
    onboard_s: f64,
    onboard_calls: usize,
}

impl SearchSetup {
    fn new(seed: u64) -> Self {
        clear_cache();
        let started = Instant::now();
        let probe = inputs::probe_trace(seed);
        let generate_s = started.elapsed().as_secs_f64();
        let configs = inputs::search_configs();
        let onboard_started = Instant::now();
        let onboard_calls = onboard_all(&configs);
        SearchSetup {
            probe,
            configs,
            setup_s: started.elapsed().as_secs_f64(),
            generate_s,
            onboard_s: onboard_started.elapsed().as_secs_f64(),
            onboard_calls,
        }
    }
}

/// Onboards every (model, TP, SKU) triple `configs` need; returns how many.
fn onboard_all(configs: &[ClusterConfig]) -> usize {
    let triples = inputs::onboarding_triples(configs);
    for c in &triples {
        onboard(&c.model, &c.parallelism, &c.sku, EstimatorKind::default());
    }
    triples.len()
}

/// One operation per configuration evaluated: a feasible one must have
/// positive capacity. The search as a whole must find an SLO-compliant
/// best; a search without one counts as one more failed operation.
fn search_checks(outcome: &SearchOutcome, out: &mut Outcome, configs: usize) {
    for e in &outcome.evaluations {
        out.record("evaluate_config", eval_checks(e));
    }
    for _ in outcome.evaluations.len()..configs {
        out.record("evaluate_config (infeasible)", Vec::new());
    }
    if outcome.best(&SloConstraints::default()).is_none() {
        out.record("search", vec!["no SLO-compliant configuration".to_string()]);
    }
}

fn search_untraced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, mut wall, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    while more(wall.len(), 1, wall.iter().sum(), seconds) {
        let s = SearchSetup::new(seed);
        setup.push(s.setup_s);
        let started = Instant::now();
        let outcome = run_search(
            &s.configs,
            &s.probe,
            &CapacityParams::default(),
            EstimatorKind::default(),
        );
        let search_s = started.elapsed().as_secs_f64();
        wall.push(search_s);
        rate.push((outcome.ledger.runs() * PROBE_REQUESTS as u64) as f64 / search_s);
        search_checks(&outcome, &mut out, s.configs.len());
    }
    let peak_rss = peak_rss_mb();
    let (p50, p95) = fidelity(&mut out);
    let m = &mut out.metrics;
    m.set("sim_req_per_s", rate.iter().copied().fold(0.0, f64::max));
    m.set("search_s", fastest(&wall));
    m.set("setup_s", fastest(&setup));
    m.set("peak_rss_mb", peak_rss);
    m.set("fidelity_e2e_p50_err_pct", p50);
    m.set("fidelity_e2e_p95_err_pct", p95);
    out
}

/// Share of `[0, wall]` that no interval covers.
fn uncovered_share(mut spans: Vec<(f64, f64)>, wall: f64) -> f64 {
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut covered, mut end) = (0.0, 0.0f64);
    for (s, e) in spans {
        let s = s.max(end);
        if e > s {
            covered += e - s;
            end = e;
        }
    }
    ((wall - covered) / wall).max(0.0)
}

/// `(evaluation, ledger, start, end)` of one timed `evaluate_config` call.
type TimedEval = ((Option<ConfigEvaluation>, CostLedger), f64, f64);

/// `run_search` with every `evaluate_config` call timed: the same calls on
/// the same worker split, with the results merged the same way.
fn traced_search(s: &SearchSetup, params: &CapacityParams) -> (Vec<TimedEval>, f64) {
    use rayon::prelude::*;
    let origin = Instant::now();
    let results: Vec<TimedEval> = s
        .configs
        .par_iter()
        .map(|c| {
            let start = origin.elapsed().as_secs_f64();
            let result = evaluate_config(c, &s.probe, params, EstimatorKind::default());
            (result, start, origin.elapsed().as_secs_f64())
        })
        .collect();
    (results, origin.elapsed().as_secs_f64())
}

fn search_traced(seed: u64, seconds: f64) -> Outcome {
    let params = CapacityParams::default();
    let mut out = Outcome::default();
    let (mut generate, mut onboarding, mut evals) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced, mut untraced, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while more(traced.len(), 1, traced.iter().sum(), seconds) {
        let s = SearchSetup::new(seed);
        generate.push(s.generate_s);
        onboarding.push(s.onboard_s);
        let started = Instant::now();
        let reference = run_search(&s.configs, &s.probe, &params, EstimatorKind::default());
        untraced.push(started.elapsed().as_secs_f64());
        search_checks(&reference, &mut out, s.configs.len());
        // Cold caches again, so the traced search does the same work.
        clear_cache();
        onboard_all(&s.configs);
        let (results, wall) = traced_search(&s, &params);
        traced.push(wall);
        unattributed.push(uncovered_share(
            results.iter().map(|&(_, s, e)| (s, e)).collect(),
            wall,
        ));
        evals.extend(results.iter().map(|&(_, s, e)| e - s));
        let mut ledger = CostLedger::new();
        let mut evaluations = Vec::new();
        for ((eval, l), _, _) in results {
            ledger.merge(&l);
            evaluations.extend(eval);
        }
        if format!("{evaluations:?}") != format!("{:?}", reference.evaluations) {
            out.record(
                "traced search",
                vec!["evaluations differ from run_search".to_string()],
            );
        }
        last = Some((s, reference, ledger, evaluations.len()));
    }
    let (s, reference, ledger, feasible) = last.expect("at least one repetition ran");
    let mut tracer = Tracer::default();
    let probes = offline_probes_traced(&s, &params, &mut tracer, &mut out);
    let mut loops = LoopSamples::default();
    loops.push(&tracer, &probes, probes.wall_s);
    let m = &mut out.metrics;
    emit_families(m, std::slice::from_ref(&loops));
    // The search's own shape-cache traffic, from its cost ledger and the
    // process-wide timers the traced search left behind.
    m.set("timing.hit_rate", reference.ledger.cache_hit_rate());
    let shapes: usize = inputs::parallelism_points(&s.configs)
        .iter()
        .map(|c| onboard_timer(c, EstimatorKind::default()).cached_shapes())
        .sum();
    m.set("timing.cached_shapes", shapes as f64);
    emit_trace(m, &[traced], &[untraced], &unattributed);
    emit_sharded(m, &[], 0);
    emit_replica_memory(m, &[&probes.report], 0);
    m.set("onboarding.calls", s.onboard_calls as f64);
    m.set("onboarding.self_s", median(&onboarding));
    m.set("workload.requests", s.probe.len() as f64);
    m.set("workload.generate_s", median(&generate));
    emit_search(m, s.configs.len(), feasible, &ledger, &evals);
    out.chrome_trace = Some(chrome_trace_json(tracer.spans()));
    out
}

/// Replays every configuration's offline bounding probe (the first run
/// `find_capacity` makes) through the traced loop, sharing one timer per
/// parallelism point as the search does, and checks each report against
/// `ClusterSimulator::run`. Returns the summed wall time, event count and
/// cached shapes, with the last probe's report.
fn offline_probes_traced(
    s: &SearchSetup,
    params: &CapacityParams,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> TracedRun {
    let offline = s
        .probe
        .with_arrivals(&ArrivalProcess::Static, &mut SimRng::new(params.seed));
    let mut timers: HashMap<String, StageTimer> = HashMap::new();
    let (mut wall_s, mut events) = (0.0, 0);
    let mut last = None;
    for c in &s.configs {
        let mut probe_config = c.clone();
        probe_config.num_replicas = 1;
        let est = onboard(&c.model, &c.parallelism, &c.sku, EstimatorKind::default());
        let timer = timers
            .entry(format!("{}/{}", c.sku.name, c.parallelism))
            .or_insert_with(|| estimator_timer(c, &est))
            .clone();
        let run = run_traced(&probe_config, &offline, timer, params.seed, tracer);
        let reference = ClusterSimulator::with_timer(
            probe_config,
            offline.clone(),
            estimator_timer(c, &est),
            params.seed,
        )
        .run();
        let mut failures = Vec::new();
        if !same_bytes(&run.report, &reference) {
            failures.push(format!("{}: traced offline probe differs", c.label()));
        }
        if run.report.completed != run.report.num_requests {
            failures.push(format!("{}: offline probe did not drain", c.label()));
        }
        out.record("traced offline probe", failures);
        wall_s += run.wall_s;
        events += run.events;
        last = Some(run.report);
    }
    TracedRun {
        report: last.expect("the search space is not empty"),
        wall_s,
        events,
        cached_shapes: timers.values().map(StageTimer::cached_shapes).sum(),
    }
}
