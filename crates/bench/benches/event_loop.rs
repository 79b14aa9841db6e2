//! Event-loop benchmark suite: the two speed layers of the sharded-engine
//! PR, each gated against a committed baseline.
//!
//! * `queue_churn` — the event-queue core in isolation. A discrete-event
//!   simulator's queue sees a distinctive pattern: a large sorted pre-push
//!   of arrivals, then steady-state churn where each pop schedules a couple
//!   of *near-future* events (completions land just past the current time,
//!   so binary-heap pushes sift almost to the root every time). Runs the
//!   same deterministic churn on the pairing-heap [`EventQueue`] and on the
//!   seed's binary-heap [`BaselineQueue`], in-process, and reports the
//!   ratio — hardware-independent, like the scheduler suite's gates.
//! * `sharded_replay` — the end-to-end layer: a multi-replica round-robin
//!   estimator replay run sequentially and with one shard per replica,
//!   routing ahead on the sharded runner. The reports
//!   must be **byte-identical** (that assertion runs everywhere); the ≥2×
//!   wall-clock gate only applies when the host actually has ≥ 4 cores
//!   (`available_parallelism`), since shard threads time-slice on smaller
//!   machines. The host's core count is recorded in the report.
//! * `sharded_stateful` — the same runner routing one arrival instant per
//!   round: the online
//!   multi-tenant trace of the `multi_tenant_replay` example under
//!   **least-outstanding** routing (a stateful policy that reads live
//!   replica load) over 6 replicas, sequential vs 2 shards. Byte-identical
//!   reports, an engaged fast path (no fallback), and zero mispredictions
//!   and rolled-back events are asserted in-process on every run; the
//!   wall-clock gate binds only on ≥4-core hosts.
//! * `elastic_diurnal` — a diurnal amplified replay served twice: by a
//!   statically-overprovisioned fleet sized for the peak, and by the SLO/
//!   queue autoscaler growing from one replica inside the same ceiling.
//!   Asserted in-process on every run (hardware-independent): the
//!   autoscaled run holds TTFT-SLO attainment within 5 points of the static
//!   fleet at ≤60% of its replica-hours. The recorded `speedup` is the
//!   replica-hours savings factor, not a wall-clock ratio.
//!
//! Output: human-readable lines plus machine-readable
//! `results/BENCH_event_loop.json`. With `BENCH_EVENT_LOOP_BASELINE=<path>`
//! set (CI points it at the committed
//! `crates/bench/baselines/BENCH_event_loop.json`), the run fails (exit 1)
//! if `queue_churn` falls below its absolute floor or regresses more than
//! 25% against the baseline, or if `sharded_replay` misses 2× (or
//! `sharded_stateful` falls below 1.0×) on a ≥4-core host. `BENCH_SMOKE=1`
//! shrinks the workloads for CI.

use serde::{Deserialize, Serialize};
use std::time::Instant;
use vidur_core::event::EventQueue;
use vidur_core::rng::SimRng;
use vidur_core::time::{SimDuration, SimTime};
use vidur_estimator::EstimatorKind;
use vidur_hardware::GpuSku;
use vidur_model::{ModelSpec, ParallelismConfig};
use vidur_oracle::BaselineQueue;
use vidur_scheduler::{BatchPolicyKind, GlobalPolicyKind, SchedulerConfig};
use vidur_simulator::cluster::RuntimeSource;
use vidur_simulator::{
    onboard, AutoscalerSpec, ClusterConfig, ClusterSimulator, SimulationReport, TenantSlo,
};
use vidur_workload::{ArrivalProcess, MultiTenantWorkload, TenantStream, Trace, TraceWorkload};

/// The queue-churn workload: `arrivals` sorted pre-pushes, then pops with
/// `children` near-future re-pushes each until the queue drains.
struct QueueWorkload {
    arrivals: usize,
    children_every: u64,
}

/// Drives one queue implementation through the DES pattern; the returned
/// checksum (events popped, low bits of accumulated times) must agree
/// across implementations and repetitions.
macro_rules! drive_queue {
    ($queue:expr, $wl:expr) => {{
        let mut queue = $queue;
        let mut rng = SimRng::new(0xE7E47);
        let mut t = SimTime::ZERO;
        // Sorted arrival pre-push (the trace seed).
        for i in 0..$wl.arrivals as u64 {
            t += SimDuration::from_secs_f64(1e-3 * rng.log_normal(0.0, 0.5));
            queue.push(t, i);
        }
        let mut popped = 0u64;
        let mut acc = 0u64;
        while let Some((now, id)) = queue.pop() {
            popped += 1;
            acc = acc
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(now.as_secs_f64().to_bits() ^ id);
            // Steady-state churn: most events schedule a near-future
            // follow-up (a completion a few stage-times ahead), some also
            // arm a wake-up landing even closer. Near-future pushes are the
            // binary heap's worst case (full sift toward the root).
            if id % $wl.children_every != 0 {
                let dt = 1e-4 * (1.0 + (id % 7) as f64);
                queue.push(now + SimDuration::from_secs_f64(dt), id + 1_000_000);
                if id % 3 == 0 {
                    queue.push(now + SimDuration::from_secs_f64(dt * 0.5), id + 2_000_000);
                }
            }
            if popped >= 4 * $wl.arrivals as u64 {
                break;
            }
        }
        (popped, acc)
    }};
}

/// Best-of-`reps` wall-clock nanoseconds for `f` (one untimed warm-up).
fn best_of<O: PartialEq + std::fmt::Debug, F: FnMut() -> O>(reps: usize, mut f: F) -> (f64, O) {
    let expect = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let ns = start.elapsed().as_nanos() as f64;
        assert_eq!(out, expect, "non-deterministic benchmark body");
        best = best.min(ns);
    }
    (best, expect)
}

/// The online multi-tenant shape of the `multi_tenant_replay` example:
/// three tenants synthesized at 1 000 requests, amplified to `n`.
fn online_mix_trace(n: usize) -> Trace {
    let mix = MultiTenantWorkload::new(
        "online-mix",
        vec![
            TenantStream {
                tenant: "interactive".into(),
                priority: 0,
                workload: TraceWorkload::chat_1m(),
                arrivals: ArrivalProcess::Diurnal {
                    mean_qps: 2.0,
                    amplitude: 0.8,
                    period_secs: 600.0,
                },
                prefix: None,
            },
            TenantStream {
                tenant: "standard".into(),
                priority: 1,
                workload: TraceWorkload::bwb_4k(),
                arrivals: ArrivalProcess::Poisson { qps: 1.0 },
                prefix: None,
            },
            TenantStream {
                tenant: "batch".into(),
                priority: 2,
                workload: TraceWorkload::arxiv_4k(),
                arrivals: ArrivalProcess::Mmpp {
                    qps_base: 0.3,
                    qps_burst: 10.0,
                    mean_base_secs: 60.0,
                    mean_burst_secs: 10.0,
                },
                prefix: None,
            },
        ],
    );
    mix.generate(1_000, &mut SimRng::new(42))
        .amplify(n, &mut SimRng::new(7))
}

/// The multi-replica replay scenario behind `sharded_replay`: 4 replicas of
/// Llama-2-7B fed a Poisson chat trace through round-robin routing with the
/// trained estimator (jitter-free, so the sharded fast path engages).
fn replay_config() -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        ParallelismConfig::serial(),
        4,
        SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 64),
    )
}

fn replay_trace(smoke: bool) -> Trace {
    let n = if smoke { 400 } else { 1_200 };
    let mut rng = SimRng::new(29);
    TraceWorkload::chat_1m().generate(n, &ArrivalProcess::Poisson { qps: 10.0 }, &mut rng)
}

#[derive(Debug, Serialize, Deserialize)]
struct ScenarioResult {
    name: String,
    optimized_ns: f64,
    reference_ns: f64,
    speedup: f64,
    /// Event-loop shards of the optimized side (1 for in-process
    /// microbenchmarks).
    shards: usize,
    /// Quantile mode of the optimized side ("n/a" for scenarios that don't
    /// run the simulator).
    quantile_mode: String,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchReport {
    schema: u32,
    smoke: bool,
    /// `available_parallelism()` of the measuring host — the end-to-end
    /// gate only binds at 4+.
    cores: usize,
    scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    fn scenario(&self, name: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let reps = if smoke { 3 } else { 7 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut results = Vec::new();

    // --- queue_churn: pairing heap vs the seed's binary heap -------------
    {
        // Not scaled down in smoke mode: the ratio depends on queue depth
        // (deeper heaps sift further), so a shrunk smoke run would measure
        // a different regime than the committed full-size baseline — and
        // the full run costs well under a second per repetition.
        let wl = QueueWorkload {
            arrivals: 200_000,
            children_every: 4,
        };
        let (pairing_ns, (popped, checksum)) =
            best_of(reps, || drive_queue!(EventQueue::<u64>::new(), &wl));
        let (binary_ns, baseline_out) =
            best_of(reps, || drive_queue!(BaselineQueue::<u64>::new(), &wl));
        assert_eq!(
            (popped, checksum),
            baseline_out,
            "pairing and binary heaps popped different event streams"
        );
        let r = ScenarioResult {
            name: "queue_churn".to_string(),
            optimized_ns: pairing_ns / popped as f64,
            reference_ns: binary_ns / popped as f64,
            speedup: binary_ns / pairing_ns,
            shards: 1,
            quantile_mode: "n/a".to_string(),
        };
        println!(
            "bench: event_loop/queue_churn   {:>7.1} ns/event (binary heap {:>7.1} ns/event, {:>5.2}x, {} events)",
            r.optimized_ns, r.reference_ns, r.speedup, popped
        );
        results.push(r);
    }

    // --- sharded_replay: sequential vs one-shard-per-replica -------------
    {
        let config = replay_config();
        let trace = replay_trace(smoke);
        let est = onboard(
            &config.model,
            &config.parallelism,
            &config.sku,
            EstimatorKind::default(),
        );
        let source = RuntimeSource::Estimator((*est).clone());
        let run = |shards: usize| {
            let mut cfg = config.clone();
            cfg.shards = shards;
            ClusterSimulator::new(cfg, trace.clone(), source.clone(), 29).run()
        };
        let (seq_ns, seq_report) = best_of(reps, || run(1));
        let (shard_ns, shard_report) = best_of(reps, || run(4));
        // The whole point: parallelism must not change a single bit.
        assert_eq!(
            seq_report, shard_report,
            "sharded replay diverged from the sequential engine"
        );
        let r = ScenarioResult {
            name: "sharded_replay".to_string(),
            optimized_ns: shard_ns,
            reference_ns: seq_ns,
            speedup: seq_ns / shard_ns,
            shards: 4,
            quantile_mode: "exact".to_string(),
        };
        println!(
            "bench: event_loop/sharded_replay {:>6.1} ms (sequential {:>6.1} ms, {:>5.2}x on {} cores, {} requests)",
            r.optimized_ns / 1e6,
            r.reference_ns / 1e6,
            r.speedup,
            cores,
            trace.len()
        );
        results.push(r);
    }

    // --- sharded_stateful: arrival barriers vs sequential ----------------
    {
        // The online multi-tenant shape of the `multi_tenant_replay`
        // example: diurnal chat, Poisson bulk writing and MMPP-bursty
        // summarization, amplified from a 1k-request log, over 6 vLLM
        // replicas under least-outstanding routing (a stateful policy that
        // reads live replica load). Completions interleave between nearly
        // every pair of arrivals, so this is the regime the barrier runner
        // must hold up in, not an offline burst.
        let mut config = ClusterConfig::new(
            ModelSpec::llama2_7b(),
            GpuSku::a100_80g(),
            ParallelismConfig::serial(),
            6,
            SchedulerConfig::new(BatchPolicyKind::Vllm, 256),
        );
        config.global_policy = GlobalPolicyKind::LeastOutstanding;
        config.tenant_slo = Some(TenantSlo {
            ttft_secs: 2.0,
            e2e_per_token_secs: 0.5,
        });
        let trace = online_mix_trace(if smoke { 600 } else { 2_000 });
        let est = onboard(
            &config.model,
            &config.parallelism,
            &config.sku,
            EstimatorKind::default(),
        );
        let source = RuntimeSource::Estimator((*est).clone());
        let shards = 2;
        let run = |shards: usize| {
            let mut cfg = config.clone();
            cfg.shards = shards;
            ClusterSimulator::new(cfg, trace.clone(), source.clone(), 29).run_with_stats()
        };
        let (seq_ns, (seq_report, _)) = best_of(reps, || run(1));
        let (barrier_ns, (barrier_report, barrier_stats)) = best_of(reps, || run(shards));
        // The runner's contract, asserted on every run regardless of host:
        // the fast path engages (no silent fallback), nothing is guessed or
        // rolled back, and not a single bit of the report changes.
        assert_eq!(
            seq_report, barrier_report,
            "barrier sharded replay diverged from the sequential engine"
        );
        assert_eq!(
            barrier_stats.fallback_reason, None,
            "least-outstanding replay must stay on the sharded fast path"
        );
        assert_eq!(
            (barrier_stats.mispredictions, barrier_stats.rollback_events),
            (0, 0),
            "the barrier runner must never mispredict or roll back"
        );
        let r = ScenarioResult {
            name: "sharded_stateful".to_string(),
            optimized_ns: barrier_ns,
            reference_ns: seq_ns,
            speedup: seq_ns / barrier_ns,
            shards,
            quantile_mode: "exact".to_string(),
        };
        println!(
            "bench: event_loop/sharded_stateful {:>4.1} ms (sequential {:>6.1} ms, {:>5.2}x on {} cores, {} barrier rounds, {} requests)",
            r.optimized_ns / 1e6,
            r.reference_ns / 1e6,
            r.speedup,
            cores,
            barrier_stats.spec_windows,
            trace.len()
        );
        results.push(r);
    }

    // --- elastic_diurnal: autoscaler vs static overprovisioning ----------
    {
        let peak_replicas = 8;
        let n = if smoke { 300 } else { 900 };
        let mix = MultiTenantWorkload::new(
            "diurnal-amplified",
            vec![TenantStream {
                tenant: "interactive".into(),
                priority: 0,
                workload: TraceWorkload::chat_1m(),
                // Full-amplitude diurnal swing: the peak needs most of the
                // static fleet, the trough needs almost none of it.
                arrivals: ArrivalProcess::Diurnal {
                    mean_qps: 3.0,
                    amplitude: 1.0,
                    period_secs: 120.0,
                },
                prefix: None,
            }],
        );
        let mut rng = SimRng::new(61);
        let trace = mix.generate(n, &mut rng);
        let base = replay_config();
        let est = onboard(
            &base.model,
            &base.parallelism,
            &base.sku,
            EstimatorKind::default(),
        );
        let source = RuntimeSource::Estimator((*est).clone());
        let run = |num_replicas: usize, autoscaler: Option<AutoscalerSpec>| {
            let mut cfg = base.clone();
            cfg.num_replicas = num_replicas;
            cfg.autoscaler = autoscaler;
            cfg.tenant_slo = Some(TenantSlo {
                ttft_secs: 2.0,
                e2e_per_token_secs: 0.5,
            });
            let start = Instant::now();
            let report = ClusterSimulator::new(cfg, trace.clone(), source.clone(), 61).run();
            (start.elapsed().as_nanos() as f64, report)
        };
        let attainment = |report: &SimulationReport| -> f64 {
            report.per_tenant[0]
                .slo_attainment
                .expect("tenant SLO armed, requests completed")
        };
        let (static_ns, static_report) = run(peak_replicas, None);
        let mut spec = AutoscalerSpec::new(1, peak_replicas);
        spec.interval_secs = 5.0;
        spec.scale_step = 2;
        spec.queue_low = 6.0;
        let (auto_ns, auto_report) = run(1, Some(spec));
        assert_eq!(
            auto_report.completed, n,
            "autoscaled run must drain the trace"
        );
        // The static fleet never arms the elastic layer, so its
        // replica-hours are the full fleet over the whole makespan.
        let static_hours = peak_replicas as f64 * static_report.makespan_secs / 3600.0;
        let auto_hours = auto_report.replica_hours;
        let (attn_static, attn_auto) = (attainment(&static_report), attainment(&auto_report));
        // The scenario's whole contract, asserted on every run: near-static
        // SLO attainment at a fraction of the replica-hours.
        assert!(
            attn_auto >= attn_static - 0.05,
            "autoscaler gave up too much attainment: {attn_auto:.3} vs static {attn_static:.3}"
        );
        assert!(
            auto_hours <= 0.6 * static_hours,
            "autoscaler must save >=40% replica-hours: {auto_hours:.4} vs static {static_hours:.4}"
        );
        let r = ScenarioResult {
            name: "elastic_diurnal".to_string(),
            optimized_ns: auto_ns,
            reference_ns: static_ns,
            speedup: static_hours / auto_hours,
            shards: 1,
            quantile_mode: "exact".to_string(),
        };
        println!(
            "bench: event_loop/elastic_diurnal attainment {:.3} vs static {:.3}, replica-hours {:.4} vs {:.4} ({:.2}x savings, {} requests)",
            attn_auto, attn_static, auto_hours, static_hours, r.speedup, n
        );
        results.push(r);
    }

    let report = BenchReport {
        schema: 2,
        smoke,
        cores,
        scenarios: results,
    };

    // Regression gate: compare against the committed baseline BEFORE
    // overwriting the results file.
    let mut failed = false;
    if let Ok(path) = std::env::var("BENCH_EVENT_LOOP_BASELINE") {
        let mut resolved = std::path::PathBuf::from(&path);
        if !resolved.exists() {
            if let Some(root) = vidur_bench::results_dir().parent() {
                resolved = root.join(&path);
            }
        }
        let baseline_txt = std::fs::read_to_string(&resolved)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", resolved.display()));
        let baseline: BenchReport =
            serde_json::from_str(&baseline_txt).expect("parse baseline BENCH_event_loop.json");

        let queue = report
            .scenario("queue_churn")
            .expect("queue_churn scenario present");
        if queue.speedup < 1.1 {
            eprintln!(
                "FAIL: queue_churn speedup {:.2}x is below the 1.1x acceptance floor",
                queue.speedup
            );
            failed = true;
        }
        if let Some(base) = baseline.scenario("queue_churn") {
            let floor = 0.75 * base.speedup;
            if queue.speedup < floor {
                eprintln!(
                    "FAIL: queue_churn speedup {:.2}x regressed >25% vs baseline {:.2}x",
                    queue.speedup, base.speedup
                );
                failed = true;
            } else {
                println!(
                    "gate: queue_churn {:.2}x vs baseline {:.2}x (floor {:.2}x) — ok",
                    queue.speedup, base.speedup, floor
                );
            }
        }

        let replay = report
            .scenario("sharded_replay")
            .expect("sharded_replay scenario present");
        if cores >= 4 {
            if replay.speedup < 2.0 {
                eprintln!(
                    "FAIL: sharded_replay speedup {:.2}x is below the 2x acceptance floor \
                     ({cores} cores)",
                    replay.speedup
                );
                failed = true;
            } else {
                println!(
                    "gate: sharded_replay {:.2}x on {cores} cores (floor 2.00x) — ok",
                    replay.speedup
                );
            }
        } else {
            println!(
                "gate: sharded_replay {:.2}x — skipped ({cores} cores < 4; bit-exactness still asserted)",
                replay.speedup
            );
        }

        let stateful = report
            .scenario("sharded_stateful")
            .expect("sharded_stateful scenario present");
        if cores >= 4 {
            if stateful.speedup < 1.0 {
                eprintln!(
                    "FAIL: sharded_stateful speedup {:.2}x is below the 1.0x acceptance floor \
                     ({cores} cores)",
                    stateful.speedup
                );
                failed = true;
            } else {
                println!(
                    "gate: sharded_stateful {:.2}x on {cores} cores (floor 1.00x) — ok",
                    stateful.speedup
                );
            }
        } else {
            println!(
                "gate: sharded_stateful {:.2}x — skipped ({cores} cores < 4; bit-exactness, no \
                 fallback and zero rollback still asserted)",
                stateful.speedup
            );
        }

        // elastic_diurnal's attainment/replica-hours contract is asserted
        // in-process above (hardware-independent); here we only require the
        // scenario to be present and its savings factor to clear the 1/0.6
        // floor the in-process assert implies.
        let elastic = report
            .scenario("elastic_diurnal")
            .expect("elastic_diurnal scenario present");
        if elastic.speedup < 1.0 / 0.6 {
            eprintln!(
                "FAIL: elastic_diurnal replica-hours savings {:.2}x below the 1.67x floor",
                elastic.speedup
            );
            failed = true;
        } else {
            println!(
                "gate: elastic_diurnal {:.2}x replica-hours savings (floor 1.67x) — ok",
                elastic.speedup
            );
        }
    }

    vidur_bench::write_json("BENCH_event_loop", &report);
    if failed {
        std::process::exit(1);
    }
}
