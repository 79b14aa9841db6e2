//! `vidur` — command-line front end for the simulator and search.
//!
//! ```text
//! vidur models                          list built-in model specs
//! vidur workloads                       list Vidur-Bench workloads
//! vidur simulate [options]              simulate one deployment
//! vidur search   [options]              find the best deployment
//! ```
//!
//! Run `vidur --help` (or `vidur <subcommand> --help`) for every
//! subcommand's options; a subcommand rejects any flag outside its own list.

use std::collections::HashMap;
use std::process::ExitCode;
use vidur::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--help`/`-h` anywhere (top level or after a subcommand) prints usage.
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    match args[0].as_str() {
        "models" => cmd_models(),
        "workloads" => cmd_workloads(),
        "simulate" => cmd_simulate(&args[1..]),
        "search" => cmd_search(&args[1..]),
        other => {
            eprintln!("unknown command: {other}\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "vidur — LLM inference simulation (MLSys'24 reproduction)\n\n\
         USAGE:\n  vidur models\n  vidur workloads\n  vidur simulate [options]\n  vidur search [options]\n\n\
         SIMULATE OPTIONS:\n\
           --model <name>        model spec (default llama2-7b; see `vidur models`)\n\
           --sku <name>          a100 | h100 (default a100)\n\
           --tp <n> --pp <n>     parallelism degrees (default 1, 1)\n\
           --replicas <n>        replica count (default 1)\n\
           --scheduler <name>    vllm | orca | sarathi | ft | lightllm (default sarathi)\n\
           --chunk <tokens>      Sarathi chunk size (default 512)\n\
           --batch-size <n>      max sequences per batch (default 64)\n\
           --workload <name>     chat-1m | arxiv-4k | bwb-4k (default chat-1m)\n\
           --requests <n>        trace length (default 200)\n\
           --qps <rate>          Poisson arrival rate; 0 = offline (default 1.0)\n\
           --seed <n>            RNG seed (default 42)\n\
           --json                emit the full report as JSON\n\n\
         SEARCH OPTIONS:\n\
           --model, --workload, --requests, --seed as above\n\
           --max-gpus <n>        GPU budget (default 16)\n\
           --full                paper-sized configuration grid"
    );
}

/// The flags `vidur simulate` accepts (see [`print_usage`]).
const SIMULATE_FLAGS: &[&str] = &[
    "model",
    "sku",
    "tp",
    "pp",
    "replicas",
    "scheduler",
    "chunk",
    "batch-size",
    "workload",
    "requests",
    "qps",
    "seed",
    "json",
];

/// The flags `vidur search` accepts (see [`print_usage`]).
const SEARCH_FLAGS: &[&str] = &["model", "workload", "requests", "seed", "max-gpus", "full"];

/// Parses `--flag value` pairs (and the valueless `--json`/`--full`),
/// rejecting any flag outside `known`.
fn parse_flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        if !known.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        if key == "json" || key == "full" {
            out.insert(key.to_string(), "true".to_string());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            out.insert(key.to_string(), value.clone());
            i += 2;
        }
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid --{key}: {v}")),
    }
}

/// [`get`] for counts and degrees, which must be at least 1.
fn get_nonzero<T: std::str::FromStr + PartialEq + Default>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    let value = get(flags, key, default)?;
    if value == T::default() {
        return Err(format!("--{key} must be at least 1"));
    }
    Ok(value)
}

fn cmd_models() -> ExitCode {
    println!(
        "{:<14} {:>8} {:>7} {:>9} {:>9} {:>6} {:>12}",
        "name", "params", "layers", "dim", "heads", "kv", "KV B/token"
    );
    for m in ModelSpec::all_models() {
        println!(
            "{:<14} {:>7.1}B {:>7} {:>9} {:>9} {:>6} {:>12}",
            m.name,
            m.total_params() / 1e9,
            m.num_layers,
            m.embed_dim,
            m.num_q_heads,
            m.num_kv_heads,
            m.kv_bytes_per_token(),
        );
    }
    ExitCode::SUCCESS
}

fn cmd_workloads() -> ExitCode {
    let mut rng = SimRng::new(1);
    println!("{:<10} statistics (20k sampled requests)", "name");
    for w in TraceWorkload::paper_workloads() {
        let trace = w.generate(20_000, &ArrivalProcess::Static, &mut rng);
        let s = WorkloadStats::compute(&trace);
        println!("{:<10} {s}", w.name);
    }
    ExitCode::SUCCESS
}

fn build_config(flags: &HashMap<String, String>) -> Result<ClusterConfig, String> {
    let model_name: String = get(flags, "model", "llama2-7b".to_string())?;
    let model = ModelSpec::by_name(&model_name).ok_or(format!("unknown model '{model_name}'"))?;
    let sku_name: String = get(flags, "sku", "a100".to_string())?;
    let sku = GpuSku::by_name(&sku_name).ok_or(format!("unknown SKU '{sku_name}'"))?;
    let tp: u32 = get_nonzero(flags, "tp", 1)?;
    let pp: u32 = get_nonzero(flags, "pp", 1)?;
    let replicas: usize = get_nonzero(flags, "replicas", 1)?;
    let chunk: u64 = get_nonzero(flags, "chunk", 512)?;
    let scheduler_name: String = get(flags, "scheduler", "sarathi".to_string())?;
    let policy = match scheduler_name.as_str() {
        "vllm" => BatchPolicyKind::Vllm,
        "orca" | "orca+" => BatchPolicyKind::OrcaPlus,
        "sarathi" | "sarathi-serve" => BatchPolicyKind::SarathiServe { chunk_size: chunk },
        "ft" | "faster-transformer" => BatchPolicyKind::FasterTransformer,
        "lightllm" => BatchPolicyKind::LightLlm,
        other => return Err(format!("unknown scheduler '{other}'")),
    };
    let batch_size: usize = get_nonzero(flags, "batch-size", 64)?;
    let par = ParallelismConfig::new(tp, pp);
    par.validate_for(&model).map_err(|e| e.to_string())?;
    let config = ClusterConfig::new(
        model,
        sku,
        par,
        replicas,
        SchedulerConfig::new(policy, batch_size),
    );
    config.memory_plan().map_err(|e| e.to_string())?;
    Ok(config)
}

fn build_trace(flags: &HashMap<String, String>) -> Result<Trace, String> {
    let workload_name: String = get(flags, "workload", "chat-1m".to_string())?;
    let workload = TraceWorkload::by_name(&workload_name)
        .ok_or(format!("unknown workload '{workload_name}'"))?;
    let requests: usize = get(flags, "requests", 200)?;
    let qps: f64 = get(flags, "qps", 1.0)?;
    if !(qps.is_finite() && qps >= 0.0) {
        return Err(format!(
            "--qps must be a finite rate >= 0 (0 = offline), got {qps}"
        ));
    }
    let seed: u64 = get(flags, "seed", 42)?;
    let arrivals = if qps > 0.0 {
        ArrivalProcess::Poisson { qps }
    } else {
        ArrivalProcess::Static
    };
    let mut rng = SimRng::new(seed);
    Ok(workload.generate(requests, &arrivals, &mut rng))
}

fn cmd_simulate(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let flags = parse_flags(args, SIMULATE_FLAGS)?;
        let config = build_config(&flags)?;
        let trace = build_trace(&flags)?;
        let seed: u64 = get(&flags, "seed", 42)?;
        eprintln!(
            "simulating {} on {} requests...",
            config.label(),
            trace.len()
        );
        let est = onboard(
            &config.model,
            &config.parallelism,
            &config.sku,
            EstimatorKind::default(),
        );
        let report = ClusterSimulator::new(
            config,
            trace,
            RuntimeSource::Estimator((*est).clone()),
            seed,
        )
        .run();
        if flags.contains_key("json") {
            println!(
                "{}",
                serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
            );
        } else {
            println!(
                "completed      : {}/{}",
                report.completed, report.num_requests
            );
            println!("makespan       : {:.1} s", report.makespan_secs);
            println!("throughput     : {:.2} QPS", report.throughput_qps);
            println!(
                "TTFT p50/p90   : {:.0} / {:.0} ms",
                report.ttft.p50 * 1e3,
                report.ttft.p90 * 1e3
            );
            println!(
                "TBT p50/p99    : {:.0} / {:.0} ms",
                report.tbt.p50 * 1e3,
                report.tbt.p99 * 1e3
            );
            println!(
                "MFU / MBU      : {:.1}% / {:.1}%",
                report.mfu * 100.0,
                report.mbu * 100.0
            );
            println!("KV utilization : {:.1}%", report.kv_utilization * 100.0);
            println!(
                "energy         : {:.3} kWh ({:.1} Wh/request)",
                report.energy_kwh, report.energy_wh_per_request
            );
            println!("top operators  :");
            for (op, secs) in report.operator_time_breakdown.iter().take(5) {
                println!("  {op:<16} {secs:.2} s");
            }
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_search(args: &[String]) -> ExitCode {
    let run = || -> Result<(), String> {
        let flags = parse_flags(args, SEARCH_FLAGS)?;
        let model_name: String = get(&flags, "model", "llama2-7b".to_string())?;
        let model =
            ModelSpec::by_name(&model_name).ok_or(format!("unknown model '{model_name}'"))?;
        let trace = build_trace(&flags)?;
        let max_gpus: u32 = get(&flags, "max-gpus", 16)?;
        let mut space = if flags.contains_key("full") {
            SearchSpace::paper()
        } else {
            SearchSpace::reduced()
        };
        space.max_gpus = max_gpus;
        let configs = space.enumerate(&model);
        eprintln!(
            "searching {} configurations for {} on {}...",
            configs.len(),
            model.name,
            trace.workload_name
        );
        let params = CapacityParams::default();
        let outcome = run_search(&configs, &trace, &params, EstimatorKind::default());
        let slo = SloConstraints::default();
        println!(
            "{:<62} {:>9} {:>9} {:>9}",
            "config", "QPS/$", "TTFT p90", "TBT p99"
        );
        // The same rule as `SearchOutcome::best`: a NaN QPS/$ never ranks.
        let mut ranked: Vec<&ConfigEvaluation> = outcome
            .evaluations
            .iter()
            .filter(|e| !e.qps_per_dollar.is_nan())
            .collect();
        ranked.sort_by(|a, b| b.qps_per_dollar.total_cmp(&a.qps_per_dollar));
        for e in ranked.iter().take(10) {
            println!(
                "{:<62} {:>9.4} {:>7.2} s {:>7.0} ms",
                e.label,
                e.qps_per_dollar,
                e.ttft_p90,
                e.tbt_p99 * 1e3
            );
        }
        match outcome.best(&slo) {
            Some(best) => println!(
                "\nbest under SLOs: {} ({:.4} QPS/$)",
                best.label, best.qps_per_dollar
            ),
            None => println!("\nno SLO-compliant configuration found"),
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
