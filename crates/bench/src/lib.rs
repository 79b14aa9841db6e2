//! # vidur-bench
//!
//! The benchmark harness regenerating every table and figure of the Vidur
//! paper (one `src/bin` binary per artifact), plus ablation studies and
//! Criterion micro-benchmarks.
//!
//! Each `src/bin/*` binary prints a markdown table matching the paper
//! artifact it reproduces and writes a JSON result under `results/`.
//! Absolute numbers come from the analytical hardware oracle, not the
//! authors' testbed — the claims under test are *shape* claims: who wins,
//! by what factor, where crossovers fall.
//!
//! Scale: binaries default to a laptop-friendly scale (reduced config grid,
//! a few hundred requests per probe). Set `VIDUR_FULL=1` for larger traces
//! and the paper-sized grid.

#![warn(missing_docs)]

use serde::Serialize;
use std::path::PathBuf;

/// Experiment scale knobs, derived from `VIDUR_FULL`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Requests per workload sample used in fidelity runs.
    pub fidelity_requests: usize,
    /// Requests per capacity-search probe.
    pub probe_requests: usize,
    /// Capacity bisection iterations.
    pub bisect_iters: u32,
    /// Whether to sweep the full paper configuration grid.
    pub full_grid: bool,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        if std::env::var("VIDUR_FULL")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Scale {
                fidelity_requests: 300,
                probe_requests: 300,
                bisect_iters: 7,
                full_grid: true,
            }
        } else {
            Scale {
                fidelity_requests: 80,
                probe_requests: 100,
                bisect_iters: 5,
                full_grid: false,
            }
        }
    }

    /// The configuration space at this scale.
    pub fn space(&self) -> vidur_search::SearchSpace {
        if self.full_grid {
            vidur_search::SearchSpace::paper()
        } else {
            vidur_search::SearchSpace::reduced()
        }
    }
}

/// Directory where experiment artifacts are written (`results/` at the
/// workspace root, overridable with `VIDUR_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("VIDUR_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // Walk up from the executable's cwd to find the workspace root.
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

/// Writes a serializable result as pretty JSON under `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, json).expect("write result");
    eprintln!("[wrote {}]", path.display());
}

/// Prints a markdown table: header row plus aligned data rows.
pub fn print_markdown_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(4)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

/// Formats a signed percentage like the paper's figure annotations.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:+.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_quick() {
        // Without VIDUR_FULL, the quick profile applies.
        std::env::remove_var("VIDUR_FULL");
        let s = Scale::from_env();
        assert!(!s.full_grid);
        assert!(s.probe_requests <= 150);
    }

    #[test]
    fn fmt_pct_signs() {
        assert_eq!(fmt_pct(1.234), "+1.23%");
        assert_eq!(fmt_pct(-0.5), "-0.50%");
    }

    #[test]
    fn markdown_table_prints() {
        // Smoke: must not panic on ragged rows.
        print_markdown_table(
            &["a", "b"],
            &[
                vec!["1".into(), "22".into()],
                vec!["333".into(), "4".into()],
            ],
        );
    }
}

/// Shared helpers for the dynamic-fidelity experiments (Figures 4, 7, 8).
pub mod dynamic {
    use super::Scale;
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use vidur_core::rng::SimRng;
    use vidur_estimator::EstimatorKind;
    use vidur_hardware::{GpuSku, KernelOracle};
    use vidur_model::{ModelSpec, ParallelismConfig};
    use vidur_scheduler::{BatchPolicyKind, SchedulerConfig};
    use vidur_search::{find_capacity, CapacityParams, CostLedger};
    use vidur_simulator::cluster::RuntimeSource;
    use vidur_simulator::{run_fidelity_pair, ClusterConfig, FidelityReport};
    use vidur_workload::{ArrivalProcess, TraceWorkload};

    /// The four (model, TP) pairs of §7.2.
    pub fn paper_setups() -> Vec<(ModelSpec, ParallelismConfig)> {
        vec![
            (ModelSpec::llama2_7b(), ParallelismConfig::new(1, 1)),
            (ModelSpec::internlm_20b(), ParallelismConfig::new(2, 1)),
            (ModelSpec::llama2_70b(), ParallelismConfig::new(4, 1)),
            (ModelSpec::qwen_72b(), ParallelismConfig::new(4, 1)),
        ]
    }

    /// The §7.2 deployment for a (model, TP) pair: one replica, vLLM
    /// scheduler, batch 64, A100.
    pub fn paper_config(model: &ModelSpec, par: ParallelismConfig) -> ClusterConfig {
        ClusterConfig::new(
            model.clone(),
            GpuSku::a100_80g(),
            par,
            1,
            SchedulerConfig::new(BatchPolicyKind::Vllm, 64),
        )
    }

    /// Runs the paired fidelity experiment at `capacity_frac` of the
    /// system's measured capacity (ground-truth capacity, like the paper's
    /// real-system calibration). Returns `None` when the configuration has
    /// no feasible capacity.
    pub fn fidelity_at_load(
        model: &ModelSpec,
        par: ParallelismConfig,
        workload: &TraceWorkload,
        capacity_frac: f64,
        scale: &Scale,
        seed: u64,
    ) -> Option<FidelityReport> {
        let config = paper_config(model, par);
        let mut rng = SimRng::new(seed);
        let base = workload.generate(scale.probe_requests, &ArrivalProcess::Static, &mut rng);
        let params = CapacityParams {
            bisect_iters: scale.bisect_iters,
            seed,
        };
        // Ground-truth capacity per (model, workload, seed) is reused across
        // load fractions (Figures 7/8 sweep five fractions per pair).
        type CapacityKey = (String, String, u64);
        static CAPACITY_CACHE: Mutex<Option<HashMap<CapacityKey, Option<f64>>>> = Mutex::new(None);
        let key = (model.name.clone(), workload.name.clone(), seed);
        let cached = CAPACITY_CACHE
            .lock()
            .as_ref()
            .and_then(|c| c.get(&key).copied());
        let capacity = match cached {
            Some(c) => c,
            None => {
                let oracle = RuntimeSource::Oracle(KernelOracle::new(config.sku.clone()));
                let mut ledger = CostLedger::new();
                let c = find_capacity(&config, &base, &params, &oracle, &mut ledger)
                    .map(|r| r.capacity_qps);
                CAPACITY_CACHE
                    .lock()
                    .get_or_insert_with(HashMap::new)
                    .insert(key, c);
                c
            }
        };
        let qps = capacity? * capacity_frac;
        let trace = base.with_arrivals(&ArrivalProcess::Poisson { qps }, &mut rng);
        Some(run_fidelity_pair(
            &config,
            &trace,
            EstimatorKind::default(),
            seed,
        ))
    }
}

/// Shared full-search machinery for Figures 1a/1b/5/6 and Table 2.
///
/// The 12-way (model × trace) configuration search is the most expensive
/// artifact; it is computed once per scale and cached as
/// `results/search_outcomes_fast.json` or `results/search_outcomes_full.json`,
/// which the dependent binaries reuse.
pub mod searches {
    use super::{results_dir, Scale};
    use serde::{Deserialize, Serialize};
    use std::path::PathBuf;
    use std::time::Instant;
    use vidur_core::rng::SimRng;
    use vidur_estimator::EstimatorKind;
    use vidur_model::ModelSpec;
    use vidur_search::{run_search, CapacityParams, SearchOutcome};
    use vidur_workload::{ArrivalProcess, TraceWorkload};

    /// The cache file of the search at `scale`: one per scale, so a
    /// `VIDUR_FULL=1` run never reuses the fast search or the reverse.
    fn cache_path(scale: &Scale) -> PathBuf {
        let name = if scale.full_grid { "full" } else { "fast" };
        results_dir().join(format!("search_outcomes_{name}.json"))
    }

    /// One (model, trace) search result plus its wall-clock cost.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct PairOutcome {
        /// Model name.
        pub model: String,
        /// Workload name.
        pub workload: String,
        /// The search outcome (evaluations + ledger).
        pub outcome: SearchOutcome,
    }

    /// Loads the cached 12-pair search at `scale`, or computes and caches
    /// it.
    pub fn search_outcomes(scale: &Scale) -> Vec<PairOutcome> {
        let path = cache_path(scale);
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(cached) = serde_json::from_str::<Vec<PairOutcome>>(&text) {
                eprintln!("[reusing cached search: {}]", path.display());
                return cached;
            }
        }
        let mut out = Vec::new();
        for model in ModelSpec::paper_models() {
            let configs = scale.space().enumerate(&model);
            for workload in TraceWorkload::paper_workloads() {
                eprintln!(
                    "[searching {} x {} : {} configs]",
                    model.name,
                    workload.name,
                    configs.len()
                );
                let mut rng = SimRng::new(1_000);
                let base =
                    workload.generate(scale.probe_requests, &ArrivalProcess::Static, &mut rng);
                let params = CapacityParams {
                    bisect_iters: scale.bisect_iters,
                    ..CapacityParams::default()
                };
                let started = Instant::now();
                let mut outcome = run_search(&configs, &base, &params, EstimatorKind::default());
                outcome
                    .ledger
                    .add_wall_clock(started.elapsed().as_secs_f64());
                out.push(PairOutcome {
                    model: model.name.clone(),
                    workload: workload.name.clone(),
                    outcome,
                });
            }
        }
        std::fs::create_dir_all(results_dir()).expect("results dir");
        std::fs::write(
            &path,
            serde_json::to_string(&out).expect("serialize search outcomes"),
        )
        .expect("write search cache");
        eprintln!("[cached search: {}]", path.display());
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn scales_never_share_a_cache() {
            let scale = Scale::from_env();
            let other = Scale {
                full_grid: !scale.full_grid,
                ..scale
            };
            assert_ne!(cache_path(&scale), cache_path(&other));
        }
    }
}
