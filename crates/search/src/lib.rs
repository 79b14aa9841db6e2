//! # vidur-search
//!
//! Vidur-Search (paper §6): automatic exploration of the deployment
//! configuration space to maximize **QPS per dollar** under latency SLOs.
//!
//! The search (1) enumerates valid deployment configurations (SKU × TP × PP
//! × scheduler × batch size, replicas filling the GPU budget), (2) finds
//! each configuration's *capacity* — the highest sustainable request rate
//! whose P99 scheduling delay stays under 5 s — by binary search over
//! simulated Poisson loads, (3) evaluates latency metrics at capacity, and
//! (4) reports the SLO-compliant Pareto frontier and the cost of the search
//! itself (the paper's Table 2 savings accounting).
//!
//! Runs are parallelized across CPU cores with rayon, exactly as the paper
//! parallelizes its per-configuration capacity searches.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod capacity;
pub mod cost;
pub mod misconfig;
pub mod offline;
pub mod pareto;
pub mod runner;
pub mod space;

pub use capacity::{
    find_capacity, find_capacity_with_timer, CapacityParams, CapacityResult,
    SCHED_DELAY_P99_LIMIT_SECS,
};
pub use cost::CostLedger;
pub use misconfig::misconfiguration_matrix;
pub use offline::{best_by_cost, run_offline_search, OfflineEvaluation};
pub use pareto::{pareto_frontier, SloConstraints};
pub use runner::{run_search, ConfigEvaluation, SearchOutcome};
pub use space::SearchSpace;
