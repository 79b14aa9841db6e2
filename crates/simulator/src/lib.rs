//! # vidur-simulator
//!
//! The end-to-end Vidur cluster simulator (paper §4, Figure 2 right half):
//! an event-driven simulation of request arrival, global routing, replica
//! batching, pipeline-stage execution and memory management, parameterized
//! by any [`vidur_model::RuntimePredictor`].
//!
//! Running the same (config, trace, seed) once with the **hardware oracle**
//! (ground truth — the paper's "Real" bars) and once with the **trained
//! runtime estimator** (the paper's "Predicted" bars) isolates runtime
//! prediction error including its cascading effects on batch composition —
//! the exact fidelity quantity of Figures 3, 4, 7 and 8. The [`fidelity`]
//! module packages that comparison.
//!
//! * [`config`] — cluster/deployment configuration;
//! * [`engine`] — the shared batch-execution engine both simulators (and
//!   future backends) plug their policies into;
//! * [`timing`] — the memoized stage-time pipeline ([`StageTimer`]): runtime
//!   source → execution plan → per-stage prediction, cached by batch shape;
//! * [`cluster`] — the event-driven aggregated-cluster simulator;
//! * [`sharded`] — the parallel sharded event loop behind
//!   [`ClusterConfig::shards`](config::ClusterConfig::shards), bit-exact
//!   with the sequential engine;
//! * [`disagg`] — the prefill/decode-disaggregated simulator;
//! * [`metrics`] — request- and cluster-level reports (TTFT, TBT,
//!   normalized latency, MFU, MBU, KV utilization);
//! * [`onboarding`] — the model-onboarding pipeline (profile → train) with a
//!   process-wide estimator cache;
//! * [`fidelity`] — paired oracle/estimator runs and error summaries.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod config;
pub mod disagg;
pub mod engine;
pub mod faults;
pub mod fidelity;
pub mod metrics;
pub mod onboarding;
pub mod sharded;
pub mod timing;

pub use cluster::{ClusterSimulator, RunStats};
pub use config::{ClusterConfig, PrefixCacheConfig};
pub use disagg::{DisaggConfig, DisaggSimulator};
pub use engine::{BatchEngine, EngineReplica, RuntimeSource};
pub use faults::{AutoscalerSpec, FleetObservation, ScaleDecision};
pub use fidelity::{run_fidelity_pair, FidelityReport};
pub use metrics::{
    DigestSummary, FleetStats, MetricsCollector, PrefixStats, SimulationReport, TenantReport,
    TenantRoutingStats, TenantSlo, TimeseriesConfig, TimeseriesRow,
};
pub use onboarding::{onboard, onboard_timer};
pub use timing::{CacheStats, StageTimer};
pub use vidur_core::metrics::QuantileMode;
