//! # Vidur — a large-scale simulation framework for LLM inference
//!
//! A from-scratch Rust reproduction of *"Vidur: A Large-Scale Simulation
//! Framework for LLM Inference"* (MLSys 2024): the event-driven inference
//! simulator, the Vidur-Bench workload suite, and the Vidur-Search
//! deployment-configuration optimizer.
//!
//! This facade crate re-exports the whole workspace. Start with
//! [`prelude`], or see the `examples/` directory:
//!
//! ```
//! use vidur::prelude::*;
//!
//! // Describe a deployment...
//! let config = ClusterConfig::new(
//!     ModelSpec::llama2_7b(),
//!     GpuSku::a100_80g(),
//!     ParallelismConfig::serial(),
//!     1,
//!     SchedulerConfig::new(BatchPolicyKind::Vllm, 32),
//! );
//! // ...a workload...
//! let mut rng = SimRng::new(42);
//! let trace = TraceWorkload::chat_1m().generate(20, &ArrivalProcess::Static, &mut rng);
//! // ...onboard the model and simulate.
//! let est = vidur::simulator::onboard(
//!     &config.model, &config.parallelism, &config.sku, EstimatorKind::default());
//! let report = ClusterSimulator::new(
//!     config, trace, RuntimeSource::Estimator((*est).clone()), 42).run();
//! assert_eq!(report.completed, 20);
//! ```

pub use vidur_core as core;
pub use vidur_estimator as estimator;
pub use vidur_hardware as hardware;
pub use vidur_model as model;
pub use vidur_profiler as profiler;
pub use vidur_scheduler as scheduler;
pub use vidur_search as search;
pub use vidur_simulator as simulator;
pub use vidur_workload as workload;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use vidur_core::rng::SimRng;
    pub use vidur_core::time::{SimDuration, SimTime};
    pub use vidur_estimator::{EstimatorKind, RuntimeEstimator};
    pub use vidur_hardware::{GpuSku, KernelOracle};
    pub use vidur_model::{
        BatchComposition, ExecutionPlan, MemoryPlan, ModelSpec, ParallelismConfig, RequestSlice,
        RuntimePredictor,
    };
    pub use vidur_scheduler::{
        BatchPolicyKind, GlobalPolicyKind, ReplicaHealth, ReplicaLoad, ReplicaScheduler, Request,
        RouteRequest, Router, RouterView, RoutingTier, SchedulerConfig, TenantRouting,
    };
    pub use vidur_search::{
        find_capacity, find_capacity_with_timer, misconfiguration_matrix, pareto_frontier,
        run_search, CapacityParams, ConfigEvaluation, CostLedger, SearchOutcome, SearchSpace,
        SloConstraints,
    };
    pub use vidur_simulator::cluster::RuntimeSource;
    pub use vidur_simulator::{
        onboard, onboard_timer, run_fidelity_pair, AutoscalerSpec, CacheStats, ClusterConfig,
        ClusterSimulator, DisaggConfig, DisaggSimulator, FaultPlan, FidelityReport,
        FleetObservation, FleetStats, PrefixCacheConfig, PrefixStats, QuantileMode, RunStats,
        ScaleDecision, SimulationReport, SloQueueAutoscaler, StageTimer, TenantReport,
        TenantRoutingStats, TenantSlo, TimeseriesConfig, TimeseriesRow, WarmupModel,
    };
    pub use vidur_workload::faults::{FaultAction, FaultRecord, FaultSchedule};
    pub use vidur_workload::{
        ArrivalProcess, MultiTenantWorkload, TenantPrefixConfig, TenantStream, Trace, TraceError,
        TracePrefix, TraceReader, TraceRequest, TraceWorkload, WorkloadStats, NO_PREFIX,
    };
}
