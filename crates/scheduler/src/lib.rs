//! # vidur-scheduler
//!
//! Vidur's three-tier hierarchical scheduler (paper §4.5):
//!
//! 1. **Global scheduler** ([`global`], [`router`]) — routes arriving
//!    requests to replicas. [`global::GlobalPolicyKind`] names the policies
//!    and [`router::RoutingTier`] runs them (over an
//!    incrementally-maintained replica view, with deferred-queue
//!    bookkeeping and per-tenant routing stats).
//! 2. **Replica scheduler** ([`replica`]) — forms batches each iteration and
//!    manages KV-cache memory through the paged [`memory::BlockManager`].
//!    Five batching policies are implemented, matching the paper's set:
//!    vLLM, Orca+, Sarathi-Serve (chunked prefills), FasterTransformer, and
//!    LightLLM.
//! 3. **Replica stage scheduler** ([`stage`]) — synchronous pipeline-parallel
//!    execution of a batch across stages.
//!
//! The scheduler crate is pure bookkeeping: it decides *what* runs, while
//! runtime predictors decide *how long* it takes. The end-to-end simulator
//! (vidur-simulator) drives both from the event loop.
//!
//! The seed-faithful differential oracles for the router and the replica
//! scheduler live in the dev-only `vidur-oracle` crate, not here.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod global;
pub mod memory;
pub mod replica;
pub mod request;
pub mod router;
pub mod slab;
pub mod stage;

pub use config::{BatchPolicyKind, SchedulerConfig};
pub use global::GlobalPolicyKind;
pub use memory::{BlockManager, KvHolding};
pub use replica::ReplicaScheduler;
pub use request::{Request, RequestId, RequestPhase, TrackedRequest, NO_PREFIX};
pub use router::{ReplicaHealth, RouteRequest, RoutingTier, TenantRouting};
pub use slab::IdSlab;
pub use stage::PipelineTracker;
