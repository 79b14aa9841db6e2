//! # vidur-oracle
//!
//! Seed-faithful differential oracles for the optimized hot paths. Nothing
//! here ships: other crates take this one only as a dev-dependency, for the
//! equivalence tests in `tests/` and the in-process reference side of the
//! `scheduler` bench.
//!
//! * [`GlobalPolicy`] — the seed's stateless router for the four original
//!   routing policies, the oracle for
//!   [`RoutingTier`](vidur_scheduler::RoutingTier).
//! * [`ReferenceScheduler`] — the seed's batch formation on naive data
//!   structures, the oracle for
//!   [`ReplicaScheduler`](vidur_scheduler::ReplicaScheduler).
//!
//! Keep these boring. Do not optimize them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod global;
pub mod reference;

pub use global::GlobalPolicy;
pub use reference::ReferenceScheduler;
