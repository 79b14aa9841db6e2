//! The repository benchmark for vidur-rs: replay speed, search time and
//! fidelity on four workloads, with a per-layer traced run.
//!
//! See `RATIONALE.md` beside this package for why each workload and metric
//! exists, and `src/main.rs` for the command line.

#![warn(missing_docs)]

pub mod catalogue;
pub mod inputs;
pub mod traced;
pub mod tracer;
pub mod workloads;
