//! # vidur-hardware
//!
//! GPU SKU specifications and the **kernel cost oracle** — this repository's
//! substitute for the paper's real A100/H100 testbed.
//!
//! The oracle computes, for every operator invocation produced by
//! [`vidur_model::ExecutionPlan`], a deterministic "ground truth" execution
//! time from a roofline model (compute vs memory bound) augmented with the
//! non-ideal effects that make real CUDA kernel runtimes *non-linear* in
//! their input sizes:
//!
//! * **tile quantization** — matmul row counts round up to the kernel's tile
//!   shape, producing the staircase runtime curves described in NVIDIA's
//!   matmul performance guide (cited by the paper in §4.4);
//! * **wave quantization** — thread-block waves round up to the SM count;
//! * **low-occupancy efficiency loss** for small inputs;
//! * **deterministic per-size quirks** — systematic kernel-selection effects
//!   that a random forest can learn but a low-order polynomial cannot
//!   (this is precisely the paper's argument for RF regressors);
//! * **measurement noise** — applied only on the profiling path
//!   ([`KernelOracle::measure`]), emulating run-to-run variance that the
//!   profiler must average away.
//!
//! The collective-communication model ([`network`]) covers all-reduce,
//! all-gather (tensor parallelism) and send/recv (pipeline parallelism) with
//! ring-collective cost formulas over NVLink/PCIe links.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod network;
pub mod oracle;
pub mod quirk;
pub mod sku;

pub use network::CollectiveModel;
pub use oracle::KernelOracle;
pub use sku::GpuSku;
