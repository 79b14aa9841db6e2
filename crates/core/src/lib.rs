//! # vidur-core
//!
//! Foundation crate for the Vidur LLM-inference simulation framework.
//!
//! This crate provides the substrate every other Vidur crate builds on:
//!
//! * [`time`] — nanosecond-resolution simulation time ([`SimTime`]) and
//!   durations ([`SimDuration`]) with total ordering, suitable for use as
//!   discrete-event keys.
//! * [`rng`] — deterministic, seedable random number generation
//!   ([`rng::SimRng`]) with the distribution helpers the workload generators
//!   and the hardware noise model need (exponential, log-normal, gamma).
//!   Simulations are reproducible: the same seed always yields the same
//!   trace and the same measurements.
//! * [`event`] — a generic discrete-event queue ([`event::EventQueue`], a
//!   binary heap) with stable FIFO tie-breaking at equal timestamps, and a
//!   small driver loop ([`event::Simulation`], [`event::run`]) that merges
//!   the queue with a cursor over time-ordered arrivals, so the queue holds
//!   only in-flight events.
//! * [`shard`] — shard-local event queues ([`shard::ShardQueue`]) whose pop
//!   streams can be merged back into the exact sequential global order
//!   ([`shard::ShardStamper`]), the foundation of the parallel simulator.
//! * [`metrics`] — metric primitives: an exact quantile digest and the
//!   [`QuantileMode`] switch between exact and mergeable metrics.
//! * [`mergeable`] — a deterministic, bounded-memory t-digest
//!   ([`mergeable::TDigest`]), the latency store of the simulator's
//!   mergeable metrics mode.
//!
//! # Example
//!
//! ```
//! use vidur_core::time::{SimTime, SimDuration};
//! use vidur_core::event::EventQueue;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::from_secs_f64(1.0), "b");
//! q.push(SimTime::ZERO, "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (SimTime::ZERO, "a"));
//! # let _ = SimDuration::from_secs_f64(0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod mergeable;
pub mod metrics;
pub mod rng;
pub mod shard;
pub mod time;

pub use event::{EventPush, EventQueue, Simulation};
pub use mergeable::TDigest;
pub use metrics::{QuantileDigest, QuantileMode};
pub use rng::SimRng;
pub use shard::{ShardKey, ShardQueue, ShardStamper};
pub use time::{SimDuration, SimTime};
