//! # vidur-workload
//!
//! Vidur-Bench (paper §5): workload traces, arrival processes, and the
//! dataset statistics of Table 1.
//!
//! The paper builds traces from three public datasets with very different
//! shapes — LMSys-Chat-1M (chat: short mixed prompts, moderate decodes),
//! Arxiv-Summarization (long prompts, short summaries; P:D ≈ 15.7) and
//! Bilingual-Web-Book (translation: decode-heavy, P:D ≈ 0.65) — each capped
//! at 4096 total tokens. We cannot ship the datasets, so [`traces`] provides
//! **synthetic generators** with log-normal length marginals fitted to the
//! medians and P90s Table 1 reports, plus the same 4K cap. The simulator
//! consumes only
//! `(prefill_tokens, decode_tokens, arrival)` tuples, so matching these
//! marginals reproduces each dataset's pressure on the serving stack.
//!
//! [`arrival`] supplies Poisson and Gamma arrival processes, the static
//! (all-at-once) mode used for the paper's offline-fidelity experiments
//! (Figure 3), and the production-traffic zoo: Markov-modulated Poisson
//! bursts, diurnal sinusoidal rate curves, and superposed multi-tenant
//! streams — all generated incrementally so million-request runs stay
//! bounded-memory.
//!
//! [`replay`] adds the line-oriented on-disk trace format with a streaming
//! loader and typed parse errors; [`traces`] adds multi-tenant trace
//! generation ([`MultiTenantWorkload`]) and derived-stat resampling
//! ([`Trace::amplify`]) for amplifying small real traces to millions of
//! requests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod distributions;
pub mod faults;
pub mod replay;
pub mod stats;
pub mod traces;

pub use arrival::{ArrivalIter, ArrivalProcess, ArrivalTimes};
pub use distributions::LengthDistribution;
pub use faults::{FaultAction, FaultError, FaultRecord, FaultSchedule};
pub use replay::{TraceError, TraceReader};
pub use stats::WorkloadStats;
pub use traces::{
    MultiTenantWorkload, TenantPrefixConfig, TenantStream, Trace, TracePrefix, TraceRequest,
    TraceWorkload, NO_PREFIX,
};
