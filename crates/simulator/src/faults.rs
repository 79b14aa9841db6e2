//! Elastic-fleet policy: the recovery warm-up delay and the
//! [`AutoscalerSpec`] policy.
//!
//! [`ClusterConfig::faults`](crate::ClusterConfig::faults) arms the cluster
//! engine with a deterministic fault schedule (crashes, recoveries,
//! straggler episodes, graceful drains — see [`vidur_workload::faults`] for
//! the on-disk format). A recovering or scaled-up replica is routable only
//! after a fixed warm-up: 10 s of process start and model load plus its
//! weights over a 100 Gbit (12.5 GB/s) provisioning NIC.
//! [`AutoscalerSpec::decide`] closes the loop from observed SLO attainment
//! and queue depth back to fleet size.
//!
//! Arming either feature changes nothing until it fires: an empty schedule
//! with no autoscaler is **byte-identical** to a run without the elastic
//! layer (pinned in `tests/engine_regression.rs`), and the sharded fast path
//! automatically falls back to the sequential engine whenever a schedule or
//! autoscaler is armed — membership churn is cross-shard by nature.

use serde::{Deserialize, Serialize};

/// Fixed process-start + model-load cost of a warm-up, in seconds.
const MODEL_LOAD_SECS: f64 = 10.0;

/// Provisioning-network bandwidth for weight transfer, in gigabytes per
/// second (a 100 Gbit NIC).
const TRANSFER_GB_PER_SEC: f64 = 12.5;

/// Warm-up delay in seconds, from "start warm-up" to "routable", for a
/// replica whose weights total `weight_bytes` across all its devices.
pub(crate) fn warmup_delay_secs(weight_bytes: f64) -> f64 {
    MODEL_LOAD_SECS + weight_bytes / (TRANSFER_GB_PER_SEC * 1e9)
}

/// TTFT SLO in seconds the autoscaler judges per prefill completion within
/// a window.
pub(crate) const TTFT_SLO_SECS: f64 = 2.0;

/// The autoscaler scales up when windowed TTFT attainment drops below this
/// fraction.
const TARGET_ATTAINMENT: f64 = 0.99;

/// The autoscaler scales up when queued work per live replica exceeds this.
const QUEUE_HIGH: f64 = 8.0;

/// The autoscaler: evaluation cadence, fleet bounds, and the scale-down
/// threshold and step [`AutoscalerSpec::decide`] reacts with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalerSpec {
    /// Seconds between policy evaluations (one observation window).
    pub interval_secs: f64,
    /// Never drain below this many live replicas.
    pub min_replicas: usize,
    /// Never warm up beyond this many replicas; the engine pre-allocates
    /// this fleet, so it also bounds memory.
    pub max_replicas: usize,
    /// Scale down only if the post-drain queue per replica stays below this.
    pub queue_low: f64,
    /// Replicas added or drained per decision.
    pub scale_step: usize,
}

impl AutoscalerSpec {
    /// A spec with sensible defaults: 30 s windows, 2 s TTFT SLO at 99%
    /// attainment, scale-up past 8 queued per replica, scale-down below 2,
    /// one replica per step.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= min_replicas <= max_replicas`.
    pub fn new(min_replicas: usize, max_replicas: usize) -> Self {
        assert!(
            (1..=max_replicas).contains(&min_replicas),
            "need 1 <= min_replicas <= max_replicas"
        );
        AutoscalerSpec {
            interval_secs: 30.0,
            min_replicas,
            max_replicas,
            queue_low: 2.0,
            scale_step: 1,
        }
    }

    /// Decides the fleet change for one observation window: scale up
    /// whenever the window missed the attainment target, the tier had to
    /// defer, or the queue per live replica ran high; scale down when
    /// attainment holds, nothing is deferred or warming, and the queue would
    /// stay low on the smaller fleet. Invoked once per interval; the engine
    /// applies the decision within `[min_replicas, max_replicas]`.
    pub fn decide(&self, obs: &FleetObservation) -> ScaleDecision {
        let live = obs.live.max(1);
        let queue_per_live = (obs.deferred + obs.outstanding) as f64 / live as f64;
        let missed_slo = obs.attainment().is_some_and(|a| a < TARGET_ATTAINMENT);
        if missed_slo || obs.deferred > 0 || queue_per_live > QUEUE_HIGH {
            return ScaleDecision::Up(self.scale_step);
        }
        let step = self
            .scale_step
            .min(obs.live.saturating_sub(self.min_replicas));
        if step > 0 && obs.warming == 0 && obs.draining == 0 {
            let shrunk = (obs.live - step).max(1);
            let queue_after = obs.outstanding as f64 / shrunk as f64;
            if queue_after < self.queue_low {
                return ScaleDecision::Drain(step);
            }
        }
        ScaleDecision::Hold
    }
}

/// One observation window handed to [`AutoscalerSpec::decide`]: current
/// fleet shape plus what the window saw. TTFT attainment is windowed per
/// prefill completion — the same signal the report's per-tenant SLO column
/// uses, sampled live instead of at the end of the run.
#[derive(Debug, Clone, Copy)]
pub struct FleetObservation {
    /// Routable replicas.
    pub live: usize,
    /// Replicas currently warming up.
    pub warming: usize,
    /// Replicas gracefully draining.
    pub draining: usize,
    /// Requests parked in the routing tier's deferred queue.
    pub deferred: usize,
    /// Requests on live replicas (waiting + running).
    pub outstanding: usize,
    /// Prefills completed in this window.
    pub window_prefills: u64,
    /// Of those, how many met the TTFT SLO.
    pub window_slo_ok: u64,
}

impl FleetObservation {
    /// Windowed TTFT attainment, or `None` for an idle window.
    pub fn attainment(&self) -> Option<f64> {
        (self.window_prefills > 0).then(|| self.window_slo_ok as f64 / self.window_prefills as f64)
    }
}

/// What the policy wants done to the fleet this window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Leave the fleet as is.
    Hold,
    /// Warm up this many additional replicas (clamped to the fleet bound).
    Up(usize),
    /// Gracefully drain this many live replicas (clamped to the floor).
    Drain(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(live: usize, deferred: usize, outstanding: usize) -> FleetObservation {
        FleetObservation {
            live,
            warming: 0,
            draining: 0,
            deferred,
            outstanding,
            window_prefills: 100,
            window_slo_ok: 100,
        }
    }

    #[test]
    fn warmup_prices_load_plus_transfer() {
        // 125 GB of weights over 12.5 GB/s = 10 s transfer + 10 s load.
        assert!((warmup_delay_secs(125e9) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn scales_up_on_missed_slo_or_queue() {
        let policy = AutoscalerSpec::new(1, 8);
        let mut missed = obs(4, 0, 0);
        missed.window_slo_ok = 50;
        assert_eq!(policy.decide(&missed), ScaleDecision::Up(1));
        let deferred = obs(4, 3, 0);
        assert_eq!(policy.decide(&deferred), ScaleDecision::Up(1));
        let deep = obs(4, 0, 64);
        assert_eq!(policy.decide(&deep), ScaleDecision::Up(1));
    }

    #[test]
    fn scales_down_only_when_safe() {
        let policy = AutoscalerSpec::new(2, 8);
        // Healthy and near-idle: drain.
        assert_eq!(policy.decide(&obs(4, 0, 1)), ScaleDecision::Drain(1));
        // At the floor: hold.
        assert_eq!(policy.decide(&obs(2, 0, 1)), ScaleDecision::Hold);
        // Healthy but busy enough that the smaller fleet would queue: hold.
        assert_eq!(policy.decide(&obs(4, 0, 8)), ScaleDecision::Hold);
        // Warming replicas in flight: hold rather than flap.
        let mut warming = obs(4, 0, 1);
        warming.warming = 1;
        assert_eq!(policy.decide(&warming), ScaleDecision::Hold);
    }
}
