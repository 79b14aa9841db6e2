//! Replica stage scheduler: synchronous pipeline-parallel execution
//! tracking (paper §4.5, third tier).
//!
//! With PP degree `k`, a batch flows through `k` stages in order; a stage
//! can start a batch only after (a) the previous stage of the *same* batch
//! finished and (b) its own previous batch departed. The tracker computes
//! entry/exit times under both constraints; a stage that waits on its
//! upstream neighbour idles (a pipeline bubble) and the completion times
//! show it.

use serde::{Deserialize, Serialize};
use vidur_core::time::{SimDuration, SimTime};

/// Per-stage occupancy tracker for one replica's pipeline.
///
/// # Example
///
/// ```
/// use vidur_core::time::{SimDuration, SimTime};
/// use vidur_scheduler::PipelineTracker;
///
/// let mut p = PipelineTracker::new(2);
/// let d = SimDuration::from_millis(10);
/// let done1 = p.schedule(SimTime::ZERO, &[d, d]);
/// assert_eq!(done1.as_secs_f64(), 0.020);
/// // Second batch enters stage 0 at t=10ms (stage 0 frees), finishes 30ms.
/// let done2 = p.schedule(SimTime::ZERO + d, &[d, d]);
/// assert_eq!(done2.as_secs_f64(), 0.030);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineTracker {
    busy_until: Vec<SimTime>,
}

impl PipelineTracker {
    /// Creates a tracker for `num_stages` pipeline stages.
    ///
    /// # Panics
    ///
    /// Panics if `num_stages == 0`.
    pub fn new(num_stages: usize) -> Self {
        assert!(num_stages > 0, "pipeline needs at least one stage");
        PipelineTracker {
            busy_until: vec![SimTime::ZERO; num_stages],
        }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.busy_until.len()
    }

    /// Schedules a batch entering the pipeline at `start` with the given
    /// per-stage execution times; returns its final completion time.
    ///
    /// # Panics
    ///
    /// Panics if `stage_times.len()` does not match the stage count.
    pub fn schedule(&mut self, start: SimTime, stage_times: &[SimDuration]) -> SimTime {
        assert_eq!(
            stage_times.len(),
            self.num_stages(),
            "stage time vector length mismatch"
        );
        let mut t = start;
        for (busy_until, &dur) in self.busy_until.iter_mut().zip(stage_times) {
            t = t.max(*busy_until) + dur;
            *busy_until = t;
        }
        t
    }

    /// When stage 0 can next accept a batch.
    pub fn stage0_free_at(&self) -> SimTime {
        self.busy_until[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn single_stage_serializes() {
        let mut p = PipelineTracker::new(1);
        let d1 = p.schedule(SimTime::ZERO, &[ms(10)]);
        assert_eq!(d1, SimTime::from_secs_f64(0.010));
        // Even if requested earlier, the stage is busy until 10ms.
        let d2 = p.schedule(SimTime::ZERO, &[ms(5)]);
        assert_eq!(d2, SimTime::from_secs_f64(0.015));
    }

    #[test]
    fn pipeline_overlaps_batches() {
        let mut p = PipelineTracker::new(2);
        let d1 = p.schedule(SimTime::ZERO, &[ms(10), ms(10)]);
        let d2 = p.schedule(SimTime::from_secs_f64(0.010), &[ms(10), ms(10)]);
        assert_eq!(d1, SimTime::from_secs_f64(0.020));
        // Batch 2 overlaps batch 1's stage-1 execution.
        assert_eq!(d2, SimTime::from_secs_f64(0.030));
    }

    #[test]
    fn imbalanced_stages_create_bubbles() {
        let mut p = PipelineTracker::new(2);
        // Slow stage 0, so stage 1 stalls waiting for input.
        let d1 = p.schedule(SimTime::ZERO, &[ms(30), ms(10)]);
        let d2 = p.schedule(SimTime::from_secs_f64(0.030), &[ms(30), ms(10)]);
        assert_eq!(d1, SimTime::from_secs_f64(0.040));
        // Stage 1 idles from t=40 to t=60 waiting on stage 0 (a 20ms
        // bubble), so batch 2 leaves at 70ms, not 50ms.
        assert_eq!(d2, SimTime::from_secs_f64(0.070));
    }

    #[test]
    fn balanced_pipeline_has_no_bubbles() {
        let mut p = PipelineTracker::new(4);
        let times = [ms(10), ms(10), ms(10), ms(10)];
        let mut start = SimTime::ZERO;
        for i in 0..10u64 {
            let done = p.schedule(start, &times);
            // No stage ever waits: batch i leaves one stage time after
            // batch i-1, after the 40ms fill.
            assert_eq!(done, SimTime::ZERO + ms(40 + 10 * i));
            start = p.stage0_free_at();
        }
    }

    proptest! {
        #[test]
        fn completion_monotone_in_submission(
            times in proptest::collection::vec(1u64..50, 1..4),
            batches in proptest::collection::vec(0u64..100, 1..20),
        ) {
            let stage_times: Vec<SimDuration> = times.iter().map(|&t| ms(t)).collect();
            let mut p = PipelineTracker::new(stage_times.len());
            let mut starts: Vec<u64> = batches;
            starts.sort_unstable();
            let mut last_done = SimTime::ZERO;
            for s in starts {
                let done = p.schedule(SimTime::from_nanos(s * 1_000_000), &stage_times);
                prop_assert!(done >= last_done, "FIFO pipeline preserves order");
                last_done = done;
            }
        }

        #[test]
        fn throughput_bounded_by_slowest_stage(
            bottleneck in 10u64..50,
            n in 2u64..20,
        ) {
            let stage_times = [ms(5), ms(bottleneck), ms(5)];
            let mut p = PipelineTracker::new(3);
            let mut start = SimTime::ZERO;
            let mut done = SimTime::ZERO;
            for _ in 0..n {
                done = p.schedule(start, &stage_times);
                start = p.stage0_free_at();
            }
            // Steady-state: completion >= n * bottleneck.
            let min_total = ms(bottleneck) * n;
            prop_assert!(done.as_nanos() >= min_total.as_nanos());
        }
    }
}
