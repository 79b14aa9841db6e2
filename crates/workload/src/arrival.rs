//! Request arrival processes.
//!
//! The paper evaluates static (offline) workloads — all requests present at
//! t=0 (Figure 3) — and dynamic workloads with Poisson arrivals at a rate
//! tied to system capacity (Figure 4, Appendix A). A Gamma-interarrival
//! process with a coefficient of variation > 1 adds burstiness for what-if
//! studies.
//!
//! Beyond the paper's processes, the production-traffic zoo adds:
//!
//! * [`ArrivalProcess::Mmpp`] — a two-state Markov-modulated Poisson
//!   process (quiet baseline punctuated by exponentially-distributed
//!   bursts), the classic model for flash-crowd traffic;
//! * [`ArrivalProcess::Diurnal`] — a sinusoidally-rate-modulated Poisson
//!   process for day/night load curves, sampled exactly by thinning;
//! * [`ArrivalProcess::Superposed`] — the superposition of independent
//!   component streams (e.g. several tenants sharing a cluster), merged in
//!   time order with per-stream forked RNGs so adding a component never
//!   perturbs the others' draws.
//!
//! All processes generate **incrementally** through [`ArrivalProcess::iter`]
//! / [`ArrivalProcess::times`]: million-request runs never materialize an
//! upfront `Vec` of timestamps beyond what the caller collects.
//! [`ArrivalProcess::generate`] is a `take(n).collect()` over the same
//! iterator, so the batch and incremental paths are sample-for-sample
//! identical under a fixed seed.

use serde::{Deserialize, Serialize};
use vidur_core::rng::SimRng;
use vidur_core::time::SimTime;

/// How requests arrive over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// All requests arrive at time zero (offline / static workload).
    Static,
    /// Poisson arrivals at `qps` requests per second.
    Poisson {
        /// Mean arrival rate (requests per second).
        qps: f64,
    },
    /// Gamma-distributed interarrival times: mean rate `qps` with
    /// coefficient of variation `cv` (`cv = 1` is Poisson, `cv > 1` bursty).
    Gamma {
        /// Mean arrival rate (requests per second).
        qps: f64,
        /// Coefficient of variation of interarrival times.
        cv: f64,
    },
    /// Two-state Markov-modulated Poisson process: Poisson arrivals whose
    /// rate alternates between a quiet baseline and a burst rate, with
    /// exponentially-distributed sojourn times in each state. Starts in the
    /// baseline state.
    Mmpp {
        /// Arrival rate in the baseline (quiet) state, requests per second
        /// (may be zero for pure on/off bursts).
        qps_base: f64,
        /// Arrival rate in the burst state, requests per second.
        qps_burst: f64,
        /// Mean sojourn time in the baseline state, seconds.
        mean_base_secs: f64,
        /// Mean sojourn time in the burst state, seconds.
        mean_burst_secs: f64,
    },
    /// Sinusoidally rate-modulated Poisson process:
    /// `rate(t) = mean_qps * (1 + amplitude * sin(2πt / period_secs))`.
    /// Sampled exactly by thinning against the peak rate.
    Diurnal {
        /// Mean arrival rate over a full period, requests per second.
        mean_qps: f64,
        /// Relative swing around the mean, in `[0, 1]`.
        amplitude: f64,
        /// Length of one day/night cycle, seconds.
        period_secs: f64,
    },
    /// Superposition of independent component streams (e.g. one per
    /// tenant): the merged stream contains every component arrival in time
    /// order. Each component draws from its own forked RNG stream.
    /// Components must be dynamic — a `Static` component (infinitely many
    /// arrivals at t=0) would starve every other stream and is rejected.
    Superposed {
        /// The component processes (must be non-empty, none `Static`).
        streams: Vec<ArrivalProcess>,
    },
}

impl ArrivalProcess {
    /// Panics on invalid parameters (the stochastic variants need positive
    /// rates / sojourns, `Diurnal` a sane amplitude, `Superposed` at least
    /// one component).
    fn validate(&self) {
        match *self {
            ArrivalProcess::Static => {}
            ArrivalProcess::Poisson { qps } => {
                assert!(qps > 0.0, "Poisson rate must be positive");
            }
            ArrivalProcess::Gamma { qps, cv } => {
                assert!(qps > 0.0 && cv > 0.0, "Gamma parameters must be positive");
            }
            ArrivalProcess::Mmpp {
                qps_base,
                qps_burst,
                mean_base_secs,
                mean_burst_secs,
            } => {
                assert!(qps_base >= 0.0, "MMPP baseline rate must be non-negative");
                assert!(qps_burst > 0.0, "MMPP burst rate must be positive");
                assert!(
                    mean_base_secs > 0.0 && mean_burst_secs > 0.0,
                    "MMPP sojourn means must be positive"
                );
            }
            ArrivalProcess::Diurnal {
                mean_qps,
                amplitude,
                period_secs,
            } => {
                assert!(mean_qps > 0.0, "diurnal mean rate must be positive");
                assert!(
                    (0.0..=1.0).contains(&amplitude),
                    "diurnal amplitude must be in [0, 1]"
                );
                assert!(period_secs > 0.0, "diurnal period must be positive");
            }
            ArrivalProcess::Superposed { ref streams } => {
                assert!(!streams.is_empty(), "superposition needs components");
                for s in streams {
                    // A Static component yields t=0 forever, so it would win
                    // every merge step and silently starve the other
                    // streams — reject it instead.
                    assert!(
                        !matches!(s, ArrivalProcess::Static),
                        "superposition components must be dynamic \
                         (a Static stream would starve all others)"
                    );
                    s.validate();
                }
            }
        }
    }

    /// Incremental arrival-time generator borrowing the caller's RNG: an
    /// infinite, non-decreasing stream of timestamps. The first `n` items
    /// equal [`ArrivalProcess::generate`]`(n, rng)` exactly.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (see the variant docs).
    pub fn iter<'a>(&self, rng: &'a mut SimRng) -> ArrivalIter<'a> {
        self.validate();
        ArrivalIter {
            state: ArrivalState::new(self, rng),
            rng,
        }
    }

    /// Incremental arrival-time generator that owns its RNG — the building
    /// block for merging independent streams (each component forks its own
    /// RNG, so draws never interleave).
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (see the variant docs).
    pub fn times(&self, mut rng: SimRng) -> ArrivalTimes {
        self.validate();
        let state = ArrivalState::new(self, &mut rng);
        ArrivalTimes { rng, state }
    }

    /// Generates `n` arrival timestamps (non-decreasing). Equivalent to
    /// collecting `n` items from [`ArrivalProcess::iter`].
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters for the stochastic variants.
    pub fn generate(&self, n: usize, rng: &mut SimRng) -> Vec<SimTime> {
        self.iter(rng).take(n).collect()
    }
}

/// Per-process iteration state. Time is tracked in `f64` seconds, exactly
/// like the original batch generators, so draws and rounding match.
#[derive(Debug)]
enum ArrivalState {
    Static,
    /// Exponential interarrivals at rate `qps` (stored as the rate itself so
    /// the draw stream matches the historical batch generator bit-for-bit).
    Poisson {
        t: f64,
        qps: f64,
    },
    /// Gamma interarrivals with shape `k`, scale `theta`.
    Gamma {
        t: f64,
        k: f64,
        theta: f64,
    },
    Mmpp {
        t: f64,
        in_burst: bool,
        /// Absolute time at which the current state's sojourn ends.
        switch_at: f64,
        qps_base: f64,
        qps_burst: f64,
        mean_base_secs: f64,
        mean_burst_secs: f64,
    },
    Diurnal {
        t: f64,
        mean_qps: f64,
        amplitude: f64,
        period_secs: f64,
    },
    /// Merge of component streams, each with its own RNG. `next[i]` is the
    /// component's pending arrival; ties break toward the lowest index.
    Superposed {
        streams: Vec<ArrivalTimes>,
        next: Vec<SimTime>,
    },
}

impl ArrivalState {
    fn new(process: &ArrivalProcess, rng: &mut SimRng) -> Self {
        match *process {
            ArrivalProcess::Static => ArrivalState::Static,
            ArrivalProcess::Poisson { qps } => ArrivalState::Poisson { t: 0.0, qps },
            ArrivalProcess::Gamma { qps, cv } => ArrivalState::Gamma {
                t: 0.0,
                // Interarrival mean 1/qps, std cv/qps: shape k = 1/cv^2,
                // scale theta = cv^2 / qps.
                k: 1.0 / (cv * cv),
                theta: cv * cv / qps,
            },
            ArrivalProcess::Mmpp {
                qps_base,
                qps_burst,
                mean_base_secs,
                mean_burst_secs,
            } => ArrivalState::Mmpp {
                t: 0.0,
                in_burst: false,
                switch_at: rng.exponential(1.0 / mean_base_secs),
                qps_base,
                qps_burst,
                mean_base_secs,
                mean_burst_secs,
            },
            ArrivalProcess::Diurnal {
                mean_qps,
                amplitude,
                period_secs,
            } => ArrivalState::Diurnal {
                t: 0.0,
                mean_qps,
                amplitude,
                period_secs,
            },
            ArrivalProcess::Superposed { ref streams } => {
                let mut components: Vec<ArrivalTimes> = streams
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.times(rng.fork(i as u64)))
                    .collect();
                let next = components
                    .iter_mut()
                    .map(|c| c.next().expect("arrival streams are infinite"))
                    .collect();
                ArrivalState::Superposed {
                    streams: components,
                    next,
                }
            }
        }
    }

    /// Draws the next arrival. Streams are infinite; this never ends.
    fn step(&mut self, rng: &mut SimRng) -> SimTime {
        match self {
            ArrivalState::Static => SimTime::ZERO,
            ArrivalState::Poisson { t, qps } => {
                *t += rng.exponential(*qps);
                SimTime::from_secs_f64(*t)
            }
            ArrivalState::Gamma { t, k, theta } => {
                *t += rng.gamma(*k, *theta);
                SimTime::from_secs_f64(*t)
            }
            ArrivalState::Mmpp {
                t,
                in_burst,
                switch_at,
                qps_base,
                qps_burst,
                mean_base_secs,
                mean_burst_secs,
            } => loop {
                let rate = if *in_burst { *qps_burst } else { *qps_base };
                // With a zero baseline rate no arrival can happen before the
                // burst starts; jump straight to the switch.
                let candidate = if rate > 0.0 {
                    *t + rng.exponential(rate)
                } else {
                    f64::INFINITY
                };
                if candidate <= *switch_at {
                    *t = candidate;
                    return SimTime::from_secs_f64(*t);
                }
                // Sojourn expired first: switch state and redraw (valid by
                // memorylessness of the exponential).
                *t = *switch_at;
                *in_burst = !*in_burst;
                let mean = if *in_burst {
                    *mean_burst_secs
                } else {
                    *mean_base_secs
                };
                *switch_at = *t + rng.exponential(1.0 / mean);
            },
            ArrivalState::Diurnal {
                t,
                mean_qps,
                amplitude,
                period_secs,
            } => {
                let peak = *mean_qps * (1.0 + *amplitude);
                loop {
                    *t += rng.exponential(peak);
                    let phase = std::f64::consts::TAU * *t / *period_secs;
                    let rate = *mean_qps * (1.0 + *amplitude * phase.sin());
                    // Thinning: accept with probability rate/peak.
                    if rng.next_f64() * peak <= rate {
                        return SimTime::from_secs_f64(*t);
                    }
                }
            }
            ArrivalState::Superposed { streams, next } => {
                let (idx, &at) = next
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.cmp(b))
                    .expect("superposition has components");
                next[idx] = streams[idx].next().expect("arrival streams are infinite");
                at
            }
        }
    }
}

/// Infinite arrival-time iterator borrowing the caller's RNG (see
/// [`ArrivalProcess::iter`]).
#[derive(Debug)]
pub struct ArrivalIter<'a> {
    rng: &'a mut SimRng,
    state: ArrivalState,
}

impl Iterator for ArrivalIter<'_> {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        Some(self.state.step(self.rng))
    }
}

/// Infinite arrival-time iterator owning its RNG (see
/// [`ArrivalProcess::times`]).
#[derive(Debug)]
pub struct ArrivalTimes {
    rng: SimRng,
    state: ArrivalState,
}

impl Iterator for ArrivalTimes {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        Some(self.state.step(&mut self.rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn static_all_at_zero() {
        let mut rng = SimRng::new(1);
        let times = ArrivalProcess::Static.generate(10, &mut rng);
        assert!(times.iter().all(|&t| t == SimTime::ZERO));
    }

    #[test]
    fn poisson_mean_rate() {
        let mut rng = SimRng::new(2);
        let qps = 5.0;
        let n = 50_000;
        let times = ArrivalProcess::Poisson { qps }.generate(n, &mut rng);
        let span = times.last().unwrap().as_secs_f64();
        let rate = n as f64 / span;
        assert!((rate / qps - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn gamma_cv_one_matches_poisson_rate() {
        let mut rng = SimRng::new(3);
        let times = ArrivalProcess::Gamma { qps: 10.0, cv: 1.0 }.generate(20_000, &mut rng);
        let span = times.last().unwrap().as_secs_f64();
        let rate = 20_000.0 / span;
        assert!((rate / 10.0 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn gamma_burstiness_increases_variance() {
        let inter = |cv: f64| {
            let mut rng = SimRng::new(4);
            let times = ArrivalProcess::Gamma { qps: 10.0, cv }.generate(20_000, &mut rng);
            let gaps: Vec<f64> = times
                .windows(2)
                .map(|w| w[1].as_secs_f64() - w[0].as_secs_f64())
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let smooth = inter(0.5);
        let bursty = inter(3.0);
        assert!(bursty > 2.0 * smooth, "smooth {smooth} bursty {bursty}");
    }

    fn mmpp() -> ArrivalProcess {
        // Short sojourns keep the chain fast-mixing so empirical-rate tests
        // converge tightly at moderate sample sizes.
        ArrivalProcess::Mmpp {
            qps_base: 2.0,
            qps_burst: 40.0,
            mean_base_secs: 3.0,
            mean_burst_secs: 0.5,
        }
    }

    fn diurnal() -> ArrivalProcess {
        ArrivalProcess::Diurnal {
            mean_qps: 8.0,
            amplitude: 0.8,
            period_secs: 600.0,
        }
    }

    #[test]
    fn mmpp_empirical_rate_converges_to_stationary_mean() {
        let p = mmpp();
        // Stationary mean: (2·3 + 40·0.5) / 3.5 ≈ 7.43 QPS.
        let expect = 26.0 / 3.5;
        let mut rng = SimRng::new(5);
        let n = 200_000;
        let times = p.generate(n, &mut rng);
        let rate = n as f64 / times.last().unwrap().as_secs_f64();
        assert!(
            (rate / expect - 1.0).abs() < 0.05,
            "rate {rate} vs {expect}"
        );
    }

    #[test]
    fn mmpp_bursts_are_burstier_than_poisson() {
        // Interarrival CV of the MMPP must clearly exceed Poisson's 1.
        let mut rng = SimRng::new(6);
        let times = mmpp().generate(100_000, &mut rng);
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| w[1].as_secs_f64() - w[0].as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.5, "MMPP interarrival CV {cv} not bursty");
    }

    #[test]
    fn diurnal_empirical_rate_converges_to_mean() {
        let p = diurnal();
        let mut rng = SimRng::new(7);
        let n = 200_000;
        let times = p.generate(n, &mut rng);
        let span = times.last().unwrap().as_secs_f64();
        // Measure over whole periods to avoid phase bias.
        let whole = (span / 600.0).floor() * 600.0;
        let count = times.iter().filter(|t| t.as_secs_f64() <= whole).count();
        let rate = count as f64 / whole;
        assert!((rate / 8.0 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn diurnal_peak_and_trough_rates_differ() {
        let mut rng = SimRng::new(8);
        let times = diurnal().generate(100_000, &mut rng);
        // First quarter of each period is near-peak, third quarter trough.
        let (mut peak, mut trough) = (0usize, 0usize);
        for t in &times {
            let pos = t.as_secs_f64() % 600.0;
            if pos < 150.0 {
                peak += 1;
            } else if (300.0..450.0).contains(&pos) {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > 2.0 * trough as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn superposed_rate_is_sum_of_components() {
        let p = ArrivalProcess::Superposed {
            streams: vec![
                ArrivalProcess::Poisson { qps: 3.0 },
                ArrivalProcess::Poisson { qps: 5.0 },
                ArrivalProcess::Gamma { qps: 2.0, cv: 2.0 },
            ],
        };
        let mut rng = SimRng::new(9);
        let n = 100_000;
        let times = p.generate(n, &mut rng);
        let rate = n as f64 / times.last().unwrap().as_secs_f64();
        assert!((rate / 10.0 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn superposed_interleaves_component_streams_exactly() {
        // The merged stream must be the time-ordered union of each
        // component generated alone with the same forked RNG.
        let a = ArrivalProcess::Poisson { qps: 4.0 };
        let b = ArrivalProcess::Gamma { qps: 6.0, cv: 1.5 };
        let sup = ArrivalProcess::Superposed {
            streams: vec![a.clone(), b.clone()],
        };
        let mut rng = SimRng::new(10);
        let merged = sup.generate(2_000, &mut rng);

        let mut rng2 = SimRng::new(10);
        let fork_a = rng2.fork(0);
        let fork_b = rng2.fork(1);
        let mut manual: Vec<SimTime> = a
            .times(fork_a)
            .take(2_000)
            .chain(b.times(fork_b).take(2_000))
            .collect();
        manual.sort();
        manual.truncate(2_000);
        assert_eq!(merged, manual);
    }

    #[test]
    fn iterator_matches_generate_sample_for_sample() {
        let processes = vec![
            ArrivalProcess::Static,
            ArrivalProcess::Poisson { qps: 3.0 },
            ArrivalProcess::Gamma { qps: 5.0, cv: 2.0 },
            mmpp(),
            diurnal(),
            ArrivalProcess::Superposed {
                streams: vec![ArrivalProcess::Poisson { qps: 1.0 }, mmpp()],
            },
        ];
        for p in processes {
            let mut rng_batch = SimRng::new(11);
            let batch = p.generate(500, &mut rng_batch);
            let mut rng_iter = SimRng::new(11);
            let incremental: Vec<SimTime> = p.iter(&mut rng_iter).take(500).collect();
            assert_eq!(batch, incremental, "{p:?}");
            let owned: Vec<SimTime> = p.times(SimRng::new(11)).take(500).collect();
            assert_eq!(batch, owned, "{p:?} (owned)");
        }
    }

    #[test]
    #[should_panic(expected = "superposition needs components")]
    fn empty_superposition_rejected() {
        let p = ArrivalProcess::Superposed { streams: vec![] };
        p.generate(1, &mut SimRng::new(1));
    }

    #[test]
    #[should_panic(expected = "starve all others")]
    fn static_component_in_superposition_rejected() {
        // Static yields t=0 forever, so it would win every merge step and
        // the Poisson stream would never surface.
        let p = ArrivalProcess::Superposed {
            streams: vec![ArrivalProcess::Static, ArrivalProcess::Poisson { qps: 5.0 }],
        };
        p.generate(1, &mut SimRng::new(1));
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn bad_diurnal_amplitude_rejected() {
        let p = ArrivalProcess::Diurnal {
            mean_qps: 1.0,
            amplitude: 1.5,
            period_secs: 60.0,
        };
        p.generate(1, &mut SimRng::new(1));
    }

    proptest! {
        #[test]
        fn arrivals_nondecreasing(seed in any::<u64>(), qps in 0.1f64..100.0) {
            let mut rng = SimRng::new(seed);
            let times = ArrivalProcess::Poisson { qps }.generate(100, &mut rng);
            for w in times.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }

        #[test]
        fn new_processes_nondecreasing(
            seed in any::<u64>(),
            qps_base in 0.0f64..20.0,
            qps_burst in 1.0f64..200.0,
            amplitude in 0.0f64..1.0,
        ) {
            let processes = vec![
                ArrivalProcess::Mmpp {
                    qps_base,
                    qps_burst,
                    mean_base_secs: 10.0,
                    mean_burst_secs: 2.0,
                },
                ArrivalProcess::Diurnal {
                    mean_qps: qps_burst,
                    amplitude,
                    period_secs: 120.0,
                },
                ArrivalProcess::Superposed {
                    streams: vec![
                        ArrivalProcess::Poisson { qps: qps_burst },
                        ArrivalProcess::Mmpp {
                            qps_base,
                            qps_burst,
                            mean_base_secs: 5.0,
                            mean_burst_secs: 1.0,
                        },
                    ],
                },
            ];
            for p in processes {
                let mut rng = SimRng::new(seed);
                let times = p.generate(200, &mut rng);
                for w in times.windows(2) {
                    prop_assert!(w[0] <= w[1], "{p:?}");
                }
            }
        }
    }
}
