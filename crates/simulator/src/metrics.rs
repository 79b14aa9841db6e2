//! Request- and cluster-level metrics (paper §5.2).
//!
//! Request-level: scheduling delay, TTFT, TBT, end-to-end and execution
//! latency (both normalized by output length, the metric of §7.2).
//! Cluster-level: throughput, MFU, MBU, mean KV-cache utilization, batch
//! statistics, and preemption counts.

use serde::{Deserialize, Serialize};
use vidur_core::mergeable::TDigest;
use vidur_core::metrics::{QuantileDigest, QuantileMode};
use vidur_core::time::SimTime;
use vidur_model::batch::BatchComposition;
use vidur_model::operators::Operator;
use vidur_scheduler::replica::CompletionEvent;
use vidur_scheduler::{IdSlab, RequestId};

/// Five-number-plus-mean summary of a latency distribution (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DigestSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl DigestSummary {
    /// Summarizes a digest (zeros if empty), sealing it for quantile reads.
    fn from_digest(d: &mut QuantileDigest) -> Self {
        if d.is_empty() {
            return DigestSummary::default();
        }
        d.seal();
        DigestSummary {
            mean: d.mean().unwrap_or(0.0),
            p50: d.quantile(0.5).unwrap_or(0.0),
            p90: d.quantile(0.9).unwrap_or(0.0),
            p95: d.quantile(0.95).unwrap_or(0.0),
            p99: d.quantile(0.99).unwrap_or(0.0),
            max: d.max().unwrap_or(0.0),
        }
    }
}

/// One latency distribution's accumulator; [`QuantileMode`] picks the
/// variant. Every latency the collector reports records through one.
#[derive(Debug, Clone)]
enum LatencySink {
    /// Every sample: exact quantiles at O(samples) memory.
    Exact(QuantileDigest),
    /// A deterministic t-digest for quantiles plus the exact running sum
    /// (the digest keeps none), so the mean stays exact.
    Sketch { digest: TDigest, sum: f64 },
}

impl LatencySink {
    fn new(mode: QuantileMode) -> Self {
        match mode {
            QuantileMode::Exact => LatencySink::Exact(QuantileDigest::new()),
            QuantileMode::Mergeable => LatencySink::Sketch {
                digest: TDigest::new(),
                sum: 0.0,
            },
        }
    }

    /// Folds one sample into the sink.
    fn record(&mut self, value: f64) {
        match self {
            LatencySink::Exact(d) => d.record(value),
            LatencySink::Sketch { digest, sum } => {
                digest.record(value);
                *sum += value;
            }
        }
    }

    /// Summarizes everything recorded so far (zeros if empty), sealing the
    /// store for quantile reads.
    fn summarize(&mut self) -> DigestSummary {
        let (digest, sum) = match self {
            LatencySink::Exact(d) => return DigestSummary::from_digest(d),
            LatencySink::Sketch { digest, sum } => (digest, *sum),
        };
        if digest.is_empty() {
            return DigestSummary::default();
        }
        digest.seal();
        DigestSummary {
            mean: sum / digest.count() as f64,
            p50: digest.quantile(0.5).unwrap_or(0.0),
            p90: digest.quantile(0.9).unwrap_or(0.0),
            p95: digest.quantile(0.95).unwrap_or(0.0),
            p99: digest.quantile(0.99).unwrap_or(0.0),
            max: digest.max().unwrap_or(0.0),
        }
    }
}

/// Latency SLO evaluated per completed request for per-tenant attainment
/// reporting: a request meets the SLO when its TTFT and its per-output-token
/// end-to-end latency are both within bounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantSlo {
    /// Time-to-first-token bound, seconds.
    pub ttft_secs: f64,
    /// End-to-end latency bound per output token, seconds.
    pub e2e_per_token_secs: f64,
}

/// Per-tenant slice of the simulation report (latency/SLO breakdown).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant name (from the trace's declared tenants, or `tenant-<id>` for
    /// requests carrying an undeclared index).
    pub tenant: String,
    /// Requests that arrived for this tenant.
    pub arrived: usize,
    /// Requests that completed before the simulation ended.
    pub completed: usize,
    /// Time to first token.
    pub ttft: DigestSummary,
    /// Raw end-to-end latency.
    pub e2e: DigestSummary,
    /// Fraction of completed requests meeting the configured [`TenantSlo`]
    /// (`None` when no SLO was configured; `0.0` when nothing completed).
    pub slo_attainment: Option<f64>,
    /// Requests the global tier bound to a replica (immediately or after
    /// deferral). Zero unless the driving simulator published routing stats.
    pub routed: u64,
    /// Requests the global tier held in its deferred queue at least once.
    pub deferred: u64,
    /// Replica admissions denied by this tenant's KV quota (waiting →
    /// quota-parked transitions, summed over replicas).
    pub quota_denied: u64,
    /// Fraction of the weighted fair share this tenant received
    /// (`1.0` = exact attainment). `None` unless fair-share routing ran.
    pub fair_share_attainment: Option<f64>,
    /// Re-dispatches of this tenant's requests after a crash eviction or
    /// drain migration (elastic-fleet runs only; zero otherwise).
    pub retries: u64,
    /// This tenant's requests sent back through the routing tier by a crash
    /// or drain (elastic-fleet runs only; zero otherwise).
    pub requeued: u64,
    /// This tenant's requests evicted by replica crashes (elastic-fleet
    /// runs only; zero otherwise).
    pub evicted_by_crash: u64,
    /// This tenant's requests admitted with a prefix-cache hit
    /// (prefix-cache runs only; zero otherwise).
    pub prefix_hits: u64,
    /// Prefill tokens this tenant skipped via cached prefixes
    /// (prefix-cache runs only; zero otherwise).
    pub prefix_tokens_saved: u64,
}

/// Elastic-fleet statistics a simulator publishes into the collector before
/// assembling the report (see [`MetricsCollector::set_fleet`]). All-zero /
/// empty when the elastic layer never armed, which is the guarantee behind
/// the report's "byte-identical without a fault plan" contract: the report
/// fields these feed default to exactly the values a build without the
/// fault layer produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetStats {
    /// Request dispatches beyond each request's first (re-dispatches after
    /// crash evictions and drain migrations).
    pub retries: u64,
    /// Requests sent back through the routing tier by a crash or drain.
    pub requeued: u64,
    /// Requests evicted by replica crashes (in-flight or queued).
    pub evicted_by_crash: u64,
    /// Total replica uptime (live + warming + draining) in hours — the
    /// cost denominator autoscaler evaluations compare against a static
    /// fleet.
    pub replica_hours: f64,
    /// Per-replica fraction of the run each replica slot was up.
    pub replica_availability: Vec<f64>,
    /// Per-tenant retry counts (index = tenant id).
    pub tenant_retries: Vec<u64>,
    /// Per-tenant requeue counts (index = tenant id).
    pub tenant_requeued: Vec<u64>,
    /// Per-tenant crash-eviction counts (index = tenant id).
    pub tenant_evicted: Vec<u64>,
}

/// Prefix-cache statistics a simulator publishes into the collector before
/// assembling the report (see [`MetricsCollector::set_prefix`]). All-zero
/// when the prefix-cache tier never armed, which keeps the report
/// byte-identical to a build without the tier.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrefixStats {
    /// Requests admitted with a prefix-cache hit (summed over replicas).
    pub hit_requests: u64,
    /// Prefill tokens skipped at admission thanks to cached prefixes.
    pub tokens_saved: u64,
    /// Per-tenant hit counts (index = tenant id).
    pub tenant_hits: Vec<u64>,
    /// Per-tenant tokens-saved counts (index = tenant id).
    pub tenant_saved: Vec<u64>,
}

/// Per-tenant routing statistics a simulator publishes into the collector
/// before assembling the report (see [`MetricsCollector::set_tenant_routing`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantRoutingStats {
    /// Requests bound to a replica.
    pub routed: u64,
    /// Requests held in the deferred queue at least once.
    pub deferred: u64,
    /// Admissions denied by the tenant's KV quota.
    pub quota_denied: u64,
    /// Weighted fair-share attainment, when fair-share routing ran.
    pub fair_share_attainment: Option<f64>,
}

/// Per-tenant accumulation state. Latencies stream in at completion, in
/// either quantile mode.
#[derive(Debug, Clone)]
struct TenantStat {
    name: String,
    arrived: usize,
    completed: usize,
    slo_met: usize,
    ttft: LatencySink,
    e2e: LatencySink,
}

impl TenantStat {
    fn new(name: String, mode: QuantileMode) -> Self {
        TenantStat {
            name,
            arrived: 0,
            completed: 0,
            slo_met: 0,
            ttft: LatencySink::new(mode),
            e2e: LatencySink::new(mode),
        }
    }
}

/// Windowed time-series output configuration: the report gains one
/// [`TimeseriesRow`] per `window_secs` of simulated time, so long diurnal
/// runs yield a trajectory, not just end-of-run aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeseriesConfig {
    /// Window width in simulated seconds (e.g. `60.0` for per-minute rows).
    pub window_secs: f64,
}

impl TimeseriesConfig {
    /// Per-minute rows, the conventional granularity.
    pub fn per_minute() -> Self {
        TimeseriesConfig { window_secs: 60.0 }
    }
}

/// One window of the report's time series. Requests are binned by their
/// *completion* time; the TTFT quantile covers requests completing in the
/// window, and KV occupancy is the time-weighted mean over the window
/// averaged across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TimeseriesRow {
    /// Window start, simulated seconds.
    pub window_start_secs: f64,
    /// Requests completed in this window.
    pub completed: u64,
    /// `completed / window_secs`.
    pub throughput_qps: f64,
    /// p99 time-to-first-token of requests completing in this window
    /// (0 when none recorded a TTFT).
    pub ttft_p99: f64,
    /// Time-weighted mean KV-cache occupancy over the window, averaged
    /// across replicas with data in the window.
    pub kv_occupancy: f64,
}

/// Bounds of time-series window `i`, `w` seconds wide. They are rounded
/// from `i * w` and `i * w + w`, so neighbouring windows may overlap or
/// part by a nanosecond; the rows and the KV integrals share these bounds.
fn window_bounds(i: usize, w: f64) -> (SimTime, SimTime) {
    let start = i as f64 * w;
    (
        SimTime::from_secs_f64(start),
        SimTime::from_secs_f64(start + w),
    )
}

/// `acc` plus `value` held over `[from, to)`; unchanged for an empty span.
fn add_span(acc: f64, value: f64, from: SimTime, to: SimTime) -> f64 {
    if to > from {
        acc + value * to.duration_since(from).as_secs_f64()
    } else {
        acc
    }
}

/// Mean of the replicas' values, or 0 when no replica has one.
fn replica_mean(vals: impl Iterator<Item = f64>) -> f64 {
    let vals: Vec<f64> = vals.collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// One replica's KV occupancy, a step function of time, kept as running
/// integrals: each segment between two samples is added once, when the
/// later sample arrives, so the state does not grow with the number of
/// batches. The additions go segment by segment in sample order, which the
/// pinned `kv_utilization` and `kv_occupancy` bits depend on. Samples and
/// completions must arrive in time order, as the event loop delivers them.
#[derive(Debug, Clone, Default)]
struct KvIntegral {
    /// Time of the first sample.
    first: SimTime,
    /// Time and value of the latest sample; `None` until sampled.
    last: Option<(SimTime, f64)>,
    /// Integral from the first sample to the latest.
    integral: f64,
    /// A completion time and the integral clipped there, taken at the first
    /// sample after the collector's latest completion: batches launched
    /// after the last completion (deadline and late-abort cuts) stay out of
    /// the full-run mean.
    clipped: Option<(SimTime, f64)>,
    /// One integral per time-series window; empty unless armed.
    windows: Vec<f64>,
}

impl KvIntegral {
    /// Records that the value changed to `value` at `now`, given the
    /// collector's latest completion and the window width when armed.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous sample.
    fn sample(&mut self, now: SimTime, value: f64, last_completion: SimTime, w: Option<f64>) {
        let Some((from, held)) = self.last.replace((now, value)) else {
            self.first = now;
            return;
        };
        assert!(now >= from, "series updates must be in time order");
        if now > last_completion && self.clipped.is_none_or(|(at, _)| at != last_completion) {
            let clipped = add_span(self.integral, held, from, last_completion);
            self.clipped = Some((last_completion, clipped));
        }
        self.integral = add_span(self.integral, held, from, now);
        let Some(w) = w else {
            return;
        };
        // Start a window early: at a window edge the float guess and the
        // rounded bounds may disagree, and a window that ends by `from`
        // adds nothing.
        for i in ((from.as_secs_f64() / w) as usize).saturating_sub(1).. {
            let (start, end) = window_bounds(i, w);
            if start >= now {
                return;
            }
            if self.windows.len() <= i {
                self.windows.resize(i + 1, 0.0);
            }
            self.windows[i] = add_span(self.windows[i], held, from.max(start), now.min(end));
        }
    }

    /// Time-weighted mean from the first sample to `end`; `None` if the
    /// replica was never sampled or `end` is not after its first sample.
    fn mean_until(&self, end: SimTime) -> Option<f64> {
        let (from, held) = self.last?;
        if end <= self.first {
            return None;
        }
        let acc = match self.clipped {
            Some((at, clipped)) if at == end => clipped,
            _ => {
                assert!(from <= end, "KV samples must not run ahead of completions");
                add_span(self.integral, held, from, end)
            }
        };
        Some(acc / end.duration_since(self.first).as_secs_f64())
    }

    /// Time-weighted mean over window `i` = `[start, end)` from
    /// `max(start, first sample)`, the latest value held to the end; `None`
    /// when that span is empty.
    fn window_mean(&self, i: usize, start: SimTime, end: SimTime) -> Option<f64> {
        let (from, held) = self.last?;
        let lo = start.max(self.first);
        if end <= lo {
            return None;
        }
        let acc = self.windows.get(i).copied().unwrap_or(0.0);
        Some(add_span(acc, held, from.max(lo), end) / end.duration_since(lo).as_secs_f64())
    }
}

/// One time-series window's state.
#[derive(Debug, Clone)]
struct Window {
    completed: u64,
    ttft: LatencySink,
}

/// The request-level latency sinks plus the time-series windows: everything
/// a finished request's record feeds. Mergeable mode retires each record
/// into them at completion; exact mode folds the retained records at report
/// time, in request-id order.
#[derive(Debug, Clone)]
struct RequestSinks {
    mode: QuantileMode,
    sched_delay: LatencySink,
    ttft: LatencySink,
    norm_e2e: LatencySink,
    norm_exec: LatencySink,
    e2e: LatencySink,
    /// Time-series window width, when armed.
    window_secs: Option<f64>,
    /// Completion-time-indexed windows; grows on demand.
    windows: Vec<Window>,
}

impl RequestSinks {
    fn new(mode: QuantileMode) -> Self {
        RequestSinks {
            mode,
            sched_delay: LatencySink::new(mode),
            ttft: LatencySink::new(mode),
            norm_e2e: LatencySink::new(mode),
            norm_exec: LatencySink::new(mode),
            e2e: LatencySink::new(mode),
            window_secs: None,
            windows: Vec::new(),
        }
    }

    /// Folds one request's record in: its completion-time window when the
    /// time series is armed, and its latencies once it has finished.
    fn retire(&mut self, rec: &RequestRecord) {
        let lat = rec.latencies();
        if let (Some(w), Some(done)) = (self.window_secs, rec.completed) {
            let idx = (done.as_secs_f64() / w) as usize;
            while self.windows.len() <= idx {
                self.windows.push(Window {
                    completed: 0,
                    ttft: LatencySink::new(self.mode),
                });
            }
            let win = &mut self.windows[idx];
            win.completed += 1;
            if let Some(t) = lat.as_ref().and_then(|l| l.ttft) {
                win.ttft.record(t);
            }
        }
        let Some(l) = lat else {
            return;
        };
        self.sched_delay.record(l.sched_delay);
        if let Some(t) = l.ttft {
            self.ttft.record(t);
        }
        self.e2e.record(l.e2e);
        self.norm_e2e.record(l.norm_e2e);
        self.norm_exec.record(l.norm_exec);
    }

    /// One [`TimeseriesRow`] per window (empty unless armed); KV occupancy
    /// is each window's time-weighted mean averaged across replicas.
    fn timeseries(&mut self, kv: &[KvIntegral]) -> Vec<TimeseriesRow> {
        let Some(w) = self.window_secs else {
            return Vec::new();
        };
        let mut rows = Vec::with_capacity(self.windows.len());
        for (i, win) in self.windows.iter_mut().enumerate() {
            let (start, end) = window_bounds(i, w);
            rows.push(TimeseriesRow {
                window_start_secs: i as f64 * w,
                completed: win.completed,
                throughput_qps: win.completed as f64 / w,
                ttft_p99: win.ttft.summarize().p99,
                kv_occupancy: replica_mean(kv.iter().filter_map(|k| k.window_mean(i, start, end))),
            });
        }
        rows
    }
}

/// Everything a simulation run reports (the "Simulation Report" of Fig. 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Requests in the input trace.
    pub num_requests: usize,
    /// Requests that completed before the simulation ended.
    pub completed: usize,
    /// Simulated time at the last completion.
    pub makespan_secs: f64,
    /// Completed requests per second of simulated time.
    pub throughput_qps: f64,
    /// Queueing delay from arrival to first scheduling.
    pub scheduling_delay: DigestSummary,
    /// Time to first token (arrival → prefill completion).
    pub ttft: DigestSummary,
    /// Time between consecutive output tokens.
    pub tbt: DigestSummary,
    /// End-to-end latency / output tokens (s/token).
    pub normalized_e2e: DigestSummary,
    /// Execution latency (excluding scheduling delay) / output tokens.
    pub normalized_exec: DigestSummary,
    /// Raw end-to-end latency.
    pub e2e: DigestSummary,
    /// Model FLOPs utilization across all GPUs.
    pub mfu: f64,
    /// Memory-bandwidth utilization across all GPUs.
    pub mbu: f64,
    /// Time-weighted mean KV-cache occupancy across replicas.
    pub kv_utilization: f64,
    /// vLLM-style preemption/restart count.
    pub preemptions: u64,
    /// Iterations (batches) executed.
    pub total_batches: u64,
    /// Tokens processed across all iterations.
    pub total_tokens: u64,
    /// Mean tokens per batch.
    pub mean_batch_tokens: f64,
    /// Mean requests per batch.
    pub mean_batch_size: f64,
    /// Cluster energy consumed, kWh (busy GPUs at TDP, idle GPUs at idle
    /// power — the §5.2 energy extension).
    pub energy_kwh: f64,
    /// Mean cluster power draw, watts.
    pub mean_power_watts: f64,
    /// Energy per completed request, watt-hours.
    pub energy_wh_per_request: f64,
    /// Total predicted execution time attributed to each operator, seconds,
    /// sorted descending (the paper's operator-level metrics, §5.2).
    pub operator_time_breakdown: Vec<(String, f64)>,
    /// Per-tenant latency/SLO breakdowns, tenant-id order. Empty unless the
    /// driving simulator armed tenant tracking (multi-tenant traces).
    pub per_tenant: Vec<TenantReport>,
    /// Windowed time-series rows ([`TimeseriesConfig`]); empty unless a
    /// time series was armed.
    pub timeseries: Vec<TimeseriesRow>,
    /// Re-dispatches after crash evictions and drain migrations. Zero
    /// unless an elastic-fleet run published [`FleetStats`] — together with
    /// the other fleet fields below, an all-zero/empty value here means the
    /// report is byte-identical to one from a build without the fault
    /// layer.
    pub retries: u64,
    /// Requests sent back through the routing tier by a crash or drain.
    pub requeued: u64,
    /// Requests evicted by replica crashes (in-flight or queued).
    pub evicted_by_crash: u64,
    /// Total replica uptime in hours (elastic runs; `0.0` otherwise).
    pub replica_hours: f64,
    /// Per-replica uptime fraction (empty unless an elastic run).
    pub replica_availability: Vec<f64>,
    /// Requests admitted with a prefix-cache hit. Zero unless a
    /// prefix-cache run published [`PrefixStats`] — like the fleet fields,
    /// all-zero here means the report is byte-identical to one from a build
    /// without the prefix tier.
    pub prefix_hits: u64,
    /// Prefill tokens skipped at admission thanks to cached prefixes.
    pub prefix_tokens_saved: u64,
    /// Fraction of completed requests admitted with a prefix-cache hit
    /// (`0.0` when the tier is off or nothing completed).
    pub prefix_hit_rate: f64,
}

#[derive(Debug, Clone, Copy)]
struct RequestRecord {
    arrival: SimTime,
    decode_tokens: u64,
    tenant: u32,
    first_scheduled: Option<SimTime>,
    prefill_done: Option<SimTime>,
    last_token: Option<SimTime>,
    completed: Option<SimTime>,
}

/// One finished request's derived latencies. Computed in exactly one place
/// ([`RequestRecord::latencies`]) and consumed by every sink — the
/// request-level distributions, the time-series windows and the per-tenant
/// breakdowns — so the defining formulas cannot drift apart.
#[derive(Debug, Clone, Copy)]
struct RequestLatencies {
    /// Arrival → first scheduling.
    sched_delay: f64,
    /// Arrival → prefill completion (`None` if the prefill never finished
    /// being observed, e.g. remotely-prefilled requests).
    ttft: Option<f64>,
    /// Arrival → completion.
    e2e: f64,
    /// `e2e` per output token.
    norm_e2e: f64,
    /// First-schedule → completion, per output token.
    norm_exec: f64,
}

impl RequestRecord {
    /// Derives the request's latency tuple; `None` until the request has
    /// both a first schedule and a completion (incomplete requests are
    /// excluded from every latency distribution).
    fn latencies(&self) -> Option<RequestLatencies> {
        let completed = self.completed?;
        let first_sched = self.first_scheduled?;
        let e2e = completed.duration_since(self.arrival).as_secs_f64();
        let exec = completed.duration_since(first_sched).as_secs_f64();
        Some(RequestLatencies {
            sched_delay: first_sched.duration_since(self.arrival).as_secs_f64(),
            ttft: self
                .prefill_done
                .map(|pd| pd.duration_since(self.arrival).as_secs_f64()),
            e2e,
            norm_e2e: e2e / self.decode_tokens as f64,
            norm_exec: exec / self.decode_tokens as f64,
        })
    }
}

/// Streaming metrics collector driven by the cluster simulator.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    /// Per-request records, id-indexed: simulators feed trace indices, so
    /// the slab beats a map on the per-slice hot paths. In mergeable mode
    /// records retire into `requests` as requests complete, and the slab's
    /// window slides past them, instead of accumulating until the report.
    records: IdSlab<RequestRecord>,
    tbt: LatencySink,
    /// Request-level sinks; their `mode` is the collector's
    /// [`QuantileMode`].
    requests: RequestSinks,
    /// Per-tenant accumulation, armed by [`MetricsCollector::set_tenants`];
    /// stays empty (and costs nothing) on single-tenant runs.
    tenants: Vec<TenantStat>,
    track_tenants: bool,
    tenant_slo: Option<TenantSlo>,
    /// Routing statistics published by the driving simulator's tier(s),
    /// tenant-id-indexed. Empty unless published.
    tenant_routing: Vec<TenantRoutingStats>,
    /// Elastic-fleet statistics published by the driving simulator. `None`
    /// unless an elastic run published them — the report then carries the
    /// all-zero defaults.
    fleet: Option<FleetStats>,
    /// Prefix-cache statistics published by the driving simulator. `None`
    /// unless a prefix-cache run published them.
    prefix: Option<PrefixStats>,
    completed: usize,
    last_completion: SimTime,
    total_batches: u64,
    total_tokens: u64,
    total_batch_requests: u64,
    flops: f64,
    bytes: f64,
    /// Per-replica KV occupancy integrals.
    kv: Vec<KvIntegral>,
    busy_gpu_secs: f64,
    op_secs: [f64; Operator::ALL.len()],
    late_limit_secs: Option<f64>,
    late_count: usize,
}

impl MetricsCollector {
    /// Creates a collector for `num_replicas` replicas with exact quantiles.
    pub fn new(num_replicas: usize) -> Self {
        MetricsCollector::with_mode(num_replicas, QuantileMode::Exact)
    }

    /// Creates a collector for `num_replicas` replicas in the given
    /// [`QuantileMode`].
    pub fn with_mode(num_replicas: usize, mode: QuantileMode) -> Self {
        MetricsCollector {
            records: IdSlab::new(),
            tbt: LatencySink::new(mode),
            requests: RequestSinks::new(mode),
            tenants: Vec::new(),
            track_tenants: false,
            tenant_slo: None,
            tenant_routing: Vec::new(),
            fleet: None,
            prefix: None,
            completed: 0,
            last_completion: SimTime::ZERO,
            total_batches: 0,
            total_tokens: 0,
            total_batch_requests: 0,
            flops: 0.0,
            bytes: 0.0,
            kv: vec![KvIntegral::default(); num_replicas],
            busy_gpu_secs: 0.0,
            op_secs: [0.0; Operator::ALL.len()],
            late_limit_secs: None,
            late_count: 0,
        }
    }

    /// Arms late-request tracking: requests whose first scheduling happens
    /// more than `limit_secs` after arrival increment
    /// [`late_count`](Self::late_count). Used by the capacity search to
    /// abort hopeless (overloaded) probes early instead of simulating the
    /// whole blow-up.
    pub fn set_late_limit(&mut self, limit_secs: f64) {
        self.late_limit_secs = Some(limit_secs);
    }

    /// Requests first-scheduled later than the armed limit.
    pub fn late_count(&self) -> usize {
        self.late_count
    }

    /// Arms windowed time-series reporting ([`TimeseriesConfig`]) in
    /// either quantile mode; an unarmed report carries no rows.
    ///
    /// # Panics
    ///
    /// Panics if the window is not positive, or if a KV sample was already
    /// recorded (the window integrals start at arming).
    pub fn set_timeseries(&mut self, config: TimeseriesConfig) {
        assert!(
            config.window_secs > 0.0,
            "time-series window must be positive"
        );
        assert!(
            self.kv.iter().all(|k| k.last.is_none()),
            "arm the time series before the first KV sample"
        );
        self.requests.window_secs = Some(config.window_secs);
    }

    /// Arms per-tenant breakdown reporting: `names` maps tenant ids to
    /// display names (requests referencing an index beyond the list get a
    /// synthesized `tenant-<id>` entry), `slo` enables attainment
    /// accounting. Simulators call this when the trace declares tenants;
    /// unarmed collectors skip all per-tenant work.
    pub fn set_tenants(&mut self, names: &[String], slo: Option<TenantSlo>) {
        self.track_tenants = true;
        self.tenant_slo = slo;
        self.tenants = names
            .iter()
            .map(|n| TenantStat::new(n.clone(), self.requests.mode))
            .collect();
    }

    /// Publishes per-tenant routing statistics (index = tenant id) for the
    /// report's per-tenant breakdown. No-op on collectors without tenant
    /// tracking — routing columns only appear on multi-tenant runs.
    pub fn set_tenant_routing(&mut self, stats: Vec<TenantRoutingStats>) {
        if self.track_tenants {
            self.tenant_routing = stats;
        }
    }

    /// Publishes elastic-fleet statistics for the report. Only elastic runs
    /// call this; without it the report's fleet fields keep their all-zero
    /// defaults and the report stays byte-identical to a build without the
    /// fault layer.
    pub fn set_fleet(&mut self, stats: FleetStats) {
        self.fleet = Some(stats);
    }

    /// Publishes prefix-cache statistics for the report. Only prefix-cache
    /// runs call this; without it the report's prefix fields keep their
    /// all-zero defaults and the report stays byte-identical to a build
    /// without the prefix tier.
    pub fn set_prefix(&mut self, stats: PrefixStats) {
        self.prefix = Some(stats);
    }

    /// Grows the per-tenant table to cover `tenant` and returns its entry.
    fn tenant_entry(&mut self, tenant: u32) -> &mut TenantStat {
        let idx = tenant as usize;
        while self.tenants.len() <= idx {
            let name = format!("tenant-{}", self.tenants.len());
            self.tenants.push(TenantStat::new(name, self.requests.mode));
        }
        &mut self.tenants[idx]
    }

    /// Accounts GPU-busy seconds for a scheduled batch (stage time x GPUs
    /// in the stage's TP group, summed over stages) into one cluster-wide
    /// accumulator, in event order. `_replica` is unused: every batch
    /// accumulator is global, and the parameter stays for callers that
    /// pass the batch's replica.
    pub fn on_gpu_busy(&mut self, _replica: usize, gpu_secs: f64) {
        self.busy_gpu_secs += gpu_secs;
    }

    /// Attributes one batch's per-operator time totals (indexed by
    /// [`Operator::index`]) in a single pass — the cached-timing replay
    /// path. `_replica` is unused, as in
    /// [`on_gpu_busy`](Self::on_gpu_busy).
    pub fn on_op_secs(&mut self, _replica: usize, secs: &[f64; Operator::ALL.len()]) {
        for (acc, s) in self.op_secs.iter_mut().zip(secs) {
            *acc += s;
        }
    }

    /// Registers an arriving request under its tenant (0 for single-tenant
    /// runs).
    pub fn on_arrival(&mut self, id: RequestId, arrival: SimTime, decode_tokens: u64, tenant: u32) {
        self.records.insert(
            id,
            RequestRecord {
                arrival,
                decode_tokens,
                tenant,
                first_scheduled: None,
                prefill_done: None,
                last_token: None,
                completed: None,
            },
        );
        if self.track_tenants {
            self.tenant_entry(tenant).arrived += 1;
        }
    }

    /// Marks requests in a freshly scheduled batch and accounts batch work.
    /// `_replica` is unused, as in [`on_gpu_busy`](Self::on_gpu_busy).
    pub fn on_batch_scheduled(
        &mut self,
        _replica: usize,
        now: SimTime,
        batch: &BatchComposition,
        flops: f64,
        bytes: f64,
    ) {
        self.on_batch_work(
            batch.total_query_tokens(),
            batch.num_requests() as u64,
            flops,
            bytes,
        );
        for slice in batch.slices() {
            // Fast-path filter only: decode slices belong to requests whose
            // first schedule already happened, so their record lookups are
            // skipped (the engine's batches are decode-dominated). Prefill
            // slices always consult the record — a prefix-cache hit's first
            // prefill arrives with `cached_tokens > 0` and must still mark
            // TTFT. Whether the request is *actually* newly scheduled is
            // decided by the record alone in `mark_first_scheduled` — a
            // chunked-prefill continuation or preemption-restarted prefill
            // re-enters here and must not count twice.
            if slice.is_prefill {
                self.mark_first_scheduled(slice.request_id, now);
            }
        }
    }

    /// Accounts one scheduled batch's aggregate work — the batch-shape-free
    /// half of [`on_batch_scheduled`](Self::on_batch_scheduled), split out
    /// so the sharded commit loop can replay it from an effect log without
    /// materializing the batch.
    pub(crate) fn on_batch_work(&mut self, tokens: u64, requests: u64, flops: f64, bytes: f64) {
        self.total_batches += 1;
        self.total_tokens += tokens;
        self.total_batch_requests += requests;
        self.flops += flops;
        self.bytes += bytes;
    }

    /// Single authority for first-schedule marking and late accounting: the
    /// record's `first_scheduled` field. Lateness is judged once, against
    /// the *original* first schedule, so the count cannot depend on slice
    /// order within a batch or on restarts after preemption.
    pub(crate) fn mark_first_scheduled(&mut self, id: RequestId, now: SimTime) {
        let Some(rec) = self.records.get_mut(&id) else {
            return;
        };
        if rec.first_scheduled.is_some() {
            return;
        }
        rec.first_scheduled = Some(now);
        if let Some(limit) = self.late_limit_secs {
            if now.saturating_duration_since(rec.arrival).as_secs_f64() > limit {
                self.late_count += 1;
            }
        }
    }

    /// Applies completion events from a finished batch. In mergeable mode,
    /// finished requests retire into the request-level sinks immediately
    /// and their records are dropped. `_replica` is unused, as in
    /// [`on_gpu_busy`](Self::on_gpu_busy).
    pub fn on_batch_complete(&mut self, _replica: usize, now: SimTime, events: &[CompletionEvent]) {
        for ev in events {
            let Some(rec) = self.records.get_mut(&ev.id) else {
                continue;
            };
            if ev.prefill_completed {
                rec.prefill_done = Some(now);
            }
            if ev.produced_token {
                if let Some(prev) = rec.last_token {
                    self.tbt.record(now.duration_since(prev).as_secs_f64());
                }
                rec.last_token = Some(now);
            }
            if ev.finished {
                rec.completed = Some(now);
                self.completed += 1;
                self.last_completion = self.last_completion.max(now);
                let done = *rec;
                if self.track_tenants {
                    self.note_tenant_completion(&done);
                }
                if self.requests.mode == QuantileMode::Mergeable {
                    self.requests.retire(&done);
                    self.records.remove(&ev.id);
                }
            }
        }
    }

    /// Streams one finished request's latencies into its tenant's sinks and
    /// judges the SLO (per-tenant quantiles are completion-ordered in either
    /// quantile mode).
    fn note_tenant_completion(&mut self, rec: &RequestRecord) {
        let Some(l) = rec.latencies() else {
            return;
        };
        let slo = self.tenant_slo;
        let stat = self.tenant_entry(rec.tenant);
        stat.completed += 1;
        if let Some(slo) = slo {
            let ttft_ok = l.ttft.is_none_or(|t| t <= slo.ttft_secs);
            if ttft_ok && l.norm_e2e <= slo.e2e_per_token_secs {
                stat.slo_met += 1;
            }
        }
        stat.e2e.record(l.e2e);
        if let Some(t) = l.ttft {
            stat.ttft.record(t);
        }
    }

    /// Records a replica's KV occupancy change.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range, or if `now` precedes the
    /// replica's previous sample.
    pub fn on_kv_sample(&mut self, replica: usize, now: SimTime, utilization: f64) {
        self.kv[replica].sample(
            now,
            utilization,
            self.last_completion,
            self.requests.window_secs,
        );
    }

    /// Completed request count so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Builds the final report.
    ///
    /// `num_requests` is the trace size, `peak_flops_total` and
    /// `peak_bandwidth_total` are cluster-wide peaks (per-GPU × GPU count),
    /// `preemptions` comes from the replica schedulers.
    pub fn into_report(
        mut self,
        num_requests: usize,
        peak_flops_total: f64,
        peak_bandwidth_total: f64,
        preemptions: u64,
        power: PowerSpec,
    ) -> SimulationReport {
        // Exact mode kept every record: fold them now, in request-id order.
        if self.requests.mode == QuantileMode::Exact {
            for rec in self.records.values() {
                self.requests.retire(rec);
            }
        }
        let makespan = self.last_completion.as_secs_f64();
        let kv_utilization = replica_mean(
            self.kv
                .iter()
                .filter_map(|k| k.mean_until(self.last_completion)),
        );
        let denom_time = makespan.max(f64::MIN_POSITIVE);
        // Energy: busy GPU-time at TDP, the rest of the cluster idling.
        let total_gpu_secs = makespan * power.total_gpus as f64;
        let busy = self.busy_gpu_secs.min(total_gpu_secs);
        let idle = total_gpu_secs - busy;
        let energy_joules = busy * power.tdp_watts + idle * power.idle_watts;
        let energy_kwh = energy_joules / 3.6e6;
        let mut operator_time_breakdown: Vec<(String, f64)> = Operator::ALL
            .iter()
            .zip(self.op_secs.iter())
            .filter(|(_, &secs)| secs > 0.0)
            .map(|(op, &secs)| (op.id().to_string(), secs))
            .collect();
        operator_time_breakdown.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN op times"));
        let tenant_slo = self.tenant_slo;
        let tenant_routing = &self.tenant_routing;
        let fleet = self.fleet.take().unwrap_or_default();
        let prefix = self.prefix.take().unwrap_or_default();
        let per_tenant = self
            .tenants
            .iter_mut()
            .enumerate()
            .map(|(idx, t)| {
                let routing = tenant_routing.get(idx).copied().unwrap_or_default();
                TenantReport {
                    tenant: std::mem::take(&mut t.name),
                    arrived: t.arrived,
                    completed: t.completed,
                    ttft: t.ttft.summarize(),
                    e2e: t.e2e.summarize(),
                    slo_attainment: tenant_slo.map(|_| {
                        if t.completed > 0 {
                            t.slo_met as f64 / t.completed as f64
                        } else {
                            0.0
                        }
                    }),
                    routed: routing.routed,
                    deferred: routing.deferred,
                    quota_denied: routing.quota_denied,
                    fair_share_attainment: routing.fair_share_attainment,
                    retries: fleet.tenant_retries.get(idx).copied().unwrap_or(0),
                    requeued: fleet.tenant_requeued.get(idx).copied().unwrap_or(0),
                    evicted_by_crash: fleet.tenant_evicted.get(idx).copied().unwrap_or(0),
                    prefix_hits: prefix.tenant_hits.get(idx).copied().unwrap_or(0),
                    prefix_tokens_saved: prefix.tenant_saved.get(idx).copied().unwrap_or(0),
                }
            })
            .collect();
        SimulationReport {
            num_requests,
            completed: self.completed,
            makespan_secs: makespan,
            throughput_qps: self.completed as f64 / denom_time,
            scheduling_delay: self.requests.sched_delay.summarize(),
            ttft: self.requests.ttft.summarize(),
            tbt: self.tbt.summarize(),
            normalized_e2e: self.requests.norm_e2e.summarize(),
            normalized_exec: self.requests.norm_exec.summarize(),
            e2e: self.requests.e2e.summarize(),
            mfu: (self.flops / (denom_time * peak_flops_total)).min(1.0),
            mbu: (self.bytes / (denom_time * peak_bandwidth_total)).min(1.0),
            kv_utilization,
            preemptions,
            total_batches: self.total_batches,
            total_tokens: self.total_tokens,
            mean_batch_tokens: self.total_tokens as f64 / self.total_batches.max(1) as f64,
            mean_batch_size: self.total_batch_requests as f64 / self.total_batches.max(1) as f64,
            energy_kwh,
            mean_power_watts: energy_joules / denom_time,
            energy_wh_per_request: if self.completed > 0 {
                energy_joules / 3.6e3 / self.completed as f64
            } else {
                0.0
            },
            operator_time_breakdown,
            per_tenant,
            timeseries: self.requests.timeseries(&self.kv),
            retries: fleet.retries,
            requeued: fleet.requeued,
            evicted_by_crash: fleet.evicted_by_crash,
            replica_hours: fleet.replica_hours,
            replica_availability: fleet.replica_availability,
            prefix_hits: prefix.hit_requests,
            prefix_tokens_saved: prefix.tokens_saved,
            prefix_hit_rate: if prefix.hit_requests > 0 && self.completed > 0 {
                prefix.hit_requests as f64 / self.completed as f64
            } else {
                0.0
            },
        }
    }
}

/// Cluster power characteristics for energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSpec {
    /// Per-GPU power at full load, watts.
    pub tdp_watts: f64,
    /// Per-GPU idle power, watts.
    pub idle_watts: f64,
    /// GPUs in the cluster.
    pub total_gpus: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vidur_model::batch::RequestSlice;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn test_power() -> PowerSpec {
        PowerSpec {
            tdp_watts: 400.0,
            idle_watts: 60.0,
            total_gpus: 1,
        }
    }

    #[test]
    fn digest_summary_orders() {
        let mut d: QuantileDigest = (1..=100).map(|i| i as f64).collect();
        let s = DigestSummary::from_digest(&mut d);
        assert!(s.p50 < s.p90 && s.p90 < s.p95 && s.p95 < s.p99 && s.p99 <= s.max);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn empty_digest_summary_is_zero() {
        let s = DigestSummary::from_digest(&mut QuantileDigest::new());
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn full_request_lifecycle_metrics() {
        let mut m = MetricsCollector::new(1);
        m.on_arrival(1, t(0.0), 3, 0);
        let prefill = BatchComposition::new(vec![RequestSlice::prefill(1, 100, 0)]);
        m.on_batch_scheduled(0, t(1.0), &prefill, 1e12, 1e9);
        m.on_batch_complete(
            0,
            t(2.0),
            &[CompletionEvent {
                id: 1,
                prefill_completed: true,
                produced_token: true,
                finished: false,
            }],
        );
        // Two decode iterations at 2.5 and 3.0.
        for (at, fin) in [(2.5, false), (3.0, true)] {
            let d = BatchComposition::new(vec![RequestSlice::decode(1, 101)]);
            m.on_batch_scheduled(0, t(at - 0.5), &d, 1e11, 1e9);
            m.on_batch_complete(
                0,
                t(at),
                &[CompletionEvent {
                    id: 1,
                    prefill_completed: false,
                    produced_token: true,
                    finished: fin,
                }],
            );
        }
        let r = m.into_report(1, 1e15, 1e13, 0, test_power());
        assert_eq!(r.completed, 1);
        assert!((r.scheduling_delay.p50 - 1.0).abs() < 1e-9);
        assert!((r.ttft.p50 - 2.0).abs() < 1e-9);
        // TBT: 0.5 (2.0→2.5) and 0.5 (2.5→3.0).
        assert!((r.tbt.p50 - 0.5).abs() < 1e-9);
        assert!((r.e2e.p50 - 3.0).abs() < 1e-9);
        assert!((r.normalized_e2e.p50 - 1.0).abs() < 1e-9);
        // Exec = 3.0 - 1.0 = 2.0 over 3 tokens.
        assert!((r.normalized_exec.p50 - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.total_batches, 3);
        assert_eq!(r.total_tokens, 102);
        assert!(r.mfu > 0.0 && r.mfu < 1.0);
    }

    #[test]
    fn incomplete_requests_excluded() {
        let mut m = MetricsCollector::new(1);
        m.on_arrival(1, t(0.0), 5, 0);
        m.on_arrival(2, t(0.0), 5, 0);
        let b = BatchComposition::new(vec![RequestSlice::prefill(1, 10, 0)]);
        m.on_batch_scheduled(0, t(0.1), &b, 0.0, 0.0);
        m.on_batch_complete(
            0,
            t(0.2),
            &[CompletionEvent {
                id: 1,
                prefill_completed: true,
                produced_token: true,
                finished: false,
            }],
        );
        let r = m.into_report(2, 1e15, 1e13, 0, test_power());
        assert_eq!(r.completed, 0);
        assert_eq!(r.num_requests, 2);
        assert_eq!(r.e2e.mean, 0.0);
    }

    #[test]
    fn late_count_is_first_schedule_only_and_order_independent() {
        // Lateness is judged once, at the ORIGINAL first schedule; a
        // preemption-restarted prefill chunk (same slice shape: prefill with
        // cached_tokens == 0) must not re-judge it, however late it runs.
        let mut m = MetricsCollector::new(1);
        m.set_late_limit(1.0);
        m.on_arrival(1, t(0.0), 5, 0);
        m.on_arrival(2, t(0.0), 5, 0);
        // Request 1 first-scheduled on time, request 2 late — slice order
        // within the batch must not matter, so put the late one first.
        let b = BatchComposition::new(vec![
            RequestSlice::prefill(2, 10, 0),
            RequestSlice::prefill(1, 10, 0),
        ]);
        m.on_batch_scheduled(0, t(0.5), &b, 0.0, 0.0);
        assert_eq!(m.late_count(), 0);
        let late = BatchComposition::new(vec![RequestSlice::prefill(3, 10, 0)]);
        m.on_arrival(3, t(0.0), 5, 0);
        m.on_batch_scheduled(0, t(5.0), &late, 0.0, 0.0);
        assert_eq!(m.late_count(), 1, "request 3 was first-scheduled late");
        // Restart chunks of requests 1 and 3 re-enter arbitrarily late:
        // neither may bump the counter (1 was on time; 3 already counted).
        let restart = BatchComposition::new(vec![
            RequestSlice::prefill(1, 10, 0),
            RequestSlice::prefill(3, 10, 0),
        ]);
        m.on_batch_scheduled(0, t(100.0), &restart, 0.0, 0.0);
        assert_eq!(m.late_count(), 1, "restarts must not re-judge lateness");
        // Decode and continuation slices never mark at all.
        let cont = BatchComposition::new(vec![
            RequestSlice::prefill(2, 10, 10),
            RequestSlice::decode(1, 20),
        ]);
        m.on_batch_scheduled(0, t(200.0), &cont, 0.0, 0.0);
        assert_eq!(m.late_count(), 1);
    }

    #[test]
    fn kv_utilization_averages_replicas() {
        let mut m = MetricsCollector::new(2);
        m.on_kv_sample(0, t(0.0), 0.2);
        m.on_kv_sample(1, t(0.0), 0.6);
        m.on_arrival(1, t(0.0), 1, 0);
        let b = BatchComposition::new(vec![RequestSlice::prefill(1, 10, 0)]);
        m.on_batch_scheduled(0, t(0.0), &b, 0.0, 0.0);
        m.on_batch_complete(
            0,
            t(1.0),
            &[CompletionEvent {
                id: 1,
                prefill_completed: true,
                produced_token: true,
                finished: true,
            }],
        );
        let r = m.into_report(1, 1e15, 1e13, 3, test_power());
        assert!((r.kv_utilization - 0.4).abs() < 1e-9);
        assert_eq!(r.preemptions, 3);
    }

    /// The change-point list the collector kept before [`KvIntegral`]: every
    /// sample stored, rescanned at report time. The reference the running
    /// integrals must match bit for bit.
    #[derive(Default)]
    struct PointList {
        points: Vec<(SimTime, f64)>,
    }

    impl PointList {
        fn record(&mut self, time: SimTime, value: f64) {
            if let Some(&(last, _)) = self.points.last() {
                assert!(time >= last, "series updates must be in time order");
            }
            self.points.push((time, value));
        }

        fn time_weighted_mean(&self, end: SimTime) -> Option<f64> {
            let first = self.points.first()?.0;
            if end <= first {
                return None;
            }
            let total = end.duration_since(first).as_secs_f64();
            let mut acc = 0.0;
            for w in self.points.windows(2) {
                let (t0, v) = w[0];
                let t1 = w[1].0.min(end);
                if t1 > t0 {
                    acc += v * t1.duration_since(t0).as_secs_f64();
                }
                if w[1].0 >= end {
                    return Some(acc / total);
                }
            }
            let (t_last, v_last) = *self.points.last()?;
            if end > t_last {
                acc += v_last * end.duration_since(t_last).as_secs_f64();
            }
            Some(acc / total)
        }

        fn window_mean(&self, start: SimTime, end: SimTime) -> Option<f64> {
            let first = self.points.first()?.0;
            let lo = start.max(first);
            if end <= lo {
                return None;
            }
            let total = end.duration_since(lo).as_secs_f64();
            let mut acc = 0.0;
            for w in self.points.windows(2) {
                let t0 = w[0].0.max(lo);
                let t1 = w[1].0.min(end);
                if t1 > t0 {
                    acc += w[0].1 * t1.duration_since(t0).as_secs_f64();
                }
                if w[1].0 >= end {
                    return Some(acc / total);
                }
            }
            let (t_last, v_last) = *self.points.last()?;
            let t0 = t_last.max(lo);
            if end > t0 {
                acc += v_last * end.duration_since(t0).as_secs_f64();
            }
            Some(acc / total)
        }
    }

    /// Window widths whose rounded bounds part (1.0005 µs: window 34 ends
    /// a nanosecond before window 35 starts) or overlap (2.5 ns: window 48
    /// ends a nanosecond after window 49 starts), plus a plain one.
    const ODD_WIDTHS: [f64; 3] = [1.0005e-6, 2.5e-9, 7.3e-7];

    #[test]
    fn odd_window_widths_part_and_overlap() {
        assert!(window_bounds(34, ODD_WIDTHS[0]).1 < window_bounds(35, ODD_WIDTHS[0]).0);
        assert!(window_bounds(48, ODD_WIDTHS[1]).1 > window_bounds(49, ODD_WIDTHS[1]).0);
    }

    proptest::proptest! {
        /// Drives a [`KvIntegral`] and a [`PointList`] with one stream of
        /// samples and completions (same-instant samples included) and
        /// checks the full-run mean, clipped at the last completion, and
        /// every window's mean bit for bit.
        #[test]
        fn kv_integrals_match_point_list(
            width in 0usize..3,
            steps in proptest::collection::vec((0u32..6, 0u64..3_000, 0u32..1_000), 1..80),
        ) {
            let w = ODD_WIDTHS[width];
            let max_gap = (w * 3e9) as u64 + 2;
            let mut kv = KvIntegral::default();
            let mut points = PointList::default();
            let (mut now, mut last_completion) = (0u64, SimTime::ZERO);
            for (kind, gap, value) in steps {
                // Kind 0 is a completion, 1 a sample at the previous
                // instant, and the rest samples after a gap.
                if kind != 1 {
                    now += gap % max_gap;
                }
                let t = SimTime::from_nanos(now);
                if kind == 0 {
                    last_completion = t;
                    continue;
                }
                let value = value as f64 / 1_000.0;
                kv.sample(t, value, last_completion, Some(w));
                points.record(t, value);
            }
            proptest::prop_assert_eq!(
                kv.mean_until(last_completion).map(f64::to_bits),
                points.time_weighted_mean(last_completion).map(f64::to_bits)
            );
            let windows = (SimTime::from_nanos(now).as_secs_f64() / w) as usize + 3;
            for i in 0..windows {
                let (start, end) = window_bounds(i, w);
                proptest::prop_assert_eq!(
                    kv.window_mean(i, start, end).map(f64::to_bits),
                    points.window_mean(start, end).map(f64::to_bits),
                    "window {}", i
                );
            }
        }

        #[test]
        fn series_mean_bounded(vals in proptest::collection::vec(0f64..100.0, 1..50)) {
            let mut kv = KvIntegral::default();
            for (i, &v) in vals.iter().enumerate() {
                kv.sample(t(i as f64), v, SimTime::ZERO, None);
            }
            let m = kv.mean_until(t(vals.len() as f64)).unwrap();
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            proptest::prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }

    /// Samples `(secs, value)` pairs with no completion in between.
    fn sampled(points: &[(f64, f64)], window_secs: Option<f64>) -> KvIntegral {
        let mut kv = KvIntegral::default();
        for &(at, v) in points {
            kv.sample(t(at), v, SimTime::ZERO, window_secs);
        }
        kv
    }

    #[test]
    fn series_mean_with_tail() {
        // 2.0 for 1s, then 4.0 held for 3s => (2 + 12) / 4
        let kv = sampled(&[(0.0, 2.0), (1.0, 4.0)], None);
        let m = kv.mean_until(t(4.0)).unwrap();
        assert!((m - 3.5).abs() < 1e-9);
    }

    #[test]
    fn series_end_before_start() {
        let kv = sampled(&[(5.0, 1.0)], None);
        assert_eq!(kv.mean_until(t(2.0)), None);
        // A completion at the first sample clips the span to nothing.
        let mut kv = KvIntegral::default();
        kv.sample(t(1.0), 1.0, t(1.0), None);
        kv.sample(t(2.0), 3.0, t(1.0), None);
        assert_eq!(kv.mean_until(t(1.0)), None);
    }

    #[test]
    fn series_end_mid_window() {
        // The last completion is at 4s; the sample at 10s comes from a batch
        // launched after it, so the mean clips there: 1.0 for 2s + 3.0 for
        // 2s over 4s.
        let mut kv = KvIntegral::default();
        kv.sample(t(0.0), 1.0, SimTime::ZERO, None);
        kv.sample(t(2.0), 3.0, SimTime::ZERO, None);
        kv.sample(t(10.0), 100.0, t(4.0), None);
        let m = kv.mean_until(t(4.0)).unwrap();
        assert!((m - 2.0).abs() < 1e-9);
    }

    #[test]
    fn series_window_mean() {
        let kv = sampled(&[(1.0, 2.0), (3.0, 6.0)], Some(2.0));
        let mean = |i: usize| {
            let (start, end) = window_bounds(i, 2.0);
            kv.window_mean(i, start, end)
        };
        // Window [0, 2) starts at the first sample: 2.0 for 1s.
        assert!((mean(0).unwrap() - 2.0).abs() < 1e-9);
        // Window [2, 4): 2.0 for 1s + 6.0 held for 1s.
        assert!((mean(1).unwrap() - 4.0).abs() < 1e-9);
        // A window past the last sample takes the held value.
        assert!((mean(5).unwrap() - 6.0).abs() < 1e-9);
        // A window before the first sample, and an unsampled replica.
        let late = sampled(&[(5.0, 1.0)], Some(2.0));
        assert_eq!(late.window_mean(1, t(2.0), t(4.0)), None);
        assert_eq!(
            KvIntegral::default().window_mean(0, SimTime::ZERO, SimTime::MAX),
            None
        );
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn series_rejects_backwards_time() {
        sampled(&[(1.0, 0.0), (0.0, 0.0)], None);
    }

    /// Drives one finished request for `tenant` through a tenant-armed
    /// collector: scheduled at 1s, prefill done at `ttft`, finished at
    /// `e2e` (3 output tokens).
    fn drive_tenant_request(m: &mut MetricsCollector, id: u64, tenant: u32, ttft: f64, e2e: f64) {
        m.on_arrival(id, t(0.0), 3, tenant);
        let b = BatchComposition::new(vec![RequestSlice::prefill(id, 10, 0)]);
        m.on_batch_scheduled(0, t(1.0), &b, 0.0, 0.0);
        m.on_batch_complete(
            0,
            t(ttft),
            &[CompletionEvent {
                id,
                prefill_completed: true,
                produced_token: true,
                finished: false,
            }],
        );
        m.on_batch_complete(
            0,
            t(e2e),
            &[CompletionEvent {
                id,
                prefill_completed: false,
                produced_token: true,
                finished: true,
            }],
        );
    }

    #[test]
    fn per_tenant_breakdown_and_slo() {
        for mode in [QuantileMode::Exact, QuantileMode::Mergeable] {
            let mut m = MetricsCollector::with_mode(1, mode);
            m.set_tenants(
                &["gold".to_string(), "bulk".to_string()],
                Some(TenantSlo {
                    ttft_secs: 3.0,
                    e2e_per_token_secs: 2.0,
                }),
            );
            // gold: two requests, one blows the TTFT SLO.
            drive_tenant_request(&mut m, 1, 0, 2.0, 4.0);
            drive_tenant_request(&mut m, 2, 0, 5.0, 7.0);
            // bulk: one request within SLO; a second never completes.
            drive_tenant_request(&mut m, 3, 1, 2.5, 5.5);
            m.on_arrival(4, t(0.0), 3, 1);
            let r = m.into_report(4, 1e15, 1e13, 0, test_power());
            assert_eq!(r.per_tenant.len(), 2, "{mode:?}");
            let gold = &r.per_tenant[0];
            assert_eq!(gold.tenant, "gold");
            assert_eq!((gold.arrived, gold.completed), (2, 2));
            assert!((gold.ttft.max - 5.0).abs() < 1e-9);
            assert!((gold.e2e.mean - 5.5).abs() < 1e-9);
            assert_eq!(gold.slo_attainment, Some(0.5));
            let bulk = &r.per_tenant[1];
            assert_eq!((bulk.arrived, bulk.completed), (2, 1));
            assert_eq!(bulk.slo_attainment, Some(1.0));
        }
    }

    #[test]
    fn undeclared_tenant_ids_grow_the_table() {
        let mut m = MetricsCollector::new(1);
        m.set_tenants(&["only".to_string()], None);
        drive_tenant_request(&mut m, 1, 2, 2.0, 4.0);
        let r = m.into_report(1, 1e15, 1e13, 0, test_power());
        assert_eq!(r.per_tenant.len(), 3);
        assert_eq!(r.per_tenant[1].tenant, "tenant-1");
        assert_eq!(r.per_tenant[2].tenant, "tenant-2");
        assert_eq!(r.per_tenant[2].completed, 1);
        assert_eq!(r.per_tenant[2].slo_attainment, None);
    }

    #[test]
    fn unarmed_collector_reports_no_tenants() {
        let mut m = MetricsCollector::new(1);
        drive_tenant_request(&mut m, 1, 0, 2.0, 4.0);
        let r = m.into_report(1, 1e15, 1e13, 0, test_power());
        assert!(r.per_tenant.is_empty());
    }

    /// Drives one finished request through the given replica: arrives at
    /// `base`, scheduled +1s, prefill done +2s, finished +3s (3 output
    /// tokens, two decode iterations).
    fn drive_replica_request(m: &mut MetricsCollector, id: u64, replica: usize, base: f64) {
        m.on_arrival(id, t(base), 3, 0);
        let b = BatchComposition::new(vec![RequestSlice::prefill(id, 10, 0)]);
        m.on_batch_scheduled(replica, t(base + 1.0), &b, 1e12, 1e9);
        m.on_gpu_busy(replica, 0.5);
        m.on_batch_complete(
            replica,
            t(base + 2.0),
            &[CompletionEvent {
                id,
                prefill_completed: true,
                produced_token: true,
                finished: false,
            }],
        );
        m.on_batch_complete(
            replica,
            t(base + 3.0),
            &[CompletionEvent {
                id,
                prefill_completed: false,
                produced_token: true,
                finished: true,
            }],
        );
        m.on_kv_sample(replica, t(base + 3.0), 0.5);
    }

    #[test]
    fn both_modes_report_timeseries_when_armed() {
        for mode in [QuantileMode::Exact, QuantileMode::Mergeable] {
            let mut m = MetricsCollector::with_mode(2, mode);
            m.set_timeseries(TimeseriesConfig { window_secs: 1.0 });
            drive_replica_request(&mut m, 0, 0, 0.0);
            drive_replica_request(&mut m, 1, 1, 0.5);
            // Mergeable mode retires finished records as they complete;
            // exact mode keeps them for the report.
            let retained = if mode == QuantileMode::Exact { 2 } else { 0 };
            assert_eq!(m.records.len(), retained, "{mode:?}");
            let r = m.into_report(2, 1e15, 1e13, 0, test_power());
            assert_eq!(r.completed, 2, "{mode:?}");
            // Completions at 3.0 and 3.5 → windows [3,4) holds both.
            assert_eq!(r.timeseries.len(), 4, "{mode:?}");
            assert_eq!(r.timeseries[3].completed, 2, "{mode:?}");
            assert!((r.timeseries[3].throughput_qps - 2.0).abs() < 1e-9);
            // Both requests' TTFT is 2s.
            assert!((r.timeseries[3].ttft_p99 - 2.0).abs() < 1e-9, "{mode:?}");
            assert_eq!(r.timeseries[0].completed, 0, "{mode:?}");
            assert!(
                (r.timeseries[3].kv_occupancy - 0.5).abs() < 1e-9,
                "{mode:?}"
            );
            // Latency means use exact sums: both requests share the shape.
            assert!((r.ttft.mean - 2.0).abs() < 1e-9, "{mode:?}");
            assert!((r.e2e.mean - 3.0).abs() < 1e-9, "{mode:?}");
            assert!((r.scheduling_delay.mean - 1.0).abs() < 1e-9, "{mode:?}");
        }
        // Unarmed, an exact report carries no rows, so the pinned exact
        // reports are unchanged.
        let mut m = MetricsCollector::new(2);
        drive_replica_request(&mut m, 0, 0, 0.0);
        let r = m.into_report(1, 1e15, 1e13, 0, test_power());
        assert!(r.timeseries.is_empty());
    }
}
