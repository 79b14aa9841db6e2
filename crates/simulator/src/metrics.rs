//! Request- and cluster-level metrics (paper §5.2).
//!
//! Request-level: scheduling delay, TTFT, TBT, end-to-end and execution
//! latency (both normalized by output length, the metric of §7.2).
//! Cluster-level: throughput, MFU, MBU, mean KV-cache utilization, batch
//! statistics, and preemption counts.

use serde::{Deserialize, Serialize};
use vidur_core::mergeable::{HyperLogLog, TDigest};
use vidur_core::metrics::{QuantileDigest, QuantileMode, TimeWeightedSeries};
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
    pub fn from_digest(d: &mut QuantileDigest) -> Self {
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

/// The mergeable latency sink: a deterministic t-digest for quantiles plus
/// an exact running sum (kept outside the digest — the digest's state must
/// be a pure function of the sample multiset, and an internal f64 sum
/// would not be). One `MergeSink` is only ever written by a single replica
/// stream, so its sum and digest are bit-reproducible; cross-replica
/// aggregation goes through [`MergeSink::merge`] in replica-index order.
#[derive(Debug, Clone, Default)]
struct MergeSink {
    digest: TDigest,
    sum: f64,
}

impl MergeSink {
    fn new() -> Self {
        MergeSink::default()
    }

    /// Folds another sink into this one. Digest centroids concatenate
    /// (canonical compression happens once, inside `summarize`); the sum
    /// add is exact in the single-writer discipline because one side is
    /// always untouched (`x + 0.0 == x` for the non-negative latencies
    /// recorded here).
    fn merge(&mut self, other: &MergeSink) {
        self.digest.merge(&other.digest);
        self.sum += other.sum;
    }

    /// Folds one sample into the sink.
    fn record(&mut self, value: f64) {
        self.digest.record(value);
        self.sum += value;
    }

    /// Summarizes everything recorded so far (zeros if empty), sealing the
    /// digest for quantile reads.
    fn summarize(&mut self) -> DigestSummary {
        if self.digest.is_empty() {
            return DigestSummary::default();
        }
        self.digest.seal();
        DigestSummary {
            mean: self.sum / self.digest.count() as f64,
            p50: self.digest.quantile(0.5).unwrap_or(0.0),
            p90: self.digest.quantile(0.9).unwrap_or(0.0),
            p95: self.digest.quantile(0.95).unwrap_or(0.0),
            p99: self.digest.quantile(0.99).unwrap_or(0.0),
            max: self.digest.max().unwrap_or(0.0),
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

/// Per-tenant accumulation state. The latency digests fill in exact mode
/// only; mergeable mode folds tenant latencies into per-replica slots
/// ([`TenantFold`]) and leaves them empty (unallocated).
#[derive(Debug, Clone)]
struct TenantStat {
    name: String,
    arrived: usize,
    completed: usize,
    slo_met: usize,
    ttft: QuantileDigest,
    e2e: QuantileDigest,
}

impl TenantStat {
    fn new(name: String) -> Self {
        TenantStat {
            name,
            arrived: 0,
            completed: 0,
            slo_met: 0,
            ttft: QuantileDigest::new(),
            e2e: QuantileDigest::new(),
        }
    }
}

/// Windowed time-series output configuration (mergeable mode only): the
/// report gains one [`TimeseriesRow`] per `window_secs` of simulated time,
/// so long diurnal runs yield a trajectory, not just end-of-run aggregates.
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

/// Per-tenant mergeable latency slots (one set per replica).
#[derive(Debug, Clone, Default)]
struct TenantFold {
    ttft: MergeSink,
    e2e: MergeSink,
}

/// One time-series window's per-replica state.
#[derive(Debug, Clone, Default)]
struct WindowFold {
    completed: u64,
    ttft: TDigest,
}

/// One replica's slice of the mergeable fold. Every `f64` accumulator and
/// every digest is keyed by the replica that produced it — the
/// single-writer discipline that makes the whole collector a pure fold:
/// a replica's event stream is identical under any shard count, so each
/// slot's bits are identical, and the report folds slots in replica-index
/// order. Only commutative integer state (counts, maxima) lives outside
/// these slots.
#[derive(Debug, Clone)]
struct ReplicaFold {
    busy_gpu_secs: f64,
    flops: f64,
    bytes: f64,
    op_secs: [f64; Operator::ALL.len()],
    tbt: MergeSink,
    sched_delay: MergeSink,
    ttft: MergeSink,
    norm_e2e: MergeSink,
    norm_exec: MergeSink,
    e2e: MergeSink,
    /// Tenant-id-indexed latency slots; grows on demand.
    tenants: Vec<TenantFold>,
    /// Window-indexed time-series state; grows on demand.
    windows: Vec<WindowFold>,
}

impl ReplicaFold {
    fn new() -> Self {
        ReplicaFold {
            busy_gpu_secs: 0.0,
            flops: 0.0,
            bytes: 0.0,
            op_secs: [0.0; Operator::ALL.len()],
            tbt: MergeSink::new(),
            sched_delay: MergeSink::new(),
            ttft: MergeSink::new(),
            norm_e2e: MergeSink::new(),
            norm_exec: MergeSink::new(),
            e2e: MergeSink::new(),
            tenants: Vec::new(),
            windows: Vec::new(),
        }
    }

    fn tenant_entry(&mut self, idx: usize) -> &mut TenantFold {
        while self.tenants.len() <= idx {
            self.tenants.push(TenantFold::default());
        }
        &mut self.tenants[idx]
    }

    /// Folds another replica slot into this one. Exact for the f64 fields
    /// under the single-writer discipline (one side is always zero).
    fn merge(&mut self, other: &ReplicaFold) {
        self.busy_gpu_secs += other.busy_gpu_secs;
        self.flops += other.flops;
        self.bytes += other.bytes;
        for (acc, s) in self.op_secs.iter_mut().zip(&other.op_secs) {
            *acc += s;
        }
        self.tbt.merge(&other.tbt);
        self.sched_delay.merge(&other.sched_delay);
        self.ttft.merge(&other.ttft);
        self.norm_e2e.merge(&other.norm_e2e);
        self.norm_exec.merge(&other.norm_exec);
        self.e2e.merge(&other.e2e);
        for (idx, tf) in other.tenants.iter().enumerate() {
            let mine = self.tenant_entry(idx);
            mine.ttft.merge(&tf.ttft);
            mine.e2e.merge(&tf.e2e);
        }
        while self.windows.len() < other.windows.len() {
            self.windows.push(WindowFold::default());
        }
        for (mine, w) in self.windows.iter_mut().zip(&other.windows) {
            mine.completed += w.completed;
            mine.ttft.merge(&w.ttft);
        }
    }
}

/// The collector-wide mergeable state: per-replica single-writer slots plus
/// the distinct-tenant sketch (insertion-order-invariant by construction).
/// `Some` iff the collector runs in [`QuantileMode::Mergeable`].
#[derive(Debug, Clone)]
struct MergeableState {
    replicas: Vec<ReplicaFold>,
    distinct_tenants: HyperLogLog,
    window_secs: Option<f64>,
}

impl MergeableState {
    fn new(num_replicas: usize) -> Self {
        MergeableState {
            replicas: vec![ReplicaFold::new(); num_replicas],
            distinct_tenants: HyperLogLog::new(),
            window_secs: None,
        }
    }

    /// Retires one finished request into `replica`'s slots (and its
    /// completion-time window when the time series is armed).
    fn on_completion(&mut self, replica: usize, now: SimTime, rec: &RequestRecord) {
        let lat = rec.latencies();
        let r = &mut self.replicas[replica];
        if let Some(w) = self.window_secs {
            let idx = (now.as_secs_f64() / w) as usize;
            while r.windows.len() <= idx {
                r.windows.push(WindowFold::default());
            }
            let win = &mut r.windows[idx];
            win.completed += 1;
            if let Some(t) = lat.as_ref().and_then(|l| l.ttft) {
                win.ttft.record(t);
            }
        }
        let Some(l) = lat else {
            return;
        };
        r.sched_delay.record(l.sched_delay);
        if let Some(t) = l.ttft {
            r.ttft.record(t);
        }
        r.e2e.record(l.e2e);
        r.norm_e2e.record(l.norm_e2e);
        r.norm_exec.record(l.norm_exec);
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
    /// Windowed time-series rows ([`TimeseriesConfig`]). Only populated in
    /// [`QuantileMode::Mergeable`] with a time series armed; empty
    /// otherwise.
    pub timeseries: Vec<TimeseriesRow>,
    /// HyperLogLog estimate of distinct tenant ids seen across arrivals.
    /// `Some` only in [`QuantileMode::Mergeable`].
    pub distinct_tenants_est: Option<f64>,
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
/// ([`RequestRecord::latencies`]) and consumed by every sink — the exact
/// end-of-run pass, the mergeable-mode fold, and the per-tenant
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
    /// Per-request records, id-indexed: simulators feed dense trace
    /// indices, so the slab beats a map on the per-slice hot paths. In
    /// mergeable mode records retire into the fold as requests complete
    /// instead of accumulating until the final report.
    records: IdSlab<RequestRecord>,
    /// Exact mode's TBT samples; stays empty in mergeable mode.
    tbt: QuantileDigest,
    /// `Some` iff the collector runs in [`QuantileMode::Mergeable`]: the
    /// per-replica fold slots everything mergeable accumulates into.
    fold: Option<MergeableState>,
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
    kv_series: Vec<TimeWeightedSeries>,
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
            tbt: QuantileDigest::new(),
            fold: (mode == QuantileMode::Mergeable).then(|| MergeableState::new(num_replicas)),
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
            kv_series: vec![TimeWeightedSeries::new(); num_replicas],
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

    /// Arms windowed time-series reporting ([`TimeseriesConfig`]). Only
    /// effective in [`QuantileMode::Mergeable`] — exact mode's reports are
    /// pinned bit-exactly and carry no rows; arming it is a no-op.
    pub fn set_timeseries(&mut self, config: TimeseriesConfig) {
        assert!(
            config.window_secs > 0.0,
            "time-series window must be positive"
        );
        if let Some(fold) = self.fold.as_mut() {
            fold.window_secs = Some(config.window_secs);
        }
    }

    /// Arms per-tenant breakdown reporting: `names` maps tenant ids to
    /// display names (requests referencing an index beyond the list get a
    /// synthesized `tenant-<id>` entry), `slo` enables attainment
    /// accounting. Simulators call this when the trace declares tenants;
    /// unarmed collectors skip all per-tenant work.
    pub fn set_tenants(&mut self, names: &[String], slo: Option<TenantSlo>) {
        self.track_tenants = true;
        self.tenant_slo = slo;
        self.tenants = names.iter().map(|n| TenantStat::new(n.clone())).collect();
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
            self.tenants.push(TenantStat::new(name));
        }
        &mut self.tenants[idx]
    }

    /// Accounts GPU-busy seconds for a scheduled batch (stage time x GPUs
    /// in the stage's TP group, summed over stages). `replica` keys the
    /// mergeable fold's single-writer slot; exact mode keeps one global
    /// accumulator (bit-compatible with the pre-replica behavior).
    pub fn on_gpu_busy(&mut self, replica: usize, gpu_secs: f64) {
        match self.fold.as_mut() {
            Some(fold) => fold.replicas[replica].busy_gpu_secs += gpu_secs,
            None => self.busy_gpu_secs += gpu_secs,
        }
    }

    /// Attributes one batch's per-operator time totals (indexed by
    /// [`Operator::index`]) in a single pass — the cached-timing replay
    /// path.
    pub fn on_op_secs(&mut self, replica: usize, secs: &[f64; Operator::ALL.len()]) {
        let acc = match self.fold.as_mut() {
            Some(fold) => &mut fold.replicas[replica].op_secs,
            None => &mut self.op_secs,
        };
        for (acc, s) in acc.iter_mut().zip(secs) {
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
        if let Some(fold) = self.fold.as_mut() {
            fold.distinct_tenants.insert(tenant as u64);
        }
        if self.track_tenants {
            self.tenant_entry(tenant).arrived += 1;
        }
    }

    /// Marks requests in a freshly scheduled batch and accounts batch work.
    pub fn on_batch_scheduled(
        &mut self,
        replica: usize,
        now: SimTime,
        batch: &BatchComposition,
        flops: f64,
        bytes: f64,
    ) {
        self.on_batch_work(
            replica,
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
    pub(crate) fn on_batch_work(
        &mut self,
        replica: usize,
        tokens: u64,
        requests: u64,
        flops: f64,
        bytes: f64,
    ) {
        self.total_batches += 1;
        self.total_tokens += tokens;
        self.total_batch_requests += requests;
        match self.fold.as_mut() {
            Some(fold) => {
                let r = &mut fold.replicas[replica];
                r.flops += flops;
                r.bytes += bytes;
            }
            None => {
                self.flops += flops;
                self.bytes += bytes;
            }
        }
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
    /// finished requests fold their request-level latencies into the
    /// replica's slots immediately and their records are dropped.
    pub fn on_batch_complete(&mut self, replica: usize, now: SimTime, events: &[CompletionEvent]) {
        for ev in events {
            let Some(rec) = self.records.get_mut(&ev.id) else {
                continue;
            };
            if ev.prefill_completed {
                rec.prefill_done = Some(now);
            }
            if ev.produced_token {
                if let Some(prev) = rec.last_token {
                    let tbt = now.duration_since(prev).as_secs_f64();
                    match self.fold.as_mut() {
                        Some(fold) => fold.replicas[replica].tbt.record(tbt),
                        None => self.tbt.record(tbt),
                    }
                }
                rec.last_token = Some(now);
            }
            if ev.finished {
                rec.completed = Some(now);
                self.completed += 1;
                self.last_completion = self.last_completion.max(now);
                let done = *rec;
                if self.track_tenants {
                    self.note_tenant_completion(replica, &done);
                }
                if let Some(fold) = self.fold.as_mut() {
                    fold.on_completion(replica, now, &done);
                    self.records.remove(&ev.id);
                }
            }
        }
    }

    /// Streams one finished request's latencies into its tenant's sinks and
    /// judges the SLO (both quantile modes share this incremental path —
    /// per-tenant quantiles are completion-ordered in either mode; mergeable
    /// mode routes the latencies to the replica's single-writer slots).
    fn note_tenant_completion(&mut self, replica: usize, rec: &RequestRecord) {
        let Some(l) = rec.latencies() else {
            return;
        };
        let slo = self.tenant_slo;
        let is_fold = self.fold.is_some();
        let stat = self.tenant_entry(rec.tenant);
        stat.completed += 1;
        if let Some(slo) = slo {
            let ttft_ok = l.ttft.is_none_or(|t| t <= slo.ttft_secs);
            if ttft_ok && l.norm_e2e <= slo.e2e_per_token_secs {
                stat.slo_met += 1;
            }
        }
        if !is_fold {
            stat.e2e.record(l.e2e);
            if let Some(t) = l.ttft {
                stat.ttft.record(t);
            }
            return;
        }
        let fold = self.fold.as_mut().expect("fold mode checked above");
        let tf = fold.replicas[replica].tenant_entry(rec.tenant as usize);
        tf.e2e.record(l.e2e);
        if let Some(t) = l.ttft {
            tf.ttft.record(t);
        }
    }

    /// Records a replica's KV occupancy change.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn on_kv_sample(&mut self, replica: usize, now: SimTime, utilization: f64) {
        self.kv_series[replica].record(now, utilization);
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
        // Mergeable mode: fold the per-replica slots (in replica-index
        // order) into one summary set before anything else reads the
        // collector-global accumulators.
        let mut fold_out = self
            .fold
            .take()
            .map(|fold| fold_report(fold, &self.kv_series, self.tenants.len()));
        if let Some(f) = &fold_out {
            self.busy_gpu_secs = f.busy_gpu_secs;
            self.flops = f.flops;
            self.bytes = f.bytes;
            self.op_secs = f.op_secs;
        }
        let tbt_summary = match &fold_out {
            Some(f) => f.tbt,
            None => DigestSummary::from_digest(&mut self.tbt),
        };
        // Request-level summaries: folded in mergeable mode, one exact pass
        // over the retained records otherwise.
        let (sched_delay, ttft, norm_e2e, norm_exec, e2e) = if let Some(f) = &fold_out {
            (f.sched_delay, f.ttft, f.norm_e2e, f.norm_exec, f.e2e)
        } else {
            let mut sched_delay = QuantileDigest::new();
            let mut ttft = QuantileDigest::new();
            let mut norm_e2e = QuantileDigest::new();
            let mut norm_exec = QuantileDigest::new();
            let mut e2e = QuantileDigest::new();
            for rec in self.records.values() {
                let Some(l) = rec.latencies() else {
                    continue;
                };
                sched_delay.record(l.sched_delay);
                if let Some(t) = l.ttft {
                    ttft.record(t);
                }
                e2e.record(l.e2e);
                norm_e2e.record(l.norm_e2e);
                norm_exec.record(l.norm_exec);
            }
            (
                DigestSummary::from_digest(&mut sched_delay),
                DigestSummary::from_digest(&mut ttft),
                DigestSummary::from_digest(&mut norm_e2e),
                DigestSummary::from_digest(&mut norm_exec),
                DigestSummary::from_digest(&mut e2e),
            )
        };
        let makespan = self.last_completion.as_secs_f64();
        let kv_utilization = {
            let vals: Vec<f64> = self
                .kv_series
                .iter()
                .filter_map(|s| s.time_weighted_mean(self.last_completion))
                .collect();
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
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
        let fold_tenants = fold_out.as_ref().map(|f| &f.tenant_summaries);
        let per_tenant = self
            .tenants
            .iter_mut()
            .enumerate()
            .map(|(idx, t)| {
                let routing = tenant_routing.get(idx).copied().unwrap_or_default();
                let (ttft_summary, e2e_summary) = match fold_tenants {
                    Some(ts) => ts.get(idx).copied().unwrap_or_default(),
                    None => (
                        DigestSummary::from_digest(&mut t.ttft),
                        DigestSummary::from_digest(&mut t.e2e),
                    ),
                };
                TenantReport {
                    tenant: std::mem::take(&mut t.name),
                    arrived: t.arrived,
                    completed: t.completed,
                    ttft: ttft_summary,
                    e2e: e2e_summary,
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
            scheduling_delay: sched_delay,
            ttft,
            tbt: tbt_summary,
            normalized_e2e: norm_e2e,
            normalized_exec: norm_exec,
            e2e,
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
            timeseries: fold_out
                .as_mut()
                .map(|f| std::mem::take(&mut f.timeseries))
                .unwrap_or_default(),
            distinct_tenants_est: fold_out.as_ref().map(|f| f.distinct_tenants),
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

/// The folded (replica-index-order) summary set a mergeable collector
/// reduces to at report time.
struct FoldOutput {
    sched_delay: DigestSummary,
    ttft: DigestSummary,
    norm_e2e: DigestSummary,
    norm_exec: DigestSummary,
    e2e: DigestSummary,
    tbt: DigestSummary,
    busy_gpu_secs: f64,
    flops: f64,
    bytes: f64,
    op_secs: [f64; Operator::ALL.len()],
    /// `(ttft, e2e)` summaries, tenant-id-indexed.
    tenant_summaries: Vec<(DigestSummary, DigestSummary)>,
    timeseries: Vec<TimeseriesRow>,
    distinct_tenants: f64,
}

/// Reduces the per-replica fold slots to one summary set. Every reduction
/// runs in replica-index order, so the output is identical for any shard
/// count: each slot's bits only depend on its own replica's event stream.
fn fold_report(
    fold: MergeableState,
    kv_series: &[TimeWeightedSeries],
    num_tenants: usize,
) -> FoldOutput {
    let mut total = ReplicaFold::new();
    for r in &fold.replicas {
        total.merge(r);
    }
    let tenant_summaries = (0..num_tenants.max(total.tenants.len()))
        .map(|idx| match total.tenants.get_mut(idx) {
            Some(tf) => (tf.ttft.summarize(), tf.e2e.summarize()),
            None => Default::default(),
        })
        .collect();
    let mut timeseries = Vec::new();
    if let Some(w) = fold.window_secs {
        for (i, win) in total.windows.iter_mut().enumerate() {
            let start = i as f64 * w;
            let start_t = SimTime::from_secs_f64(start);
            let end_t = SimTime::from_secs_f64(start + w);
            let kv: Vec<f64> = kv_series
                .iter()
                .filter_map(|s| s.window_mean(start_t, end_t))
                .collect();
            win.ttft.seal();
            timeseries.push(TimeseriesRow {
                window_start_secs: start,
                completed: win.completed,
                throughput_qps: win.completed as f64 / w,
                ttft_p99: win.ttft.quantile(0.99).unwrap_or(0.0),
                kv_occupancy: if kv.is_empty() {
                    0.0
                } else {
                    kv.iter().sum::<f64>() / kv.len() as f64
                },
            });
        }
    }
    FoldOutput {
        sched_delay: total.sched_delay.summarize(),
        ttft: total.ttft.summarize(),
        norm_e2e: total.norm_e2e.summarize(),
        norm_exec: total.norm_exec.summarize(),
        e2e: total.e2e.summarize(),
        tbt: total.tbt.summarize(),
        busy_gpu_secs: total.busy_gpu_secs,
        flops: total.flops,
        bytes: total.bytes,
        op_secs: total.op_secs,
        tenant_summaries,
        timeseries,
        distinct_tenants: fold.distinct_tenants.estimate(),
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

    /// Drives one finished request through the given replica of a
    /// mergeable-mode collector: arrives at `base`, scheduled +1s, prefill
    /// done +2s, finished +3s (3 output tokens, two decode iterations).
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
    fn mergeable_mode_retires_records_and_reports_timeseries() {
        let mut m = MetricsCollector::with_mode(2, QuantileMode::Mergeable);
        m.set_timeseries(TimeseriesConfig { window_secs: 1.0 });
        drive_replica_request(&mut m, 0, 0, 0.0);
        drive_replica_request(&mut m, 1, 1, 0.5);
        let r = m.into_report(2, 1e15, 1e13, 0, test_power());
        assert_eq!(r.completed, 2);
        // Completions at 3.0 and 3.5 → windows [3,4) holds both.
        assert_eq!(r.timeseries.len(), 4);
        assert_eq!(r.timeseries[3].completed, 2);
        assert!((r.timeseries[3].throughput_qps - 2.0).abs() < 1e-9);
        assert!(r.timeseries[3].ttft_p99 > 0.0);
        assert_eq!(r.timeseries[0].completed, 0);
        // Latency means use the exact sums: both requests share the shape.
        assert!((r.ttft.mean - 2.0).abs() < 1e-9);
        assert!((r.e2e.mean - 3.0).abs() < 1e-9);
        assert!((r.scheduling_delay.mean - 1.0).abs() < 1e-9);
    }
}
