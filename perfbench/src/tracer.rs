//! Benchmark-side tracing: per-family call counts, self time and latency
//! histograms for every call, plus full spans for a bounded sample, exported
//! as Chrome trace-event JSON.
//!
//! Spans are flat children of one parent span per handled event; the
//! parent's self time (its duration minus its children) is the event loop's
//! own glue and is booked under [`Family::EngineGlue`].

use std::fmt::Write as _;
use std::time::Instant;

/// A timed call family: one layer operation of the traced event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `EventQueue::push`.
    EventPush,
    /// `EventQueue::pop`.
    EventPop,
    /// `RoutingTier::route`.
    RouterRoute,
    /// `RoutingTier::on_finished` / `set_free_kv_blocks`.
    RouterUpdate,
    /// `BlockManager::prefix_cached_tokens` + `RoutingTier::set_route_prefix_hits`.
    RouterPrefixView,
    /// `RoutingTier::next_ready` (and the hit-view reset before it).
    RouterDeferred,
    /// `ReplicaScheduler::add_request`.
    ReplicaAdmit,
    /// `ReplicaScheduler::next_batch`.
    ReplicaForm,
    /// `ReplicaScheduler::complete_batch_into` / `recycle_batch`.
    ReplicaRetire,
    /// `StageTimer::time_batch` answered from the shape cache.
    TimingHit,
    /// `StageTimer::time_batch` that priced a new shape.
    TimingMiss,
    /// `MetricsCollector::on_*`.
    MetricsRecord,
    /// `MetricsCollector::set_*` + `into_report`.
    MetricsReport,
    /// The loop's own work inside an event handler, outside every call above.
    EngineGlue,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: [Family; 14] = [
        Family::EventPush,
        Family::EventPop,
        Family::RouterRoute,
        Family::RouterUpdate,
        Family::RouterPrefixView,
        Family::RouterDeferred,
        Family::ReplicaAdmit,
        Family::ReplicaForm,
        Family::ReplicaRetire,
        Family::TimingHit,
        Family::TimingMiss,
        Family::MetricsRecord,
        Family::MetricsReport,
        Family::EngineGlue,
    ];

    /// Metric-name prefix, e.g. `router.route`.
    pub fn name(self) -> &'static str {
        match self {
            Family::EventPush => "event.push",
            Family::EventPop => "event.pop",
            Family::RouterRoute => "router.route",
            Family::RouterUpdate => "router.update",
            Family::RouterPrefixView => "router.prefix_view",
            Family::RouterDeferred => "router.deferred",
            Family::ReplicaAdmit => "replica.admit",
            Family::ReplicaForm => "replica.form",
            Family::ReplicaRetire => "replica.retire",
            Family::TimingHit => "timing.hit",
            Family::TimingMiss => "timing.miss",
            Family::MetricsRecord => "metrics.record",
            Family::MetricsReport => "metrics.report",
            Family::EngineGlue => "engine.glue",
        }
    }
}

/// Log-linear latency histogram: 16 linear sub-buckets per power of two,
/// so any recorded value lands in a bucket at most 1/16 of its size wide.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (64 * SUB) as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let mantissa = (v >> (exp - SUB_BITS)) & (SUB - 1);
        ((exp - SUB_BITS + 1) as u64 * SUB + mantissa) as usize
    }

    /// `(lower bound, width)` of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        (((SUB + i % SUB) << shift) as f64, (1u64 << shift) as f64)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q` quantile, interpolated linearly within its bucket (0 when
    /// empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let (lo, width) = Self::bucket(i);
                return lo + width * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank {rank} beyond {} recorded values", self.total)
    }
}

/// Aggregates of one family.
#[derive(Debug, Clone, Default)]
pub struct FamilyStats {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent in the calls, children excluded.
    pub self_ns: u64,
    /// Per-call self-time distribution.
    pub hist: Histogram,
}

impl FamilyStats {
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.self_ns += ns;
        self.hist.record(ns);
    }

    /// Adds `other`'s calls, time and histogram.
    pub fn merge(&mut self, other: &FamilyStats) {
        self.calls += other.calls;
        self.self_ns += other.self_ns;
        self.hist.merge(&other.hist);
    }
}

/// One recorded span, in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Family or event name.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the parent span in the span list.
    pub parent: Option<usize>,
    /// Request the span works on, when it works on one.
    pub request: Option<u64>,
}

/// Handled events whose spans are kept: one in `SAMPLE_EVERY`.
const SAMPLE_EVERY: u64 = 64;
/// Bound on kept spans per traced run.
const MAX_SPANS: usize = 100_000;

/// The per-run tracer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    stats: Vec<FamilyStats>,
    spans: Vec<Span>,
    /// Open parent: `(start, kept span index, children ns so far)`.
    parent: Option<(Instant, Option<usize>, u64)>,
    events: u64,
    /// Nanoseconds inside top-level spans (parents included).
    top_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            stats: vec![FamilyStats::default(); Family::ALL.len()],
            spans: Vec::new(),
            parent: None,
            events: 0,
            top_ns: 0,
        }
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

impl Tracer {
    /// Times one call of `family`, on behalf of `request` if given.
    #[inline]
    pub fn time<R>(&mut self, family: Family, request: Option<u64>, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.close(family, request, start, end);
        out
    }

    /// Books a call of `family` that ran from `start` to `end`.
    pub fn close(&mut self, family: Family, request: Option<u64>, start: Instant, end: Instant) {
        let ns = ns_between(start, end);
        self.stats[family as usize].record(ns);
        match &mut self.parent {
            Some((_, kept, children)) => {
                *children += ns;
                if let Some(parent) = *kept {
                    self.keep(family.name(), start, end, Some(parent), request);
                }
            }
            None => self.top_ns += ns,
        }
    }

    /// Opens the parent span of one handled event, starting at `start`.
    pub fn begin_event(&mut self, name: &'static str, request: Option<u64>, start: Instant) {
        debug_assert!(self.parent.is_none(), "event spans do not nest");
        let kept =
            (self.events.is_multiple_of(SAMPLE_EVERY) && self.spans.len() < MAX_SPANS).then(|| {
                self.keep(name, start, start, None, request);
                self.spans.len() - 1
            });
        self.events += 1;
        self.parent = Some((start, kept, 0));
    }

    /// Closes the open event span, returning its end; its self time is
    /// loop glue.
    pub fn end_event(&mut self) -> Instant {
        let end = Instant::now();
        let (start, kept, children) = self.parent.take().expect("an event span is open");
        let ns = ns_between(start, end);
        self.top_ns += ns;
        self.stats[Family::EngineGlue as usize].record(ns.saturating_sub(children));
        if let Some(i) = kept {
            self.spans[i].end_ns = ns_between(self.origin, end);
        }
        end
    }

    fn keep(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                name,
                start_ns: ns_between(self.origin, start),
                end_ns: ns_between(self.origin, end),
                parent,
                request,
            });
        }
    }

    /// Aggregates of `family`.
    pub fn stats(&self, family: Family) -> &FamilyStats {
        &self.stats[family as usize]
    }

    /// Events handled.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Nanoseconds covered by top-level spans.
    pub fn attributed_ns(&self) -> u64 {
        self.top_ns
    }

    /// The kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Renders `spans` as a Chrome trace-event JSON document (Perfetto loads
/// it): one complete (`"ph": "X"`) event per span, times in microseconds.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(r) = s.request {
            let _ = write!(out, ",\"request\":{r}");
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_values() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            123_456,
            (1 << 40) + 12_345,
        ] {
            let (lo, width) = Histogram::bucket(Histogram::index(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v}: [{lo}, +{width})"
            );
        }
    }

    #[test]
    fn histogram_quantiles_track_values() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 500.0).abs() < 500.0 / 16.0, "{p50}");
        assert!((p99 - 990.0).abs() < 990.0 / 16.0, "{p99}");
    }
}
