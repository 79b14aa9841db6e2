//! The three paper workloads and trace generation.
//!
//! Length marginals are log-normals fitted to Table 1's (median, P90) per
//! dataset, with the paper's 4096-token total cap applied the same way
//! (truncating the prompt so `prefill + decode ≤ 4096`, since the LLaMA2
//! context window binds).

use crate::arrival::ArrivalProcess;
use crate::distributions::LengthDistribution;
use serde::{Deserialize, Serialize};
use vidur_core::rng::SimRng;
use vidur_core::time::SimTime;

/// Total-token cap matching the LLaMA2 context window.
pub const MAX_TOTAL_TOKENS: u64 = 4096;

/// Sentinel prefix id for requests that share no prefix (the default).
/// Matches `vidur_scheduler::NO_PREFIX` bit-for-bit so trace prefix ids
/// flow into scheduler requests unchanged.
pub const NO_PREFIX: u64 = u64::MAX;

/// A workload family: the joint distribution of request lengths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceWorkload {
    /// Workload name (e.g. `"chat-1m"`).
    pub name: String,
    /// Prompt-length distribution.
    pub prefill: LengthDistribution,
    /// Output-length distribution.
    pub decode: LengthDistribution,
    /// Cap on `prefill + decode` (0 disables).
    pub max_total_tokens: u64,
}

impl TraceWorkload {
    /// LMSys-Chat-1M (4K-capped): conversational — moderate prompts, chatty
    /// decodes, high variance. Table 1: prefill median 417 / P90 1678,
    /// decode median 139 / P90 484.
    pub fn chat_1m() -> Self {
        TraceWorkload {
            name: "chat-1m".to_string(),
            prefill: LengthDistribution::log_normal(417.0, 1678.0),
            decode: LengthDistribution::log_normal(139.0, 484.0),
            max_total_tokens: MAX_TOTAL_TOKENS,
        }
    }

    /// Arxiv-Summarization (4K-capped): summarization — very long prompts,
    /// short outputs (P:D ≈ 15.7). Table 1: prefill median 2730 / P90 3702,
    /// decode median 167 / P90 372.
    pub fn arxiv_4k() -> Self {
        TraceWorkload {
            name: "arxiv-4k".to_string(),
            prefill: LengthDistribution::log_normal(2730.0, 3702.0),
            decode: LengthDistribution::log_normal(167.0, 372.0),
            max_total_tokens: MAX_TOTAL_TOKENS,
        }
    }

    /// Bilingual-Web-Book (4K-capped): document translation — decode-heavy
    /// (P:D ≈ 0.65), low variance. Table 1: prefill median 1037 / P90 1453,
    /// decode median 1601 / P90 2149.
    pub fn bwb_4k() -> Self {
        TraceWorkload {
            name: "bwb-4k".to_string(),
            prefill: LengthDistribution::log_normal(1037.0, 1453.0),
            decode: LengthDistribution::log_normal(1601.0, 2149.0),
            max_total_tokens: MAX_TOTAL_TOKENS,
        }
    }

    /// The three paper workloads.
    pub fn paper_workloads() -> Vec<TraceWorkload> {
        vec![Self::chat_1m(), Self::arxiv_4k(), Self::bwb_4k()]
    }

    /// Looks a paper workload up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<TraceWorkload> {
        Self::paper_workloads()
            .into_iter()
            .find(|w| w.name.eq_ignore_ascii_case(name))
    }

    /// Samples one `(prefill_tokens, decode_tokens)` pair, applying the
    /// total cap by truncating the prompt (decodes are preserved, matching
    /// how conversation turns get cut off by the context window).
    pub fn sample_lengths(&self, rng: &mut SimRng) -> (u64, u64) {
        let mut prefill = self.prefill.sample(rng);
        let mut decode = self.decode.sample(rng);
        if self.max_total_tokens > 0 {
            if decode >= self.max_total_tokens {
                decode = self.max_total_tokens - 1;
            }
            if prefill + decode > self.max_total_tokens {
                prefill = self.max_total_tokens - decode;
            }
        }
        (prefill.max(1), decode.max(1))
    }

    /// Generates a trace of `n` requests with the given arrival process.
    pub fn generate(&self, n: usize, arrivals: &ArrivalProcess, rng: &mut SimRng) -> Trace {
        let times = arrivals.generate(n, rng);
        let requests = times
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| {
                let (prefill_tokens, decode_tokens) = self.sample_lengths(rng);
                TraceRequest {
                    id: i as u64,
                    arrival,
                    prefill_tokens,
                    decode_tokens,
                    tenant: 0,
                    priority: 0,
                    prefix_id: NO_PREFIX,
                    prefix_len: 0,
                }
            })
            .collect();
        Trace {
            workload_name: self.name.clone(),
            tenants: Vec::new(),
            prefixes: Vec::new(),
            requests,
        }
    }
}

/// Shared-prefix traffic shape for one tenant: what fraction of its
/// requests reuse one of `num_prefixes` tenant-private shared prefixes
/// (system prompts / templates) of `prefix_tokens` tokens each.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantPrefixConfig {
    /// Fraction of this tenant's requests (in `[0, 1]`) that carry a
    /// shared prefix.
    pub share_ratio: f64,
    /// Tokens in each shared prefix (≥ 1; capped at the request's prompt
    /// length when a sampled prompt is shorter).
    pub prefix_tokens: u64,
    /// Number of distinct prefixes this tenant draws from uniformly (≥ 1).
    pub num_prefixes: usize,
}

/// One tenant's traffic in a [`MultiTenantWorkload`]: its own length
/// distributions, arrival process, and priority class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStream {
    /// Tenant name (becomes an entry in [`Trace::tenants`]).
    pub tenant: String,
    /// Priority class for every request of this tenant (0 = most urgent).
    pub priority: u8,
    /// Length distributions for this tenant's requests.
    pub workload: TraceWorkload,
    /// This tenant's arrival process.
    pub arrivals: ArrivalProcess,
    /// Shared-prefix traffic shape, or `None` for prefix-free traffic.
    /// Arming prefixes never perturbs any tenant's arrival or length
    /// draws — the prefix RNG is derived from a fork of a *clone* of the
    /// stream's length RNG, so the existing streams are untouched.
    pub prefix: Option<TenantPrefixConfig>,
}

/// Several tenants sharing a cluster: each stream generates independently
/// (own forked RNG streams for arrivals and lengths, so adding a tenant
/// never perturbs another's draws) and the traces merge in arrival order.
///
/// # Example
///
/// ```
/// use vidur_core::rng::SimRng;
/// use vidur_workload::{ArrivalProcess, MultiTenantWorkload, TenantStream, TraceWorkload};
///
/// let mix = MultiTenantWorkload::new(
///     "prod-mix",
///     vec![
///         TenantStream {
///             tenant: "interactive".into(),
///             priority: 0,
///             workload: TraceWorkload::chat_1m(),
///             arrivals: ArrivalProcess::Poisson { qps: 2.0 },
///             prefix: None,
///         },
///         TenantStream {
///             tenant: "batch".into(),
///             priority: 2,
///             workload: TraceWorkload::arxiv_4k(),
///             arrivals: ArrivalProcess::Poisson { qps: 1.0 },
///             prefix: None,
///         },
///     ],
/// );
/// let trace = mix.generate(100, &mut SimRng::new(7));
/// assert_eq!(trace.tenants.len(), 2);
/// assert!(trace.requests.iter().any(|r| r.tenant == 1));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTenantWorkload {
    /// Mix name (becomes [`Trace::workload_name`]).
    pub name: String,
    /// The tenant streams (index = tenant id in generated traces).
    pub streams: Vec<TenantStream>,
}

impl MultiTenantWorkload {
    /// Creates a mix.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or any stream uses
    /// [`ArrivalProcess::Static`] — a Static tenant emits infinitely many
    /// t=0 arrivals, so the merge would never yield any other tenant.
    pub fn new(name: impl Into<String>, streams: Vec<TenantStream>) -> Self {
        assert!(!streams.is_empty(), "multi-tenant mix needs streams");
        let mix = MultiTenantWorkload {
            name: name.into(),
            streams,
        };
        mix.validate();
        mix
    }

    fn validate(&self) {
        assert!(!self.streams.is_empty(), "multi-tenant mix needs streams");
        for s in &self.streams {
            assert!(
                !matches!(s.arrivals, ArrivalProcess::Static),
                "tenant `{}`: Static arrivals would starve every other \
                 tenant in the merge",
                s.tenant
            );
            if let Some(p) = s.prefix {
                assert!(
                    p.share_ratio.is_finite() && (0.0..=1.0).contains(&p.share_ratio),
                    "tenant `{}`: prefix share ratio {} outside [0, 1]",
                    s.tenant,
                    p.share_ratio
                );
                assert!(
                    p.prefix_tokens >= 1,
                    "tenant `{}`: shared prefixes need at least one token",
                    s.tenant
                );
                assert!(
                    p.num_prefixes >= 1,
                    "tenant `{}`: prefix sharing needs at least one prefix",
                    s.tenant
                );
            }
        }
    }

    /// Incremental request generator: an infinite stream of requests merged
    /// across tenants in arrival order (ties break toward the lower tenant
    /// id), with ids assigned sequentially in merged order. The first `n`
    /// items equal [`MultiTenantWorkload::generate`]`(n, rng).requests`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid mix (see [`MultiTenantWorkload::new`]; the
    /// fields are public, so the invariants are re-checked here).
    pub fn requests(&self, rng: &mut SimRng) -> MultiTenantIter {
        self.validate();
        let mut prefix_offset = 0u64;
        let streams = self
            .streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut arrivals = s.arrivals.times(rng.fork(2 * i as u64));
                let lengths = rng.fork(2 * i as u64 + 1);
                let prefix = s.prefix.map(|cfg| {
                    // Forking mutates the parent, so fork a *clone* of the
                    // lengths RNG: the prefix stream is deterministic per
                    // tenant, yet arming it leaves every existing arrival
                    // and length draw (and the shared parent) untouched.
                    let state = PrefixState {
                        cfg,
                        rng: lengths.clone().fork(0x7072_6566),
                        id_offset: prefix_offset,
                    };
                    prefix_offset += cfg.num_prefixes as u64;
                    state
                });
                let next_arrival = arrivals.next().expect("arrival streams are infinite");
                StreamState {
                    arrivals,
                    lengths,
                    workload: s.workload.clone(),
                    priority: s.priority,
                    prefix,
                    next_arrival,
                }
            })
            .collect();
        MultiTenantIter {
            streams,
            next_id: 0,
        }
    }

    /// The shared prefixes a generated trace declares, in id order: each
    /// prefix-configured tenant contributes `num_prefixes` consecutive
    /// entries named `<tenant>-prefix-<k>`.
    pub fn prefixes(&self) -> Vec<TracePrefix> {
        let mut prefixes = Vec::new();
        for s in &self.streams {
            if let Some(cfg) = s.prefix {
                for k in 0..cfg.num_prefixes {
                    prefixes.push(TracePrefix {
                        name: format!("{}-prefix-{k}", s.tenant),
                        tokens: cfg.prefix_tokens,
                    });
                }
            }
        }
        prefixes
    }

    /// Generates a merged trace of `n` requests. Equivalent to collecting
    /// `n` items from [`MultiTenantWorkload::requests`].
    pub fn generate(&self, n: usize, rng: &mut SimRng) -> Trace {
        let requests = self.requests(rng).take(n).collect();
        Trace {
            workload_name: self.name.clone(),
            tenants: self.streams.iter().map(|s| s.tenant.clone()).collect(),
            prefixes: self.prefixes(),
            requests,
        }
    }
}

/// Per-tenant shared-prefix generation state inside [`StreamState`].
#[derive(Debug)]
struct PrefixState {
    cfg: TenantPrefixConfig,
    rng: SimRng,
    /// Global prefix id of this tenant's prefix 0 (tenants own disjoint
    /// consecutive id ranges in declaration order).
    id_offset: u64,
}

/// Per-tenant generation state inside [`MultiTenantIter`].
#[derive(Debug)]
struct StreamState {
    arrivals: crate::arrival::ArrivalTimes,
    lengths: SimRng,
    workload: TraceWorkload,
    priority: u8,
    prefix: Option<PrefixState>,
    next_arrival: SimTime,
}

/// Infinite merged request iterator (see [`MultiTenantWorkload::requests`]).
#[derive(Debug)]
pub struct MultiTenantIter {
    streams: Vec<StreamState>,
    next_id: u64,
}

impl Iterator for MultiTenantIter {
    type Item = TraceRequest;

    fn next(&mut self) -> Option<TraceRequest> {
        let idx = self
            .streams
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.next_arrival.cmp(&b.next_arrival))
            .map(|(i, _)| i)?;
        let s = &mut self.streams[idx];
        let arrival = s.next_arrival;
        s.next_arrival = s.arrivals.next().expect("arrival streams are infinite");
        let (prefill_tokens, decode_tokens) = s.workload.sample_lengths(&mut s.lengths);
        let mut prefix_id = NO_PREFIX;
        let mut prefix_len = 0;
        if let Some(p) = &mut s.prefix {
            if p.rng.next_f64() < p.cfg.share_ratio {
                let k = p.rng.next_below(p.cfg.num_prefixes as u64);
                prefix_id = p.id_offset + k;
                prefix_len = p.cfg.prefix_tokens.min(prefill_tokens);
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        Some(TraceRequest {
            id,
            arrival,
            prefill_tokens,
            decode_tokens,
            tenant: idx as u32,
            priority: s.priority,
            prefix_id,
            prefix_len,
        })
    }
}

/// One request in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRequest {
    /// Sequential id.
    pub id: u64,
    /// Arrival timestamp.
    pub arrival: SimTime,
    /// Prompt tokens.
    pub prefill_tokens: u64,
    /// Output tokens.
    pub decode_tokens: u64,
    /// Tenant index into [`Trace::tenants`] (0 for single-tenant traces).
    pub tenant: u32,
    /// Priority class: 0 is the most urgent; schedulers admit lower values
    /// first and preempt higher values first.
    pub priority: u8,
    /// Shared-prefix index into [`Trace::prefixes`], or [`NO_PREFIX`] when
    /// this request shares nothing.
    pub prefix_id: u64,
    /// Leading prompt tokens shared under `prefix_id` (0 when `prefix_id`
    /// is [`NO_PREFIX`]; otherwise `1..=min(prefix tokens, prefill)`).
    pub prefix_len: u64,
}

/// One shared prefix declared by a trace (a system prompt / template):
/// requests whose [`TraceRequest::prefix_id`] indexes this entry share its
/// leading tokens.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracePrefix {
    /// Prefix name (written as a `prefix` directive in v2 trace files).
    pub name: String,
    /// Length of the shared prefix in tokens (≥ 1).
    pub tokens: u64,
}

/// A generated (or loaded) request trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Name of the generating workload.
    pub workload_name: String,
    /// Declared tenant names; [`TraceRequest::tenant`] indexes this list.
    /// Empty for single-tenant traces (all requests implicitly tenant 0).
    pub tenants: Vec<String>,
    /// Declared shared prefixes; [`TraceRequest::prefix_id`] indexes this
    /// list. Empty for prefix-free traces (written as format v1).
    pub prefixes: Vec<TracePrefix>,
    /// Requests ordered by arrival.
    pub requests: Vec<TraceRequest>,
}

impl Trace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns `true` for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Number of declared tenants (0 for single-tenant traces).
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Re-times this trace's arrivals with a new process (used by capacity
    /// search to sweep QPS while holding lengths fixed).
    pub fn with_arrivals(&self, arrivals: &ArrivalProcess, rng: &mut SimRng) -> Trace {
        let times = arrivals.generate(self.requests.len(), rng);
        let requests = self
            .requests
            .iter()
            .zip(times)
            .map(|(r, arrival)| TraceRequest { arrival, ..*r })
            .collect();
        Trace {
            workload_name: self.workload_name.clone(),
            tenants: self.tenants.clone(),
            prefixes: self.prefixes.clone(),
            requests,
        }
    }

    /// Fits an arrival process to this trace's empirical interarrival
    /// statistics: a [`ArrivalProcess::Gamma`] matching the observed mean
    /// rate and coefficient of variation (`Static` when the trace is too
    /// short or spans no time). Near-deterministic gaps keep a
    /// floored-tiny-cv Gamma — collapsing to Poisson would replace the
    /// measured CV ≈ 0 with CV = 1 and fabricate burstiness the trace
    /// never had.
    pub fn fit_arrivals(&self) -> ArrivalProcess {
        if self.requests.len() < 2 {
            return ArrivalProcess::Static;
        }
        let gaps: Vec<f64> = self
            .requests
            .windows(2)
            .map(|w| w[1].arrival.duration_since(w[0].arrival).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        if mean <= 0.0 {
            return ArrivalProcess::Static;
        }
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = (var.sqrt() / mean).max(1e-6);
        ArrivalProcess::Gamma {
            qps: 1.0 / mean,
            cv,
        }
    }

    /// Amplifies this trace to `n` requests by derived-stat resampling:
    /// arrivals come from [`Trace::fit_arrivals`]; each generated request
    /// bootstraps its `(prefill, decode, tenant, priority)` tuple from a
    /// uniformly-drawn source record, preserving the joint length/tenant
    /// mix. A 1k-line trace amplifies to millions of requests in O(n)
    /// output with O(original) working memory.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn amplify(&self, n: usize, rng: &mut SimRng) -> Trace {
        assert!(!self.is_empty(), "cannot amplify an empty trace");
        let arrivals = self.fit_arrivals();
        let times = arrivals.generate(n, rng);
        let requests = times
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| {
                let src = &self.requests[rng.next_below(self.requests.len() as u64) as usize];
                TraceRequest {
                    id: i as u64,
                    arrival,
                    ..*src
                }
            })
            .collect();
        Trace {
            workload_name: format!("{}-amplified", self.workload_name),
            tenants: self.tenants.clone(),
            prefixes: self.prefixes.clone(),
            requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_enforced() {
        let w = TraceWorkload::arxiv_4k();
        let mut rng = SimRng::new(1);
        for _ in 0..20_000 {
            let (p, d) = w.sample_lengths(&mut rng);
            assert!(p >= 1 && d >= 1);
            assert!(p + d <= MAX_TOTAL_TOKENS, "{p}+{d}");
        }
    }

    #[test]
    fn chat_medians_match_table1() {
        let w = TraceWorkload::chat_1m();
        let mut rng = SimRng::new(2);
        let mut ps = Vec::new();
        let mut ds = Vec::new();
        for _ in 0..50_000 {
            let (p, d) = w.sample_lengths(&mut rng);
            ps.push(p);
            ds.push(d);
        }
        ps.sort_unstable();
        ds.sort_unstable();
        let p_med = ps[ps.len() / 2] as f64;
        let d_med = ds[ds.len() / 2] as f64;
        assert!((p_med / 417.0 - 1.0).abs() < 0.08, "prefill median {p_med}");
        assert!((d_med / 139.0 - 1.0).abs() < 0.08, "decode median {d_med}");
    }

    #[test]
    fn bwb_is_decode_heavy_and_arxiv_prefill_heavy() {
        let mut rng = SimRng::new(3);
        let ratio = |w: &TraceWorkload, rng: &mut SimRng| {
            let mut p_sum = 0u64;
            let mut d_sum = 0u64;
            for _ in 0..20_000 {
                let (p, d) = w.sample_lengths(rng);
                p_sum += p;
                d_sum += d;
            }
            p_sum as f64 / d_sum as f64
        };
        let bwb = ratio(&TraceWorkload::bwb_4k(), &mut rng);
        let arxiv = ratio(&TraceWorkload::arxiv_4k(), &mut rng);
        let chat = ratio(&TraceWorkload::chat_1m(), &mut rng);
        assert!(bwb < 1.0, "BWB P:D {bwb}");
        assert!(arxiv > 6.0, "Arxiv P:D {arxiv}");
        assert!(chat > 1.5 && chat < 6.0, "Chat P:D {chat}");
    }

    #[test]
    fn generate_assigns_ids_and_arrivals() {
        let w = TraceWorkload::chat_1m();
        let mut rng = SimRng::new(4);
        let t = w.generate(100, &ArrivalProcess::Poisson { qps: 10.0 }, &mut rng);
        assert_eq!(t.len(), 100);
        assert_eq!(t.requests[0].id, 0);
        assert_eq!(t.requests[99].id, 99);
        assert!(t.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn retiming_preserves_lengths() {
        let w = TraceWorkload::bwb_4k();
        let mut rng = SimRng::new(5);
        let t = w.generate(50, &ArrivalProcess::Static, &mut rng);
        let t2 = t.with_arrivals(&ArrivalProcess::Poisson { qps: 1.0 }, &mut rng);
        for (a, b) in t.requests.iter().zip(&t2.requests) {
            assert_eq!(a.prefill_tokens, b.prefill_tokens);
            assert_eq!(a.decode_tokens, b.decode_tokens);
        }
        assert!(t2.requests.last().unwrap().arrival > SimTime::ZERO);
    }

    #[test]
    fn json_roundtrip() {
        let w = TraceWorkload::chat_1m();
        let mut rng = SimRng::new(6);
        let t = w.generate(10, &ArrivalProcess::Static, &mut rng);
        let back: Trace = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn by_name_lookup() {
        assert!(TraceWorkload::by_name("Chat-1M").is_some());
        assert!(TraceWorkload::by_name("ARXIV-4K").is_some());
        assert!(TraceWorkload::by_name("unknown").is_none());
    }

    fn mix() -> MultiTenantWorkload {
        MultiTenantWorkload::new(
            "mix",
            vec![
                TenantStream {
                    tenant: "interactive".into(),
                    priority: 0,
                    workload: TraceWorkload::chat_1m(),
                    arrivals: ArrivalProcess::Poisson { qps: 4.0 },
                    prefix: None,
                },
                TenantStream {
                    tenant: "batch".into(),
                    priority: 2,
                    workload: TraceWorkload::arxiv_4k(),
                    arrivals: ArrivalProcess::Mmpp {
                        qps_base: 0.5,
                        qps_burst: 10.0,
                        mean_base_secs: 20.0,
                        mean_burst_secs: 5.0,
                    },
                    prefix: None,
                },
            ],
        )
    }

    #[test]
    fn multi_tenant_merges_in_arrival_order() {
        let t = mix().generate(500, &mut SimRng::new(21));
        assert_eq!(t.tenants, vec!["interactive", "batch"]);
        assert!(t.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(t.requests.iter().enumerate().all(|(i, r)| r.id == i as u64));
        assert!(t.requests.iter().any(|r| r.tenant == 0));
        assert!(t.requests.iter().any(|r| r.tenant == 1));
        for r in &t.requests {
            let expect = if r.tenant == 0 { 0 } else { 2 };
            assert_eq!(r.priority, expect);
        }
    }

    #[test]
    fn multi_tenant_iterator_matches_generate() {
        let m = mix();
        let batch = m.generate(300, &mut SimRng::new(22));
        let incremental: Vec<TraceRequest> = m.requests(&mut SimRng::new(22)).take(300).collect();
        assert_eq!(batch.requests, incremental);
    }

    #[test]
    fn adding_a_tenant_does_not_perturb_existing_streams() {
        // Forked per-stream RNGs: tenant 0's (arrival, lengths) subsequence
        // must be identical whether or not a third tenant joins the mix.
        let two = mix().generate(400, &mut SimRng::new(23));
        let mut three = mix();
        three.streams.push(TenantStream {
            tenant: "background".into(),
            priority: 3,
            workload: TraceWorkload::bwb_4k(),
            arrivals: ArrivalProcess::Poisson { qps: 2.0 },
            prefix: None,
        });
        let merged = three.generate(600, &mut SimRng::new(23));
        let a: Vec<(SimTime, u64, u64)> = two
            .requests
            .iter()
            .filter(|r| r.tenant == 0)
            .map(|r| (r.arrival, r.prefill_tokens, r.decode_tokens))
            .collect();
        let b: Vec<(SimTime, u64, u64)> = merged
            .requests
            .iter()
            .filter(|r| r.tenant == 0)
            .map(|r| (r.arrival, r.prefill_tokens, r.decode_tokens))
            .collect();
        let common = a.len().min(b.len());
        assert!(common > 50, "need a meaningful overlap");
        assert_eq!(a[..common], b[..common]);
    }

    #[test]
    #[should_panic(expected = "Static arrivals would starve")]
    fn static_tenant_stream_rejected() {
        MultiTenantWorkload::new(
            "bad",
            vec![
                TenantStream {
                    tenant: "offline".into(),
                    priority: 2,
                    workload: TraceWorkload::arxiv_4k(),
                    arrivals: ArrivalProcess::Static,
                    prefix: None,
                },
                TenantStream {
                    tenant: "online".into(),
                    priority: 0,
                    workload: TraceWorkload::chat_1m(),
                    arrivals: ArrivalProcess::Poisson { qps: 1.0 },
                    prefix: None,
                },
            ],
        );
    }

    fn prefixed_mix() -> MultiTenantWorkload {
        let mut m = mix();
        m.streams[0].prefix = Some(TenantPrefixConfig {
            share_ratio: 0.6,
            prefix_tokens: 128,
            num_prefixes: 3,
        });
        m.streams[1].prefix = Some(TenantPrefixConfig {
            share_ratio: 1.0,
            prefix_tokens: 4096,
            num_prefixes: 1,
        });
        m
    }

    #[test]
    fn shared_prefix_generation_is_well_formed() {
        let m = prefixed_mix();
        let t = m.generate(2_000, &mut SimRng::new(31));
        // Declared prefixes: 3 for tenant 0 (ids 0..3), 1 for tenant 1 (id 3).
        assert_eq!(t.prefixes.len(), 4);
        assert_eq!(t.prefixes[0].name, "interactive-prefix-0");
        assert_eq!(t.prefixes[3].name, "batch-prefix-0");
        assert_eq!(t.prefixes[3].tokens, 4096);
        let mut hits0 = 0usize;
        let mut total0 = 0usize;
        for r in &t.requests {
            if r.prefix_id == NO_PREFIX {
                assert_eq!(r.prefix_len, 0);
                continue;
            }
            if r.tenant == 0 {
                assert!(r.prefix_id < 3, "tenant 0 draws its own prefixes");
            } else {
                assert_eq!(r.prefix_id, 3, "tenant 1 has exactly one prefix");
            }
            let declared = t.prefixes[r.prefix_id as usize].tokens;
            assert_eq!(r.prefix_len, declared.min(r.prefill_tokens));
            assert!(r.prefix_len >= 1);
        }
        for r in t.requests.iter().filter(|r| r.tenant == 0) {
            total0 += 1;
            if r.prefix_id != NO_PREFIX {
                hits0 += 1;
            }
        }
        // share_ratio 0.6 for tenant 0; 1.0 for tenant 1.
        let share0 = hits0 as f64 / total0 as f64;
        assert!((share0 - 0.6).abs() < 0.05, "share {share0}");
        assert!(t
            .requests
            .iter()
            .filter(|r| r.tenant == 1)
            .all(|r| r.prefix_id == 3));
    }

    #[test]
    fn arming_prefixes_does_not_perturb_the_base_trace() {
        // The prefix draw runs on a fork of a *clone* of the length RNG, so
        // configuring prefixes must leave every (arrival, lengths, tenant,
        // priority) tuple bit-identical — only the prefix columns change.
        let plain = mix().generate(1_500, &mut SimRng::new(32));
        let shared = prefixed_mix().generate(1_500, &mut SimRng::new(32));
        let strip = |t: &Trace| -> Vec<(SimTime, u64, u64, u32, u8)> {
            t.requests
                .iter()
                .map(|r| {
                    (
                        r.arrival,
                        r.prefill_tokens,
                        r.decode_tokens,
                        r.tenant,
                        r.priority,
                    )
                })
                .collect()
        };
        assert_eq!(strip(&plain), strip(&shared));
        assert!(plain.requests.iter().all(|r| r.prefix_id == NO_PREFIX));
        assert!(shared.requests.iter().any(|r| r.prefix_id != NO_PREFIX));
    }

    #[test]
    fn fit_arrivals_recovers_rate_and_burstiness() {
        let w = TraceWorkload::chat_1m();
        let t = w.generate(
            20_000,
            &ArrivalProcess::Gamma { qps: 6.0, cv: 2.5 },
            &mut SimRng::new(24),
        );
        match t.fit_arrivals() {
            ArrivalProcess::Gamma { qps, cv } => {
                assert!((qps / 6.0 - 1.0).abs() < 0.1, "qps {qps}");
                assert!((cv / 2.5 - 1.0).abs() < 0.15, "cv {cv}");
            }
            other => panic!("expected Gamma, fitted {other:?}"),
        }
        let static_trace = w.generate(10, &ArrivalProcess::Static, &mut SimRng::new(25));
        assert_eq!(static_trace.fit_arrivals(), ArrivalProcess::Static);
        // Near-deterministic gaps (fixed-rate load generator) must keep
        // their tiny measured CV — not collapse to Poisson's CV of 1.
        let mut even = w.generate(100, &ArrivalProcess::Static, &mut SimRng::new(26));
        for (i, r) in even.requests.iter_mut().enumerate() {
            r.arrival = SimTime::from_secs_f64(i as f64);
        }
        match even.fit_arrivals() {
            ArrivalProcess::Gamma { qps, cv } => {
                assert!((qps - 1.0).abs() < 1e-9, "qps {qps}");
                assert!(cv <= 1e-3, "cv {cv} should stay near-deterministic");
            }
            other => panic!("expected tiny-cv Gamma, fitted {other:?}"),
        }
    }

    #[test]
    fn amplify_preserves_mix_and_rate() {
        let small = mix().generate(1_000, &mut SimRng::new(26));
        let big = small.amplify(50_000, &mut SimRng::new(27));
        assert_eq!(big.len(), 50_000);
        assert_eq!(big.tenants, small.tenants);
        assert!(big
            .requests
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        // Rate within 10% of the source.
        let rate = |t: &Trace| {
            (t.len() - 1) as f64
                / t.requests
                    .last()
                    .unwrap()
                    .arrival
                    .duration_since(t.requests[0].arrival)
                    .as_secs_f64()
        };
        assert!((rate(&big) / rate(&small) - 1.0).abs() < 0.1);
        // Tenant mix within a few points of the source.
        let frac =
            |t: &Trace| t.requests.iter().filter(|r| r.tenant == 0).count() as f64 / t.len() as f64;
        assert!((frac(&big) - frac(&small)).abs() < 0.05);
        // Bootstrapped tuples keep tenant↔priority pairing intact.
        for r in &big.requests {
            let expect = if r.tenant == 0 { 0 } else { 2 };
            assert_eq!(r.priority, expect);
        }
    }

    #[test]
    fn deterministic_generation() {
        let w = TraceWorkload::chat_1m();
        let t1 = w.generate(
            20,
            &ArrivalProcess::Poisson { qps: 5.0 },
            &mut SimRng::new(9),
        );
        let t2 = w.generate(
            20,
            &ArrivalProcess::Poisson { qps: 5.0 },
            &mut SimRng::new(9),
        );
        assert_eq!(t1, t2);
    }
}
