//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists exactly these, in this order (a test checks it),
//! and [`Metrics::render`] refuses to print anything else or to leave any
//! of them out.

use crate::tracer::Family;

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_req_per_s", "1/s"),
    ("search_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fidelity_e2e_p50_err_pct", "%"),
    ("fidelity_e2e_p95_err_pct", "%"),
];

/// Per-layer metrics that are not a timed call family.
const LAYER_EXTRAS: [(&str, &str); 28] = [
    ("trace.events", "count"),
    ("replica.batch_size_mean", "requests"),
    ("replica.batch_tokens_mean", "tokens"),
    ("replica.preemptions", "count"),
    ("memory.prefix_hit_rate", "ratio"),
    ("memory.prefix_tokens_saved", "tokens"),
    ("timing.hit_rate", "ratio"),
    ("timing.cached_shapes", "count"),
    ("sharded.windows", "count"),
    ("sharded.mispredictions", "count"),
    ("sharded.clean_window_share", "ratio"),
    ("sharded.rollback_events", "count"),
    ("sharded.rollback_share", "ratio"),
    ("sharded.streamed_effects", "count"),
    ("sharded.fallback", "count"),
    ("search.configs", "count"),
    ("search.feasible", "count"),
    ("search.probes", "count"),
    ("search.probe_requests", "count"),
    ("search.evaluate.p50_s", "s"),
    ("search.evaluate.max_s", "s"),
    ("onboarding.calls", "count"),
    ("onboarding.self_s", "s"),
    ("workload.requests", "count"),
    ("workload.generate_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Per-layer metrics, printed by traced runs: `calls`, `self_s`, `p50_ns`
/// and `p99_ns` for every timed call family, then the layer counts.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for family in Family::ALL {
        for (stat, unit) in [
            ("calls", "count"),
            ("self_s", "s"),
            ("p50_ns", "ns"),
            ("p99_ns", "ns"),
        ] {
            out.push((format!("{}.{stat}", family.name()), unit));
        }
    }
    out.extend(LAYER_EXTRAS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Metric values collected by one run, printed against the catalogue.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Records `name = value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Renders the values as the `metrics` JSON object in catalogue order,
    /// and one `name value unit` line per metric for people.
    ///
    /// # Errors
    ///
    /// Names a metric that is missing, unknown, set twice, or not finite.
    pub fn render(&self, catalogue: &[(String, &str)]) -> Result<(String, String), String> {
        let mut json = String::from("{");
        let mut lines = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let mut found = self.values.iter().filter(|(n, _)| n == name);
            let (_, value) = found
                .next()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if found.next().is_some() {
                return Err(format!("metric {name} was set twice"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
            lines.push_str(&format!("{name:<32} {value:>18.6} {unit}\n"));
        }
        json.push('}');
        if let Some((name, _)) = self
            .values
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {name} is not in the catalogue"));
        }
        Ok((json, lines))
    }
}
