//! The metric catalogue and the per-run report.
//!
//! `END_TO_END` and `PER_LAYER` are the single source of the names and
//! units a run prints; `BENCHMARK.json` at the repository root lists the
//! same names and units (a test keeps the two in step).

use crate::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics with a regression bound, printed in the result of
/// an untraced run of every workload: `(name, unit)`. What each means per
/// workload is in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("hit_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics an untraced run also prints (and records) where
/// they apply, without a bound: on the reference host their run-to-run
/// spread is wider than any bound the benchmark may set.
pub const UNBOUNDED: &[(&str, &str)] = &[
    ("knee_rps", "req/s"),
    ("sim_rps", "req/s"),
    ("p50_ms.low", "ms"),
    ("p50_ms.high", "ms"),
    ("p99_ms.low", "ms"),
    ("p99_ms.high", "ms"),
    ("fail_ratio", "ratio"),
];

/// Per-layer metrics, printed by a traced run of every workload. A layer
/// that a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_us.p99", "us"),
    ("loadgen.achieved_ratio", "ratio"),
    ("wire.get_encode_ns", "ns"),
    ("wire.reply_decode_ns", "ns"),
    ("wire.reply_bytes", "bytes"),
    ("wire.hint_batch_encode_ns", "ns"),
    ("md5.url_key_ns", "ns"),
    ("obs.trace_record_ns", "ns"),
    ("cache.lru_get_ns", "ns"),
    ("cache.lru_insert_ns", "ns"),
    ("cache.hint_lookup_ns", "ns"),
    ("cache.hint_insert_ns", "ns"),
    ("node.local_us.p50", "us"),
    ("node.local_us.p99", "us"),
    ("node.peer_us.p50", "us"),
    ("node.origin_us.p50", "us"),
    ("node.service_us.p50", "us"),
    ("node.service_us.p99", "us"),
    ("node.find_nearest_ns", "ns"),
    ("node.redirect_ratio", "ratio"),
    ("node.admission_rejects", "count"),
    ("node.service_errors", "count"),
    ("node.hint_updates_sent", "count"),
    ("node.hint_updates_received", "count"),
    ("node.hint_updates_filtered", "count"),
    ("node.hint_batch_overflow", "count"),
    ("node.false_positives", "count"),
    ("node.probe_useful_ratio", "ratio"),
    ("node.evictions", "count"),
    ("netpoll.writev_batches", "count"),
    ("netpoll.wakeups_coalesced", "count"),
    ("netpoll.writev_per_reply", "ratio"),
    ("pool.peer_get_us.p50", "us"),
    ("pool.origin_get_us.p50", "us"),
    ("pool.live_connections", "count"),
    ("pool.reconnect_attempts", "count"),
    ("origin.requests", "count"),
    ("origin.body_gen_us", "us"),
    ("trace.generate_rps", "req/s"),
    ("trace.materialize_s", "s"),
    ("trace.replay_rps", "req/s"),
    ("core.rps.hierarchy", "req/s"),
    ("core.rps.directory", "req/s"),
    ("core.rps.hints", "req/s"),
    ("trace_overhead", "ratio"),
    ("unattributed_share", "ratio"),
];

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Every failed correctness or purpose check, in words.
    pub problems: Vec<String>,
    /// Operations attempted in the measured steps.
    pub attempted: u64,
    /// Operations that failed in the measured steps.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Everything else worth keeping: per-step figures, sample counts,
    /// workload parameters.
    pub detail: Vec<(String, Json)>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a detail for the run record.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.detail.push((key.to_string(), value.into()));
    }

    /// Fails the run unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The `metrics` object for `catalogue`, every name present (0 when a
    /// layer was not exercised).
    pub fn metrics(&self, catalogue: &[(&str, &str)]) -> Json {
        let mut out = Json::obj();
        for (name, unit) in catalogue {
            let value = self.values.get(*name).copied().unwrap_or(0.0);
            out.push(name, Json::obj().with("value", value).with("unit", *unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the catalogue's names and units.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            let listed: Vec<(String, String)> = body
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect(key);
                        let rest = &entry[at + key.len() + 2..];
                        let rest = &rest[rest.find('"').expect("value") + 1..];
                        rest[..rest.find('"').expect("value end")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{section} in BENCHMARK.json");
        }
    }
}
