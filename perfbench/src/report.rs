//! The result a run prints: checks, metrics and run metadata.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), every workload, as `(name, unit)`.
/// `BENCHMARK.json` lists the same names; a self-test keeps them equal.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), every workload, as `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.emit_s", "s"),
    ("workloads.accesses", "count"),
    ("coherence.multi_chip_s", "s"),
    ("coherence.single_chip_s", "s"),
    ("coherence.acc_per_s", "1/s"),
    ("coherence.misses.multi_chip", "count"),
    ("coherence.misses.single_chip", "count"),
    ("coherence.misses.intra_chip", "count"),
    ("sequitur.push_s", "s"),
    ("sequitur.sym_per_s", "1/s"),
    ("sequitur.rules", "count"),
    ("core.walk_s", "s"),
    ("core.strides_s", "s"),
    ("core.origins_s", "s"),
    ("core.functions_s", "s"),
    ("core.engine.push_rec_per_s", "rec/s"),
    ("core.engine.streams_push_rec_per_s", "rec/s"),
    ("core.engine.walk_ms", "ms"),
    ("serve.wire.encode_ns_per_rec", "ns/rec"),
    ("serve.wire.decode_ns_per_rec", "ns/rec"),
    ("serve.route_ns_per_rec", "ns/rec"),
    ("serve.busy_frac", "fraction"),
    ("serve.queue.max_depth", "count"),
    ("serve.grammar_walks", "count"),
    ("serve.walks_per_query", "count"),
    ("runtime.efficiency", "fraction"),
    ("load.ack_p50_ms", "ms"),
    ("load.ack_p99_ms", "ms"),
    ("load.gen_late_p99_ms", "ms"),
    ("load.queries", "count"),
];

/// True when `name` is a valid metric name: it starts with a letter or
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Metrics in the order recorded: `(name, value, unit)`.
    metrics: Vec<(String, f64, String)>,
    /// Run metadata as `(key, JSON value)`.
    meta: Vec<(String, String)>,
}

impl Report {
    /// Counts one checked operation; a false `ok` counts it as failed
    /// and keeps `what` for the failure listing.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts `n` operations that succeeded without a separate check.
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.attempted = self.attempted.max(self.failed + 1);
        self.failed += 1;
        self.failures.push(what);
    }

    /// Records a metric value. A non-finite value is a failed check.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite: {value}"));
            return;
        }
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records one metadata entry (`value` is already JSON).
    pub fn meta(&mut self, key: &str, json_value: String) {
        self.meta.push((key.to_string(), json_value));
    }

    /// Records one metadata string.
    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta(key, json_string(value));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Failure messages, in the order found.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Fails the run unless exactly the `expected` metrics (with those
    /// units) were recorded among the contract ones.
    pub fn require(&mut self, expected: &[(&str, &str)]) {
        for &(name, unit) in expected {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some((_, _, u)) if u == unit => {}
                Some((_, _, u)) => self.fail(format!("metric {name} has unit {u}, want {unit}")),
                None => self.fail(format!("metric {name} was not measured")),
            }
        }
    }

    /// Human-readable metric lines, one per recorded metric.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric {name:<36} {value:>16} {unit}");
        }
        out
    }

    /// The metadata as one JSON object.
    pub fn render_meta(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The result object restricted to `names`: `correct`, `attempted`,
    /// `failed` and `metrics`, each value with all its digits.
    pub fn render_result(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|&(name, _)| {
                self.metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map(|(n, v, u)| {
                        format!(
                            "{}:{{\"value\":{},\"unit\":{}}}",
                            json_string(n),
                            json_number(*v),
                            json_string(u)
                        )
                    })
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// Every recorded metric (contract and extra) plus the metadata, for
    /// the results file.
    pub fn render_full(&self) -> String {
        let all: Vec<(&str, &str)> = self
            .metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect();
        format!(
            "{{\"meta\":{},\"result\":{}}}",
            self.render_meta(),
            self.render_result(&all)
        )
    }
}

/// `v` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives (never exponent notation).
pub fn json_number(v: f64) -> String {
    format!("{v}")
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_obsv::Json;

    /// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key} entry without {f}"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name), "metric {name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_the_measured_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.metric("wall_s", 1.25, "s");
        r.metric("extra", 3.0, "count");
        let line = r.render_result(&[("wall_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        let parsed = Json::parse(&line).expect("result line is JSON");
        assert!(parsed.get("metrics").and_then(|m| m.get("extra")).is_none());
    }

    #[test]
    fn missing_metric_fails_the_run() {
        let mut r = Report::default();
        r.metric("wall_s", 1.0, "s");
        r.require(&[("wall_s", "s"), ("cpu_s", "s")]);
        assert!(!r.correct());
        assert_eq!(r.failures().len(), 1);
    }
}
