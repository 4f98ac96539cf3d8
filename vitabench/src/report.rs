//! Metric declarations, the run outcome, and the one-line JSON result.

use crate::stats::percentile;
use crate::trace::Span;

/// End-to-end metrics, printed by every workload's untraced run. Must
/// match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("gen_rows_per_s", "rows/s"),
    ("ingest_rows_per_s", "rows/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_goodput_rps", "1/s"),
];

/// Per-layer metrics, printed by every workload's traced run. Must match
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dbi.parse_ms", "ms"),
    ("indoor.build_ms", "ms"),
    ("devices.deploy_ms", "ms"),
    ("positioning.setup_ms", "ms"),
    ("mobility.busy_ms", "ms"),
    ("mobility.chunks", "count"),
    ("mobility.samples", "count"),
    ("rssi.busy_ms", "ms"),
    ("rssi.rows", "count"),
    ("positioning.busy_ms", "ms"),
    ("positioning.rows", "count"),
    ("positioning.rows_per_sample", "ratio"),
    ("core.bus_send_blocked_ms", "ms"),
    ("core.bus_recv_wait_ms", "ms"),
    ("storage.append_ms", "ms"),
    ("storage.append_p99_us", "us"),
    ("storage.appends", "count"),
    ("storage.seals", "count"),
    ("storage.compactions", "count"),
    ("storage.seal_now_ms", "ms"),
    ("storage.spills", "count"),
    ("storage.spilled_rows", "count"),
    ("storage.page_ins", "count"),
    ("storage.writer_stalls", "count"),
    ("storage.max_resident_rows", "count"),
    ("storage.spill_bytes_per_row", "B/row"),
    ("serve.counts.p50_us", "us"),
    ("serve.counts.p99_us", "us"),
    ("serve.snapshot.p50_us", "us"),
    ("serve.snapshot.p99_us", "us"),
    ("serve.window.p50_us", "us"),
    ("serve.window.p99_us", "us"),
    ("serve.trace.p50_us", "us"),
    ("serve.trace.p99_us", "us"),
    ("serve.range.p50_us", "us"),
    ("serve.range.p99_us", "us"),
    ("serve.knn.p50_us", "us"),
    ("serve.knn.p99_us", "us"),
    ("serve.rows_per_query", "rows"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.ingest_lag_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.blocking_path_pct", "%"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or median.
    pub samples: Option<usize>,
}

/// What a workload run did: operations attempted and failed, the checks
/// it made, and the metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(description, passed)`.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Lines printed before the result, for a reader.
    pub notes: Vec<String>,
    /// The traced run's spans, written out once the run has ended.
    pub trace_spans: Vec<Span>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

impl Outcome {
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// Count one operation; `ok == false` counts it failed.
    pub fn op(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit_of(name),
            samples: None,
        });
    }

    /// A metric measured as a summary of `samples` samples.
    pub fn metric_n(&mut self, name: &str, value: f64, samples: usize) {
        self.metric(name, value);
        self.metrics.last_mut().expect("just pushed").samples = Some(samples);
    }

    /// The `q`-quantile of `samples` as metric `name`, if enough samples
    /// lie beyond it; otherwise a note says why it is missing.
    pub fn percentile_metric(&mut self, name: &str, samples: &[f64], q: f64) {
        match percentile(samples, q) {
            Some(v) => self.metric_n(name, v, samples.len()),
            None => self.notes.push(format!(
                "{name}: {} samples leave fewer than ten beyond the {q} quantile; not printed",
                samples.len()
            )),
        }
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The human-readable report followed by the one-line JSON result.
    /// `declared` are the metrics this mode must print; one that is
    /// missing or not finite fails the run.
    pub fn render(&mut self, declared: &[(&str, &str)]) -> String {
        for (name, _) in declared {
            let present = self
                .metrics
                .iter()
                .any(|m| m.name == *name && m.value.is_finite());
            self.check(format!("metric {name} measured"), present);
        }
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        for (what, ok) in &self.checks {
            if !ok {
                out.push_str(&format!("check FAILED: {what}\n"));
            }
        }
        out.push_str(&format!(
            "checks: {} passed of {}\n",
            self.checks.iter().filter(|(_, ok)| *ok).count(),
            self.checks.len()
        ));
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
            out.push_str(&format!("{} = {} {}{n}\n", m.name, m.value, m.unit));
        }
        let metrics: Vec<String> = declared
            .iter()
            .filter_map(|(name, _)| self.metrics.iter().find(|m| m.name == *name))
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let body = json.split(&format!("\"{key}\"")).nth(1).expect(key);
            let body = &body[..body.find(']').expect("list end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let rest = entry.split(&format!("\"{f}\"")).nth(1).expect(f);
                        rest.split('"').nth(1).expect(f).to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_is_last_and_lists_declared_metrics() {
        let mut o = Outcome::default();
        o.op(true);
        o.metric("setup_s", 0.5);
        o.percentile_metric("query_p99_ms", &[1.0; 50], 0.99);
        let text = o.render(&[("setup_s", "s"), ("query_p99_ms", "ms")]);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": false"), "{last}");
        assert!(last.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(!last.contains("query_p99_ms"));
        assert!(text.contains("50 samples leave fewer than ten"));
    }

    #[test]
    fn percentiles_print_with_their_sample_count() {
        let mut o = Outcome::default();
        let samples: Vec<f64> = (0..2000).map(f64::from).collect();
        o.percentile_metric("query_p99_ms", &samples, 0.99);
        let text = o.render(&[("query_p99_ms", "ms")]);
        assert!(text.contains("query_p99_ms = 1979 ms (n=2000)"), "{text}");
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": true"));
    }
}
