//! The three workloads and what they share: how a query is sent and how
//! its answers are tallied.

pub mod generate;
pub mod out_of_core;
pub mod serve_under_ingest;

use std::time::Duration;

use vita_serve::{QueryRequest, QueryResponse, QueryService};

use crate::fixture::{guarded, kind_of, SERVE_SPANS};
use crate::report::Outcome;
use crate::stats::{median, windowed_percentile};
use crate::trace::{Req, Tracer};

/// An answer slower than this misses the goodput count (ms).
pub const LATENCY_LIMIT_MS: f64 = 10.0;

/// Workload parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// `QueryService::execute`, under a span when traced; a panic is `None`.
pub fn execute(
    svc: &QueryService,
    req: &QueryRequest,
    index: u64,
    tracer: Option<&Tracer>,
    lane: u32,
) -> Option<QueryResponse> {
    guarded(|| match tracer {
        None => svc.execute(req),
        Some(t) => t.span(
            SERVE_SPANS[kind_of(req)],
            None,
            lane,
            Req::Query(index),
            |_| svc.execute(req),
        ),
    })
}

/// Latency, correctness and size of the answers of one phase, whose
/// answers come in groups (a `generate` batch's sample, an `out_of_core`
/// round, the whole open-loop phase).
#[derive(Debug, Default)]
pub struct Tally {
    latencies_ms: Vec<f64>,
    rows: usize,
    /// The open group's answers correct and within [`LATENCY_LIMIT_MS`].
    good: usize,
    /// Time the open group's answers account for: their latencies in a
    /// closed loop, one schedule interval each in an open loop, s.
    span_s: f64,
    /// Goodput of each closed group.
    goodputs: Vec<f64>,
}

impl Tally {
    pub fn add(&mut self, latency_ms: f64, correct: bool, rows: usize, span_s: f64) {
        self.latencies_ms.push(latency_ms);
        self.good += usize::from(correct && latency_ms <= LATENCY_LIMIT_MS);
        self.span_s += span_s;
        self.rows += rows;
    }

    /// Close the open group of answers.
    pub fn end_group(&mut self) {
        if self.span_s > 0.0 {
            self.goodputs.push(self.good as f64 / self.span_s);
        }
        (self.good, self.span_s) = (0, 0.0);
    }

    pub fn rows_per_query(&self) -> f64 {
        self.rows as f64 / self.latencies_ms.len().max(1) as f64
    }

    /// The median latency over every answer, the 99th percentile of the
    /// median window of answers, and the median of the groups' goodputs:
    /// in a closed loop goodput is the inverse of the mean latency, which
    /// one slow group would otherwise move.
    pub fn emit(&mut self, out: &mut Outcome) {
        self.end_group();
        out.percentile_metric("query_p50_ms", &self.latencies_ms, 0.5);
        let n = self.latencies_ms.len();
        match windowed_percentile(&self.latencies_ms, 0.99) {
            Some(v) => out.metric_n("query_p99_ms", v, n),
            None => out.notes.push(format!(
                "query_p99_ms: {n} answers fill no window with ten beyond its 0.99 quantile; \
                 not printed"
            )),
        }
        if let Some(m) = median(&self.goodputs) {
            out.metric_n("query_goodput_rps", m, self.latencies_ms.len());
        }
    }
}

/// `setup_s` and `peak_rss_mb`, which every workload reports.
/// `peak_rss_mb` is the process's `VmHWM`, or, given `peaks_mb`, their
/// median.
pub fn emit_common(out: &mut Outcome, setups_s: &[f64], peaks_mb: &[f64]) {
    if let Some(m) = median(setups_s) {
        out.metric_n("setup_s", m, setups_s.len());
    }
    match median(peaks_mb) {
        Some(m) => out.metric_n("peak_rss_mb", m, peaks_mb.len()),
        None => {
            if let Some(rss) = crate::stats::peak_rss_mb() {
                out.metric("peak_rss_mb", rss);
            }
        }
    }
}
