//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public function, made by this
//! benchmark: name, start, end, the span that caused it, the lane (thread
//! role) it ran on, and the request it served — a pipeline chunk's
//! `(run, object)` or a query's index. Spans stay in memory while the
//! workload runs; [`write_tsv`] writes them out once it has ended.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The request a span served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    None,
    Chunk { run: u32, object: u32 },
    Query(u64),
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub lane: u32,
    pub req: Req,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span ids are unique across tracers, so spans of several tracers can
/// be analysed together.
static NEXT_SPAN: AtomicU32 = AtomicU32::new(0);

/// Timestamps of every tracer count from this process-wide origin.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A fresh span id, for callers that must hand it to children before
    /// the parent ends.
    pub fn id(&self) -> u32 {
        NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a previously taken id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u32,
        name: &'static str,
        parent: Option<u32>,
        lane: u32,
        req: Req,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(epoch()).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            lane,
            req,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        };
        self.spans.lock().expect("span buffer").push(span);
    }

    /// Run `f` inside a span; `f` receives the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        lane: u32,
        req: Req,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, lane, req, start, Instant::now());
        out
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Write `spans` as one tab-separated line each:
/// `id parent name lane req start_ns end_ns self_ns`.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let selfs = self_times(spans);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\tname\tlane\treq\tstart_ns\tend_ns\tself_ns"
    )?;
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let req = match s.req {
            Req::None => "-".to_string(),
            Req::Chunk { run, object } => format!("chunk:{run}:{object}"),
            Req::Query(i) => format!("query:{i}"),
        };
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{req}\t{}\t{}\t{}",
            s.id, s.name, s.lane, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    out.flush()
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Per-name totals over a set of spans: count, summed self time and
/// summed duration.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub count: usize,
    pub self_ns: u64,
    pub dur_ns: u64,
    /// Every span's duration, for percentiles.
    pub durs_ns: Vec<u64>,
}

pub fn totals_by_name(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += selfs[&s.id];
        t.dur_ns += s.dur_ns();
        t.durs_ns.push(s.dur_ns());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            lane: 0,
            req: Req::None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // Parent 0..100; children 10..30 and 20..50 overlap (union 10..50),
        // 90..120 sticks out past the parent's end (counts 90..100).
        // Grandchild 12..14 belongs to child 1, not to the parent.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 90, 120),
            span(4, Some(1), 12, 14),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 100 - 40 - 10);
        assert_eq!(selfs[&1], 20 - 2);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 2);
    }

    #[test]
    fn span_without_children_is_all_self() {
        let spans = vec![span(7, None, 5, 25)];
        assert_eq!(self_times(&spans)[&7], 20);
    }

    #[test]
    fn tracer_records_parent_links_and_requests() {
        let tracer = Tracer::default();
        tracer.span("outer", None, 0, Req::Query(3), |outer| {
            tracer.span("inner", Some(outer), 0, Req::Query(3), |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.req, Req::Query(3));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["outer"].self_ns + totals["inner"].self_ns,
            outer.dur_ns()
        );
    }
}
