//! `generate`: one `Vita::run_many` batch of two scenarios (trilateration
//! and fingerprint-kNN) on the E11 office, repeated for the run's length.
//!
//! Every batch starts from a freshly built toolkit with the default
//! storage backend and `StreamOptions::default()`, and draws its scenario
//! seeds from the run's seed and the batch index: a run's median then
//! spans many datasets, not one. The batch's rows are read back with a
//! short closed-loop query sample, and re-ingested into a fresh
//! default-backend repository through `accept_run`, which isolates the
//! default backend's ingest cost.

use std::time::Instant;

use vita_core::prelude::*;
use vita_serve::{QueryRequest, QueryResponse, QueryService};
use vita_storage::{AnyRepository, ProductSink};

use super::{emit_common, execute, Params, Tally};
use crate::fixture::{guarded, office_text, plausible, scenario_pair, QueryGen, Scale};
use crate::layers::{emit, LayerInputs};
use crate::pipeline::{LANE_MAIN, LANE_PRODUCER, LANE_STAGE};
use crate::report::Outcome;
use crate::stats::{self, derive, median};
use crate::system::{corpus_batches, System};
use crate::trace::{self_times, Span, Tracer};

/// Each of the two scenarios.
pub const SCALE: Scale = Scale {
    objects: 300,
    secs: 120,
    hz: 1.0,
};
/// Closed-loop queries over each finished batch. The first spatial query
/// on each floor after a batch rebuilds that floor's grid; at 100 queries
/// those two rebuilds are 2% of the answers, so the 99th percentile lands
/// among them rather than on the edge between them and the rest.
const QUERIES_PER_BATCH: u64 = 100;
/// Rows per `accept_run` call when re-ingesting a batch.
const REPLAY_ROWS: usize = 1_000;
/// Fewest batches a run makes, however short `--seconds` is.
const MIN_BATCHES: usize = 5;
/// How far the layers' self times on the blocking path may stray from
/// the untraced wall time, in percent of it.
pub const BLOCKING_PATH_TOLERANCE_PCT: f64 = 15.0;

/// The scenario pair of batch `batch`.
fn batch_pair(seed: u64, batch: usize) -> [vita_core::ScenarioConfig; 2] {
    scenario_pair(
        SCALE,
        derive(seed, 1000 + batch as u64),
        StorageBackend::default(),
    )
}

pub fn run(p: Params) -> Outcome {
    let text = office_text();
    let mut out = Outcome::default();
    let (mut counts_agree, mut replays_agree) = (true, true);

    let mut setups_s = Vec::new();
    let mut gen_rate = Vec::new();
    let mut ingest_rate = Vec::new();
    let mut queries = Tally::default();
    let mut untraced_ms = Vec::new();
    let mut peaks_mb = Vec::new();

    let setup_tracer = Tracer::default();
    let mut measured: Vec<Span> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut accounted_ms = Vec::new();
    let mut traced_rows = TableCounts::default();

    let start = Instant::now();
    let mut batch = 0usize;
    while batch < MIN_BATCHES || start.elapsed() < p.seconds {
        let pair = batch_pair(p.seed, batch);
        // The traced replay of the same batch; traced and untraced take
        // turns going first, so neither always runs on a warmer machine.
        let mut traced = |out: &mut Outcome| -> Option<TableCounts> {
            let tracer = Tracer::default();
            let mut system = System::build(&text, StorageBackend::default(), Some(&setup_tracer));
            let t0 = Instant::now();
            let stored = guarded(|| system.ingest(&pair, Some(&tracer)));
            let wall = t0.elapsed();
            if !out.op(matches!(stored, Some(Ok(_)))) {
                return None;
            }
            let counts = system.repo().counts(RunScope::All);
            traced_rows = traced_rows + counts;
            let spans = tracer.spans();
            accounted_ms.push(blocking_path_ms(&spans));
            measured.extend(spans);
            traced_ms.push(wall.as_secs_f64() * 1e3);
            Some(counts)
        };
        let traced_first = p.trace && batch % 2 == 1;
        let early = if traced_first { traced(&mut out) } else { None };

        // A batch is this workload's unit of work: its memory peak is
        // measured on its own, so that one batch's allocator luck does not
        // stand for the whole run.
        let rss_reset = stats::reset_peak_rss();
        let t0 = Instant::now();
        let mut system = System::build(&text, StorageBackend::default(), None);
        setups_s.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let reported = guarded(|| system.ingest(&pair, None));
        let wall = t1.elapsed().as_secs_f64();
        let Some(Ok(reported)) = reported else {
            out.op(false);
            out.notes
                .push(format!("batch {batch}: run_many failed: {reported:?}"));
            batch += 1;
            continue;
        };
        out.op(true);
        let repo = system.repo();
        let stored = repo.counts(RunScope::All);
        counts_agree &= stored == reported;
        gen_rate.push(stored.total() as f64 / wall);
        untraced_ms.push(wall * 1e3);

        if p.trace {
            let replayed = if traced_first {
                early
            } else {
                traced(&mut out)
            };
            replays_agree &= replayed.is_none_or(|c| c == stored);
        } else {
            query_sample(&mut out, &mut queries, &system, stored, p.seed, batch);
            ingest_rate.push(replay(&mut out, &repo, stored));
            if let Some(mb) = stats::peak_rss_mb().filter(|_| rss_reset) {
                peaks_mb.push(mb);
            }
        }
        batch += 1;
    }
    out.notes.push(format!("{batch} batches"));
    out.check(
        "counts(All) equal the rows the pipeline reports, every batch",
        counts_agree,
    );
    if p.trace {
        out.check(
            "the traced replay stores the same row counts as run_many",
            replays_agree,
        );
        let (u, t, a) = (
            median(&untraced_ms).unwrap_or(f64::NAN),
            median(&traced_ms).unwrap_or(f64::NAN),
            median(&accounted_ms).unwrap_or(f64::NAN),
        );
        let blocking_path_pct = 100.0 * a / u;
        out.check(
            format!(
                "blocking-path self times ({a:.1} ms) account for the untraced wall \
                 ({u:.1} ms) within {BLOCKING_PATH_TOLERANCE_PCT}%"
            ),
            (blocking_path_pct - 100.0).abs() <= BLOCKING_PATH_TOLERANCE_PCT,
        );
        let inputs = LayerInputs {
            rounds: traced_ms.len(),
            pipeline: traced_rows,
            overhead_pct: 100.0 * (t - u) / u,
            blocking_path_pct,
            ..LayerInputs::default()
        };
        emit(&mut out, &setup_tracer.spans(), &measured, &inputs);
        out.trace_spans = [setup_tracer.spans(), measured].concat();
    } else {
        emit_common(&mut out, &setups_s, &peaks_mb);
        if let Some(m) = median(&gen_rate) {
            out.metric_n("gen_rows_per_s", m, gen_rate.len());
        }
        if let Some(m) = median(&ingest_rate) {
            out.metric_n("ingest_rows_per_s", m, ingest_rate.len());
        }
        queries.emit(&mut out);
    }
    out
}

/// Closed-loop queries over a finished batch. With no ingest running,
/// counts must equal the stored counts exactly. Each batch draws its own
/// queries: a few expensive answers (the floors' first spatial queries)
/// make up most of a sample's time, and with one sample for the whole
/// run their arguments would decide the run's figures.
fn query_sample(
    out: &mut Outcome,
    tally: &mut Tally,
    system: &System,
    stored: TableCounts,
    seed: u64,
    batch: usize,
) {
    let svc = QueryService::new(system.repo());
    let scopes = vec![RunScope::All, RunId(0).into(), RunId(1).into()];
    let mut gen = QueryGen::new(
        system.env(),
        scopes,
        SCALE.objects,
        SCALE.secs * 1000,
        derive(derive(seed, 3), batch as u64),
    );
    for i in 0..QUERIES_PER_BATCH {
        let req = gen.next_request();
        let t0 = Instant::now();
        let resp = execute(&svc, &req, i, None, LANE_MAIN);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let correct = resp.as_ref().is_some_and(|r| {
            plausible(&req, r)
                && match (&req, r) {
                    (QueryRequest::Counts { scope }, QueryResponse::Counts(c)) => {
                        *scope != RunScope::All || *c == stored
                    }
                    _ => true,
                }
        });
        out.op(correct);
        tally.add(ms, correct, resp.map_or(0, |r| r.len()), ms / 1e3);
    }
    tally.end_group();
}

/// Re-ingest every row of the batch into a fresh default-backend
/// repository; returns rows per second of `accept_run` time.
fn replay(out: &mut Outcome, repo: &AnyRepository, stored: TableCounts) -> f64 {
    let batches = corpus_batches(repo, &repo.run_ids(), REPLAY_ROWS);
    let fresh = AnyRepository::new(StorageBackend::default());
    let t0 = Instant::now();
    let mut failed = 0;
    for (run, batch) in batches {
        failed += usize::from(guarded(|| fresh.accept_run(run, batch)).is_none());
    }
    let secs = t0.elapsed().as_secs_f64();
    let counts = fresh.counts(RunScope::All);
    out.op(failed == 0 && counts == stored);
    counts.total() as f64 / secs
}

/// Time on the blocking path of one traced schedule, from layer self
/// times: positioner set-up (before any chunk flows) plus, on the stage
/// worker that finished last, RSSI, positioning, storage appends and the
/// wait for chunks. What remains of the wall time is glue the spans do not
/// name (thread start and join, batch conversion).
fn blocking_path_ms(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let setup: u64 = spans
        .iter()
        .filter(|s| s.name == "positioning.setup")
        .map(|s| s.dur_ns())
        .sum();
    let is_stage = |s: &&Span| (LANE_STAGE..LANE_PRODUCER).contains(&s.lane);
    let Some(last) = spans.iter().filter(is_stage).max_by_key(|s| s.end_ns) else {
        return setup as f64 / 1e6;
    };
    let lane: u64 = spans
        .iter()
        .filter(|s| s.lane == last.lane)
        .filter(|s| {
            matches!(
                s.name,
                "rssi.measure" | "positioning.position" | "storage.append" | "core.bus_recv"
            )
        })
        .map(|s| selfs[&s.id])
        .sum();
    (setup + lane) as f64 / 1e6
}
