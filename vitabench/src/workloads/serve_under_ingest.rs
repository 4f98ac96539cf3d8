//! `serve_under_ingest`: open-loop queries against the all-resident
//! segmented backend while a paced writer keeps ingesting.
//!
//! Set-up preloads a corpus that fits in memory with one `run_many` pair.
//! Then one thread issues all six query kinds at a fixed rate below the
//! knee, over `RunScope::All` and the two preloaded runs, each timed from
//! its due time; beside it one writer thread ingests a small `run_many`
//! pair per period on an absolute schedule. Afterwards a fixed sample of
//! requests is re-run and compared with a `Repository` oracle imported
//! from the same export.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vita_core::prelude::*;
use vita_serve::{QueryRequest, QueryResponse, QueryService};
use vita_storage::AnyRepository;

use super::{emit_common, execute, Params, Tally};
use crate::fixture::{canonical, guarded, office_text, plausible, scenario_pair, QueryGen, Scale};
use crate::layers::{emit, LayerInputs, StorageTotals};
use crate::loadgen::{open_loop, paced};
use crate::pipeline::LANE_MAIN;
use crate::report::Outcome;
use crate::stats::derive;
use crate::system::System;
use crate::trace::{Req, Tracer};

/// Each of the two preloaded runs: 60 objects for 30 s at 20 Hz.
pub const PRELOAD: Scale = Scale {
    objects: 60,
    secs: 30,
    hz: 20.0,
};
/// Each of the two runs the writer ingests per period.
pub const WRITER: Scale = Scale {
    objects: 10,
    secs: 10,
    hz: 1.0,
};
/// A pair takes a few milliseconds of both cores; one every half second
/// keeps the writer's share of the run under the 1% of queries the 99th
/// percentile looks at.
pub const WRITE_PERIOD: Duration = Duration::from_millis(500);
/// Offered query rate, requests per second.
pub const RATE: f64 = 300.0;
/// Set-ups per run; `setup_s` is their median, the last one is measured.
const SETUPS: usize = 5;
/// Requests re-run against the oracle after the phase.
const ORACLE_SAMPLE: u64 = 60;

pub fn run(p: Params) -> Outcome {
    let mut out = Outcome::default();
    let text = office_text();
    let backend = StorageBackend::segmented();
    let setup_tracer = Tracer::default();
    let tracer = p.trace.then(Tracer::default);
    let tracer = tracer.as_ref();

    let mut setups_s = Vec::new();
    let mut system = None;
    let mut preload = TableCounts::default();
    for _ in 0..SETUPS {
        drop(system.take()); // free the previous set-up before building the next
        let t0 = Instant::now();
        let mut s = System::build(&text, backend.clone(), p.trace.then_some(&setup_tracer));
        let stored = s.ingest(
            &scenario_pair(PRELOAD, p.seed, backend.clone()),
            Some(&setup_tracer),
        );
        setups_s.push(t0.elapsed().as_secs_f64());
        match stored {
            Ok(c) => preload = c,
            Err(e) => {
                out.op(false);
                out.notes.push(format!("preload failed: {e}"));
                return out;
            }
        }
        system = Some(s);
    }
    let mut system = system.expect("at least one set-up");
    let repo = system.repo();
    let Some(seg) = repo.as_segmented() else {
        out.check("the served repository is segmented", false);
        return out;
    };
    out.check(
        "the served repository runs all-resident (no spill config, e.g. from VITA_SPILL_DIR)",
        seg.spill_config().is_none(),
    );
    let before = seg.stats();
    let run_counts = [repo.counts(RunId(0).into()), repo.counts(RunId(1).into())];
    out.check(
        "preload stored what the pipeline reported",
        repo.counts(RunScope::All) == preload,
    );

    let svc = QueryService::new(Arc::clone(&repo));
    let scopes = vec![RunScope::All, RunId(0).into(), RunId(1).into()];
    let mut gen = QueryGen::new(
        system.env(),
        scopes.clone(),
        PRELOAD.objects,
        PRELOAD.secs * 1000,
        derive(p.seed, 4),
    );
    let mut oracle_gen = QueryGen::new(
        system.env(),
        scopes,
        PRELOAD.objects,
        PRELOAD.secs * 1000,
        derive(p.seed, 5),
    );
    let writer_pair = scenario_pair(WRITER, derive(p.seed, 6), backend.clone());

    let stop = AtomicBool::new(false);
    let phase_start = Instant::now();
    let (samples, writer) = std::thread::scope(|scope| {
        let stop = &stop;
        let writer_pair = &writer_pair;
        let system = &mut system;
        let writer = scope.spawn(move || {
            let (mut rows, mut wall, mut failed) = (TableCounts::default(), 0.0, 0u64);
            let (steps, lag) = paced(WRITE_PERIOD, stop, |_| {
                let t0 = Instant::now();
                match guarded(|| system.ingest(writer_pair, tracer)) {
                    Some(Ok(c)) => rows = rows + c,
                    _ => failed += 1,
                }
                wall += t0.elapsed().as_secs_f64();
            });
            (steps, lag, rows, wall, failed)
        });
        let samples = open_loop(
            RATE,
            p.seconds,
            |i| {
                let req = gen.next_request();
                let resp = execute(&svc, &req, i, tracer, LANE_MAIN);
                (req, resp)
            },
            |_, (req, resp)| {
                let rows = resp.as_ref().map_or(0, |r| r.len());
                let ok = resp.is_some_and(|r| {
                    plausible(&req, &r) && counts_consistent(&req, &r, preload, &run_counts)
                });
                (ok, rows)
            },
        );
        stop.store(true, Ordering::Relaxed);
        let writer = writer.join().expect("writer thread");
        (samples, writer)
    });
    let phase_s = phase_start.elapsed().as_secs_f64();
    let (steps, ingest_lag, written, writer_wall, writer_failed) = writer;
    out.attempted += steps;
    out.failed += writer_failed;
    out.notes.push(format!(
        "writer: {steps} run_many pairs, {} rows, largest start lag {ingest_lag:?}",
        written.total()
    ));

    let mut tally = Tally::default();
    for s in &samples {
        let (ok, rows) = s.verdict;
        out.op(ok);
        tally.add(s.latency.as_secs_f64() * 1e3, ok, rows, 1.0 / RATE);
    }

    let span = |name, f: &dyn Fn()| match tracer {
        Some(t) => t.span(name, None, LANE_MAIN, Req::None, |_| f()),
        None => f(),
    };
    span("storage.seal_now", &|| seg.seal_now());
    let after = seg.stats();
    out.check(
        format!(
            "serve_under_ingest never spills (spills = {})",
            after.spills
        ),
        after.spills == 0,
    );
    out.check(
        "every written row is stored",
        repo.counts(RunScope::All) == preload + written,
    );

    // The oracle: the locked single-table backend, imported from this
    // repository's export.
    let oracle = AnyRepository::import(&repo.export(), StorageBackend::Single)
        .map(|r| QueryService::new(Arc::new(r)));
    let mut agree = oracle.is_ok();
    if let Ok(oracle) = &oracle {
        for i in 0..ORACLE_SAMPLE {
            let req = oracle_gen.next_request();
            let got = execute(&svc, &req, i, None, LANE_MAIN);
            let want = oracle.execute(&req);
            let same = got.is_some_and(|g| canonical(&req, &g) == canonical(&req, &want));
            if !same {
                out.notes.push(format!("oracle disagrees on {req:?}"));
            }
            agree &= out.op(same);
        }
    }
    out.check(
        "after seal_now, sampled answers equal the Repository oracle's",
        agree,
    );

    if let Some(tracer) = tracer {
        let mut storage = StorageTotals::default();
        storage.add_delta(&before, &after);
        storage.max_resident_rows = after.resident_rows as u64;
        let inputs = LayerInputs {
            rounds: 1,
            pipeline: written,
            storage,
            rows_per_query: tally.rows_per_query(),
            lag_ms: samples.iter().map(|s| s.lag.as_secs_f64() * 1e3).collect(),
            ingest_lag_ms: ingest_lag.as_secs_f64() * 1e3,
            ..LayerInputs::default()
        };
        emit(&mut out, &setup_tracer.spans(), &tracer.spans(), &inputs);
        out.trace_spans = [setup_tracer.spans(), tracer.spans()].concat();
    } else {
        emit_common(&mut out, &setups_s, &[]);
        out.metric_n(
            "gen_rows_per_s",
            written.total() as f64 / writer_wall,
            steps as usize,
        );
        out.metric("ingest_rows_per_s", written.total() as f64 / phase_s);
        tally.emit(&mut out);
    }
    out
}

/// Counts are the one kind whose exact value is known mid-ingest: the
/// preloaded runs are complete, and the whole store only grows.
fn counts_consistent(
    req: &QueryRequest,
    resp: &QueryResponse,
    preload: TableCounts,
    runs: &[TableCounts; 2],
) -> bool {
    match (req, resp) {
        (QueryRequest::Counts { scope }, QueryResponse::Counts(c)) => match scope.run() {
            Some(RunId(r)) if (r as usize) < runs.len() => *c == runs[r as usize],
            _ => {
                c.trajectories >= preload.trajectories
                    && c.rssi >= preload.rssi
                    && c.fixes >= preload.fixes
            }
        },
        _ => true,
    }
}
