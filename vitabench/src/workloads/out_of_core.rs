//! `out_of_core`: replaying generated corpora into the segmented backend
//! under a memory budget of a quarter of each corpus.
//!
//! Each round first sets up: it generates one corpus (trajectories, RSSI,
//! fixes) with one `run_many` pair from a seed drawn from the run's seed
//! and the round, cuts it into fixed-size batches in time order, and feeds
//! the same batches to an all-resident `Repository` that serves as the
//! oracle. A corpus takes only milliseconds to generate: set-ups spread
//! over the whole run, rather than bunched before it, keep the medians of
//! `setup_s` and `gen_rows_per_s` from hinging on how fast the host was in
//! one moment. The round then replays the corpus through `accept_run`
//! into a fresh spilling repository, timing only `accept_run`. Once the
//! replay has outgrown the budget, one closed-loop client follows every
//! batch with one query of each of the six kinds, about the older half of
//! the replayed time, which is spilled. Trajectories are sampled at 10 Hz
//! so that they are most of the corpus: the budget cannot hold them, and
//! trajectory queries page in.

use std::sync::Arc;
use std::time::Instant;

use vita_core::prelude::*;
use vita_serve::QueryService;
use vita_storage::{AnyRepository, ProductBatch, ProductSink, SpillConfig};

use super::{emit_common, execute, Params, Tally};
use crate::fixture::{guarded, office_text, plausible, scenario_pair, QueryGen, Scale};
use crate::layers::{emit, LayerInputs, StorageTotals};
use crate::pipeline::LANE_MAIN;
use crate::report::Outcome;
use crate::stats::{self, derive, median};
use crate::system::{corpus_batches, System};
use crate::trace::{Req, Tracer};

/// Each of the two runs of a corpus.
pub const CORPUS: Scale = Scale {
    objects: 20,
    secs: 60,
    hz: 10.0,
};
/// Rows per replayed `accept_run` batch.
pub const BATCH_ROWS: usize = 500;
/// Width of time-window queries: wide enough that a window into replayed
/// time usually spans a spilled segment.
const WINDOW_MS: u64 = 10_000;
/// The query kinds (indexes into `KINDS`) sent after each batch. Traces,
/// range and kNN queries, which no time bound prunes, page in every
/// spilled segment; they go twice, so that the median latency falls among
/// them and not on the edge between them and the answers the metadata or
/// the page-in cache serves.
const BURST: [usize; 9] = [0, 1, 2, 3, 4, 5, 3, 4, 5];
/// Fewest replay rounds a run makes.
const MIN_ROUNDS: usize = 2;
/// Requests compared with the oracle after each round.
const ORACLE_SAMPLE: u64 = 30;
/// Where spill files go, relative to the working directory.
pub const SPILL_DIR: &str = ".bench_out/spill";

struct Corpus {
    batches: Vec<(RunId, ProductBatch)>,
    counts: TableCounts,
    oracle: QueryService,
}

/// One set-up: build the toolkit, generate the corpus of `seed` with one
/// `run_many` pair, cut it into batches and load the oracle. Returns the
/// corpus and its stored rows per second of generation.
fn set_up(text: &str, seed: u64, tracer: &Tracer, traced: bool) -> Result<(Corpus, f64), String> {
    let mut system = System::build(text, StorageBackend::Single, traced.then_some(tracer));
    let t0 = Instant::now();
    let counts = system.ingest(
        &scenario_pair(CORPUS, seed, StorageBackend::Single),
        Some(tracer),
    )?;
    let gen_rate = counts.total() as f64 / t0.elapsed().as_secs_f64();
    let repo = system.repo();
    let batches = corpus_batches(&repo, &repo.run_ids(), BATCH_ROWS);
    let oracle = AnyRepository::new(StorageBackend::Single);
    for (run, batch) in &batches {
        oracle.accept_run(*run, batch.clone());
    }
    let corpus = Corpus {
        batches,
        counts,
        oracle: QueryService::new(Arc::new(oracle)),
    };
    Ok((corpus, gen_rate))
}

pub fn run(p: Params) -> Outcome {
    let mut out = Outcome::default();
    let text = office_text();
    let setup_tracer = Tracer::default();
    let tracer = p.trace.then(Tracer::default);
    let tracer = tracer.as_ref();

    let mut setups_s = Vec::new();
    let mut gen_rate = Vec::new();
    let mut peaks_mb = Vec::new();
    let (mut gen, mut oracle_gen) = {
        let site = System::build(&text, StorageBackend::Single, None);
        let scopes = vec![RunScope::All, RunId(0).into(), RunId(1).into()];
        let gen = |salt| {
            QueryGen::new(
                site.env(),
                scopes.clone(),
                CORPUS.objects,
                CORPUS.secs * 1000,
                derive(p.seed, salt),
            )
        };
        (gen(7), gen(8))
    };
    gen.window = WINDOW_MS;

    let span = |name, f: &mut dyn FnMut()| match tracer {
        Some(t) => t.span(name, None, LANE_MAIN, Req::None, |_| f()),
        None => f(),
    };
    let mut tally = Tally::default();
    let mut storage = StorageTotals::default();
    let mut ingest_rate = Vec::new();
    let (mut rows_kept, mut under_budget, mut agree) = (true, true, true);
    let mut query_index = 0u64;
    let mut rounds = 0usize;
    let start = Instant::now();
    while rounds < MIN_ROUNDS || start.elapsed() < p.seconds {
        // Each round's memory peak is measured on its own, as on
        // `generate`: the run's peak would otherwise be whichever corpus
        // happened to be largest.
        let rss_reset = stats::reset_peak_rss();
        let t0 = Instant::now();
        let seed = derive(p.seed, 2000 + rounds as u64);
        let (corpus, rate) = match set_up(&text, seed, &setup_tracer, p.trace) {
            Ok(set) => set,
            Err(e) => {
                out.op(false);
                out.notes.push(format!("corpus generation failed: {e}"));
                return out;
            }
        };
        setups_s.push(t0.elapsed().as_secs_f64());
        gen_rate.push(rate);
        if rounds == 0 {
            out.notes.push(format!(
                "the first corpus {:?} in {} batches",
                corpus.counts,
                corpus.batches.len()
            ));
        }
        let budget = corpus.counts.total() / 4;
        let spill = SpillConfig {
            memory_budget_rows: budget,
            ..SpillConfig::new(SPILL_DIR)
        };
        let repo = Arc::new(AnyRepository::new(StorageBackend::Segmented {
            spill: Some(spill),
        }));
        let seg = repo.as_segmented().expect("a segmented repository");
        let svc = QueryService::new(Arc::clone(&repo));
        let before = seg.stats();
        let mut replayed_ms = 0;
        let (mut ingest_s, mut ingested) = (0.0, 0usize);
        for (i, (run, batch)) in corpus.batches.iter().enumerate() {
            if let ProductBatch::Trajectories(rows) = batch {
                replayed_ms = replayed_ms.max(rows.last().map_or(0, |s| s.t.0));
            }
            let batch = batch.clone();
            let rows = batch.len();
            let t0 = Instant::now();
            let ok = match tracer {
                Some(t) => t.span("storage.append", None, LANE_MAIN, Req::None, |_| {
                    guarded(|| repo.accept_run(*run, batch))
                }),
                None => guarded(|| repo.accept_run(*run, batch)),
            };
            ingest_s += t0.elapsed().as_secs_f64();
            if out.op(ok.is_some()) {
                ingested += rows;
            }
            if tracer.is_some() {
                span("storage.stats", &mut || {
                    storage.max_resident_rows = storage
                        .max_resident_rows
                        .max(seg.stats().resident_rows as u64);
                });
            }
            // Query once the replay holds twice the budget, about the
            // older half of the replayed time.
            if 2 * i < corpus.batches.len() {
                continue;
            }
            gen.t_max = (replayed_ms / 2).max(1);
            for kind in BURST {
                let req = gen.request_of(kind);
                let t0 = Instant::now();
                let resp = execute(&svc, &req, query_index, tracer, LANE_MAIN);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                query_index += 1;
                let correct = resp.as_ref().is_some_and(|r| plausible(&req, r));
                out.op(correct);
                tally.add(ms, correct, resp.map_or(0, |r| r.len()), ms / 1e3);
            }
        }

        ingest_rate.push(ingested as f64 / ingest_s);
        span("storage.seal_now", &mut || seg.seal_now());
        let after = seg.stats();
        storage.add_delta(&before, &after);
        storage.spill_bytes += dir_bytes(std::path::Path::new(SPILL_DIR));
        rows_kept &= repo.counts(RunScope::All) == corpus.counts;
        under_budget &= after.resident_rows <= budget && after.spills > 0;
        for _ in 0..ORACLE_SAMPLE {
            let req = oracle_gen.next_request();
            let got = execute(&svc, &req, query_index, None, LANE_MAIN);
            query_index += 1;
            agree &= out.op(got.is_some_and(|g| g == corpus.oracle.execute(&req)));
        }
        tally.end_group();
        if let Some(mb) = stats::peak_rss_mb().filter(|_| rss_reset && !p.trace) {
            peaks_mb.push(mb);
        }
        rounds += 1;
    }

    out.check("every replayed row survives the spill tier", rows_kept);
    out.check(
        "after maintenance, resident rows stay within the budget (and the corpus did spill)",
        under_budget,
    );
    out.check(
        "sampled answers over spilled data equal the all-resident oracle's",
        agree,
    );
    out.notes.push(format!("{rounds} replay rounds"));

    if let Some(tracer) = tracer {
        let inputs = LayerInputs {
            rounds,
            storage,
            rows_per_query: tally.rows_per_query(),
            ..LayerInputs::default()
        };
        emit(&mut out, &setup_tracer.spans(), &tracer.spans(), &inputs);
        out.trace_spans = [setup_tracer.spans(), tracer.spans()].concat();
    } else {
        emit_common(&mut out, &setups_s, &peaks_mb);
        if let Some(m) = median(&gen_rate) {
            out.metric_n("gen_rows_per_s", m, gen_rate.len());
        }
        if let Some(m) = median(&ingest_rate) {
            out.metric_n("ingest_rows_per_s", m, ingest_rate.len());
        }
        tally.emit(&mut out);
    }
    out
}

/// Bytes in the regular files under `dir`, recursively.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
