//! The system under test, reached either through the public entry points
//! (untraced) or layer by layer with spans (traced), plus the corpus
//! replay shared by the workloads that re-ingest generated rows.

use std::sync::Arc;

use vita_core::prelude::*;
use vita_core::{ScenarioConfig, Vita};
use vita_indoor::IndoorEnvironment;
use vita_storage::{AnyRepository, ProductBatch};

use crate::fixture::toolkit;
use crate::pipeline::{traced_run_many, traced_site, Site};
use crate::trace::Tracer;

pub enum System {
    /// `Vita::from_dbi_text` + `deploy_devices`, ingesting with
    /// `Vita::run_many`.
    Plain(Vita),
    /// The same toolkit built layer by layer, ingesting through the
    /// traced replay of `run_many`.
    Traced {
        site: Site,
        repo: Arc<AnyRepository>,
    },
}

impl System {
    /// Build the toolkit; with a tracer, layer by layer under spans.
    pub fn build(text: &str, backend: StorageBackend, tracer: Option<&Tracer>) -> System {
        match tracer {
            None => System::Plain(toolkit(text, backend)),
            Some(t) => System::Traced {
                site: traced_site(text, t),
                repo: Arc::new(AnyRepository::new(backend)),
            },
        }
    }

    pub fn repo(&self) -> Arc<AnyRepository> {
        match self {
            System::Plain(vita) => vita.repository_handle(),
            System::Traced { repo, .. } => Arc::clone(repo),
        }
    }

    pub fn env(&self) -> &IndoorEnvironment {
        match self {
            System::Plain(vita) => vita.env(),
            System::Traced { site, .. } => &site.env,
        }
    }

    /// Schedule `scenarios` as fresh runs past every stored run; returns
    /// the rows the pipeline reports it stored, per table (both scenario
    /// methods produce deterministic fixes, never proximity records).
    pub fn ingest(
        &mut self,
        scenarios: &[ScenarioConfig],
        tracer: Option<&Tracer>,
    ) -> Result<TableCounts, String> {
        match self {
            System::Plain(vita) => {
                let reports = vita.run_many(scenarios).map_err(|e| e.to_string())?;
                Ok(reports.iter().fold(TableCounts::default(), |acc, r| {
                    acc + TableCounts {
                        trajectories: r.stats.samples,
                        rssi: r.rssi_rows,
                        fixes: r.positioning_rows,
                        proximity: 0,
                    }
                }))
            }
            System::Traced { site, repo } => {
                let first = repo.run_ids().last().map_or(0, |r| r.0 + 1);
                let tracer = tracer.expect("the traced system ingests under a tracer");
                let replay = traced_run_many(site, repo, scenarios, first, tracer)?;
                if replay.failed_appends > 0 {
                    return Err(format!("{} appends panicked", replay.failed_appends));
                }
                Ok(TableCounts {
                    trajectories: replay.samples,
                    rssi: replay.rssi_rows,
                    fixes: replay.positioning_rows,
                    proximity: 0,
                })
            }
        }
    }
}

/// Every stored row of `runs` in time order, as a live feed would deliver
/// it, cut into batches of at most `batch_rows` and taking one batch from
/// each (run, table) stream in turn.
pub fn corpus_batches(
    repo: &AnyRepository,
    runs: &[RunId],
    batch_rows: usize,
) -> Vec<(RunId, ProductBatch)> {
    fn cut<T: Clone>(
        mut rows: Vec<T>,
        n: usize,
        time: fn(&T) -> Timestamp,
        wrap: fn(Vec<T>) -> ProductBatch,
    ) -> Vec<ProductBatch> {
        rows.sort_by_key(time);
        rows.chunks(n).map(|c| wrap(c.to_vec())).collect()
    }
    let mut streams: Vec<(RunId, std::vec::IntoIter<ProductBatch>)> = Vec::new();
    for &run in runs {
        let scope = RunScope::from(run);
        for batches in [
            cut(
                repo.trajectories(scope),
                batch_rows,
                |r| r.t,
                ProductBatch::Trajectories,
            ),
            cut(repo.rssi(scope), batch_rows, |r| r.t, ProductBatch::Rssi),
            cut(repo.fixes(scope), batch_rows, |r| r.t, ProductBatch::Fixes),
            cut(
                repo.proximity(scope),
                batch_rows,
                |r| r.ts,
                ProductBatch::Proximity,
            ),
        ] {
            streams.push((run, batches.into_iter()));
        }
    }
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for (run, stream) in streams.iter_mut() {
            if let Some(b) = stream.next() {
                out.push((*run, b));
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{office_text, scenario_pair, Scale};

    const TINY: Scale = Scale {
        objects: 4,
        secs: 20,
        hz: 1.0,
    };

    /// Counts and the sorted trajectory rows of one tiny scenario pair.
    fn generate(seed: u64, tracer: Option<&Tracer>) -> (TableCounts, Vec<(u64, u32, u64, u64)>) {
        let mut system = System::build(&office_text(), StorageBackend::Single, tracer);
        let counts = system
            .ingest(&scenario_pair(TINY, seed, StorageBackend::Single), tracer)
            .expect("tiny scenarios run");
        let repo = system.repo();
        assert_eq!(repo.counts(RunScope::All), counts);
        let mut rows: Vec<_> = repo
            .trajectories(RunScope::All)
            .iter()
            .map(|s| {
                let p = s.loc.as_point().expect("point samples");
                (s.t.0, s.object.0, p.x.to_bits(), p.y.to_bits())
            })
            .collect();
        rows.sort_unstable();
        (counts, rows)
    }

    #[test]
    fn same_seed_same_rows_other_seed_other_inputs() {
        let (counts, rows) = generate(1, None);
        assert!(counts.trajectories > 0 && counts.rssi > 0 && counts.fixes > 0);
        assert_eq!(generate(1, None), (counts, rows.clone()));
        assert_ne!(generate(2, None).1, rows);
    }

    #[test]
    fn traced_replay_stores_what_run_many_stores() {
        let tracer = Tracer::default();
        assert_eq!(generate(7, Some(&tracer)), generate(7, None));
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for layer in [
            "dbi.parse",
            "indoor.build",
            "devices.deploy",
            "positioning.setup",
            "mobility.generate",
            "core.bus_send",
            "core.bus_recv",
            "rssi.measure",
            "positioning.position",
            "storage.append",
        ] {
            assert!(names.contains(&layer), "no {layer} span");
        }
    }

    #[test]
    fn corpus_batches_replay_every_row_in_time_order() {
        let mut system = System::build(&office_text(), StorageBackend::Single, None);
        let counts = system
            .ingest(&scenario_pair(TINY, 3, StorageBackend::Single), None)
            .expect("tiny scenarios run");
        let repo = system.repo();
        let batches = corpus_batches(&repo, &repo.run_ids(), 7);
        assert!(batches.iter().all(|(_, b)| !b.is_empty() && b.len() <= 7));
        let copy = AnyRepository::new(StorageBackend::Single);
        let mut last_t = std::collections::HashMap::new();
        for (run, batch) in batches {
            if let ProductBatch::Trajectories(rows) = &batch {
                let last = last_t.entry(run).or_insert(0);
                assert!(rows.first().is_some_and(|s| s.t.0 >= *last));
                *last = rows.last().map_or(*last, |s| s.t.0);
            }
            vita_storage::ProductSink::accept_run(&copy, run, batch);
        }
        assert_eq!(copy.counts(RunScope::All), counts);
    }
}
