//! E12 — concurrent batch ingestion: the single `Repository` (one lock per
//! table) vs the `SegmentedRepository` (immutable segments, writer-assisted
//! sealing) under four writer threads. Pure storage: batches are
//! pre-generated so the measurement isolates `ProductSink::accept` — the
//! write-path gap between the two backends.

use criterion::{criterion_group, criterion_main, Criterion};

use vita_geometry::Point;
use vita_indoor::{BuildingId, FloorId, ObjectId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_storage::{ProductBatch, ProductSink, Repository, RunScope, SegmentedRepository};

const WRITERS: usize = 4;
const OBJECTS: u32 = 64;
const BATCHES_PER_OBJECT: u64 = 8;
const ROWS_PER_BATCH: u64 = 256;

/// One batch per (object, step), time-ordered within the object — the
/// pipeline's batch shape.
fn batches() -> Vec<Vec<TrajectorySample>> {
    (0..OBJECTS)
        .flat_map(|o| {
            (0..BATCHES_PER_OBJECT).map(move |b| {
                let t0 = b * ROWS_PER_BATCH * 10;
                (0..ROWS_PER_BATCH)
                    .map(|i| {
                        TrajectorySample::new(
                            ObjectId(o),
                            BuildingId(0),
                            FloorId(0),
                            Point::new((i % 400) as f64 / 10.0, (o % 160) as f64 / 10.0),
                            Timestamp(t0 + i * 10),
                        )
                    })
                    .collect()
            })
        })
        .collect()
}

/// Drive all batches through `sink` from `WRITERS` threads (round-robin
/// partition, so every thread touches many objects).
fn ingest(sink: &impl ProductSink, batches: &[Vec<TrajectorySample>]) {
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                for batch in batches.iter().skip(w).step_by(WRITERS) {
                    sink.accept(ProductBatch::Trajectories(batch.clone()));
                }
            });
        }
    });
}

fn bench_ingest(c: &mut Criterion) {
    let batches = batches();
    let mut g = c.benchmark_group("e12/concurrent_ingest");
    g.sample_size(10);
    g.bench_function("single_repository", |b| {
        b.iter(|| {
            let repo = Repository::new();
            ingest(&repo, &batches);
            repo.counts(RunScope::All)
        });
    });
    g.bench_function("segmented_repository", |b| {
        b.iter(|| {
            let repo = SegmentedRepository::new();
            ingest(&repo, &batches);
            repo.counts(RunScope::All)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
