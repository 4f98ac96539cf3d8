//! The serving contract: every [`QueryRequest`] answered by a
//! [`QueryService`] must be **bit-identical** to calling the underlying
//! [`AnyRepository`] query directly — on both backends, for any run scope
//! — and queries racing live ingestion must always see a prefix-consistent
//! snapshot (counts only ever grow, traces stay time-ordered, no torn
//! batches), never panic, and agree with the repository at quiescence.

use proptest::prelude::*;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vita_core::prelude::*;
use vita_geometry::{Aabb, Point};
use vita_mobility::TrajectorySample;
use vita_serve::{QueryRequest, QueryResponse, QueryService};
use vita_storage::{AnyRepository, ProductBatch, ProductSink};

const OBJECTS: u32 = 16;
const T_MAX: u64 = 20_000;

fn sample_strategy() -> impl Strategy<Value = TrajectorySample> {
    (
        0u32..OBJECTS,
        0u32..2,
        -30.0f64..30.0,
        -30.0f64..30.0,
        0u64..T_MAX,
    )
        .prop_map(|(o, f, x, y, t)| {
            TrajectorySample::new(
                ObjectId(o),
                BuildingId(0),
                FloorId(f),
                Point::new(x, y),
                Timestamp(t),
            )
        })
}

/// 0 → `All`, n → `One(RunId(n - 1))` — covers present and absent runs.
fn scope_from(disc: u32) -> RunScope {
    if disc == 0 {
        RunScope::All
    } else {
        RunId(disc - 1).into()
    }
}

fn request_strategy() -> impl Strategy<Value = QueryRequest> {
    (
        0u32..6, // variant
        0u32..4, // scope discriminant
        (0u64..T_MAX, 0u64..T_MAX, 0u32..OBJECTS),
        (
            0u32..2,
            -30.0f64..30.0,
            -30.0f64..30.0,
            1.0f64..40.0,
            1usize..12,
        ),
    )
        .prop_map(|(variant, sd, (a, w, o), (f, x, y, width, k))| {
            let scope = scope_from(sd);
            match variant {
                0 => QueryRequest::Counts { scope },
                1 => QueryRequest::SnapshotAt {
                    scope,
                    at: Timestamp(a),
                },
                2 => QueryRequest::TimeWindow {
                    scope,
                    from: Timestamp(a),
                    to: Timestamp(a + w),
                },
                3 => QueryRequest::ObjectTrace {
                    scope,
                    object: ObjectId(o),
                },
                4 => QueryRequest::RangeQuery {
                    scope,
                    floor: FloorId(f),
                    bounds: Aabb::new(Point::new(x, y), Point::new(x + width, y + width)),
                },
                _ => QueryRequest::Knn {
                    scope,
                    floor: FloorId(f),
                    at: Point::new(x, y),
                    k,
                },
            }
        })
}

/// The ground truth for a request: the direct repository call.
fn direct(repo: &AnyRepository, req: &QueryRequest) -> QueryResponse {
    match *req {
        QueryRequest::Counts { scope } => QueryResponse::Counts(repo.counts(scope)),
        QueryRequest::SnapshotAt { scope, at } => {
            QueryResponse::Samples(repo.snapshot_at(scope, at))
        }
        QueryRequest::TimeWindow { scope, from, to } => {
            QueryResponse::Samples(repo.time_window(scope, from, to))
        }
        QueryRequest::ObjectTrace { scope, object } => {
            QueryResponse::Samples(repo.object_trace(scope, object))
        }
        QueryRequest::RangeQuery {
            scope,
            floor,
            ref bounds,
        } => QueryResponse::Samples(repo.range_query(scope, floor, bounds)),
        QueryRequest::Knn {
            scope,
            floor,
            at,
            k,
        } => QueryResponse::Neighbors(repo.knn(scope, floor, at, k)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Service answers == direct repository answers, on both backends,
    /// across all variants and scopes, over multi-run contents.
    #[test]
    fn service_matches_direct_repository_calls(
        rows in proptest::collection::vec((sample_strategy(), 0u32..3), 0..150),
        requests in proptest::collection::vec(request_strategy(), 1..24),
    ) {
        for backend in [
            StorageBackend::Single,
            StorageBackend::segmented(),
        ] {
            let repo = Arc::new(AnyRepository::new(backend.clone()));
            for (s, run) in &rows {
                repo.accept_run(RunId(*run), ProductBatch::Trajectories(vec![*s]));
            }
            let service = QueryService::new(Arc::clone(&repo));
            for req in &requests {
                prop_assert_eq!(
                    service.execute(req),
                    direct(&repo, req),
                    "backend {:?}, request {:?}",
                    backend,
                    req
                );
            }
        }
    }
}

/// Build a toolkit ready for `run_many` against a serving workload.
fn toolkit(backend: StorageBackend) -> Vita {
    let dbi = vita_dbi::write_step(&vita_dbi::office(&vita_dbi::SynthParams::with_floors(1)));
    let mut vita = Vita::from_dbi_text(&dbi, &BuildParams::default())
        .unwrap()
        .with_backend(backend);
    vita.deploy_devices(
        DeviceSpec::default_for(DeviceType::WiFi),
        FloorId(0),
        DeploymentModel::Coverage,
        8,
    );
    vita
}

fn scenario(objects: usize, seed: u64, backend: StorageBackend) -> ScenarioConfig {
    ScenarioConfig {
        mobility: MobilityConfig {
            object_count: objects,
            duration: Timestamp(30_000),
            lifespan: LifespanConfig {
                min: Timestamp(30_000),
                max: Timestamp(30_000),
            },
            seed,
            ..Default::default()
        },
        rssi: RssiConfig {
            duration: Timestamp(30_000),
            ..Default::default()
        },
        method: MethodConfig::Trilateration {
            config: TrilaterationConfig::default(),
            conversion_model: PathLossModel::default(),
        },
        // Same backend the toolkit was built with: `run_many` then keeps
        // the live repository, and `serve()` handles stay attached to it.
        options: StreamOptions::default().with_backend(backend),
    }
}

/// Queries racing `run_many` ingestion: never panic, counts per scope are
/// monotone non-decreasing (prefix consistency — a response reflects some
/// prefix of the accepted batches, never a torn one), object traces stay
/// time-ordered, and once ingestion finishes the service agrees with the
/// repository exactly.
fn queries_are_prefix_consistent_on(backend: StorageBackend) {
    let mut vita = toolkit(backend.clone());
    let service = vita.serve();
    let done = AtomicBool::new(false);
    let scopes = [
        RunScope::All,
        RunId(0).into(),
        RunId(1).into(),
        RunId(2).into(),
    ];

    std::thread::scope(|s| {
        for w in 0..3 {
            let service = service.clone();
            let done = &done;
            s.spawn(move || {
                let mut last = [TableCounts::default(); 4];
                while !done.load(Ordering::Relaxed) {
                    for (i, scope) in scopes.iter().enumerate() {
                        let QueryResponse::Counts(c) =
                            service.execute(&QueryRequest::Counts { scope: *scope })
                        else {
                            panic!("counts answers with counts");
                        };
                        // Ingestion only appends: any snapshot must cover
                        // at least everything the previous one covered.
                        assert!(
                            c.trajectories >= last[i].trajectories
                                && c.rssi >= last[i].rssi
                                && c.fixes >= last[i].fixes
                                && c.proximity >= last[i].proximity,
                            "worker {w}: counts went backwards under scope {scope:?}"
                        );
                        last[i] = c;

                        let QueryResponse::Samples(trace) =
                            service.execute(&QueryRequest::ObjectTrace {
                                scope: *scope,
                                object: ObjectId(w),
                            })
                        else {
                            panic!("trace answers with samples");
                        };
                        assert!(
                            trace.windows(2).all(|p| p[0].t <= p[1].t),
                            "worker {w}: trace out of order mid-ingest"
                        );

                        let _ = service.execute(&QueryRequest::SnapshotAt {
                            scope: *scope,
                            at: Timestamp(15_000),
                        });
                        let _ = service.execute(&QueryRequest::Knn {
                            scope: *scope,
                            floor: FloorId(0),
                            at: Point::new(10.0, 5.0),
                            k: 4,
                        });
                    }
                }
            });
        }

        let reports = vita
            .run_many(&[
                scenario(4, 11, backend.clone()),
                scenario(3, 22, backend.clone()),
                scenario(5, 33, backend),
            ])
            .unwrap();
        done.store(true, Ordering::Relaxed);
        assert_eq!(reports.len(), 3);
    });

    // Quiescent: the service and the repository agree exactly, run by run.
    let repo = vita.repository();
    for scope in scopes {
        let req = QueryRequest::Counts { scope };
        assert_eq!(
            service.execute(&req),
            QueryResponse::Counts(repo.counts(scope))
        );
    }
    let all = repo.counts(RunScope::All);
    let per_run: TableCounts = (0..3)
        .map(|r| repo.counts(RunId(r).into()))
        .fold(TableCounts::default(), |a, b| a + b);
    assert_eq!(all, per_run, "runs must partition the repository");
    assert!(all.trajectories > 0 && all.rssi > 0 && all.fixes > 0);
}

#[test]
fn queries_are_prefix_consistent_during_ingestion_single() {
    queries_are_prefix_consistent_on(StorageBackend::Single);
}

#[test]
fn queries_are_prefix_consistent_during_ingestion_segmented() {
    queries_are_prefix_consistent_on(StorageBackend::segmented());
}
