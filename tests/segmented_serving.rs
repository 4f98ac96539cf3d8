//! Serving out of the segmented backend, end to end: `run_many` ingests
//! live while `serve()` readers race it, and the final repository must
//! agree with a sequential single-backend reference bit-for-bit (counts
//! per scope, sorted fix / trajectory / proximity sets). Sealing is then
//! forced and must be invisible to every served answer. Also covers
//! `migrate_backend` hopping through `Segmented` losslessly.

use std::sync::atomic::{AtomicBool, Ordering};

use vita_core::prelude::*;
use vita_geometry::Point;
use vita_serve::{QueryRequest, QueryResponse};

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
        options: StreamOptions::default().with_backend(backend),
    }
}

fn run_all(backend: StorageBackend, race_readers: bool) -> Vita {
    let mut vita = toolkit(backend.clone());
    let service = vita.serve();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        if race_readers {
            for w in 0..2 {
                let service = service.clone();
                let done = &done;
                s.spawn(move || {
                    let mut last = 0usize;
                    while !done.load(Ordering::Relaxed) {
                        let QueryResponse::Counts(c) = service.execute(&QueryRequest::Counts {
                            scope: RunScope::All,
                        }) else {
                            panic!("counts answers with counts");
                        };
                        assert!(c.trajectories >= last, "worker {w}: counts regressed");
                        last = c.trajectories;
                        let QueryResponse::Samples(trace) =
                            service.execute(&QueryRequest::ObjectTrace {
                                scope: RunScope::All,
                                object: ObjectId(w),
                            })
                        else {
                            panic!("trace answers with samples");
                        };
                        assert!(trace.windows(2).all(|p| p[0].t <= p[1].t));
                        let _ = service.execute(&QueryRequest::Knn {
                            scope: RunScope::All,
                            floor: FloorId(0),
                            at: Point::new(10.0, 5.0),
                            k: 4,
                        });
                    }
                });
            }
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
    vita
}

fn sorted_fixes(vita: &Vita, scope: RunScope) -> Vec<vita_positioning::Fix> {
    let mut fixes = vita.repository().fixes(scope);
    fixes.sort_by_key(|f| {
        (
            f.t,
            f.object,
            f.loc.as_point().map(|p| (p.x.to_bits(), p.y.to_bits())),
        )
    });
    fixes
}

fn sorted_samples(vita: &Vita, scope: RunScope) -> Vec<vita_mobility::TrajectorySample> {
    let mut rows = vita.repository().trajectories(scope);
    rows.sort_by_key(|s| {
        (
            s.t,
            s.object,
            s.loc.as_point().map(|p| (p.x.to_bits(), p.y.to_bits())),
        )
    });
    rows
}

#[test]
fn run_many_into_segmented_matches_single_reference() {
    let reference = run_all(StorageBackend::Single, false);
    let segmented = run_all(StorageBackend::segmented(), true);

    let scopes = [
        RunScope::All,
        RunId(0).into(),
        RunId(1).into(),
        RunId(2).into(),
    ];
    for scope in scopes {
        assert_eq!(
            segmented.repository().counts(scope),
            reference.repository().counts(scope),
            "counts differ under scope {scope:?}"
        );
        assert_eq!(
            sorted_fixes(&segmented, scope),
            sorted_fixes(&reference, scope),
            "fix sets differ under scope {scope:?}"
        );
        assert_eq!(
            sorted_samples(&segmented, scope),
            sorted_samples(&reference, scope),
            "trajectory sets differ under scope {scope:?}"
        );
    }
    assert!(segmented.repository().counts(RunScope::All).trajectories > 0);

    // Forcing a full seal+compaction round must be invisible to every
    // served answer.
    let service = segmented.serve();
    let requests = [
        QueryRequest::Counts {
            scope: RunScope::All,
        },
        QueryRequest::TimeWindow {
            scope: RunId(1).into(),
            from: Timestamp(5_000),
            to: Timestamp(25_000),
        },
        QueryRequest::SnapshotAt {
            scope: RunScope::All,
            at: Timestamp(15_000),
        },
        QueryRequest::ObjectTrace {
            scope: RunId(2).into(),
            object: ObjectId(1),
        },
    ];
    let before: Vec<QueryResponse> = requests.iter().map(|r| service.execute(r)).collect();
    let repo = segmented
        .repository()
        .as_segmented()
        .expect("segmented backend");
    repo.seal_now();
    repo.seal_now();
    assert_eq!(repo.stats().unsealed_segments, 0);
    let after: Vec<QueryResponse> = requests.iter().map(|r| service.execute(r)).collect();
    assert_eq!(before, after, "sealing changed a served answer");
}

#[test]
fn migrating_through_segmented_is_lossless() {
    let mut vita = run_all(StorageBackend::Single, false);
    let counts = vita.repository().counts(RunScope::All);
    let fixes = sorted_fixes(&vita, RunScope::All);

    vita.migrate_backend(StorageBackend::segmented());
    assert_eq!(vita.repository().backend(), StorageBackend::segmented());
    assert_eq!(vita.repository().counts(RunScope::All), counts);
    assert_eq!(sorted_fixes(&vita, RunScope::All), fixes);
    for r in 0..3 {
        assert!(vita.repository().counts(RunId(r).into()).total() > 0);
    }
}
