//! Run-aware persistence (the PR-5 acceptance test): a multi-run
//! repository — at least three runs, on both storage backends — must
//! survive `export` → `import` with bit-identical per-run row sets on
//! every run-scoped query path, including imports that land on the
//! *other* backend (the wire format is backend-agnostic). Same-shape
//! round trips are also canonical: re-exporting the import reproduces
//! the original buffers byte for byte.
//!
//! The pipeline-level half drives `Vita::run_many` → `save_to` →
//! `load_from` and checks the restored repository run by run.

use proptest::prelude::*;

use vita_core::prelude::*;
use vita_geometry::Point;
use vita_indoor::LocKind;
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;
use vita_storage::{AnyRepository, ProductBatch, ProductSink};

const OBJECTS: u32 = 24;
const DEVICES: u32 = 5;
const T_MAX: u64 = 50_000;

fn loc_strategy() -> impl Strategy<Value = Loc> {
    (
        0u32..2,
        0u32..3,
        0u32..2,
        0u32..20,
        -50.0f64..50.0,
        -50.0f64..50.0,
    )
        .prop_map(|(b, f, kind, pid, x, y)| {
            if kind == 0 {
                Loc::point(BuildingId(b), FloorId(f), Point::new(x, y))
            } else {
                Loc::partition(BuildingId(b), FloorId(f), vita_indoor::PartitionId(pid))
            }
        })
}

fn sample_strategy() -> impl Strategy<Value = TrajectorySample> {
    (0u32..OBJECTS, loc_strategy(), 0u64..T_MAX).prop_map(|(o, loc, t)| TrajectorySample {
        object: ObjectId(o),
        loc,
        t: Timestamp(t),
    })
}

fn rssi_strategy() -> impl Strategy<Value = RssiMeasurement> {
    (0u32..OBJECTS, 0u32..DEVICES, -110.0f64..-10.0, 0u64..T_MAX).prop_map(|(o, d, r, t)| {
        RssiMeasurement {
            object: ObjectId(o),
            device: DeviceId(d),
            rssi: r,
            t: Timestamp(t),
        }
    })
}

fn fix_strategy() -> impl Strategy<Value = Fix> {
    (0u32..OBJECTS, loc_strategy(), 0u64..T_MAX).prop_map(|(o, loc, t)| Fix {
        object: ObjectId(o),
        loc,
        t: Timestamp(t),
    })
}

fn prox_strategy() -> impl Strategy<Value = ProximityRecord> {
    (0u32..OBJECTS, 0u32..DEVICES, 0u64..T_MAX, 0u64..2_000).prop_map(|(o, d, ts, dur)| {
        ProximityRecord {
            object: ObjectId(o),
            device: DeviceId(d),
            ts: Timestamp(ts),
            te: Timestamp(ts + dur),
        }
    })
}

/// One run's worth of all four products.
#[derive(Debug, Clone)]
struct RunData {
    samples: Vec<TrajectorySample>,
    rssi: Vec<RssiMeasurement>,
    fixes: Vec<Fix>,
    prox: Vec<ProximityRecord>,
}

fn run_data_strategy() -> impl Strategy<Value = RunData> {
    (
        proptest::collection::vec(sample_strategy(), 1..60),
        proptest::collection::vec(rssi_strategy(), 0..60),
        proptest::collection::vec(fix_strategy(), 0..60),
        proptest::collection::vec(prox_strategy(), 0..60),
    )
        .prop_map(|(samples, rssi, fixes, prox)| RunData {
            samples,
            rssi,
            fixes,
            prox,
        })
}

fn ingest(repo: &dyn ProductSink, run: RunId, data: &RunData) {
    repo.accept_run(run, ProductBatch::Trajectories(data.samples.clone()));
    repo.accept_run(run, ProductBatch::Rssi(data.rssi.clone()));
    repo.accept_run(run, ProductBatch::Fixes(data.fixes.clone()));
    repo.accept_run(run, ProductBatch::Proximity(data.prox.clone()));
}

fn loc_key(loc: &Loc) -> (u32, u32, u8, u64, u64) {
    match loc.kind {
        LocKind::Point(p) => (loc.building.0, loc.floor.0, 0, p.x.to_bits(), p.y.to_bits()),
        LocKind::Partition(pid) => (loc.building.0, loc.floor.0, 1, u64::from(pid.0), 0),
    }
}

fn sample_key(s: &TrajectorySample) -> (u32, u64, (u32, u32, u8, u64, u64)) {
    (s.object.0, s.t.0, loc_key(&s.loc))
}

fn rssi_key(m: &RssiMeasurement) -> (u32, u32, u64, u64) {
    (m.object.0, m.device.0, m.t.0, m.rssi.to_bits())
}

fn fix_key(f: &Fix) -> (u32, u64, (u32, u32, u8, u64, u64)) {
    (f.object.0, f.t.0, loc_key(&f.loc))
}

fn prox_key(r: &ProximityRecord) -> (u32, u32, u64, u64) {
    (r.object.0, r.device.0, r.ts.0, r.te.0)
}

fn sorted_by<T, K: Ord>(mut rows: Vec<T>, key: impl Fn(&T) -> K) -> Vec<T> {
    rows.sort_by_key(key);
    rows
}

/// Every run-scoped row set of `got` equals `want`'s, for all four
/// tables (sorted on a full key — backends may order rows differently).
fn assert_runs_equal(got: &AnyRepository, want: &AnyRepository) {
    assert_eq!(got.run_ids(), want.run_ids());
    assert_eq!(got.counts(RunScope::All), want.counts(RunScope::All));
    for run in want.run_ids() {
        assert_eq!(got.counts(run.into()), want.counts(run.into()));
        assert_eq!(
            sorted_by(got.trajectories(run.into()), sample_key),
            sorted_by(want.trajectories(run.into()), sample_key)
        );
        assert_eq!(
            sorted_by(got.rssi(run.into()), rssi_key),
            sorted_by(want.rssi(run.into()), rssi_key)
        );
        assert_eq!(
            sorted_by(got.fixes(run.into()), fix_key),
            sorted_by(want.fixes(run.into()), fix_key)
        );
        assert_eq!(
            sorted_by(got.proximity(run.into()), prox_key),
            sorted_by(want.proximity(run.into()), prox_key)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ≥3-run repositories on both backends: export → import into *every*
    /// backend preserves per-run row sets on each run-scoped query path;
    /// same-shape round trips re-export to bit-identical buffers.
    #[test]
    fn multi_run_repository_round_trips(
        runs in proptest::collection::vec(run_data_strategy(), 3..5),
        gaps in proptest::collection::vec(0u32..4, 3..5),
    ) {
        let backends = [StorageBackend::Single, StorageBackend::segmented()];
        // Non-contiguous, ascending run ids (run_many never guarantees
        // density once repositories merge over time).
        let mut next = 0u32;
        let run_ids: Vec<RunId> = runs
            .iter()
            .zip(gaps.iter().chain(std::iter::repeat(&0)))
            .map(|(_, &g)| {
                let id = next + g;
                next = id + 1;
                RunId(id)
            })
            .collect();

        for backend in &backends {
            let original = AnyRepository::new(backend.clone());
            for (id, data) in run_ids.iter().zip(&runs) {
                ingest(&original, *id, data);
            }
            prop_assert_eq!(original.run_ids().len(), runs.len());
            let export = original.export();

            // Import into every backend shape: run isolation must hold
            // regardless of where the rows land.
            for target in &backends {
                let imported = AnyRepository::import(&export, target.clone()).unwrap();
                assert_runs_equal(&imported, &original);

                // Same-shape round trips are canonical: the re-export is
                // bit-identical to the export it was built from.
                if target == backend {
                    let again = imported.export();
                    prop_assert_eq!(again.trajectories, export.trajectories.clone());
                    prop_assert_eq!(again.rssi, export.rssi.clone());
                    prop_assert_eq!(again.fixes, export.fixes.clone());
                    prop_assert_eq!(again.proximity, export.proximity.clone());
                }
            }
        }
    }

    /// Run-scoped *query paths* survive the round trip: a run-scoped time
    /// window and object trace on the imported repository answer exactly
    /// as on the original, on both backends.
    #[test]
    fn run_scoped_queries_survive_round_trip(
        runs in proptest::collection::vec(run_data_strategy(), 3..4),
        from in 0u64..T_MAX,
        width in 0u64..T_MAX,
        o in 0u32..OBJECTS,
    ) {
        let original = AnyRepository::new(StorageBackend::Single);
        for (i, data) in runs.iter().enumerate() {
            ingest(&original, RunId(i as u32), data);
        }
        let export = original.export();
        let single = AnyRepository::import(&export, StorageBackend::Single).unwrap();
        let segmented = AnyRepository::import(&export, StorageBackend::segmented()).unwrap();
        let (lo, hi) = (Timestamp(from), Timestamp(from.saturating_add(width)));

        for run in original.run_ids() {
            let orig = original.as_single().unwrap();
            let want: Vec<TrajectorySample> = orig
                .trajectories
                .read()
                .time_window(run.into(), lo, hi)
                .into_iter()
                .copied()
                .collect();
            let got_single: Vec<TrajectorySample> = single
                .as_single()
                .unwrap()
                .trajectories
                .read()
                .time_window(run.into(), lo, hi)
                .into_iter()
                .copied()
                .collect();
            prop_assert_eq!(&got_single, &want);
            prop_assert_eq!(
                sorted_by(
                    segmented.as_segmented().unwrap().trajectories_time_window(run.into(), lo, hi),
                    sample_key
                ),
                sorted_by(want, sample_key)
            );

            let want: Vec<TrajectorySample> = orig
                .trajectories
                .read()
                .object_trace(run.into(), ObjectId(o))
                .into_iter()
                .copied()
                .collect();
            let got_single: Vec<TrajectorySample> = single
                .as_single()
                .unwrap()
                .trajectories
                .read()
                .object_trace(run.into(), ObjectId(o))
                .into_iter()
                .copied()
                .collect();
            prop_assert_eq!(&got_single, &want);
            prop_assert_eq!(
                segmented.as_segmented().unwrap().object_trace(run.into(), ObjectId(o)),
                want
            );
        }
    }
}

/// Pipeline-level: three concurrent scenarios through `run_many`, saved
/// to disk and loaded back — per-run repository contents identical, on
/// the same backend and across a backend switch.
#[test]
fn run_many_save_load_round_trip() {
    let text = vita_dbi::write_step(&vita_dbi::office(&SynthParams::with_floors(2)));
    let mut vita = Vita::from_dbi_text(&text, &BuildParams::default()).unwrap();
    vita.deploy_devices(
        DeviceSpec::default_for(DeviceType::WiFi),
        FloorId(0),
        DeploymentModel::Coverage,
        10,
    );
    let base = ScenarioConfig {
        mobility: MobilityConfig {
            object_count: 4,
            duration: Timestamp(30_000),
            lifespan: LifespanConfig {
                min: Timestamp(30_000),
                max: Timestamp(30_000),
            },
            seed: 9,
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
        options: StreamOptions::default(),
    };
    let mut second = base.clone();
    second.mobility.object_count = 3;
    let mut third = base.clone();
    third.mobility.seed = 1234;
    let reports = vita.run_many(&[base, second, third]).unwrap();
    assert_eq!(reports.len(), 3);
    assert!(vita.repository().run_ids().len() >= 3);

    let dir = std::env::temp_dir().join(format!("vita_persistence_rt_{}", std::process::id()));
    vita.save_to(&dir).unwrap();

    // Same backend.
    let mut same = Vita::from_dbi_text(&text, &BuildParams::default()).unwrap();
    same.load_from(&dir).unwrap();
    assert_runs_equal(same.repository(), vita.repository());

    // Across a backend switch: load lands on the segmented backend with
    // run tags intact.
    let mut switched = Vita::from_dbi_text(&text, &BuildParams::default()).unwrap();
    switched.migrate_backend(StorageBackend::segmented());
    switched.load_from(&dir).unwrap();
    assert!(matches!(
        switched.repository().backend(),
        StorageBackend::Segmented { .. }
    ));
    assert_runs_equal(switched.repository(), vita.repository());

    std::fs::remove_dir_all(&dir).unwrap();
}
