//! Run isolation, table level: when two runs' batches are ingested
//! **interleaved** into one repository through
//! [`ProductSink::accept_run`], every run-scoped query must return row
//! sets **bit-identical** to a repository that only ever saw that run —
//! on both the single and the segmented backend. This is the storage half
//! of the multi-scenario concurrency contract (the pipeline half lives in
//! `tests/run_many_parity.rs` at the repo root).
//!
//! Comparisons sort on a full key where an order is not part of the
//! query's contract (the segmented backend's per-segment merges), and
//! compare exactly where it is (object-keyed queries, time windows within
//! one backend).

use proptest::prelude::*;

use vita_geometry::{Aabb, Point};
use vita_indoor::{BuildingId, DeviceId, FloorId, Loc, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;
use vita_storage::{ProductBatch, ProductSink, Repository, RunScope, SegmentedRepository};

const OBJECTS: u32 = 16;
const DEVICES: u32 = 4;
const T_MAX: u64 = 8_000;

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

fn rssi_strategy() -> impl Strategy<Value = RssiMeasurement> {
    (0u32..OBJECTS, 0u32..DEVICES, -100.0f64..-20.0, 0u64..T_MAX).prop_map(|(o, d, r, t)| {
        RssiMeasurement {
            object: ObjectId(o),
            device: DeviceId(d),
            rssi: r,
            t: Timestamp(t),
        }
    })
}

fn fix_strategy() -> impl Strategy<Value = Fix> {
    (0u32..OBJECTS, -30.0f64..30.0, -30.0f64..30.0, 0u64..T_MAX).prop_map(|(o, x, y, t)| Fix {
        object: ObjectId(o),
        loc: Loc::point(BuildingId(0), FloorId(0), Point::new(x, y)),
        t: Timestamp(t),
    })
}

fn proximity_strategy() -> impl Strategy<Value = ProximityRecord> {
    (0u32..OBJECTS, 0u32..DEVICES, 0u64..T_MAX, 0u64..1_500).prop_map(|(o, d, ts, dur)| {
        ProximityRecord {
            object: ObjectId(o),
            device: DeviceId(d),
            ts: Timestamp(ts),
            te: Timestamp(ts + dur),
        }
    })
}

/// Interleave two runs' batch queues into `interleaved` (tagged by run)
/// while feeding each solo repository only its own run's batches (under
/// the default run). `order[i] % 2` picks which queue to pop next;
/// leftovers drain in queue order.
fn ingest_interleaved(
    run_batches: [Vec<ProductBatch>; 2],
    order: &[u32],
    interleaved: &[&dyn ProductSink],
    solo: [&Repository; 2],
) {
    let [q0, q1] = run_batches;
    let mut queues = [q0.into_iter(), q1.into_iter()];
    let feed = |which: usize, batch: ProductBatch| {
        for sink in interleaved {
            sink.accept_run(RunId(which as u32), batch.clone());
        }
        solo[which].accept(batch);
    };
    for &pick in order {
        let which = (pick % 2) as usize;
        match queues[which].next() {
            Some(batch) => feed(which, batch),
            None => break,
        }
    }
    for (which, queue) in queues.into_iter().enumerate() {
        for batch in queue {
            feed(which, batch);
        }
    }
}

/// Split rows into single-product batches of `batch` rows.
fn batches<T: Clone>(
    rows: &[T],
    batch: usize,
    wrap: impl Fn(Vec<T>) -> ProductBatch,
) -> Vec<ProductBatch> {
    rows.chunks(batch.max(1))
        .map(|c| wrap(c.to_vec()))
        .collect()
}

fn sample_key(s: &TrajectorySample) -> (u64, u32, u32, u64, u64) {
    let p = s.point();
    (
        s.t.0,
        s.object.0,
        s.loc.floor.0,
        p.x.to_bits(),
        p.y.to_bits(),
    )
}

fn rssi_key(m: &RssiMeasurement) -> (u64, u32, u32, u64) {
    (m.t.0, m.object.0, m.device.0, m.rssi.to_bits())
}

fn fix_key(f: &Fix) -> (u64, u32, u64, u64) {
    let p = f.loc.as_point().unwrap();
    (f.t.0, f.object.0, p.x.to_bits(), p.y.to_bits())
}

fn prox_key(r: &ProximityRecord) -> (u64, u64, u32, u32) {
    (r.ts.0, r.te.0, r.object.0, r.device.0)
}

fn sorted_by<T, K: Ord>(mut rows: Vec<T>, key: impl Fn(&T) -> K) -> Vec<T> {
    rows.sort_by_key(key);
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interleaved two-run trajectory ingestion: every run-scoped query on
    /// both backends equals the solo repository's unscoped answer.
    #[test]
    fn trajectory_runs_stay_isolated(
        rows_a in proptest::collection::vec(sample_strategy(), 1..150),
        rows_b in proptest::collection::vec(sample_strategy(), 1..150),
        order in proptest::collection::vec(0u32..2, 0..40),
        batch in 1usize..30,
        from in 0u64..T_MAX,
        width in 0u64..T_MAX,
        at in 0u64..T_MAX,
        k in 1usize..8,
    ) {
        let single = Repository::new();
        let segmented = SegmentedRepository::new();
        let solo = [Repository::new(), Repository::new()];
        ingest_interleaved(
            [
                batches(&rows_a, batch, ProductBatch::Trajectories),
                batches(&rows_b, batch, ProductBatch::Trajectories),
            ],
            &order,
            &[&single, &segmented],
            [&solo[0], &solo[1]],
        );
        prop_assert_eq!(single.run_ids(), vec![RunId(0), RunId(1)]);
        prop_assert_eq!(segmented.run_ids(), vec![RunId(0), RunId(1)]);

        for (which, solo) in solo.iter().enumerate() {
            let run = RunId(which as u32);
            let want_rows: Vec<TrajectorySample> =
                solo.trajectories.read().scan().copied().collect();
            prop_assert_eq!(single.counts(run.into()), solo.counts(RunScope::All));
            prop_assert_eq!(segmented.counts(run.into()), solo.counts(RunScope::All));

            // Scan: same row set (single preserves arrival order exactly;
            // the segment merge is compared order-free, on a full key).
            let got: Vec<TrajectorySample> =
                single.trajectories.read().scan_run(run).into_iter().copied().collect();
            prop_assert_eq!(&got, &want_rows);
            prop_assert_eq!(
                sorted_by(segmented.trajectories_scan(run.into()), sample_key),
                sorted_by(want_rows.clone(), sample_key)
            );

            // Half-open time window (arrival order among equal timestamps
            // is preserved by run-scoped filtering on the single backend).
            let (lo, hi) = (Timestamp(from), Timestamp(from + width));
            let want: Vec<TrajectorySample> =
                solo.trajectories.read().time_window(RunScope::All, lo, hi).into_iter().copied().collect();
            let got: Vec<TrajectorySample> =
                single.trajectories.read().time_window(run.into(), lo, hi)
                    .into_iter().copied().collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                sorted_by(segmented.trajectories_time_window(run.into(), lo, hi), sample_key),
                sorted_by(want, sample_key)
            );

            // Snapshot (inclusive bound) — exact on both backends.
            let want: Vec<TrajectorySample> =
                solo.trajectories.read().snapshot_at(RunScope::All, Timestamp(at)).into_iter().copied().collect();
            let got: Vec<TrajectorySample> =
                single.trajectories.read().snapshot_at(run.into(), Timestamp(at))
                    .into_iter().copied().collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(segmented.trajectories_snapshot_at(run.into(), Timestamp(at)), want);

            // Per-object traces — exact.
            for o in 0..OBJECTS {
                let want: Vec<TrajectorySample> =
                    solo.trajectories.read().object_trace(RunScope::All, ObjectId(o))
                        .into_iter().copied().collect();
                let got: Vec<TrajectorySample> =
                    single.trajectories.read().object_trace(run.into(), ObjectId(o))
                        .into_iter().copied().collect();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(segmented.object_trace(run.into(), ObjectId(o)), want);
            }

            // Spatial: range query + kNN distance multiset.
            let q = Aabb::new(Point::new(-10.0, -10.0), Point::new(15.0, 15.0));
            let want = sorted_by(
                solo.trajectories.read().range_query(RunScope::All, FloorId(0), &q)
                    .into_iter().copied().collect(),
                sample_key,
            );
            let got = sorted_by(
                single.trajectories.read().range_query(run.into(), FloorId(0), &q)
                    .into_iter().copied().collect(),
                sample_key,
            );
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                sorted_by(segmented.trajectories_range_query(run.into(), FloorId(0), &q), sample_key),
                want
            );

            let p = Point::new(5.0, -5.0);
            let want: Vec<u64> = solo.trajectories.read().knn(RunScope::All, FloorId(0), p, k)
                .iter().map(|(_, d)| d.to_bits()).collect();
            let got: Vec<u64> = single.trajectories.read().knn(run.into(), FloorId(0), p, k)
                .iter().map(|(_, d)| d.to_bits()).collect();
            prop_assert_eq!(&got, &want);
            let got: Vec<u64> = segmented.trajectories_knn(run.into(), FloorId(0), p, k)
                .iter().map(|(_, d)| d.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Interleaved two-run ingestion of the other three products: RSSI,
    /// fixes and proximity records stay isolated per run on both backends.
    #[test]
    fn rssi_fix_proximity_runs_stay_isolated(
        rssi_a in proptest::collection::vec(rssi_strategy(), 1..120),
        rssi_b in proptest::collection::vec(rssi_strategy(), 1..120),
        fixes_a in proptest::collection::vec(fix_strategy(), 1..120),
        fixes_b in proptest::collection::vec(fix_strategy(), 1..120),
        prox_a in proptest::collection::vec(proximity_strategy(), 1..80),
        prox_b in proptest::collection::vec(proximity_strategy(), 1..80),
        order in proptest::collection::vec(0u32..2, 0..60),
        batch in 1usize..30,
        from in 0u64..T_MAX,
        width in 0u64..T_MAX,
    ) {
        let single = Repository::new();
        let segmented = SegmentedRepository::new();
        let solo = [Repository::new(), Repository::new()];
        let mix = |r: &[RssiMeasurement], f: &[Fix], p: &[ProximityRecord]| {
            let mut v = batches(r, batch, ProductBatch::Rssi);
            v.extend(batches(f, batch, ProductBatch::Fixes));
            v.extend(batches(p, batch, ProductBatch::Proximity));
            v
        };
        ingest_interleaved(
            [mix(&rssi_a, &fixes_a, &prox_a), mix(&rssi_b, &fixes_b, &prox_b)],
            &order,
            &[&single, &segmented],
            [&solo[0], &solo[1]],
        );

        let (lo, hi) = (Timestamp(from), Timestamp(from + width));
        for (which, solo) in solo.iter().enumerate() {
            let run = RunId(which as u32);
            prop_assert_eq!(single.counts(run.into()), solo.counts(RunScope::All));
            prop_assert_eq!(segmented.counts(run.into()), solo.counts(RunScope::All));

            // RSSI: time window + per-object + per-device.
            let want: Vec<RssiMeasurement> =
                solo.rssi.read().time_window(RunScope::All, lo, hi).into_iter().copied().collect();
            let got: Vec<RssiMeasurement> =
                single.rssi.read().time_window(run.into(), lo, hi).into_iter().copied().collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                sorted_by(segmented.rssi_time_window(run.into(), lo, hi), rssi_key),
                sorted_by(want, rssi_key)
            );
            for o in 0..OBJECTS {
                let want: Vec<RssiMeasurement> =
                    solo.rssi.read().of_object(RunScope::All, ObjectId(o)).into_iter().copied().collect();
                let got: Vec<RssiMeasurement> =
                    single.rssi.read().of_object(run.into(), ObjectId(o))
                        .into_iter().copied().collect();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(segmented.rssi_of_object(run.into(), ObjectId(o)), want);
            }
            for d in 0..DEVICES {
                let want = sorted_by(
                    solo.rssi.read().of_device(RunScope::All, DeviceId(d)).into_iter().copied().collect(),
                    rssi_key,
                );
                let got = sorted_by(
                    single.rssi.read().of_device(run.into(), DeviceId(d))
                        .into_iter().copied().collect(),
                    rssi_key,
                );
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(
                    sorted_by(segmented.rssi_of_device(run.into(), DeviceId(d)), rssi_key),
                    want
                );
            }

            // Fixes: scan + time window + per-object.
            let want: Vec<Fix> = solo.fixes.read().scan().copied().collect();
            let got: Vec<Fix> =
                single.fixes.read().scan_run(run).into_iter().copied().collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                sorted_by(segmented.fixes_scan(run.into()), fix_key),
                sorted_by(want, fix_key)
            );
            let want: Vec<Fix> =
                solo.fixes.read().time_window(RunScope::All, lo, hi).into_iter().copied().collect();
            let got: Vec<Fix> =
                single.fixes.read().time_window(run.into(), lo, hi).into_iter().copied().collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                sorted_by(segmented.fixes_time_window(run.into(), lo, hi), fix_key),
                sorted_by(want, fix_key)
            );
            for o in 0..OBJECTS {
                let want: Vec<Fix> =
                    solo.fixes.read().of_object(RunScope::All, ObjectId(o)).into_iter().copied().collect();
                let got: Vec<Fix> =
                    single.fixes.read().of_object(run.into(), ObjectId(o))
                        .into_iter().copied().collect();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(segmented.fixes_of_object(run.into(), ObjectId(o)), want);
            }

            // Proximity: overlap + per-object + per-device.
            let want: Vec<ProximityRecord> =
                solo.proximity.read().overlapping(RunScope::All, lo, hi).into_iter().copied().collect();
            let got: Vec<ProximityRecord> =
                single.proximity.read().overlapping(run.into(), lo, hi)
                    .into_iter().copied().collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                sorted_by(segmented.proximity_overlapping(run.into(), lo, hi), prox_key),
                sorted_by(want, prox_key)
            );
            for o in 0..OBJECTS {
                let want: Vec<ProximityRecord> =
                    solo.proximity.read().of_object(RunScope::All, ObjectId(o)).into_iter().copied().collect();
                let got: Vec<ProximityRecord> =
                    single.proximity.read().of_object(run.into(), ObjectId(o))
                        .into_iter().copied().collect();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(segmented.proximity_of_object(run.into(), ObjectId(o)), want);
            }
            for d in 0..DEVICES {
                let want = sorted_by(
                    solo.proximity.read().of_device(RunScope::All, DeviceId(d))
                        .into_iter().copied().collect(),
                    prox_key,
                );
                let got = sorted_by(
                    single.proximity.read().of_device(run.into(), DeviceId(d))
                        .into_iter().copied().collect(),
                    prox_key,
                );
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(
                    sorted_by(segmented.proximity_of_device(run.into(), DeviceId(d)), prox_key),
                    want
                );
            }
        }
    }
}
