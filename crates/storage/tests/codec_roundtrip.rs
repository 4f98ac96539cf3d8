//! Wire-format robustness suite (the PR-5 codec acceptance tests):
//!
//! * arbitrary multi-run row sets round-trip bit-identically through the
//!   v2 encoder/decoder, and re-encoding the decode reproduces the exact
//!   input bytes (the format is canonical);
//! * v1 files — hand-encoded here byte-for-byte, plus checked-in golden
//!   fixtures under `tests/fixtures/` — decode through the same readers
//!   with every row in run 0, pinning backward compatibility in CI;
//! * random truncation and byte corruption of valid files return a
//!   [`CodecError`] — never a panic, never silently wrong data (v2 files
//!   carry a trailing checksum, so payload corruption cannot slip
//!   through);
//! * the segment (spill) decoder keeps every validation of the framing:
//!   a bad loc-kind byte behind a valid checksum, and a section header
//!   claiming more rows than the file holds, fail with their own errors.

use proptest::prelude::*;

use bytes::Bytes;
use vita_geometry::Point;
use vita_indoor::{BuildingId, DeviceId, FloorId, Loc, ObjectId, PartitionId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;
use vita_storage::{
    decode_fixes_runs, decode_proximity_runs, decode_rssi_runs, decode_segment,
    decode_trajectories, decode_trajectories_runs, encode_fixes_runs, encode_proximity_runs,
    encode_rssi_runs, encode_segment, encode_trajectories_runs, CodecError,
};

// ---------------------------------------------------------------- strategies

fn loc_strategy() -> impl Strategy<Value = Loc> {
    (
        0u32..3,
        0u32..4,
        0u32..2,
        0u32..50,
        -100.0f64..100.0,
        -100.0f64..100.0,
    )
        .prop_map(|(b, f, kind, pid, x, y)| {
            if kind == 0 {
                Loc::point(BuildingId(b), FloorId(f), Point::new(x, y))
            } else {
                Loc::partition(BuildingId(b), FloorId(f), PartitionId(pid))
            }
        })
}

fn sample_strategy() -> impl Strategy<Value = TrajectorySample> {
    (0u32..64, loc_strategy(), 0u64..1 << 40).prop_map(|(o, loc, t)| TrajectorySample {
        object: ObjectId(o),
        loc,
        t: Timestamp(t),
    })
}

fn rssi_strategy() -> impl Strategy<Value = RssiMeasurement> {
    (0u32..64, 0u32..16, -120.0f64..0.0, 0u64..1 << 40).prop_map(|(o, d, r, t)| RssiMeasurement {
        object: ObjectId(o),
        device: DeviceId(d),
        rssi: r,
        t: Timestamp(t),
    })
}

fn fix_strategy() -> impl Strategy<Value = Fix> {
    (0u32..64, loc_strategy(), 0u64..1 << 40).prop_map(|(o, loc, t)| Fix {
        object: ObjectId(o),
        loc,
        t: Timestamp(t),
    })
}

fn prox_strategy() -> impl Strategy<Value = ProximityRecord> {
    (0u32..64, 0u32..16, 0u64..1 << 40, 0u64..10_000).prop_map(|(o, d, ts, dur)| ProximityRecord {
        object: ObjectId(o),
        device: DeviceId(d),
        ts: Timestamp(ts),
        te: Timestamp(ts + dur),
    })
}

/// Strictly ascending run ids from per-section gaps.
fn section_runs(gaps: &[u32]) -> Vec<RunId> {
    let mut next = 0u32;
    gaps.iter()
        .map(|&g| {
            let run = next + g;
            next = run + 1;
            RunId(run)
        })
        .collect()
}

fn borrow<T>(sections: &[(RunId, Vec<T>)]) -> Vec<(RunId, &[T])> {
    sections.iter().map(|(r, v)| (*r, v.as_slice())).collect()
}

fn nonempty<T: Clone>(sections: &[(RunId, Vec<T>)]) -> Vec<(RunId, Vec<T>)> {
    sections
        .iter()
        .filter(|(_, rows)| !rows.is_empty())
        .cloned()
        .collect()
}

// ------------------------------------------------------------ v1 hand-encoder

/// The v1 writer, byte-for-byte (it no longer exists in the codec): magic,
/// version 1, tag, row count, rows — no sections, no checksum.
fn encode_v1(tag: u8, rows: &[Vec<u8>]) -> Bytes {
    let mut out = Vec::new();
    out.extend_from_slice(b"VITA");
    out.push(1);
    out.push(tag);
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for r in rows {
        out.extend_from_slice(r);
    }
    Bytes::from(out)
}

fn loc_bytes(loc: &Loc) -> Vec<u8> {
    let mut out = Vec::with_capacity(25);
    out.extend_from_slice(&loc.building.0.to_le_bytes());
    out.extend_from_slice(&loc.floor.0.to_le_bytes());
    match loc.kind {
        vita_indoor::LocKind::Point(p) => {
            out.push(0);
            out.extend_from_slice(&p.x.to_le_bytes());
            out.extend_from_slice(&p.y.to_le_bytes());
        }
        vita_indoor::LocKind::Partition(pid) => {
            out.push(1);
            out.extend_from_slice(&pid.0.to_le_bytes());
            out.extend_from_slice(&[0u8; 12]);
        }
    }
    out
}

fn sample_bytes(s: &TrajectorySample) -> Vec<u8> {
    let mut out = s.object.0.to_le_bytes().to_vec();
    out.extend_from_slice(&loc_bytes(&s.loc));
    out.extend_from_slice(&s.t.0.to_le_bytes());
    out
}

fn rssi_bytes(m: &RssiMeasurement) -> Vec<u8> {
    let mut out = m.object.0.to_le_bytes().to_vec();
    out.extend_from_slice(&m.device.0.to_le_bytes());
    out.extend_from_slice(&m.rssi.to_le_bytes());
    out.extend_from_slice(&m.t.0.to_le_bytes());
    out
}

fn fix_bytes(f: &Fix) -> Vec<u8> {
    let mut out = f.object.0.to_le_bytes().to_vec();
    out.extend_from_slice(&loc_bytes(&f.loc));
    out.extend_from_slice(&f.t.0.to_le_bytes());
    out
}

fn prox_bytes(r: &ProximityRecord) -> Vec<u8> {
    let mut out = r.object.0.to_le_bytes().to_vec();
    out.extend_from_slice(&r.device.0.to_le_bytes());
    out.extend_from_slice(&r.ts.0.to_le_bytes());
    out.extend_from_slice(&r.te.0.to_le_bytes());
    out
}

/// FNV-1a 64 over `bytes` — the v2 trailer, recomputed here so a test can
/// corrupt a file's payload and still present a valid checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrite a v2 file's trailing checksum to match its (edited) body.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

// ------------------------------------------------------------------- proptest

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// v2 multi-run sections round-trip bit-identically, for all four
    /// record types, and re-encoding the decode reproduces the input
    /// bytes exactly (canonical format).
    #[test]
    fn multi_run_round_trip_is_bit_identical(
        gaps in proptest::collection::vec(0u32..5, 1..5),
        t_rows in proptest::collection::vec(proptest::collection::vec(sample_strategy(), 0..40), 4..5),
        r_rows in proptest::collection::vec(proptest::collection::vec(rssi_strategy(), 0..40), 4..5),
        f_rows in proptest::collection::vec(proptest::collection::vec(fix_strategy(), 0..40), 4..5),
        p_rows in proptest::collection::vec(proptest::collection::vec(prox_strategy(), 0..40), 4..5),
    ) {
        let runs = section_runs(&gaps);

        let sections: Vec<(RunId, Vec<TrajectorySample>)> =
            runs.iter().zip(t_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_trajectories_runs(&borrow(&sections));
        let decoded = decode_trajectories_runs(encoded.clone()).unwrap();
        prop_assert_eq!(&decoded, &nonempty(&sections));
        prop_assert_eq!(encode_trajectories_runs(&borrow(&decoded)), encoded);

        let sections: Vec<(RunId, Vec<RssiMeasurement>)> =
            runs.iter().zip(r_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_rssi_runs(&borrow(&sections));
        let decoded = decode_rssi_runs(encoded.clone()).unwrap();
        prop_assert_eq!(&decoded, &nonempty(&sections));
        prop_assert_eq!(encode_rssi_runs(&borrow(&decoded)), encoded);

        let sections: Vec<(RunId, Vec<Fix>)> =
            runs.iter().zip(f_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_fixes_runs(&borrow(&sections));
        let decoded = decode_fixes_runs(encoded.clone()).unwrap();
        prop_assert_eq!(&decoded, &nonempty(&sections));
        prop_assert_eq!(encode_fixes_runs(&borrow(&decoded)), encoded);

        let sections: Vec<(RunId, Vec<ProximityRecord>)> =
            runs.iter().zip(p_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_proximity_runs(&borrow(&sections));
        let decoded = decode_proximity_runs(encoded.clone()).unwrap();
        prop_assert_eq!(&decoded, &nonempty(&sections));
        prop_assert_eq!(encode_proximity_runs(&borrow(&decoded)), encoded);
    }

    /// Arbitrary v1 files (hand-encoded byte-for-byte) decode through the
    /// current reader with every row in run 0.
    #[test]
    fn v1_reader_decodes_arbitrary_rows_into_run_zero(
        samples in proptest::collection::vec(sample_strategy(), 0..60),
        ms in proptest::collection::vec(rssi_strategy(), 0..60),
    ) {
        let rows: Vec<Vec<u8>> = samples.iter().map(sample_bytes).collect();
        let decoded = decode_trajectories_runs(encode_v1(1, &rows)).unwrap();
        if samples.is_empty() {
            prop_assert!(decoded.is_empty());
        } else {
            prop_assert_eq!(decoded, vec![(RunId::DEFAULT, samples)]);
        }

        let rows: Vec<Vec<u8>> = ms.iter().map(rssi_bytes).collect();
        let decoded = decode_rssi_runs(encode_v1(2, &rows)).unwrap();
        if ms.is_empty() {
            prop_assert!(decoded.is_empty());
        } else {
            prop_assert_eq!(decoded, vec![(RunId::DEFAULT, ms)]);
        }
    }

    /// Any truncation of a valid file decodes to an error — never a panic,
    /// never a partial row set.
    #[test]
    fn truncation_always_errors(
        gaps in proptest::collection::vec(0u32..3, 1..4),
        t_rows in proptest::collection::vec(proptest::collection::vec(sample_strategy(), 0..20), 3..4),
        cut in 0.0f64..1.0,
    ) {
        let runs = section_runs(&gaps);
        let sections: Vec<(RunId, Vec<TrajectorySample>)> =
            runs.iter().zip(t_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_trajectories_runs(&borrow(&sections));
        let keep = ((encoded.len() as f64) * cut) as usize; // < len
        let truncated = encoded.slice(0..keep);
        prop_assert!(decode_trajectories_runs(truncated).is_err());
    }

    /// Any single-byte corruption of a valid v2 file decodes to an error —
    /// the checksum catches payload damage that still parses structurally.
    #[test]
    fn byte_corruption_always_errors(
        gaps in proptest::collection::vec(0u32..3, 1..4),
        t_rows in proptest::collection::vec(proptest::collection::vec(sample_strategy(), 0..20), 3..4),
        pos in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let runs = section_runs(&gaps);
        let sections: Vec<(RunId, Vec<TrajectorySample>)> =
            runs.iter().zip(t_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_trajectories_runs(&borrow(&sections));
        let mut bytes = encoded.as_ref().to_vec();
        let idx = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[idx] ^= flip;
        let corrupt = Bytes::from(bytes);
        match decode_trajectories_runs(corrupt.clone()) {
            Err(_) => {}
            Ok(rows) => prop_assert!(false, "corruption at byte {idx} decoded to {rows:?}"),
        }
        // The flattening reader must agree.
        prop_assert!(decode_trajectories(corrupt).is_err());
    }
}

// ------------------------------------------------------------ golden fixtures

/// The checked-in v1 fixtures (written by the legacy exporter's format,
/// byte-for-byte) must decode on the current reader, forever: this is the
/// CI tripwire for wire-format compatibility. Expected contents are
/// spelled out literally — regenerating the fixtures with different data
/// fails loudly.
#[test]
fn v1_golden_fixtures_decode_into_run_zero() {
    let sections = decode_trajectories_runs(Bytes::from_static(include_bytes!(
        "fixtures/v1_trajectories.bin"
    )))
    .unwrap();
    assert_eq!(
        sections,
        vec![(
            RunId::DEFAULT,
            vec![
                TrajectorySample {
                    object: ObjectId(1),
                    loc: Loc::point(BuildingId(0), FloorId(0), Point::new(1.5, 2.5)),
                    t: Timestamp(1000),
                },
                TrajectorySample {
                    object: ObjectId(2),
                    loc: Loc::partition(BuildingId(0), FloorId(1), PartitionId(7)),
                    t: Timestamp(2000),
                },
                TrajectorySample {
                    object: ObjectId(3),
                    loc: Loc::point(BuildingId(1), FloorId(2), Point::new(-4.25, 9.75)),
                    t: Timestamp(3000),
                },
            ]
        )]
    );

    let sections =
        decode_rssi_runs(Bytes::from_static(include_bytes!("fixtures/v1_rssi.bin"))).unwrap();
    assert_eq!(
        sections,
        vec![(
            RunId::DEFAULT,
            vec![
                RssiMeasurement {
                    object: ObjectId(0),
                    device: DeviceId(3),
                    rssi: -62.25,
                    t: Timestamp(500),
                },
                RssiMeasurement {
                    object: ObjectId(9),
                    device: DeviceId(0),
                    rssi: -40.0,
                    t: Timestamp(999),
                },
            ]
        )]
    );

    let sections =
        decode_fixes_runs(Bytes::from_static(include_bytes!("fixtures/v1_fixes.bin"))).unwrap();
    assert_eq!(
        sections,
        vec![(
            RunId::DEFAULT,
            vec![
                Fix {
                    object: ObjectId(4),
                    loc: Loc::point(BuildingId(0), FloorId(2), Point::new(-3.25, 8.0)),
                    t: Timestamp(12345),
                },
                Fix {
                    object: ObjectId(5),
                    loc: Loc::partition(BuildingId(1), FloorId(0), PartitionId(2)),
                    t: Timestamp(777),
                },
            ]
        )]
    );

    let sections = decode_proximity_runs(Bytes::from_static(include_bytes!(
        "fixtures/v1_proximity.bin"
    )))
    .unwrap();
    assert_eq!(
        sections,
        vec![(
            RunId::DEFAULT,
            vec![
                ProximityRecord {
                    object: ObjectId(5),
                    device: DeviceId(6),
                    ts: Timestamp(100),
                    te: Timestamp(5000),
                },
                ProximityRecord {
                    object: ObjectId(8),
                    device: DeviceId(1),
                    ts: Timestamp(0),
                    te: Timestamp(42),
                },
            ]
        )]
    );
}

/// Corrupting a golden fixture's loc-kind byte trips `BadLocKind` — the
/// v1 path has no checksum, so the typed per-row validation is what
/// stands between a corrupt file and garbage data.
#[test]
fn v1_fixture_with_corrupt_loc_kind_fails_loudly() {
    let mut bytes = include_bytes!("fixtures/v1_trajectories.bin").to_vec();
    // First row's kind byte: header (14) + object (4) + building (4) + floor (4).
    bytes[26] = 7;
    assert_eq!(
        decode_trajectories_runs(Bytes::from(bytes)).unwrap_err(),
        CodecError::BadLocKind(7)
    );
}

// ------------------------------------------------------- segment validation

const SEGMENT_GOLDEN: &[u8] = include_bytes!("fixtures/segment_v2_trajectories.bin");
/// v2 header: magic (4) + version (1) + tag (1) + section count (4).
const V2_HEADER: usize = 10;

/// A corrupt loc-kind byte in a segment file is `BadLocKind` even behind a
/// recomputed (valid) checksum: the row parse, not the checksum, rejects
/// it.
#[test]
fn segment_with_corrupt_loc_kind_and_valid_checksum_is_bad_loc_kind() {
    let mut bytes = SEGMENT_GOLDEN.to_vec();
    // First row's kind byte: header + section header (run 4, count 8) +
    // object (4) + building (4) + floor (4).
    let kind = V2_HEADER + 12 + 4 + 4 + 4;
    assert_eq!(bytes[kind], 0, "fixture's first row is a point");
    bytes[kind] = 7;
    reseal(&mut bytes);
    assert_eq!(
        decode_segment::<TrajectorySample>(Bytes::from(bytes)).unwrap_err(),
        CodecError::BadLocKind(7)
    );
}

/// A section header claiming more rows than the payload holds is
/// `Truncated`, found from the header before any row is read. The claims
/// are far past what the host could allocate (2^40 rows is ~50 TB of
/// decoded samples), so sizing a buffer by the claim would abort the test
/// process instead of returning; one that overflows `count × row width`
/// is `CountOverflow`.
#[test]
fn segment_section_claiming_more_rows_than_payload_is_truncated() {
    let count_at = V2_HEADER + 4;
    for (claim, want) in [
        (1000u64, CodecError::Truncated),
        (1 << 40, CodecError::Truncated),
        (u64::MAX / 2, CodecError::CountOverflow),
    ] {
        let mut bytes = SEGMENT_GOLDEN.to_vec();
        bytes[count_at..count_at + 8].copy_from_slice(&claim.to_le_bytes());
        reseal(&mut bytes);
        assert_eq!(
            decode_segment::<TrajectorySample>(Bytes::from(bytes)).unwrap_err(),
            want,
            "claim of {claim} rows"
        );
    }
}

/// Every golden fixture still decodes, and re-encodes byte-identically:
/// the segment fixture through `encode_segment`, the v1 fixtures through
/// the v1 hand-encoder (the current writer only writes v2, whose
/// round trip must return the same rows).
#[test]
fn golden_fixtures_reencode_byte_identically() {
    let sections = decode_segment::<TrajectorySample>(Bytes::from_static(SEGMENT_GOLDEN)).unwrap();
    let borrowed: Vec<(RunId, &[TrajectorySample], &[u64])> = sections
        .iter()
        .map(|s| (s.run, s.rows.as_slice(), s.seqs.as_slice()))
        .collect();
    assert_eq!(encode_segment(&borrowed).as_ref(), SEGMENT_GOLDEN);

    let v1 = include_bytes!("fixtures/v1_trajectories.bin");
    let runs = decode_trajectories_runs(Bytes::from_static(v1)).unwrap();
    let rows: Vec<Vec<u8>> = runs[0].1.iter().map(sample_bytes).collect();
    assert_eq!(encode_v1(1, &rows).as_ref(), v1);
    let v2 = encode_trajectories_runs(&borrow(&runs));
    assert_eq!(decode_trajectories_runs(v2).unwrap(), runs);

    let v1 = include_bytes!("fixtures/v1_rssi.bin");
    let runs = decode_rssi_runs(Bytes::from_static(v1)).unwrap();
    let rows: Vec<Vec<u8>> = runs[0].1.iter().map(rssi_bytes).collect();
    assert_eq!(encode_v1(2, &rows).as_ref(), v1);
    let v2 = encode_rssi_runs(&borrow(&runs));
    assert_eq!(decode_rssi_runs(v2).unwrap(), runs);

    let v1 = include_bytes!("fixtures/v1_fixes.bin");
    let runs = decode_fixes_runs(Bytes::from_static(v1)).unwrap();
    let rows: Vec<Vec<u8>> = runs[0].1.iter().map(fix_bytes).collect();
    assert_eq!(encode_v1(3, &rows).as_ref(), v1);
    let v2 = encode_fixes_runs(&borrow(&runs));
    assert_eq!(decode_fixes_runs(v2).unwrap(), runs);

    let v1 = include_bytes!("fixtures/v1_proximity.bin");
    let runs = decode_proximity_runs(Bytes::from_static(v1)).unwrap();
    let rows: Vec<Vec<u8>> = runs[0].1.iter().map(prox_bytes).collect();
    assert_eq!(encode_v1(4, &rows).as_ref(), v1);
    let v2 = encode_proximity_runs(&borrow(&runs));
    assert_eq!(decode_proximity_runs(v2).unwrap(), runs);
}
