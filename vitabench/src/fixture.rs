//! The benchmark's inputs: the E11 office building, its scenarios, and the
//! query stream — all derived from the command-line seed — plus the
//! checks that judge each answer.

use std::panic::{catch_unwind, AssertUnwindSafe};

use vita_core::prelude::*;
use vita_core::{ScenarioConfig, StreamOptions, Vita};
use vita_geometry::{Aabb, Point};
use vita_indoor::IndoorEnvironment;
use vita_mobility::TrajectorySample;
use vita_serve::{QueryRequest, QueryResponse};

use crate::stats::{derive, Rng};

/// The E11 building: the synthetic two-floor office as DBI text.
pub fn office_text() -> String {
    vita_dbi::write_step(&vita_dbi::office(&SynthParams::with_floors(2)))
}

/// Ten Wi-Fi access points, coverage model, on the ground floor (E11).
pub const APS: usize = 10;

/// Toolkit build through the public entry points: DBI import plus device
/// deployment.
pub fn toolkit(text: &str, backend: StorageBackend) -> Vita {
    let mut vita = Vita::from_dbi_text(text, &BuildParams::default())
        .expect("the synthetic office imports")
        .with_backend(backend);
    vita.deploy_devices(
        DeviceSpec::default_for(DeviceType::WiFi),
        FloorId(0),
        DeploymentModel::Coverage,
        APS,
    );
    vita
}

pub fn trilateration() -> MethodConfig {
    MethodConfig::Trilateration {
        config: TrilaterationConfig::default(),
        conversion_model: PathLossModel::default(),
    }
}

pub fn fingerprint_knn() -> MethodConfig {
    MethodConfig::FingerprintingKnn {
        survey: SurveyConfig::default(),
        online: FingerprintConfig::default(),
        floor: FloorId(0),
    }
}

/// Size of one scenario.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub objects: usize,
    pub secs: u64,
    pub hz: f64,
}

/// One scenario at `scale`, its mobility and RSSI seeds drawn from `seed`.
pub fn scenario(
    scale: Scale,
    seed: u64,
    method: MethodConfig,
    backend: StorageBackend,
) -> ScenarioConfig {
    let ms = Timestamp(scale.secs * 1000);
    ScenarioConfig {
        mobility: MobilityConfig {
            object_count: scale.objects,
            duration: ms,
            lifespan: LifespanConfig { min: ms, max: ms },
            trajectory_hz: Hz(scale.hz),
            seed: derive(seed, 1),
            ..Default::default()
        },
        rssi: RssiConfig {
            duration: ms,
            seed: derive(seed, 2),
            ..Default::default()
        },
        method,
        options: StreamOptions::default().with_backend(backend),
    }
}

/// The scenario pair every workload schedules: one trilateration run and
/// one fingerprint-kNN run.
pub fn scenario_pair(scale: Scale, seed: u64, backend: StorageBackend) -> [ScenarioConfig; 2] {
    [
        scenario(scale, seed, trilateration(), backend.clone()),
        scenario(scale, seed, fingerprint_knn(), backend),
    ]
}

/// The walkable extent of each floor: the union of its partitions'
/// bounding boxes.
pub fn floor_bounds(env: &IndoorEnvironment) -> Vec<(FloorId, Aabb)> {
    env.floors()
        .iter()
        .map(|f| {
            let bounds = f
                .partitions
                .iter()
                .map(|&p| env.partition(p).polygon.bbox())
                .fold(Aabb::empty(), |acc, b| acc.union(&b));
            (f.id, bounds)
        })
        .collect()
}

/// Round-robin over the six query kinds, arguments drawn from the seeded
/// RNG within the data's real universes: time `[0, t_max)`, object ids
/// `[0, objects)` and each floor's own bounds.
#[derive(Debug, Clone)]
pub struct QueryGen {
    pub scopes: Vec<RunScope>,
    pub objects: u32,
    pub floors: Vec<(FloorId, Aabb)>,
    pub t_max: u64,
    /// Width of time windows, ms.
    pub window: u64,
    pub k: usize,
    rng: Rng,
    issued: u64,
}

pub const KINDS: [&str; 6] = ["counts", "snapshot", "window", "trace", "range", "knn"];
/// The span name of each kind's `QueryService::execute` call.
pub const SERVE_SPANS: [&str; 6] = [
    "serve.counts",
    "serve.snapshot",
    "serve.window",
    "serve.trace",
    "serve.range",
    "serve.knn",
];

impl QueryGen {
    pub fn new(
        env: &IndoorEnvironment,
        scopes: Vec<RunScope>,
        objects: usize,
        t_max: u64,
        seed: u64,
    ) -> Self {
        QueryGen {
            scopes,
            objects: objects as u32,
            floors: floor_bounds(env),
            t_max,
            window: 2_000,
            k: 8,
            rng: Rng::new(seed),
            issued: 0,
        }
    }

    pub fn next_request(&mut self) -> QueryRequest {
        let kind = (self.issued % KINDS.len() as u64) as usize;
        self.issued += 1;
        self.request_of(kind)
    }

    /// A request of kind `KINDS[kind]`, with fresh arguments.
    pub fn request_of(&mut self, kind: usize) -> QueryRequest {
        let scope = self.scopes[self.rng.below(self.scopes.len() as u64) as usize];
        let (floor, b) = self.floors[self.rng.below(self.floors.len() as u64) as usize];
        let at = Timestamp(self.rng.below(self.t_max));
        match kind {
            0 => QueryRequest::Counts { scope },
            1 => QueryRequest::SnapshotAt { scope, at },
            2 => QueryRequest::TimeWindow {
                scope,
                from: at,
                to: Timestamp(at.0 + self.window),
            },
            3 => QueryRequest::ObjectTrace {
                scope,
                object: ObjectId(self.rng.below(self.objects as u64) as u32),
            },
            4 => {
                // A box an eighth of the floor wide and high, inside it.
                let (w, h) = (b.width() / 8.0, b.height() / 8.0);
                let x = self.rng.range_f64(b.min.x, b.max.x - w);
                let y = self.rng.range_f64(b.min.y, b.max.y - h);
                QueryRequest::RangeQuery {
                    scope,
                    floor,
                    bounds: Aabb::new(Point::new(x, y), Point::new(x + w, y + h)),
                }
            }
            _ => QueryRequest::Knn {
                scope,
                floor,
                at: Point::new(
                    self.rng.range_f64(b.min.x, b.max.x),
                    self.rng.range_f64(b.min.y, b.max.y),
                ),
                k: self.k,
            },
        }
    }
}

/// Index into [`KINDS`] of a request.
pub fn kind_of(req: &QueryRequest) -> usize {
    match req {
        QueryRequest::Counts { .. } => 0,
        QueryRequest::SnapshotAt { .. } => 1,
        QueryRequest::TimeWindow { .. } => 2,
        QueryRequest::ObjectTrace { .. } => 3,
        QueryRequest::RangeQuery { .. } => 4,
        QueryRequest::Knn { .. } => 5,
    }
}

/// Run `f`, turning a panic into `None`: one failed operation, and the
/// workload continues.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Whether `resp` could be a correct answer to `req` over any prefix of
/// the data: the right variant, and every row satisfying the request's
/// predicate in the documented order. Used while ingestion runs, when no
/// oracle holds the same prefix.
pub fn plausible(req: &QueryRequest, resp: &QueryResponse) -> bool {
    let point = |s: &TrajectorySample| s.loc.as_point();
    let time_ordered = |rows: &[TrajectorySample]| rows.windows(2).all(|w| w[0].t <= w[1].t);
    match (req, resp) {
        (QueryRequest::Counts { .. }, QueryResponse::Counts(_)) => true,
        (QueryRequest::SnapshotAt { at, .. }, QueryResponse::Samples(rows)) => {
            let mut objects: Vec<u32> = rows.iter().map(|s| s.object.0).collect();
            objects.sort_unstable();
            objects.dedup();
            objects.len() == rows.len() && rows.iter().all(|s| s.t <= *at)
        }
        (QueryRequest::TimeWindow { from, to, .. }, QueryResponse::Samples(rows)) => {
            time_ordered(rows) && rows.iter().all(|s| s.t >= *from && s.t < *to)
        }
        (QueryRequest::ObjectTrace { object, .. }, QueryResponse::Samples(rows)) => {
            time_ordered(rows) && rows.iter().all(|s| s.object == *object)
        }
        (QueryRequest::RangeQuery { floor, bounds, .. }, QueryResponse::Samples(rows)) => rows
            .iter()
            .all(|s| s.loc.floor == *floor && point(s).is_some_and(|p| bounds.contains_point(p))),
        (QueryRequest::Knn { floor, at, k, .. }, QueryResponse::Neighbors(rows)) => {
            rows.len() <= *k
                && rows.windows(2).all(|w| w[0].1 <= w[1].1)
                && rows.iter().all(|(s, d)| {
                    s.loc.floor == *floor
                        && point(s).is_some_and(|p| (p.dist(*at) - d).abs() <= 1e-9)
                })
        }
        _ => false,
    }
}

/// An answer in a form that does not depend on arrival order among rows
/// with equal sort keys: counts as-is, row sets sorted, a snapshot as each
/// object's latest time (which run's sample wins a tie at that time is
/// arrival order), kNN as its distance list (likewise for ties at the
/// k-th distance).
#[derive(Debug, PartialEq)]
pub enum Canonical {
    Counts(TableCounts),
    Rows(Vec<(u64, u32, u32, u64, u64)>),
    Latest(Vec<(u32, u64)>),
    Distances(Vec<u64>),
}

pub fn canonical(req: &QueryRequest, resp: &QueryResponse) -> Canonical {
    let key = |s: &TrajectorySample| {
        let p = s.loc.as_point().unwrap_or(Point::new(f64::NAN, f64::NAN));
        (
            s.t.0,
            s.object.0,
            s.loc.floor.0,
            p.x.to_bits(),
            p.y.to_bits(),
        )
    };
    match (req, resp) {
        (_, QueryResponse::Counts(c)) => Canonical::Counts(*c),
        (QueryRequest::SnapshotAt { .. }, QueryResponse::Samples(rows)) => {
            let mut latest: Vec<_> = rows.iter().map(|s| (s.object.0, s.t.0)).collect();
            latest.sort_unstable();
            Canonical::Latest(latest)
        }
        (_, QueryResponse::Samples(rows)) => {
            let mut keys: Vec<_> = rows.iter().map(key).collect();
            keys.sort_unstable();
            Canonical::Rows(keys)
        }
        (_, QueryResponse::Neighbors(rows)) => {
            Canonical::Distances(rows.iter().map(|(_, d)| d.to_bits()).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vita_indoor::BuildingId;

    fn env() -> IndoorEnvironment {
        toolkit(&office_text(), StorageBackend::Single)
            .env()
            .clone()
    }

    #[test]
    fn spatial_arguments_fall_inside_the_building() {
        let env = env();
        let mut gen = QueryGen::new(&env, vec![RunScope::All], 10, 60_000, 5);
        for _ in 0..600 {
            match gen.next_request() {
                QueryRequest::RangeQuery { floor, bounds, .. } => {
                    let (_, fb) = gen.floors.iter().find(|(f, _)| *f == floor).unwrap();
                    assert!(fb.contains_box(&bounds), "{bounds:?} outside {fb:?}");
                }
                QueryRequest::Knn { floor, at, .. } => {
                    let (_, fb) = gen.floors.iter().find(|(f, _)| *f == floor).unwrap();
                    assert!(fb.contains_point(at));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn query_stream_is_seeded_and_covers_every_kind() {
        let env = env();
        let make = |seed| {
            let mut g = QueryGen::new(&env, vec![RunScope::All], 10, 60_000, seed);
            (0..60).map(|_| g.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(make(1), make(1));
        assert_ne!(make(1), make(2));
        let mut seen = [0; 6];
        for q in make(1) {
            seen[kind_of(&q)] += 1;
        }
        assert_eq!(seen, [10; 6]);
    }

    #[test]
    fn implausible_answers_are_rejected() {
        let s = |o: u32, t: u64| {
            TrajectorySample::new(
                ObjectId(o),
                BuildingId(0),
                FloorId(0),
                Point::new(1.0, 1.0),
                Timestamp(t),
            )
        };
        let window = QueryRequest::TimeWindow {
            scope: RunScope::All,
            from: Timestamp(10),
            to: Timestamp(20),
        };
        assert!(plausible(
            &window,
            &QueryResponse::Samples(vec![s(1, 10), s(2, 19)])
        ));
        assert!(!plausible(&window, &QueryResponse::Samples(vec![s(1, 20)])));
        assert!(!plausible(
            &window,
            &QueryResponse::Samples(vec![s(1, 15), s(1, 12)])
        ));
        let counts = QueryRequest::Counts {
            scope: RunScope::All,
        };
        assert!(!plausible(&counts, &QueryResponse::Samples(vec![])));
        let snapshot = QueryRequest::SnapshotAt {
            scope: RunScope::All,
            at: Timestamp(50),
        };
        assert!(!plausible(
            &snapshot,
            &QueryResponse::Samples(vec![s(1, 5), s(1, 6)])
        ));
    }

    #[test]
    fn canonical_form_ignores_tie_order_only() {
        let a = TrajectorySample::new(
            ObjectId(1),
            BuildingId(0),
            FloorId(0),
            Point::new(1.0, 2.0),
            Timestamp(5),
        );
        let mut b = a;
        b.object = ObjectId(2);
        let window = QueryRequest::TimeWindow {
            scope: RunScope::All,
            from: Timestamp(0),
            to: Timestamp(9),
        };
        let rows = |v: Vec<TrajectorySample>| canonical(&window, &QueryResponse::Samples(v));
        assert_eq!(rows(vec![a, b]), rows(vec![b, a]));
        assert_ne!(rows(vec![a, b]), rows(vec![a, a]));
        // Two runs' samples of object 1 tie at the latest time: either
        // answers the snapshot, but a wrong time does not.
        let snapshot = QueryRequest::SnapshotAt {
            scope: RunScope::All,
            at: Timestamp(9),
        };
        let latest = |v: Vec<TrajectorySample>| canonical(&snapshot, &QueryResponse::Samples(v));
        let mut other_run = a;
        other_run.loc = Loc::point(BuildingId(0), FloorId(1), Point::new(3.0, 4.0));
        let mut earlier = a;
        earlier.t = Timestamp(4);
        assert_eq!(latest(vec![a]), latest(vec![other_run]));
        assert_ne!(latest(vec![a]), latest(vec![earlier]));
    }
}
