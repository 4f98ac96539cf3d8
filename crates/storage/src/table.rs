//! Indexed in-memory tables for the generated data.
//!
//! The paper stores generated data "into different repositories with
//! efficient indices" on PostgreSQL+PostGIS (§4.2). This module is the
//! embedded substitute: each repository is a typed table with
//!
//! * a B-tree index on time (range/window scans),
//! * a hash index on object id (trace extraction),
//! * for location-bearing tables, a per-floor uniform-grid spatial index
//!   (range and nearest queries — the PostGIS role).

use std::collections::{BTreeMap, HashMap};

use parking_lot::RwLock;
use vita_geometry::{Aabb, GridIndex, Point};
use vita_indoor::{DeviceId, FloorId, LocKind, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;

use crate::RunScope;

/// Row identifier within one table.
pub type RowId = u32;

/// Checked `usize → RowId` conversion for freshly assigned row ids.
///
/// `RowId` is `u32`; a table past 2³² rows would silently wrap under an
/// `as` cast, aliasing old rows in every index that stores row ids and
/// corrupting query answers from then on. Panic loudly instead: the
/// embedded engine does not support tables that large.
#[inline]
pub(crate) fn checked_row_id(index: usize) -> RowId {
    RowId::try_from(index).unwrap_or_else(|_| {
        panic!(
            "table row index {index} exceeds RowId capacity ({}); \
             tables past 2^32 rows need a wider RowId",
            u32::MAX
        )
    })
}

/// Merge a batch's `(timestamp, row)` pairs into a time index. When the
/// index is empty (the common bulk-load case) the B-tree is built in one
/// pass from the sorted pairs instead of `n` point insertions; the sort is
/// stable so rows sharing a timestamp keep arrival order, matching what
/// repeated [`TrajectoryTable::insert`] would have produced.
fn index_times<T>(
    batch: &[T],
    base: RowId,
    t_of: impl Fn(&T) -> Timestamp,
    by_time: &mut BTreeMap<Timestamp, Vec<RowId>>,
) {
    if by_time.is_empty() {
        let mut pairs: Vec<(Timestamp, RowId)> = batch
            .iter()
            .enumerate()
            .map(|(i, r)| (t_of(r), base + i as RowId))
            .collect();
        pairs.sort_by_key(|(t, _)| *t);
        let mut groups: Vec<(Timestamp, Vec<RowId>)> = Vec::new();
        for (t, id) in pairs {
            match groups.last_mut() {
                Some((gt, ids)) if *gt == t => ids.push(id),
                _ => groups.push((t, vec![id])),
            }
        }
        *by_time = groups.into_iter().collect();
    } else {
        // One B-tree lookup per *run* of equal timestamps, not per row —
        // producers emit time-ordered batches (see the `ProductSink`
        // contract), where e.g. RSSI rows repeat each timestamp once per
        // device. Correct for unsorted input too: runs are just shorter.
        let mut i = 0;
        while i < batch.len() {
            let t = t_of(&batch[i]);
            let ids = by_time.entry(t).or_default();
            ids.push(base + i as RowId);
            i += 1;
            while i < batch.len() && t_of(&batch[i]) == t {
                ids.push(base + i as RowId);
                i += 1;
            }
        }
    }
}

/// A table of raw trajectory samples `(o_id, loc, t)`, tagged with the
/// [`RunId`] that produced each row (see the crate docs on the run
/// dimension). Every query takes a [`RunScope`]: [`RunScope::All`] answers
/// over all runs merged, [`RunScope::One`] restricts it to one run.
#[derive(Debug, Default)]
pub struct TrajectoryTable {
    rows: Vec<TrajectorySample>,
    /// Run tag of each row, parallel to `rows`.
    runs: Vec<RunId>,
    by_time: BTreeMap<Timestamp, Vec<RowId>>,
    by_object: HashMap<ObjectId, Vec<RowId>>,
    /// Row ids per run, in insertion order (BTreeMap so `run_ids` is
    /// sorted for free).
    by_run: BTreeMap<RunId, Vec<RowId>>,
    /// Lazily built spatial index per floor, cached behind its own lock so
    /// spatial *queries* work on `&self` — i.e. through a repository
    /// *read* lock, concurrently with other readers. A missing key means
    /// the floor's index has not been built; `None` records that the floor
    /// was scanned and holds no point rows. Mutations evict **only the
    /// floors their point rows touch** through `&mut self` (`get_mut`, no
    /// lock traffic), so ingestion into one floor never throws away
    /// another floor's grid — and within one shared-borrow epoch each
    /// entry only ever goes from absent to built (`OnceLock`-style), never
    /// stale.
    spatial: RwLock<HashMap<FloorId, Option<GridIndex>>>,
}

impl Clone for TrajectoryTable {
    fn clone(&self) -> Self {
        TrajectoryTable {
            rows: self.rows.clone(),
            runs: self.runs.clone(),
            by_time: self.by_time.clone(),
            by_object: self.by_object.clone(),
            by_run: self.by_run.clone(),
            spatial: RwLock::new(self.spatial.read().clone()),
        }
    }
}

impl TrajectoryTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert one row under [`RunId::DEFAULT`].
    pub fn insert(&mut self, s: TrajectorySample) -> RowId {
        self.insert_run(RunId::DEFAULT, s)
    }

    /// Insert one row tagged with `run`.
    pub fn insert_run(&mut self, run: RunId, s: TrajectorySample) -> RowId {
        let id = checked_row_id(self.rows.len());
        self.by_time.entry(s.t).or_default().push(id);
        self.by_object.entry(s.object).or_default().push(id);
        self.by_run.entry(run).or_default().push(id);
        if matches!(s.loc.kind, LocKind::Point(_)) {
            self.spatial.get_mut().remove(&s.loc.floor);
        }
        self.rows.push(s);
        self.runs.push(run);
        id
    }

    pub fn insert_bulk(&mut self, samples: impl IntoIterator<Item = TrajectorySample>) {
        self.append_batch(samples.into_iter().collect());
    }

    /// Append one owned batch under [`RunId::DEFAULT`].
    pub fn append_batch(&mut self, batch: Vec<TrajectorySample>) {
        self.append_batch_run(RunId::DEFAULT, batch);
    }

    /// Append one owned batch tagged with `run`: rows move in wholesale,
    /// the time index is bulk-built when the table was empty, and only the
    /// floors the batch's point rows land on have their spatial index
    /// evicted — cold floors keep their grids through ingestion. This is
    /// the ingest hot path of the streaming pipeline (one batch per
    /// [`crate::ProductBatch`]).
    pub fn append_batch_run(&mut self, run: RunId, mut batch: Vec<TrajectorySample>) {
        if batch.is_empty() {
            return;
        }
        // One checked conversion covers the whole batch: if the last id
        // fits in RowId, every id in the batch does.
        let _ = checked_row_id(self.rows.len() + batch.len() - 1);
        let base = self.rows.len() as RowId;
        let run_ids = self.by_run.entry(run).or_default();
        for (i, s) in batch.iter().enumerate() {
            let id = base + i as RowId;
            self.by_object.entry(s.object).or_default().push(id);
            run_ids.push(id);
        }
        index_times(&batch, base, |s| s.t, &mut self.by_time);
        let spatial = self.spatial.get_mut();
        if !spatial.is_empty() {
            for s in &batch {
                if matches!(s.loc.kind, LocKind::Point(_)) {
                    spatial.remove(&s.loc.floor);
                }
            }
        }
        self.runs.resize(self.rows.len() + batch.len(), run);
        self.rows.append(&mut batch);
    }

    pub fn get(&self, id: RowId) -> Option<&TrajectorySample> {
        self.rows.get(id as usize)
    }

    /// Every run with at least one row in this table, ascending.
    pub fn run_ids(&self) -> Vec<RunId> {
        self.by_run.keys().copied().collect()
    }

    /// Rows ingested by `run`.
    pub fn len_run(&self, run: RunId) -> usize {
        self.by_run.get(&run).map_or(0, Vec::len)
    }

    /// Every row, all runs merged, in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = &TrajectorySample> {
        self.rows.iter()
    }

    /// One run's rows, in insertion order.
    pub fn scan_run(&self, run: RunId) -> Vec<&TrajectorySample> {
        self.by_run
            .get(&run)
            .map(|ids| ids.iter().map(|&i| &self.rows[i as usize]).collect())
            .unwrap_or_default()
    }

    /// All of `scope`'s samples in the **half-open** window
    /// `from <= t < to`, time-ordered (rows sharing a timestamp keep
    /// arrival order).
    ///
    /// Every `time_window` across the storage tables uses this half-open
    /// contract, and [`ProximityTable::overlapping`] intersects against the
    /// same half-open window, so adjacent windows partition a run with no
    /// row counted twice — and the segmented backend's per-segment merges
    /// ([`crate::SegmentedRepository`]) cannot diverge from single-table
    /// answers at window edges.
    ///
    /// The scoped form walks the time index and filters per row — cost is
    /// `O(all runs' rows inside the window)`, which beats a per-run scan
    /// for the narrow windows time queries usually ask; for window spans
    /// approaching the whole run, prefer [`Self::scan_run`] and filter.
    pub fn time_window(
        &self,
        scope: RunScope,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<&TrajectorySample> {
        let run = scope.run();
        let mut out = Vec::new();
        for (_, ids) in self.by_time.range(from..to) {
            out.extend(
                ids.iter()
                    .filter(|&&i| run.is_none_or(|r| self.runs[i as usize] == r))
                    .map(|&i| &self.rows[i as usize]),
            );
        }
        out
    }

    /// `scope`'s trace of object `o`, time-ordered. Distinct runs reuse
    /// the same dense object-id space, so [`RunScope::All`] interleaves
    /// unrelated runs' objects — [`RunScope::One`] is the per-tenant view.
    pub fn object_trace(&self, scope: RunScope, o: ObjectId) -> Vec<&TrajectorySample> {
        let run = scope.run();
        let mut rows: Vec<&TrajectorySample> = self
            .by_object
            .get(&o)
            .map(|ids| {
                ids.iter()
                    .filter(|&&i| run.is_none_or(|r| self.runs[i as usize] == r))
                    .map(|&i| &self.rows[i as usize])
                    .collect()
            })
            .unwrap_or_default();
        rows.sort_by_key(|s| s.t);
        rows
    }

    /// Latest sample at or before `t` for every object of `scope` (the
    /// bound is **inclusive**: a sample stamped exactly `t` is eligible):
    /// the snapshot the demo GUI extracts when generation is paused (paper
    /// §5 step 4). Output is sorted by object id; among an object's samples
    /// sharing the latest timestamp the last-arrived row wins.
    ///
    /// [`RunScope::All`] walks the time index up to `t`;
    /// [`RunScope::One`] walks the run's own index instead — cost
    /// `O(this run's rows)`, independent of how many other runs share the
    /// table.
    pub fn snapshot_at(&self, scope: RunScope, t: Timestamp) -> Vec<&TrajectorySample> {
        let mut latest: HashMap<ObjectId, &TrajectorySample> = HashMap::new();
        match scope.run() {
            None => {
                for (_, ids) in self.by_time.range(..=t) {
                    for &i in ids {
                        let s = &self.rows[i as usize];
                        latest.insert(s.object, s);
                    }
                }
            }
            Some(run) => {
                let Some(ids) = self.by_run.get(&run) else {
                    return Vec::new();
                };
                // Ids are in arrival order, so replacing on `>=` reproduces
                // the snapshot contract: latest eligible timestamp wins,
                // last-arrived row wins among rows sharing it.
                for &i in ids {
                    let s = &self.rows[i as usize];
                    if s.t > t {
                        continue;
                    }
                    match latest.get(&s.object) {
                        Some(cur) if cur.t > s.t => {}
                        _ => {
                            latest.insert(s.object, s);
                        }
                    }
                }
            }
        }
        let mut v: Vec<&TrajectorySample> = latest.into_values().collect();
        v.sort_by_key(|s| s.object);
        v
    }

    /// Run `f` against `floor`'s spatial index, building it first if no
    /// cached copy exists (`None` if the floor holds no point rows).
    /// Readers share the cache under the inner read lock; the first query
    /// after a mutation rebuilds **that floor only** under the inner write
    /// lock. Taking `&self` is what lets spatial queries run through a
    /// repository *read* lock, concurrent with other readers (mutation is
    /// excluded for the whole call by the `&self` borrow).
    fn with_floor_spatial<R>(&self, floor: FloorId, f: impl FnOnce(Option<&GridIndex>) -> R) -> R {
        {
            let cache = self.spatial.read();
            if let Some(entry) = cache.get(&floor) {
                return f(entry.as_ref());
            }
        }
        let mut cache = self.spatial.write();
        // Another reader may have built this floor between the two locks.
        let entry = cache
            .entry(floor)
            .or_insert_with(|| build_floor_spatial(&self.rows, floor));
        f(entry.as_ref())
    }

    /// Spatial range query: `scope`'s samples on `floor` inside `query`
    /// (any time), in insertion order. Works on `&self`: callers behind a
    /// [`crate::Repository`] need only a read lock.
    pub fn range_query(
        &self,
        scope: RunScope,
        floor: FloorId,
        query: &Aabb,
    ) -> Vec<&TrajectorySample> {
        self.range_query_filtered(floor, query, scope.run())
    }

    fn range_query_filtered(
        &self,
        floor: FloorId,
        query: &Aabb,
        run: Option<RunId>,
    ) -> Vec<&TrajectorySample> {
        let mut ids = self.with_floor_spatial(floor, |g| {
            g.map(|g| g.query_bbox(query)).unwrap_or_default()
        });
        ids.sort_unstable();
        ids.into_iter()
            .filter(|&i| run.is_none_or(|r| self.runs[i as usize] == r))
            .map(|i| &self.rows[i as usize])
            .filter(|s| matches!(s.loc.kind, LocKind::Point(p) if query.contains_point(p)))
            .collect()
    }

    /// `scope`'s k nearest samples to `p` on `floor` (by point distance,
    /// any time). Works on `&self` (read-lock access), like
    /// [`Self::range_query`].
    pub fn knn(
        &self,
        scope: RunScope,
        floor: FloorId,
        p: Point,
        k: usize,
    ) -> Vec<(&TrajectorySample, f64)> {
        self.knn_filtered(floor, p, k, scope.run())
    }

    fn knn_filtered(
        &self,
        floor: FloorId,
        p: Point,
        k: usize,
        run: Option<RunId>,
    ) -> Vec<(&TrajectorySample, f64)> {
        let candidates = self.with_floor_spatial(floor, |g| {
            let Some(g) = g else {
                return Vec::new();
            };
            // Expanding-radius search over the grid. The cap must reach
            // the farthest indexed point even when `p` lies outside the
            // domain (callers may query anywhere; the segmented backend's
            // per-segment grids, anchored the same way, each cover only
            // their segment's points), so it is anchored at the query's
            // distance to the domain, not the domain size alone.
            let dom = g.domain();
            // Every indexed point is within this of `p` (distance to the
            // domain plus its diagonal, bounded by width + height).
            let max_radius = dom.dist_to_point(p) + dom.width() + dom.height() + 1.0;
            let mut radius = g.cell_size().max(f64::MIN_POSITIVE);
            let mut candidates: Vec<u32>;
            loop {
                candidates = g.query_radius(p, radius.min(max_radius));
                // The run filter must apply before the `>= k` stop test:
                // counting other runs' points would end the expansion with
                // fewer than k of this run's points in reach.
                if let Some(r) = run {
                    candidates.retain(|&i| self.runs[i as usize] == r);
                }
                if candidates.len() >= k || radius >= max_radius {
                    break;
                }
                radius *= 2.0;
            }
            candidates
        });
        let mut scored: Vec<(&TrajectorySample, f64)> = candidates
            .into_iter()
            .filter_map(|i| {
                let s = &self.rows[i as usize];
                match s.loc.kind {
                    LocKind::Point(q) => Some((s, q.dist(p))),
                    LocKind::Partition(_) => None,
                }
            })
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        scored.truncate(k);
        scored
    }
}

/// Build one floor's spatial index over its point-located rows, or `None`
/// when the floor holds no point rows (cached as a negative entry so the
/// scan is not repeated per query).
fn build_floor_spatial(rows: &[TrajectorySample], floor: FloorId) -> Option<GridIndex> {
    let mut pts: Vec<(RowId, Point)> = Vec::new();
    for (i, s) in rows.iter().enumerate() {
        if let LocKind::Point(p) = s.loc.kind {
            if s.loc.floor == floor {
                pts.push((checked_row_id(i), p));
            }
        }
    }
    if pts.is_empty() {
        return None;
    }
    let domain = Aabb::from_points(&pts.iter().map(|(_, p)| *p).collect::<Vec<_>>()).inflated(1.0);
    let cell = (domain.width().max(domain.height()) / 32.0).max(0.5);
    let mut g = GridIndex::new(domain, cell);
    for (id, p) in pts {
        g.insert_point(id, p);
    }
    Some(g)
}

/// A table of raw RSSI measurements `(o_id, d_id, rssi, t)`, run-tagged
/// like [`TrajectoryTable`].
#[derive(Debug, Default, Clone)]
pub struct RssiTable {
    rows: Vec<RssiMeasurement>,
    runs: Vec<RunId>,
    by_time: BTreeMap<Timestamp, Vec<RowId>>,
    by_object: HashMap<ObjectId, Vec<RowId>>,
    by_device: HashMap<DeviceId, Vec<RowId>>,
    by_run: BTreeMap<RunId, Vec<RowId>>,
}

impl RssiTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert one row under [`RunId::DEFAULT`].
    pub fn insert(&mut self, m: RssiMeasurement) -> RowId {
        self.insert_run(RunId::DEFAULT, m)
    }

    /// Insert one row tagged with `run`.
    pub fn insert_run(&mut self, run: RunId, m: RssiMeasurement) -> RowId {
        let id = checked_row_id(self.rows.len());
        self.by_time.entry(m.t).or_default().push(id);
        self.by_object.entry(m.object).or_default().push(id);
        self.by_device.entry(m.device).or_default().push(id);
        self.by_run.entry(run).or_default().push(id);
        self.rows.push(m);
        self.runs.push(run);
        id
    }

    pub fn insert_bulk(&mut self, ms: impl IntoIterator<Item = RssiMeasurement>) {
        self.append_batch(ms.into_iter().collect());
    }

    /// Append one owned batch under [`RunId::DEFAULT`].
    pub fn append_batch(&mut self, batch: Vec<RssiMeasurement>) {
        self.append_batch_run(RunId::DEFAULT, batch);
    }

    /// Append one owned batch tagged with `run` (see
    /// [`TrajectoryTable::append_batch_run`]).
    pub fn append_batch_run(&mut self, run: RunId, mut batch: Vec<RssiMeasurement>) {
        if batch.is_empty() {
            return;
        }
        let _ = checked_row_id(self.rows.len() + batch.len() - 1);
        let base = self.rows.len() as RowId;
        let run_ids = self.by_run.entry(run).or_default();
        for (i, m) in batch.iter().enumerate() {
            let id = base + i as RowId;
            self.by_object.entry(m.object).or_default().push(id);
            self.by_device.entry(m.device).or_default().push(id);
            run_ids.push(id);
        }
        index_times(&batch, base, |m| m.t, &mut self.by_time);
        self.runs.resize(self.rows.len() + batch.len(), run);
        self.rows.append(&mut batch);
    }

    /// Every row, all runs merged, in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = &RssiMeasurement> {
        self.rows.iter()
    }

    /// One run's rows, in insertion order.
    pub fn scan_run(&self, run: RunId) -> Vec<&RssiMeasurement> {
        self.by_run
            .get(&run)
            .map(|ids| ids.iter().map(|&i| &self.rows[i as usize]).collect())
            .unwrap_or_default()
    }

    /// Every run with at least one row in this table, ascending.
    pub fn run_ids(&self) -> Vec<RunId> {
        self.by_run.keys().copied().collect()
    }

    /// Rows ingested by `run`.
    pub fn len_run(&self, run: RunId) -> usize {
        self.by_run.get(&run).map_or(0, Vec::len)
    }

    /// All of `scope`'s measurements in the **half-open** window
    /// `from <= t < to`, time-ordered (same contract as
    /// [`TrajectoryTable::time_window`]).
    pub fn time_window(
        &self,
        scope: RunScope,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<&RssiMeasurement> {
        let run = scope.run();
        let mut out = Vec::new();
        for (_, ids) in self.by_time.range(from..to) {
            out.extend(
                ids.iter()
                    .filter(|&&i| run.is_none_or(|r| self.runs[i as usize] == r))
                    .map(|&i| &self.rows[i as usize]),
            );
        }
        out
    }

    /// `scope`'s measurements of object `o`, time-ordered.
    pub fn of_object(&self, scope: RunScope, o: ObjectId) -> Vec<&RssiMeasurement> {
        let run = scope.run();
        let mut rows: Vec<&RssiMeasurement> = self
            .by_object
            .get(&o)
            .map(|ids| {
                ids.iter()
                    .filter(|&&i| run.is_none_or(|r| self.runs[i as usize] == r))
                    .map(|&i| &self.rows[i as usize])
                    .collect()
            })
            .unwrap_or_default();
        rows.sort_by_key(|m| m.t);
        rows
    }

    /// `scope`'s measurements through device `d`, time-ordered.
    pub fn of_device(&self, scope: RunScope, d: DeviceId) -> Vec<&RssiMeasurement> {
        let run = scope.run();
        let mut rows: Vec<&RssiMeasurement> = self
            .by_device
            .get(&d)
            .map(|ids| {
                ids.iter()
                    .filter(|&&i| run.is_none_or(|r| self.runs[i as usize] == r))
                    .map(|&i| &self.rows[i as usize])
                    .collect()
            })
            .unwrap_or_default();
        rows.sort_by_key(|m| m.t);
        rows
    }
}

/// A table of deterministic positioning fixes `(o_id, loc, t)`, run-tagged
/// like [`TrajectoryTable`].
#[derive(Debug, Default, Clone)]
pub struct FixTable {
    rows: Vec<Fix>,
    runs: Vec<RunId>,
    by_time: BTreeMap<Timestamp, Vec<RowId>>,
    by_object: HashMap<ObjectId, Vec<RowId>>,
    by_run: BTreeMap<RunId, Vec<RowId>>,
}

impl FixTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert one row under [`RunId::DEFAULT`].
    pub fn insert(&mut self, f: Fix) -> RowId {
        self.insert_run(RunId::DEFAULT, f)
    }

    /// Insert one row tagged with `run`.
    pub fn insert_run(&mut self, run: RunId, f: Fix) -> RowId {
        let id = checked_row_id(self.rows.len());
        self.by_time.entry(f.t).or_default().push(id);
        self.by_object.entry(f.object).or_default().push(id);
        self.by_run.entry(run).or_default().push(id);
        self.rows.push(f);
        self.runs.push(run);
        id
    }

    pub fn insert_bulk(&mut self, fs: impl IntoIterator<Item = Fix>) {
        self.append_batch(fs.into_iter().collect());
    }

    /// Append one owned batch under [`RunId::DEFAULT`].
    pub fn append_batch(&mut self, batch: Vec<Fix>) {
        self.append_batch_run(RunId::DEFAULT, batch);
    }

    /// Append one owned batch tagged with `run` (see
    /// [`TrajectoryTable::append_batch_run`]).
    pub fn append_batch_run(&mut self, run: RunId, mut batch: Vec<Fix>) {
        if batch.is_empty() {
            return;
        }
        let _ = checked_row_id(self.rows.len() + batch.len() - 1);
        let base = self.rows.len() as RowId;
        let run_ids = self.by_run.entry(run).or_default();
        for (i, f) in batch.iter().enumerate() {
            let id = base + i as RowId;
            self.by_object.entry(f.object).or_default().push(id);
            run_ids.push(id);
        }
        index_times(&batch, base, |f| f.t, &mut self.by_time);
        self.runs.resize(self.rows.len() + batch.len(), run);
        self.rows.append(&mut batch);
    }

    /// Every row, all runs merged, in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = &Fix> {
        self.rows.iter()
    }

    /// One run's rows, in insertion order.
    pub fn scan_run(&self, run: RunId) -> Vec<&Fix> {
        self.by_run
            .get(&run)
            .map(|ids| ids.iter().map(|&i| &self.rows[i as usize]).collect())
            .unwrap_or_default()
    }

    /// Every run with at least one row in this table, ascending.
    pub fn run_ids(&self) -> Vec<RunId> {
        self.by_run.keys().copied().collect()
    }

    /// Rows ingested by `run`.
    pub fn len_run(&self, run: RunId) -> usize {
        self.by_run.get(&run).map_or(0, Vec::len)
    }

    /// All of `scope`'s fixes in the **half-open** window `from <= t < to`,
    /// time-ordered (same contract as [`TrajectoryTable::time_window`]).
    pub fn time_window(&self, scope: RunScope, from: Timestamp, to: Timestamp) -> Vec<&Fix> {
        let run = scope.run();
        let mut out = Vec::new();
        for (_, ids) in self.by_time.range(from..to) {
            out.extend(
                ids.iter()
                    .filter(|&&i| run.is_none_or(|r| self.runs[i as usize] == r))
                    .map(|&i| &self.rows[i as usize]),
            );
        }
        out
    }

    /// `scope`'s fixes of object `o`, time-ordered.
    pub fn of_object(&self, scope: RunScope, o: ObjectId) -> Vec<&Fix> {
        let run = scope.run();
        let mut rows: Vec<&Fix> = self
            .by_object
            .get(&o)
            .map(|ids| {
                ids.iter()
                    .filter(|&&i| run.is_none_or(|r| self.runs[i as usize] == r))
                    .map(|&i| &self.rows[i as usize])
                    .collect()
            })
            .unwrap_or_default();
        rows.sort_by_key(|f| f.t);
        rows
    }
}

/// A table of proximity detection periods `(o_id, d_id, ts, te)`,
/// run-tagged like [`TrajectoryTable`].
#[derive(Debug, Default, Clone)]
pub struct ProximityTable {
    rows: Vec<ProximityRecord>,
    runs: Vec<RunId>,
    by_object: HashMap<ObjectId, Vec<RowId>>,
    by_device: HashMap<DeviceId, Vec<RowId>>,
    by_run: BTreeMap<RunId, Vec<RowId>>,
}

impl ProximityTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert one row under [`RunId::DEFAULT`].
    pub fn insert(&mut self, r: ProximityRecord) -> RowId {
        self.insert_run(RunId::DEFAULT, r)
    }

    /// Insert one row tagged with `run`.
    pub fn insert_run(&mut self, run: RunId, r: ProximityRecord) -> RowId {
        let id = checked_row_id(self.rows.len());
        self.by_object.entry(r.object).or_default().push(id);
        self.by_device.entry(r.device).or_default().push(id);
        self.by_run.entry(run).or_default().push(id);
        self.rows.push(r);
        self.runs.push(run);
        id
    }

    pub fn insert_bulk(&mut self, rs: impl IntoIterator<Item = ProximityRecord>) {
        self.append_batch(rs.into_iter().collect());
    }

    /// Append one owned batch under [`RunId::DEFAULT`].
    pub fn append_batch(&mut self, batch: Vec<ProximityRecord>) {
        self.append_batch_run(RunId::DEFAULT, batch);
    }

    /// Append one owned batch tagged with `run` (see
    /// [`TrajectoryTable::append_batch_run`]).
    pub fn append_batch_run(&mut self, run: RunId, mut batch: Vec<ProximityRecord>) {
        if batch.is_empty() {
            return;
        }
        let _ = checked_row_id(self.rows.len() + batch.len() - 1);
        let base = self.rows.len() as RowId;
        let run_ids = self.by_run.entry(run).or_default();
        for (i, r) in batch.iter().enumerate() {
            let id = base + i as RowId;
            self.by_object.entry(r.object).or_default().push(id);
            self.by_device.entry(r.device).or_default().push(id);
            run_ids.push(id);
        }
        self.runs.resize(self.rows.len() + batch.len(), run);
        self.rows.append(&mut batch);
    }

    /// Every row, all runs merged, in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = &ProximityRecord> {
        self.rows.iter()
    }

    /// One run's rows, in insertion order.
    pub fn scan_run(&self, run: RunId) -> Vec<&ProximityRecord> {
        self.by_run
            .get(&run)
            .map(|ids| ids.iter().map(|&i| &self.rows[i as usize]).collect())
            .unwrap_or_default()
    }

    /// Every run with at least one row in this table, ascending.
    pub fn run_ids(&self) -> Vec<RunId> {
        self.by_run.keys().copied().collect()
    }

    /// Rows ingested by `run`.
    pub fn len_run(&self, run: RunId) -> usize {
        self.by_run.get(&run).map_or(0, Vec::len)
    }

    /// `scope`'s records whose **closed** detection period `[ts, te]`
    /// intersects the **half-open** query window `[from, to)` — i.e.
    /// `ts < to && te >= from`, in insertion order.
    ///
    /// The window contract matches `time_window` on the other tables: a
    /// detection ending exactly at `from` is included (the instant `from`
    /// lies in the window), one starting exactly at `to` is not. Adjacent
    /// windows therefore agree with point-event queries at their shared
    /// boundary, and the segmented backend's per-segment merges cannot
    /// diverge from single-table answers at window edges.
    ///
    /// The run-scoped form walks the run's own index (`by_run` ids are in
    /// insertion order): cost is `O(this run's rows)`, independent of how
    /// many other runs share the table.
    pub fn overlapping(
        &self,
        scope: RunScope,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<&ProximityRecord> {
        match scope.run() {
            None => self
                .rows
                .iter()
                .filter(|r| r.ts < to && r.te >= from)
                .collect(),
            Some(run) => self
                .by_run
                .get(&run)
                .map(|ids| {
                    ids.iter()
                        .map(|&i| &self.rows[i as usize])
                        .filter(|r| r.ts < to && r.te >= from)
                        .collect()
                })
                .unwrap_or_default(),
        }
    }

    /// `scope`'s detection periods of object `o`, ordered by start time.
    pub fn of_object(&self, scope: RunScope, o: ObjectId) -> Vec<&ProximityRecord> {
        let run = scope.run();
        let mut rows: Vec<&ProximityRecord> = self
            .by_object
            .get(&o)
            .map(|ids| {
                ids.iter()
                    .filter(|&&i| run.is_none_or(|r| self.runs[i as usize] == r))
                    .map(|&i| &self.rows[i as usize])
                    .collect()
            })
            .unwrap_or_default();
        rows.sort_by_key(|r| r.ts);
        rows
    }

    /// `scope`'s detection periods through device `d`, ordered by start
    /// time.
    pub fn of_device(&self, scope: RunScope, d: DeviceId) -> Vec<&ProximityRecord> {
        let run = scope.run();
        let mut rows: Vec<&ProximityRecord> = self
            .by_device
            .get(&d)
            .map(|ids| {
                ids.iter()
                    .filter(|&&i| run.is_none_or(|r| self.runs[i as usize] == r))
                    .map(|&i| &self.rows[i as usize])
                    .collect()
            })
            .unwrap_or_default();
        rows.sort_by_key(|r| r.ts);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vita_indoor::BuildingId;

    fn ts(o: u32, f: u32, x: f64, y: f64, t: u64) -> TrajectorySample {
        TrajectorySample::new(
            ObjectId(o),
            BuildingId(0),
            FloorId(f),
            Point::new(x, y),
            Timestamp(t),
        )
    }

    #[test]
    fn trajectory_time_window_uses_index() {
        let mut t = TrajectoryTable::new();
        for i in 0..100u64 {
            t.insert(ts(0, 0, i as f64, 0.0, i * 100));
        }
        let w = t.time_window(RunScope::All, Timestamp(1000), Timestamp(2000));
        assert_eq!(w.len(), 10);
        assert!(w.iter().all(|s| s.t.0 >= 1000 && s.t.0 < 2000));
    }

    #[test]
    fn object_trace_is_time_ordered() {
        let mut t = TrajectoryTable::new();
        t.insert(ts(1, 0, 2.0, 0.0, 200));
        t.insert(ts(0, 0, 0.0, 0.0, 0));
        t.insert(ts(1, 0, 1.0, 0.0, 100));
        let trace = t.object_trace(RunScope::All, ObjectId(1));
        assert_eq!(trace.len(), 2);
        assert!(trace[0].t < trace[1].t);
        assert!(t.object_trace(RunScope::All, ObjectId(9)).is_empty());
    }

    #[test]
    fn snapshot_picks_latest_per_object() {
        let mut t = TrajectoryTable::new();
        t.insert(ts(0, 0, 0.0, 0.0, 0));
        t.insert(ts(0, 0, 5.0, 0.0, 500));
        t.insert(ts(1, 0, 9.0, 0.0, 300));
        t.insert(ts(0, 0, 9.0, 0.0, 900)); // after snapshot time
        let snap = t.snapshot_at(RunScope::All, Timestamp(600));
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].object, ObjectId(0));
        assert!((snap[0].point().x - 5.0).abs() < 1e-9);
        assert!((snap[1].point().x - 9.0).abs() < 1e-9);
    }

    #[test]
    fn spatial_range_query() {
        let mut t = TrajectoryTable::new();
        for i in 0..10 {
            t.insert(ts(i, 0, i as f64 * 2.0, 1.0, 0));
        }
        t.insert(ts(99, 1, 5.0, 1.0, 0)); // other floor
        let hits = t.range_query(
            RunScope::All,
            FloorId(0),
            &Aabb::new(Point::new(3.0, 0.0), Point::new(9.0, 2.0)),
        );
        assert_eq!(hits.len(), 3); // x = 4, 6, 8
        let none = t.range_query(
            RunScope::All,
            FloorId(3),
            &Aabb::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn knn_returns_sorted_neighbours() {
        let mut t = TrajectoryTable::new();
        for i in 0..20 {
            t.insert(ts(i, 0, i as f64, 0.0, 0));
        }
        let got = t.knn(RunScope::All, FloorId(0), Point::new(7.2, 0.0), 3);
        assert_eq!(got.len(), 3);
        let xs: Vec<f64> = got.iter().map(|(s, _)| s.point().x).collect();
        assert_eq!(xs, vec![7.0, 8.0, 6.0]);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn checked_row_id_round_trips_in_range() {
        assert_eq!(checked_row_id(0), 0);
        assert_eq!(checked_row_id(5), 5);
        assert_eq!(checked_row_id(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds RowId capacity")]
    fn checked_row_id_panics_instead_of_wrapping() {
        let _ = checked_row_id(u32::MAX as usize + 1);
    }

    #[test]
    fn spatial_queries_work_on_shared_reference() {
        // The whole point of the interior-mutability fix: range_query/knn
        // must be callable through &TrajectoryTable (a repository read
        // lock), including the first query that builds the index.
        let mut t = TrajectoryTable::new();
        for i in 0..10 {
            t.insert(ts(i, 0, i as f64, 0.0, 0));
        }
        let shared: &TrajectoryTable = &t;
        let hits = shared.range_query(
            RunScope::All,
            FloorId(0),
            &Aabb::new(Point::new(-0.5, -0.5), Point::new(3.5, 0.5)),
        );
        assert_eq!(hits.len(), 4);
        let near = shared.knn(RunScope::All, FloorId(0), Point::new(2.2, 0.0), 2);
        assert_eq!(near.len(), 2);
        assert_eq!(near[0].0.object, ObjectId(2));
        // A clone carries the cached index (or lack of one) along.
        let cloned = t.clone();
        assert_eq!(
            cloned
                .knn(RunScope::All, FloorId(0), Point::new(2.2, 0.0), 2)
                .len(),
            near.len()
        );
    }

    #[test]
    fn time_window_boundaries_are_half_open() {
        // `from` is included, `to` is excluded — on every time-indexed
        // table, so window edges agree across products and backends.
        let mut t = TrajectoryTable::new();
        t.insert(ts(0, 0, 0.0, 0.0, 100));
        t.insert(ts(0, 0, 1.0, 0.0, 200));
        let w = t.time_window(RunScope::All, Timestamp(100), Timestamp(200));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].t, Timestamp(100));

        let mut r = RssiTable::new();
        for tstamp in [100u64, 200] {
            r.insert(RssiMeasurement {
                object: ObjectId(0),
                device: DeviceId(0),
                rssi: -50.0,
                t: Timestamp(tstamp),
            });
        }
        assert_eq!(
            r.time_window(RunScope::All, Timestamp(100), Timestamp(200))
                .len(),
            1
        );

        use vita_indoor::Loc;
        let mut f = FixTable::new();
        for tstamp in [100u64, 200] {
            f.insert(Fix {
                object: ObjectId(0),
                loc: Loc::point(BuildingId(0), FloorId(0), Point::new(0.0, 0.0)),
                t: Timestamp(tstamp),
            });
        }
        assert_eq!(
            f.time_window(RunScope::All, Timestamp(100), Timestamp(200))
                .len(),
            1
        );
    }

    #[test]
    fn snapshot_at_bound_is_inclusive() {
        let mut t = TrajectoryTable::new();
        t.insert(ts(0, 0, 1.0, 0.0, 500));
        let snap = t.snapshot_at(RunScope::All, Timestamp(500));
        assert_eq!(snap.len(), 1);
        assert!(t.snapshot_at(RunScope::All, Timestamp(499)).is_empty());
    }

    #[test]
    fn overlapping_boundaries_match_half_open_window() {
        let mut t = ProximityTable::new();
        t.insert(ProximityRecord {
            object: ObjectId(0),
            device: DeviceId(0),
            ts: Timestamp(100),
            te: Timestamp(300),
        });
        // Detection ending exactly at `from`: instant 300 is in [300, 400).
        assert_eq!(
            t.overlapping(RunScope::All, Timestamp(300), Timestamp(400))
                .len(),
            1
        );
        // Detection starting exactly at `to`: instant 100 is not in [0, 100).
        assert_eq!(
            t.overlapping(RunScope::All, Timestamp(0), Timestamp(100))
                .len(),
            0
        );
    }

    #[test]
    fn spatial_index_invalidated_on_insert() {
        let mut t = TrajectoryTable::new();
        t.insert(ts(0, 0, 0.0, 0.0, 0));
        let _ = t.knn(RunScope::All, FloorId(0), Point::new(0.0, 0.0), 1);
        t.insert(ts(1, 0, 10.0, 0.0, 0));
        let got = t.knn(RunScope::All, FloorId(0), Point::new(10.0, 0.0), 1);
        assert_eq!(got[0].0.object, ObjectId(1));
    }

    #[test]
    fn spatial_invalidation_is_scoped_to_touched_floors() {
        let mut t = TrajectoryTable::new();
        t.insert(ts(0, 0, 1.0, 1.0, 0));
        t.insert(ts(1, 1, 5.0, 5.0, 0));
        // Build both floors' grids.
        let _ = t.knn(RunScope::All, FloorId(0), Point::new(0.0, 0.0), 1);
        let _ = t.knn(RunScope::All, FloorId(1), Point::new(0.0, 0.0), 1);
        assert!(t.spatial.read().contains_key(&FloorId(0)));
        assert!(t.spatial.read().contains_key(&FloorId(1)));
        // An append that only touches floor 1 must leave floor 0's grid
        // cached — and evict floor 1's.
        t.append_batch(vec![ts(2, 1, 9.0, 9.0, 10)]);
        assert!(t.spatial.read().contains_key(&FloorId(0)));
        assert!(!t.spatial.read().contains_key(&FloorId(1)));
        // Both floors still answer correctly (floor 1 rebuilds on demand,
        // seeing the new row).
        let f1 = t.knn(RunScope::All, FloorId(1), Point::new(9.0, 9.0), 1);
        assert_eq!(f1[0].0.object, ObjectId(2));
        let f0 = t.knn(RunScope::All, FloorId(0), Point::new(0.0, 0.0), 1);
        assert_eq!(f0[0].0.object, ObjectId(0));
        // A floor never seen before: missing key builds on demand too.
        t.append_batch(vec![ts(3, 2, 4.0, 4.0, 20)]);
        let f2 = t.range_query(
            RunScope::All,
            FloorId(2),
            &Aabb::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0)),
        );
        assert_eq!(f2.len(), 1);
        // Queries against a floor with no point rows cache the negative
        // answer instead of rescanning.
        assert!(t
            .knn(RunScope::All, FloorId(9), Point::new(0.0, 0.0), 3)
            .is_empty());
        assert!(matches!(t.spatial.read().get(&FloorId(9)), Some(None)));
    }

    #[test]
    fn append_batch_matches_per_row_insert() {
        // Same rows via the bulk and per-row paths — queries must agree,
        // including order among duplicate timestamps.
        let rows: Vec<TrajectorySample> = (0..200)
            .map(|i| ts(i % 7, 0, i as f64, 0.0, (i % 40) as u64 * 50))
            .collect();
        let mut bulk = TrajectoryTable::new();
        bulk.append_batch(rows.clone());
        // Second batch exercises the non-empty merge path.
        let extra: Vec<TrajectorySample> =
            (0..60).map(|i| ts(i % 5, 0, i as f64, 1.0, 975)).collect();
        bulk.append_batch(extra.clone());

        let mut single = TrajectoryTable::new();
        for s in rows.iter().chain(&extra) {
            single.insert(*s);
        }
        assert_eq!(bulk.len(), single.len());
        let wa = bulk.time_window(RunScope::All, Timestamp(0), Timestamp(2001));
        let wb = single.time_window(RunScope::All, Timestamp(0), Timestamp(2001));
        assert_eq!(wa.len(), wb.len());
        for (a, b) in wa.iter().zip(&wb) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.object, b.object);
            assert!((a.point().x - b.point().x).abs() < 1e-12);
        }
        for o in 0..7 {
            assert_eq!(
                bulk.object_trace(RunScope::All, ObjectId(o)).len(),
                single.object_trace(RunScope::All, ObjectId(o)).len()
            );
        }
        let sa = bulk.snapshot_at(RunScope::All, Timestamp(980));
        let sb = single.snapshot_at(RunScope::All, Timestamp(980));
        assert_eq!(sa.len(), sb.len());
        for (a, b) in sa.iter().zip(&sb) {
            assert!((a.point().x - b.point().x).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut t = TrajectoryTable::new();
        t.append_batch(Vec::new());
        assert!(t.is_empty());
        let mut r = RssiTable::new();
        r.append_batch(Vec::new());
        assert!(r.is_empty());
    }

    #[test]
    fn rssi_table_indexes() {
        let mut t = RssiTable::new();
        for i in 0..10u64 {
            t.insert(RssiMeasurement {
                object: ObjectId((i % 2) as u32),
                device: DeviceId((i % 3) as u32),
                rssi: -40.0 - i as f64,
                t: Timestamp(i * 10),
            });
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.of_object(RunScope::All, ObjectId(0)).len(), 5);
        assert_eq!(t.of_device(RunScope::All, DeviceId(0)).len(), 4);
        assert_eq!(
            t.time_window(RunScope::All, Timestamp(0), Timestamp(50))
                .len(),
            5
        );
        // Per-object rows are time ordered.
        let rows = t.of_object(RunScope::All, ObjectId(1));
        assert!(rows.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn fix_table_roundtrip() {
        use vita_indoor::Loc;
        let mut t = FixTable::new();
        t.insert(Fix {
            object: ObjectId(0),
            loc: Loc::point(BuildingId(0), FloorId(0), Point::new(1.0, 2.0)),
            t: Timestamp(100),
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.of_object(RunScope::All, ObjectId(0)).len(), 1);
        assert_eq!(
            t.time_window(RunScope::All, Timestamp(0), Timestamp(200))
                .len(),
            1
        );
        assert_eq!(
            t.time_window(RunScope::All, Timestamp(200), Timestamp(300))
                .len(),
            0
        );
    }

    #[test]
    fn proximity_overlap_query() {
        let mut t = ProximityTable::new();
        t.insert(ProximityRecord {
            object: ObjectId(0),
            device: DeviceId(0),
            ts: Timestamp(100),
            te: Timestamp(500),
        });
        t.insert(ProximityRecord {
            object: ObjectId(1),
            device: DeviceId(1),
            ts: Timestamp(800),
            te: Timestamp(900),
        });
        assert_eq!(
            t.overlapping(RunScope::All, Timestamp(0), Timestamp(600))
                .len(),
            1
        );
        assert_eq!(
            t.overlapping(RunScope::All, Timestamp(450), Timestamp(850))
                .len(),
            2
        );
        assert_eq!(
            t.overlapping(RunScope::All, Timestamp(901), Timestamp(1000))
                .len(),
            0
        );
        assert_eq!(t.of_device(RunScope::All, DeviceId(1)).len(), 1);
        assert_eq!(t.of_object(RunScope::All, ObjectId(0)).len(), 1);
    }
}
