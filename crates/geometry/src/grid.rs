//! Uniform grid spatial index.
//!
//! Cheap, rebuild-friendly index used for dynamic data (moving objects,
//! devices). Static building geometry uses the bulk-loaded [`crate::rtree`].
//!
//! The grid is built in one shot from its items: a counting sort places
//! every item's slot into the cells its bounds overlap, stored as CSR —
//! one offsets array (`cols × rows + 1` entries) and one slot array —
//! instead of a growable list per cell. Readers never see a partial
//! grid, and a rebuild is two linear passes plus three allocations.

use crate::bbox::Aabb;
use crate::point::Point;

/// A uniform grid over a bounded domain, mapping cells to item ids.
#[derive(Debug, Clone)]
pub struct GridIndex {
    domain: Aabb,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Cell `c`'s slots are `slots[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    /// Entry slots, grouped by cell; ascending within each cell.
    slots: Vec<u32>,
    entries: Vec<(u32, Aabb)>,
}

impl GridIndex {
    /// Build a grid covering `domain` with roughly `cell`-sized cells over
    /// `entries` (`(id, bounds)` pairs). The cell size is clamped so the
    /// grid has at least one cell; bounds outside the domain clamp into
    /// its edge cells.
    ///
    /// # Panics
    /// If the grid would hold more than `u32::MAX` cell slots.
    pub fn build(domain: Aabb, cell: f64, entries: Vec<(u32, Aabb)>) -> Self {
        let cell = if cell.is_finite() && cell > 1e-6 {
            cell
        } else {
            1.0
        };
        let cols = ((domain.width() / cell).ceil() as usize).max(1);
        let rows = ((domain.height() / cell).ceil() as usize).max(1);
        let mut g = GridIndex {
            domain,
            cell,
            cols,
            rows,
            offsets: Vec::new(),
            slots: Vec::new(),
            entries,
        };
        // Counting sort: count each cell's slots, prefix-sum the counts
        // into offsets, then place slots in entry order (so every cell's
        // slots come out ascending).
        let mut offsets = vec![0u32; cols * rows + 1];
        for (_, b) in &g.entries {
            g.for_each_cell(b, |c| offsets[c + 1] += 1);
        }
        for c in 0..cols * rows {
            offsets[c + 1] = offsets[c + 1]
                .checked_add(offsets[c])
                .expect("grid slot count exceeds u32");
        }
        let mut cursor = offsets[..cols * rows].to_vec();
        let mut slots = vec![0u32; offsets[cols * rows] as usize];
        for (slot, (_, b)) in g.entries.iter().enumerate() {
            g.for_each_cell(b, |c| {
                slots[cursor[c] as usize] = slot as u32;
                cursor[c] += 1;
            });
        }
        g.offsets = offsets;
        g.slots = slots;
        g
    }

    /// A grid over point items with the storage layer's sizing rule: the
    /// points' bounding box inflated by 1.0 (so edge points never fall
    /// outside), cell = max(width, height) / 32 with a 0.5 floor. `None`
    /// for no points. Both storage backends build their per-floor grids
    /// here, so their kNN radius anchoring (domain and cell size) cannot
    /// drift apart.
    pub fn over_points(points: &[(u32, Point)]) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let domain = points
            .iter()
            .fold(Aabb::empty(), |b, &(_, p)| b.expanded_to(p))
            .inflated(1.0);
        let cell = (domain.width().max(domain.height()) / 32.0).max(0.5);
        let entries = points
            .iter()
            .map(|&(id, p)| (id, Aabb::from_point(p)))
            .collect();
        Some(Self::build(domain, cell, entries))
    }

    pub fn domain(&self) -> Aabb {
        self.domain
    }

    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    // Cell coordinates truncate instead of calling `floor`: the two differ
    // only below zero, where both clamp to cell 0 — and without SSE4.1
    // `floor` is a libm call per coordinate, which dominated grid builds.
    fn col_of(&self, x: f64) -> usize {
        (((x - self.domain.min.x) / self.cell) as isize).clamp(0, self.cols as isize - 1) as usize
    }

    fn row_of(&self, y: f64) -> usize {
        (((y - self.domain.min.y) / self.cell) as isize).clamp(0, self.rows as isize - 1) as usize
    }

    /// Call `f` with the index of every cell `b` overlaps (clamped).
    fn for_each_cell(&self, b: &Aabb, mut f: impl FnMut(usize)) {
        let (c0, c1) = (self.col_of(b.min.x), self.col_of(b.max.x));
        for r in self.row_of(b.min.y)..=self.row_of(b.max.y) {
            for c in c0..=c1 {
                f(r * self.cols + c);
            }
        }
    }

    /// Collect deduplicated slots whose cells overlap the clamped query box.
    fn candidate_slots(&self, q: &Aabb) -> Vec<u32> {
        let Some(q) = q.intersection(&self.domain) else {
            return Vec::new();
        };
        let mut slots = Vec::new();
        self.for_each_cell(&q, |c| {
            slots.extend_from_slice(
                &self.slots[self.offsets[c] as usize..self.offsets[c + 1] as usize],
            );
        });
        // Sort+dedup costs O(k log k) in the candidate count, instead of an
        // O(n) visited buffer per query.
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Ids of items whose bounds intersect `query`. Deduplicated, in
    /// entry order.
    pub fn query_bbox(&self, query: &Aabb) -> Vec<u32> {
        self.candidate_slots(query)
            .into_iter()
            .filter(|&s| self.entries[s as usize].1.intersects(query))
            .map(|s| self.entries[s as usize].0)
            .collect()
    }

    /// Ids of items whose bounds are within `radius` of `p`, in entry
    /// order.
    pub fn query_radius(&self, p: Point, radius: f64) -> Vec<u32> {
        let q = Aabb::from_point(p).inflated(radius);
        self.candidate_slots(&q)
            .into_iter()
            .filter(|&s| self.entries[s as usize].1.dist_to_point(p) <= radius)
            .map(|s| self.entries[s as usize].0)
            .collect()
    }

    /// All (id, bounds) entries.
    pub fn entries(&self) -> &[(u32, Aabb)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Aabb {
        Aabb::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0))
    }

    fn points(pts: &[(u32, Point)]) -> Vec<(u32, Aabb)> {
        pts.iter()
            .map(|&(id, p)| (id, Aabb::from_point(p)))
            .collect()
    }

    #[test]
    fn build_and_query_points() {
        let g = GridIndex::build(
            domain(),
            1.0,
            points(&[
                (1, Point::new(1.5, 1.5)),
                (2, Point::new(8.5, 8.5)),
                (3, Point::new(1.9, 1.1)),
            ]),
        );
        let near = g.query_bbox(&Aabb::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0)));
        assert_eq!(near, vec![1, 3]);
    }

    #[test]
    fn bbox_spanning_cells_found_once() {
        let g = GridIndex::build(
            domain(),
            1.0,
            vec![(7, Aabb::new(Point::new(0.5, 0.5), Point::new(5.5, 5.5)))],
        );
        let hits = g.query_bbox(&Aabb::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)));
        assert_eq!(hits, vec![7]);
    }

    #[test]
    fn radius_query_filters_by_distance() {
        let g = GridIndex::build(
            domain(),
            2.0,
            points(&[(1, Point::new(2.0, 2.0)), (2, Point::new(6.0, 2.0))]),
        );
        let hits = g.query_radius(Point::new(2.0, 2.0), 1.5);
        assert_eq!(hits, vec![1]);
        let hits = g.query_radius(Point::new(4.0, 2.0), 2.5);
        assert_eq!(hits, vec![1, 2]);
    }

    #[test]
    fn query_outside_domain_is_empty() {
        let g = GridIndex::build(domain(), 1.0, points(&[(1, Point::new(5.0, 5.0))]));
        assert!(g
            .query_bbox(&Aabb::new(Point::new(20.0, 20.0), Point::new(21.0, 21.0)))
            .is_empty());
    }

    #[test]
    fn empty_grid_answers_nothing() {
        let g = GridIndex::build(domain(), 1.0, Vec::new());
        assert!(g.is_empty());
        assert!(g.query_radius(Point::new(5.0, 5.0), 100.0).is_empty());
        assert!(GridIndex::over_points(&[]).is_none());
    }

    #[test]
    fn degenerate_cell_size_clamped() {
        let g = GridIndex::build(domain(), 0.0, Vec::new());
        assert!(g.cell_size() > 0.0);
    }

    #[test]
    fn points_outside_domain_clamp_into_edge_cells() {
        let g = GridIndex::build(domain(), 1.0, points(&[(1, Point::new(-5.0, -5.0))]));
        let hits = g.query_bbox(&Aabb::new(Point::new(-6.0, -6.0), Point::new(0.5, 0.5)));
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn over_points_applies_the_sizing_rule() {
        let g = GridIndex::over_points(&[(4, Point::new(0.0, 0.0)), (9, Point::new(64.0, 8.0))])
            .expect("non-empty");
        assert_eq!(
            g.domain(),
            Aabb::new(Point::new(-1.0, -1.0), Point::new(65.0, 9.0))
        );
        assert_eq!(g.cell_size(), 66.0 / 32.0);
        assert_eq!(g.len(), 2);
        // A single point still gets a 2 × 2 domain and the 0.5 cell floor.
        let g = GridIndex::over_points(&[(1, Point::new(3.0, 3.0))]).expect("non-empty");
        assert_eq!(g.cell_size(), 0.5);
        assert_eq!(g.query_radius(Point::new(3.0, 3.0), 0.0), vec![1]);
    }
}
