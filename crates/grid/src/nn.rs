//! Nearest-neighbor search over the grid: the unconstrained (`NN`),
//! constrained (`NN_c`), and bounded (`NN_b`) variants of the paper's
//! Section-6 cost model, plus a k-NN and a range-emptiness test used by
//! the verification phases.
//!
//! All searches use ring expansion ([`crate::visit`]) with the monotone
//! lower bound *"every cell in ring `r` is at least `(r−1)` cell extents
//! away"*, so they terminate as soon as no farther ring can improve the
//! current best. The alive-cell probe
//! ([`nearest_undominated_in_cells`]) additionally scans its cells in
//! strict mindist order: rings feed a min-heap frontier, best-first, so a
//! probe orders only the cells near the ones it actually scans.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use igern_geom::{Aabb, Point};

use crate::cellset::CellSet;
use crate::grid::{CellId, Grid};
use crate::object::ObjectId;
use crate::stats::OpCounters;
use crate::visit::{max_ring_radius, ring_cells};

/// A search result: object id, its position, and the squared distance to
/// the query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    pub id: ObjectId,
    pub pos: Point,
    pub dist_sq: f64,
}

impl Neighbor {
    /// Euclidean distance to the query.
    #[inline]
    pub fn dist(&self) -> f64 {
        self.dist_sq.sqrt()
    }
}

/// Scan one cell, updating `best` with any closer object that passes
/// `accept`.
#[inline]
fn scan_cell<F: FnMut(ObjectId, Point) -> bool>(
    grid: &Grid,
    cell: CellId,
    q: Point,
    accept: &mut F,
    best: &mut Option<Neighbor>,
    ops: &mut OpCounters,
) {
    ops.cells_visited += 1;
    for &id in grid.objects_in(cell) {
        ops.objects_visited += 1;
        let Some(pos) = grid.position(id) else {
            // Bucket/position desync: treat the object as
            // removed rather than killing the search.
            ops.desyncs += 1;
            continue;
        };
        let d = q.dist_sq(pos);
        if best.is_none_or(|b| d < b.dist_sq) && accept(id, pos) {
            *best = Some(Neighbor {
                id,
                pos,
                dist_sq: d,
            });
        }
    }
}

/// Unconstrained nearest neighbor of `q` (the `NN` of §6), optionally
/// excluding one object (e.g. the query object itself, or the candidate
/// being verified).
pub fn nearest(
    grid: &Grid,
    q: Point,
    exclude: Option<ObjectId>,
    ops: &mut OpCounters,
) -> Option<Neighbor> {
    nearest_where(
        grid,
        q,
        |_, _| true,
        |id, _| Some(id) != exclude,
        f64::INFINITY,
        ops,
    )
}

/// Generalized ring-expansion NN search.
///
/// * `cell_pred` — prunes whole cells (constrained search, e.g. CRNN's pie
///   regions or a bounded alive region);
/// * `obj_pred`  — accepts/rejects individual objects (exact region tests,
///   exclusions);
/// * `max_dist`  — bounded search (`NN_b`): objects farther than this are
///   never reported and rings beyond it are never expanded. Pass
///   `f64::INFINITY` for an unbounded search.
pub fn nearest_where<C, O>(
    grid: &Grid,
    q: Point,
    mut cell_pred: C,
    mut obj_pred: O,
    max_dist: f64,
    ops: &mut OpCounters,
) -> Option<Neighbor>
where
    C: FnMut(CellId, &Aabb) -> bool,
    O: FnMut(ObjectId, Point) -> bool,
{
    let (cx, cy) = grid.cell_coords(grid.cell_of_point(q));
    let max_r = max_ring_radius(grid, cx, cy);
    let ext = grid.min_cell_extent();
    let max_dist_sq = if max_dist.is_finite() {
        max_dist * max_dist
    } else {
        f64::INFINITY
    };
    let mut best: Option<Neighbor> = None;
    for r in 0..=max_r {
        // Everything in ring r (and beyond) is at least (r-1)·ext away.
        if r >= 1 {
            let lb = (r as f64 - 1.0) * ext;
            let lb_sq = lb * lb;
            if lb_sq > max_dist_sq {
                break;
            }
            if let Some(b) = best {
                if b.dist_sq <= lb_sq {
                    break;
                }
            }
        }
        for cell in ring_cells(grid, cx, cy, r) {
            let bounds = grid.cell_bounds(cell);
            let md = bounds.mindist_sq(q);
            if md > max_dist_sq {
                continue;
            }
            if let Some(b) = best {
                if md >= b.dist_sq {
                    continue;
                }
            }
            if !cell_pred(cell, &bounds) {
                continue;
            }
            scan_cell(grid, cell, q, &mut obj_pred, &mut best, ops);
        }
    }
    best.filter(|b| b.dist_sq <= max_dist_sq)
}

/// Ring-expansion NN constrained to the cells of `cells` (TPL's probe over
/// the *alive* region).
///
/// Behaves exactly like [`nearest_where`] with a `cells.contains` cell
/// predicate, with two sweep-cost refinements that leave the scanned cell
/// sequence — and therefore the result and every op counter — unchanged:
/// the membership test runs before any cell geometry is computed, and the
/// ring loop stops once all `cells.count()` member cells have been seen,
/// so a probe over a small alive region never sweeps the dead remainder
/// of the grid.
pub fn nearest_in_set<O>(
    grid: &Grid,
    q: Point,
    cells: &CellSet,
    mut obj_pred: O,
    ops: &mut OpCounters,
) -> Option<Neighbor>
where
    O: FnMut(ObjectId, Point) -> bool,
{
    let (cx, cy) = grid.cell_coords(grid.cell_of_point(q));
    let max_r = max_ring_radius(grid, cx, cy);
    let ext = grid.min_cell_extent();
    let total = cells.count();
    let mut seen = 0usize;
    let mut best: Option<Neighbor> = None;
    for r in 0..=max_r {
        if seen == total {
            // Every member cell is behind us; no farther ring matters.
            break;
        }
        if r >= 1 {
            let lb = (r as f64 - 1.0) * ext;
            if let Some(b) = best {
                if b.dist_sq <= lb * lb {
                    break;
                }
            }
        }
        for cell in ring_cells(grid, cx, cy, r) {
            if !cells.contains(cell) {
                continue;
            }
            seen += 1;
            let bounds = grid.cell_bounds(cell);
            let md = bounds.mindist_sq(q);
            if let Some(b) = best {
                if md >= b.dist_sq {
                    continue;
                }
            }
            scan_cell(grid, cell, q, &mut obj_pred, &mut best, ops);
        }
    }
    best
}

/// Relative slack shaved off a ring's `(r − 1)·ext` lower bound before it
/// is compared with a computed cell mindist, so floating-point rounding in
/// either can never let an unloaded cell order before a loaded one.
const RING_LB_SLACK: f64 = 1e-9;

/// Reusable best-first frontier of [`nearest_undominated_in_cells`]:
/// a min-heap of the member cells loaded so far and not yet scanned, keyed
/// `(mindist_sq, cell)`. One of these lives in each evaluation scratch;
/// the heap keeps its capacity between probes, so warm probes perform no
/// heap allocation.
#[derive(Debug, Clone, Default)]
pub struct CellOrderScratch {
    /// The key stores the mindist's bit pattern: a mindist is never
    /// negative or NaN, and on such floats the `u64` order of the bits is
    /// the numeric order.
    frontier: BinaryHeap<Reverse<(u64, CellId)>>,
}

/// The object predicate of IGERN's Phase-I probe at order `k`: reject
/// excluded ids (the query object and the current candidates), and reject
/// *dominated* objects — at least `k` sites strictly closer to the object
/// than `q` is. An empty `sites` is the cell-granularity variant
/// (exclusion only).
#[inline]
fn undominated(
    id: ObjectId,
    pos: Point,
    q: Point,
    sites: &[Point],
    k: usize,
    exclude: &[ObjectId],
) -> bool {
    if exclude.contains(&id) {
        return false;
    }
    let d_q = pos.dist_sq(q);
    let mut closer = 0;
    for &s in sites {
        if pos.dist_sq(s) < d_q {
            closer += 1;
            if closer == k {
                return false;
            }
        }
    }
    true
}

/// Nearest object of `cells` that passes the order-`k` `undominated`
/// predicate — IGERN's Phase-I probe ("the nearest non-candidate object
/// inside the alive region"), with exact-granularity domination pruning
/// when `sites` holds the candidate positions (an object is skipped once
/// `k` of them are strictly closer to it than `q`) and cell granularity
/// when it is empty.
///
/// Member cells are scanned in ascending `(mindist_sq, cell)` order until
/// the next one cannot beat the best object found — the order a full sort
/// of the set would give, produced best-first instead: rings around `q`'s
/// cell are loaded into the [`CellOrderScratch`] min-heap only while its
/// minimum is not yet provably nearer than every unloaded ring, and
/// loading stops once all `cells.count()` members have been seen. A probe
/// therefore orders the few rings around the cells it scans, not the
/// whole alive region, and the scanned sequence — hence the result, the
/// first-in-bucket-order tie-break and every op counter — is that of the
/// sort (the `#[cfg(test)]` reference holds it to that).
#[allow(clippy::too_many_arguments)]
pub fn nearest_undominated_in_cells(
    grid: &Grid,
    q: Point,
    cells: &CellSet,
    sites: &[Point],
    k: usize,
    exclude: &[ObjectId],
    ops: &mut OpCounters,
    scratch: &mut CellOrderScratch,
) -> Option<Neighbor> {
    let (cx, cy) = grid.cell_coords(grid.cell_of_point(q));
    let max_r = max_ring_radius(grid, cx, cy);
    let ext = grid.min_cell_extent();
    let total = cells.count();
    let (mut seen, mut next_ring) = (0usize, 0usize);
    let frontier = &mut scratch.frontier;
    frontier.clear();
    // At most `total` cells are ever loaded; reserving them up front keeps
    // growth to the first probe over a region this large.
    frontier.reserve(total);
    let mut accept = |id, pos| undominated(id, pos, q, sites, k, exclude);
    let mut best: Option<Neighbor> = None;
    loop {
        // Load rings until the frontier's minimum is strictly nearer than
        // anything still unloaded (ring `r` and beyond is at least
        // `(r − 1)·ext` away), or every member cell is in.
        while seen < total && next_ring <= max_r {
            if let Some(&Reverse((min_md, _))) = frontier.peek() {
                let lb = (next_ring as f64 - 1.0).max(0.0) * ext;
                if f64::from_bits(min_md) < lb * lb * (1.0 - RING_LB_SLACK) {
                    break;
                }
            }
            for cell in ring_cells(grid, cx, cy, next_ring) {
                if cells.contains(cell) {
                    seen += 1;
                    let md = grid.cell_bounds(cell).mindist_sq(q);
                    frontier.push(Reverse((md.to_bits(), cell)));
                }
            }
            next_ring += 1;
        }
        let Some(&Reverse((md, cell))) = frontier.peek() else {
            break;
        };
        let md = f64::from_bits(md);
        if let Some(b) = best {
            if md >= b.dist_sq {
                break;
            }
        }
        frontier.pop();
        scan_cell(grid, cell, q, &mut accept, &mut best, ops);
    }
    best
}

/// The `k` nearest neighbors of `q`, ascending by distance, optionally
/// excluding one object.
pub fn k_nearest(
    grid: &Grid,
    q: Point,
    k: usize,
    exclude: Option<ObjectId>,
    ops: &mut OpCounters,
) -> Vec<Neighbor> {
    let mut best = Vec::new();
    k_nearest_into(grid, q, k, exclude, ops, &mut best);
    best
}

/// [`k_nearest`] writing the result into a caller-provided buffer
/// (cleared first), so repeated probes reuse one allocation.
pub fn k_nearest_into(
    grid: &Grid,
    q: Point,
    k: usize,
    exclude: Option<ObjectId>,
    ops: &mut OpCounters,
    best: &mut Vec<Neighbor>,
) {
    best.clear();
    if k == 0 {
        return;
    }
    let (cx, cy) = grid.cell_coords(grid.cell_of_point(q));
    let max_r = max_ring_radius(grid, cx, cy);
    let ext = grid.min_cell_extent();
    // Small k: a sorted vector beats a heap.
    best.reserve(k.saturating_add(1).min(grid.len() + 1));
    for r in 0..=max_r {
        if r >= 1 && best.len() == k {
            let lb = (r as f64 - 1.0) * ext;
            if best[best.len() - 1].dist_sq <= lb * lb {
                break;
            }
        }
        for cell in ring_cells(grid, cx, cy, r) {
            let md = grid.cell_bounds(cell).mindist_sq(q);
            if best.len() == k && md >= best[best.len() - 1].dist_sq {
                continue;
            }
            ops.cells_visited += 1;
            for &id in grid.objects_in(cell) {
                if Some(id) == exclude {
                    continue;
                }
                ops.objects_visited += 1;
                let Some(pos) = grid.position(id) else {
                    // Bucket/position desync: treat the object as
                    // removed rather than killing the search.
                    ops.desyncs += 1;
                    continue;
                };
                let d = q.dist_sq(pos);
                if best.len() < k || d < best[best.len() - 1].dist_sq {
                    let at = best.partition_point(|n| n.dist_sq <= d);
                    best.insert(
                        at,
                        Neighbor {
                            id,
                            pos,
                            dist_sq: d,
                        },
                    );
                    best.truncate(k);
                }
            }
        }
    }
}

/// Whether any object other than those in `exclude` lies strictly closer
/// than `sqrt(dist_sq)` to `center`.
///
/// This is the verification primitive ("the dotted circles indicate the
/// nearest neighbor test for each object in RNNcand", §3.1 Phase II): a
/// candidate `o` is an RNN of `q` iff no other object beats
/// `dist(o, q)`, i.e. iff this returns `false` with
/// `dist_sq = dist²(o, q)` and `exclude = [o]`.
pub fn exists_closer_than(
    grid: &Grid,
    center: Point,
    dist_sq: f64,
    exclude: &[ObjectId],
    ops: &mut OpCounters,
) -> bool {
    count_closer_than(grid, center, dist_sq, 1, exclude, ops) == 1
}

/// Count objects (excluding `exclude`) strictly closer than
/// `sqrt(dist_sq)` to `center`, stopping early once the count reaches
/// `cap`.
///
/// This is the k-RNN verification primitive: a candidate `o` is a reverse
/// k-nearest neighbor of `q` iff fewer than `k` other objects lie
/// strictly closer to `o` than `q` does — i.e. iff this returns `< k`
/// with `cap = k`.
pub fn count_closer_than(
    grid: &Grid,
    center: Point,
    dist_sq: f64,
    cap: usize,
    exclude: &[ObjectId],
    ops: &mut OpCounters,
) -> usize {
    if cap == 0 {
        return 0;
    }
    let (cx, cy) = grid.cell_coords(grid.cell_of_point(center));
    let max_r = max_ring_radius(grid, cx, cy);
    let ext = grid.min_cell_extent();
    let mut count = 0;
    for r in 0..=max_r {
        if r >= 1 {
            let lb = (r as f64 - 1.0) * ext;
            if lb * lb >= dist_sq {
                break;
            }
        }
        for cell in ring_cells(grid, cx, cy, r) {
            if grid.cell_bounds(cell).mindist_sq(center) >= dist_sq {
                continue;
            }
            ops.cells_visited += 1;
            for &id in grid.objects_in(cell) {
                if exclude.contains(&id) {
                    continue;
                }
                ops.objects_visited += 1;
                let Some(pos) = grid.position(id) else {
                    // Bucket/position desync: treat the object as
                    // removed rather than killing the search.
                    ops.desyncs += 1;
                    continue;
                };
                if center.dist_sq(pos) < dist_sq {
                    count += 1;
                    if count >= cap {
                        return count;
                    }
                }
            }
        }
    }
    count
}

/// Streams the objects of a grid in increasing distance from a query
/// point (incremental NN, after Hjaltason & Samet).
///
/// Used by the repetitive-Voronoi baseline, which consumes sites in
/// distance order until the cell stops changing. Rings are expanded
/// lazily: an object is only yielded once no unexpanded ring could
/// contain anything closer.
pub struct NearestIter<'g> {
    grid: &'g Grid,
    q: Point,
    exclude: Option<ObjectId>,
    cx: usize,
    cy: usize,
    next_ring: usize,
    max_ring: usize,
    ext: f64,
    /// Discovered-but-unyielded objects, sorted descending by distance so
    /// `pop` yields the nearest.
    pending: Vec<Neighbor>,
}

impl<'g> NearestIter<'g> {
    /// Start streaming neighbors of `q`.
    pub fn new(grid: &'g Grid, q: Point, exclude: Option<ObjectId>) -> Self {
        let (cx, cy) = grid.cell_coords(grid.cell_of_point(q));
        NearestIter {
            grid,
            q,
            exclude,
            cx,
            cy,
            next_ring: 0,
            max_ring: max_ring_radius(grid, cx, cy),
            ext: grid.min_cell_extent(),
            pending: Vec::new(),
        }
    }

    /// Lower bound on the distance of anything in ring `r` or beyond.
    fn ring_lower_bound(&self, r: usize) -> f64 {
        if r == 0 {
            0.0
        } else {
            (r as f64 - 1.0) * self.ext
        }
    }

    /// Pull the next neighbor, charging visits to `ops`.
    pub fn next(&mut self, ops: &mut OpCounters) -> Option<Neighbor> {
        loop {
            let frontier_sq = if self.next_ring <= self.max_ring {
                let lb = self.ring_lower_bound(self.next_ring);
                lb * lb
            } else {
                f64::INFINITY
            };
            if let Some(best) = self.pending.last() {
                if best.dist_sq <= frontier_sq {
                    return self.pending.pop();
                }
            }
            if self.next_ring > self.max_ring {
                return self.pending.pop();
            }
            // Expand one more ring into the pending pool.
            for cell in ring_cells(self.grid, self.cx, self.cy, self.next_ring) {
                ops.cells_visited += 1;
                for &id in self.grid.objects_in(cell) {
                    if Some(id) == self.exclude {
                        continue;
                    }
                    ops.objects_visited += 1;
                    let Some(pos) = self.grid.position(id) else {
                        // Bucket/position desync: treat the object as
                        // removed rather than killing the search.
                        ops.desyncs += 1;
                        continue;
                    };
                    self.pending.push(Neighbor {
                        id,
                        pos,
                        dist_sq: self.q.dist_sq(pos),
                    });
                }
            }
            self.pending
                .sort_unstable_by(|a, b| b.dist_sq.total_cmp(&a.dist_sq));
            self.next_ring += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igern_geom::Aabb;

    fn grid_with(points: &[(f64, f64)]) -> Grid {
        let mut g = Grid::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), 8);
        for (i, &(x, y)) in points.iter().enumerate() {
            g.insert(ObjectId(i as u32), Point::new(x, y));
        }
        g
    }

    /// The alive-cell probe with no sites and no exclusions: the plain
    /// nearest object of the cell set.
    fn nearest_in(g: &Grid, q: Point, cells: &CellSet, ops: &mut OpCounters) -> Option<Neighbor> {
        let scratch = &mut CellOrderScratch::default();
        nearest_undominated_in_cells(g, q, cells, &[], 1, &[], ops, scratch)
    }

    /// The reference the best-first frontier replaced: key every member
    /// cell by mindist, sort the whole set, scan in that order with an
    /// arbitrary object predicate.
    fn nearest_in_cells_sorted<O>(
        grid: &Grid,
        q: Point,
        cells: &CellSet,
        mut obj_pred: O,
        ops: &mut OpCounters,
    ) -> Option<Neighbor>
    where
        O: FnMut(ObjectId, Point) -> bool,
    {
        let mut order: Vec<(f64, CellId)> = Vec::new();
        order.extend(cells.iter().map(|c| (grid.cell_bounds(c).mindist_sq(q), c)));
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut best: Option<Neighbor> = None;
        for &(md, cell) in order.iter() {
            if let Some(b) = best {
                if md >= b.dist_sq {
                    break;
                }
            }
            scan_cell(grid, cell, q, &mut obj_pred, &mut best, ops);
        }
        best
    }

    fn brute_nearest(g: &Grid, q: Point, exclude: Option<ObjectId>) -> Option<(ObjectId, f64)> {
        g.iter()
            .filter(|&(id, _)| Some(id) != exclude)
            .map(|(id, p)| (id, q.dist_sq(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    #[test]
    fn nearest_on_empty_grid_is_none() {
        let g = grid_with(&[]);
        let mut ops = OpCounters::new();
        assert!(nearest(&g, Point::new(5.0, 5.0), None, &mut ops).is_none());
    }

    #[test]
    fn nearest_simple() {
        let g = grid_with(&[(1.0, 1.0), (9.0, 9.0), (4.0, 5.0)]);
        let mut ops = OpCounters::new();
        let n = nearest(&g, Point::new(4.5, 5.0), None, &mut ops).unwrap();
        assert_eq!(n.id, ObjectId(2));
        assert!(ops.cells_visited > 0 && ops.objects_visited > 0);
    }

    #[test]
    fn nearest_respects_exclusion() {
        let g = grid_with(&[(5.0, 5.0), (6.0, 5.0)]);
        let mut ops = OpCounters::new();
        let n = nearest(&g, Point::new(5.0, 5.0), Some(ObjectId(0)), &mut ops).unwrap();
        assert_eq!(n.id, ObjectId(1));
    }

    #[test]
    fn nearest_matches_brute_force_on_pseudorandom_data() {
        // Seedless LCG data; cross-checked against a linear scan.
        let mut state = 7u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        let pts: Vec<(f64, f64)> = (0..300).map(|_| (rnd(), rnd())).collect();
        let g = grid_with(&pts);
        let mut ops = OpCounters::new();
        for i in 0..40 {
            let q = Point::new((i as f64 * 0.37) % 10.0, (i as f64 * 0.73) % 10.0);
            let got = nearest(&g, q, None, &mut ops).unwrap();
            let want = brute_nearest(&g, q, None).unwrap();
            assert_eq!(got.dist_sq, want.1, "query {q}");
        }
    }

    #[test]
    fn bounded_search_cuts_off() {
        let g = grid_with(&[(9.0, 9.0)]);
        let mut ops = OpCounters::new();
        let q = Point::new(1.0, 1.0);
        assert!(
            nearest_where(&g, q, |_, _| true, |_, _| true, 2.0, &mut ops).is_none(),
            "object at distance ~11 must not be reported under max_dist 2"
        );
        let hit = nearest_where(&g, q, |_, _| true, |_, _| true, 20.0, &mut ops);
        assert_eq!(hit.unwrap().id, ObjectId(0));
    }

    #[test]
    fn constrained_search_respects_cell_predicate() {
        // Two objects; forbid the cell of the closer one.
        let g = grid_with(&[(4.9, 5.0), (8.0, 5.0)]);
        let q = Point::new(5.1, 5.0);
        let banned = g.cell_of_point(Point::new(4.9, 5.0));
        let mut ops = OpCounters::new();
        let n = nearest_where(
            &g,
            q,
            |c, _| c != banned,
            |_, _| true,
            f64::INFINITY,
            &mut ops,
        )
        .unwrap();
        assert_eq!(n.id, ObjectId(1));
    }

    #[test]
    fn nearest_in_cells_only_sees_the_set() {
        let g = grid_with(&[(1.0, 1.0), (5.0, 5.0), (9.0, 9.0)]);
        let mut alive = CellSet::new(g.num_cells());
        alive.insert(g.cell_of_point(Point::new(9.0, 9.0)));
        let mut ops = OpCounters::new();
        let n = nearest_in(&g, Point::new(0.0, 0.0), &alive, &mut ops).unwrap();
        assert_eq!(n.id, ObjectId(2));
        // Empty set yields nothing.
        let empty = CellSet::new(g.num_cells());
        assert!(nearest_in(&g, Point::new(0.0, 0.0), &empty, &mut ops).is_none());
    }

    #[test]
    fn nearest_in_cells_matches_filtered_brute_force() {
        let mut state = 99u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        let pts: Vec<(f64, f64)> = (0..200).map(|_| (rnd(), rnd())).collect();
        let g = grid_with(&pts);
        // Alive set: left half of the grid.
        let mut alive = CellSet::new(g.num_cells());
        for c in 0..g.num_cells() {
            if g.cell_bounds(c).center().x < 5.0 {
                alive.insert(c);
            }
        }
        let q = Point::new(7.0, 3.0);
        let mut ops = OpCounters::new();
        let got = nearest_in(&g, q, &alive, &mut ops);
        let want = g
            .iter()
            .filter(|&(_, p)| alive.contains(g.cell_of_point(p)))
            .map(|(id, p)| (id, q.dist_sq(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        assert_eq!(got.map(|n| n.dist_sq), want.map(|w| w.1));
    }

    #[test]
    fn k_nearest_is_sorted_and_matches_brute_force() {
        let mut state = 123u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        let pts: Vec<(f64, f64)> = (0..150).map(|_| (rnd(), rnd())).collect();
        let g = grid_with(&pts);
        let q = Point::new(5.0, 5.0);
        let mut ops = OpCounters::new();
        for k in [1usize, 3, 10, 200] {
            let got = k_nearest(&g, q, k, None, &mut ops);
            assert_eq!(got.len(), k.min(150));
            assert!(got.windows(2).all(|w| w[0].dist_sq <= w[1].dist_sq));
            let mut all: Vec<f64> = g.iter().map(|(_, p)| q.dist_sq(p)).collect();
            all.sort_by(f64::total_cmp);
            for (i, n) in got.iter().enumerate() {
                assert_eq!(n.dist_sq, all[i], "k={k} rank {i}");
            }
        }
        assert!(k_nearest(&g, q, 0, None, &mut ops).is_empty());
    }

    #[test]
    fn exists_closer_than_is_a_strict_test() {
        let g = grid_with(&[(5.0, 5.0), (7.0, 5.0)]);
        let mut ops = OpCounters::new();
        let c = Point::new(6.0, 5.0);
        // Distance to both objects is exactly 1; strict test at 1² fails...
        assert!(!exists_closer_than(&g, c, 1.0, &[], &mut ops));
        // ...and succeeds just above.
        assert!(exists_closer_than(&g, c, 1.0 + 1e-9, &[], &mut ops));
        // Excluding both leaves nothing.
        assert!(!exists_closer_than(
            &g,
            c,
            100.0,
            &[ObjectId(0), ObjectId(1)],
            &mut ops
        ));
    }

    #[test]
    fn nearest_iter_yields_ascending_and_complete() {
        let mut state = 55u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        let pts: Vec<(f64, f64)> = (0..120).map(|_| (rnd(), rnd())).collect();
        let g = grid_with(&pts);
        let q = Point::new(2.5, 7.5);
        let mut ops = OpCounters::new();
        let mut it = NearestIter::new(&g, q, None);
        let mut got = Vec::new();
        while let Some(n) = it.next(&mut ops) {
            got.push(n.dist_sq);
        }
        assert_eq!(got.len(), 120, "iterator must visit every object");
        assert!(got.windows(2).all(|w| w[0] <= w[1]), "must be ascending");
        let mut all: Vec<f64> = g.iter().map(|(_, p)| q.dist_sq(p)).collect();
        all.sort_by(f64::total_cmp);
        assert_eq!(got, all);
    }

    #[test]
    fn nearest_iter_respects_exclusion_and_empty_grid() {
        let g = grid_with(&[(5.0, 5.0)]);
        let mut ops = OpCounters::new();
        let mut it = NearestIter::new(&g, Point::new(5.0, 5.0), Some(ObjectId(0)));
        assert!(it.next(&mut ops).is_none());
        let empty = grid_with(&[]);
        let mut it2 = NearestIter::new(&empty, Point::new(1.0, 1.0), None);
        assert!(it2.next(&mut ops).is_none());
    }

    #[test]
    fn nearest_iter_prefix_matches_k_nearest() {
        let g = grid_with(&[(1.0, 1.0), (2.0, 2.0), (9.0, 1.0), (5.0, 5.0), (3.0, 8.0)]);
        let q = Point::new(4.0, 4.0);
        let mut ops = OpCounters::new();
        let want = k_nearest(&g, q, 3, None, &mut ops);
        let mut it = NearestIter::new(&g, q, None);
        for w in want {
            let n = it.next(&mut ops).unwrap();
            assert_eq!(n.dist_sq, w.dist_sq);
        }
    }

    #[test]
    fn count_closer_than_is_exact_and_capped() {
        let g = grid_with(&[(5.0, 5.0), (5.5, 5.0), (6.0, 5.0), (9.0, 9.0)]);
        let mut ops = OpCounters::new();
        let c = Point::new(5.0, 5.0);
        // Objects strictly within distance 1.2 of c (excluding object 0
        // itself): objects 1 (0.5) and 2 (1.0).
        assert_eq!(
            count_closer_than(&g, c, 1.2 * 1.2, 10, &[ObjectId(0)], &mut ops),
            2
        );
        // The cap stops the scan early.
        assert_eq!(
            count_closer_than(&g, c, 100.0, 1, &[ObjectId(0)], &mut ops),
            1
        );
        // cap = 0 short-circuits.
        assert_eq!(count_closer_than(&g, c, 100.0, 0, &[], &mut ops), 0);
        // Strictness: exactly-at-distance objects are not counted.
        assert_eq!(
            count_closer_than(&g, c, 0.5 * 0.5, 10, &[ObjectId(0)], &mut ops),
            0
        );
    }

    #[test]
    fn verification_semantics() {
        // q at origin-ish; o has q as NN iff nothing else is closer to o.
        let g = grid_with(&[(2.0, 2.0), (2.6, 2.0)]);
        let q = Point::new(1.0, 2.0);
        let mut ops = OpCounters::new();
        // Object 0 at distance 1 from q; object 1 is 0.6 from object 0 —
        // o0 is NOT an RNN of q.
        let o0 = Point::new(2.0, 2.0);
        assert!(exists_closer_than(
            &g,
            o0,
            q.dist_sq(o0),
            &[ObjectId(0)],
            &mut ops
        ));
        // Object 1: dist to q is 1.6, dist to o0 is 0.6 — also not an RNN.
        let o1 = Point::new(2.6, 2.0);
        assert!(exists_closer_than(
            &g,
            o1,
            q.dist_sq(o1),
            &[ObjectId(1)],
            &mut ops
        ));
    }

    #[test]
    fn undominated_kernel_matches_predicate_kernel_bit_for_bit() {
        let mut state = 77u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut scratch = CellOrderScratch::default();
        let mut found = 0;
        // Square cells, then `cell_w ≠ cell_h` (1 × 0.625).
        for (w, h) in [(10.0, 10.0), (16.0, 10.0)] {
            // About one object per cell, so probes routinely run several
            // rings out and the scan order decides what they count.
            let mut g = Grid::new(Aabb::from_coords(0.0, 0.0, w, h), 16);
            for i in 0..260 {
                g.insert(ObjectId(i), Point::new(rnd() * w, rnd() * h));
            }
            assert!(g.debug_force_desync(ObjectId(23)));
            assert!(g.debug_force_desync(ObjectId(200)));
            let cells = |pick: &dyn Fn(usize, usize) -> bool| {
                let mut set = CellSet::new(g.num_cells());
                for c in 0..g.num_cells() {
                    let (ix, iy) = g.cell_coords(c);
                    if pick(ix, iy) {
                        set.insert(c);
                    }
                }
                set
            };
            let alive_sets = [
                cells(&|_, _| false),
                cells(&|_, _| true),
                cells(&|ix, iy| (iy * 16 + ix) % 4 != 0),
                // A clump and one far outlier cell.
                cells(&|ix, iy| (ix < 3 && iy < 3) || (ix, iy) == (14, 12)),
                // One-cell-wide slivers reaching the space boundary.
                cells(&|_, iy| iy == 9),
                cells(&|ix, _| ix == 0),
            ];
            // Site counts 0..=8 and orders 1 and 3 hold the kernel to the
            // closure form; exclusions run from none to 7.
            for n_sites in 0..=8usize {
                for i in 0..10 {
                    let q = match i % 5 {
                        // Exactly on a cell edge (both axes).
                        0 => Point::new(3.0 * w / 8.0, 5.0 * h / 8.0),
                        // Outside the space.
                        1 => Point::new(-0.3 * w * rnd(), h * (0.5 + rnd())),
                        // In a corner cell.
                        2 => Point::new(w * (1.0 - 0.1 * rnd()), 0.1 * h * rnd()),
                        _ => Point::new(rnd() * w, rnd() * h),
                    };
                    let sites: Vec<Point> = (0..n_sites)
                        .map(|_| Point::new(rnd() * w, rnd() * h))
                        .collect();
                    let exclude: Vec<ObjectId> = (0..(i + n_sites) % 8)
                        .map(|j| ObjectId(((i * 31 + j * 17) % 260) as u32))
                        .collect();
                    for (a, alive) in alive_sets.iter().enumerate() {
                        for k in [1usize, 3] {
                            let mut want_ops = OpCounters::new();
                            let want = nearest_in_cells_sorted(
                                &g,
                                q,
                                alive,
                                |id, pos| {
                                    if exclude.contains(&id) {
                                        return false;
                                    }
                                    let d_q = pos.dist_sq(q);
                                    sites.iter().filter(|&&s| pos.dist_sq(s) < d_q).count() < k
                                },
                                &mut want_ops,
                            );
                            let mut got_ops = OpCounters::new();
                            let got = nearest_undominated_in_cells(
                                &g,
                                q,
                                alive,
                                &sites,
                                k,
                                &exclude,
                                &mut got_ops,
                                &mut scratch,
                            );
                            let at =
                                format!("space {w}x{h} sites {n_sites} k {k} query {i} set {a}");
                            assert_eq!(want, got, "{at}");
                            assert_eq!(want_ops, got_ops, "op counters diverged: {at}");
                            found += usize::from(got.is_some());
                        }
                    }
                }
            }
        }
        assert!(found > 1000, "most probes must find a neighbour: {found}");
    }

    #[test]
    fn frontier_loads_only_the_rings_it_needs() {
        // 64 × 64 unit cells, every cell alive: the sort this replaced
        // keyed and ordered all 4,096 cells on every probe.
        let mut g = Grid::new(Aabb::from_coords(0.0, 0.0, 64.0, 64.0), 64);
        let alive = CellSet::full(g.num_cells());
        let q = Point::new(30.5, 30.5);
        let mut scratch = CellOrderScratch::default();
        // Returns the neighbour and how many cells the probe loaded into
        // the frontier: those it scanned plus those still waiting in it.
        let probe = |g: &Grid, cells: &CellSet, scratch: &mut CellOrderScratch| {
            let mut ops = OpCounters::new();
            let n = nearest_undominated_in_cells(g, q, cells, &[], 1, &[], &mut ops, scratch);
            let loaded = ops.cells_visited as usize + scratch.frontier.len();
            (n.map(|n| n.id), loaded)
        };
        // No object anywhere: every member cell is loaded, exactly once.
        assert_eq!(probe(&g, &alive, &mut scratch), (None, 4096));
        let mut sparse = CellSet::new(g.num_cells());
        for c in [0, 77, 2000, 4095] {
            sparse.insert(c);
        }
        assert_eq!(probe(&g, &sparse, &mut scratch), (None, 4));
        // A neighbour at distance d: no ring beyond ⌈d / ext⌉ + 2 is
        // loaded (ext = 1; rings 0..=r hold (2r + 1)² cells here).
        g.insert(ObjectId(0), Point::new(30.5, 41.2));
        let rings = (10.7f64.ceil() + 2.0) as usize;
        let (id, loaded) = probe(&g, &alive, &mut scratch);
        assert_eq!(id, Some(ObjectId(0)));
        assert!(loaded <= (2 * rings + 1).pow(2), "loaded {loaded}");
        // In q's own cell, anywhere: at most rings 0..=3.
        g.insert(ObjectId(1), Point::new(30.95, 30.05));
        let (id, loaded) = probe(&g, &alive, &mut scratch);
        assert_eq!(id, Some(ObjectId(1)));
        assert!(loaded <= 49, "loaded {loaded}");
        // Right next to the cell-centred q: rings 0 and 1, nothing else.
        g.insert(ObjectId(2), Point::new(30.6, 30.4));
        assert_eq!(probe(&g, &alive, &mut scratch), (Some(ObjectId(2)), 9));
    }

    #[test]
    fn searches_survive_an_injected_desync() {
        let mut g = grid_with(&[(5.0, 5.0), (4.0, 5.0), (6.0, 5.0), (1.0, 1.0)]);
        // Corrupt object 1: still listed in its cell bucket, but its
        // position slot is gone. Every search treats it as removed.
        assert!(g.debug_force_desync(ObjectId(1)));
        assert!(!g.debug_force_desync(ObjectId(99)));
        let q = Point::new(5.0, 5.0);
        let mut ops = OpCounters::new();
        let n = nearest(&g, q, Some(ObjectId(0)), &mut ops).unwrap();
        assert_eq!(n.id, ObjectId(2), "desynced object must not be returned");
        assert!(ops.desyncs >= 1, "the desync is counted, not fatal");
        let ks = k_nearest(&g, q, 3, Some(ObjectId(0)), &mut ops);
        assert_eq!(ks.len(), 2, "only live objects are reported");
        assert!(!exists_closer_than(&g, q, 0.5, &[ObjectId(0)], &mut ops));
        assert_eq!(
            count_closer_than(&g, q, 100.0, usize::MAX, &[ObjectId(0)], &mut ops),
            2
        );
    }
}
