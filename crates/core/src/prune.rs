//! Bisector pruning of grid cells — the *alive / dead* machinery shared by
//! the IGERN initial and incremental steps (and by the TPL baseline, which
//! the paper notes IGERN's initial step resembles).
//!
//! "A bisector b_j between o_j and q indicates that all objects between
//! b_j and the furthest space boundaries from q would be closer to o_j
//! than q. Thus, all the grid cells between b_j and these boundaries are
//! marked as dead" (§3.1).

use std::ops::Range;

use igern_geom::{ConvexPolygon, HalfPlane, Point};
use igern_grid::{CellSet, Grid};

/// How aggressively objects inside *alive* cells are filtered during the
/// tighten loop (ablation A2 in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneGranularity {
    /// Cell granularity only, as literally written in Algorithms 1–4: any
    /// non-candidate object in an alive cell becomes a candidate. With
    /// multiple objects per cell the candidate set scales with cell
    /// occupancy.
    Cell,
    /// Exact: an object already dominated by a current candidate
    /// (`dist(o, c) < dist(o, q)`) is skipped at discovery — the cleaning
    /// rule of Algorithm 2 line 8 applied eagerly. This is what makes the
    /// monitored set independent of grid granularity (the paper's ≈3.3
    /// average) and is the default.
    #[default]
    Exact,
}

/// Mark dead every alive cell lying entirely on the pruned side of the
/// bisector between `q` (kept) and `site` (pruned). Returns the number of
/// cells killed. Cells straddling the bisector stay alive — pruning is at
/// cell granularity, exactly as in the paper.
pub fn kill_cells_beyond_bisector(
    grid: &Grid,
    alive: &mut CellSet,
    q: Point,
    site: Point,
) -> usize {
    let Some(h) = HalfPlane::bisector(q, site) else {
        // Coincident points: no bisector, nothing to prune.
        return 0;
    };
    kill_cells(grid, alive, &h)
}

/// The columns of grid row `iy` whose cells lie entirely outside `h`'s
/// kept side — always a (possibly empty) prefix or suffix of the row.
///
/// A cell is outside iff its most-inside corner — picked per axis from the
/// sign of the boundary normal — lies strictly on the pruned side, which
/// by linearity is exactly the all-four-corners test of
/// [`HalfPlane::classify`]. Along one grid row that corner's signed
/// distance is monotone in the column index, so the dead cells form a
/// contiguous run at the row's pruned end, found with a bisection of at
/// most `log n` corner tests.
fn dead_columns(grid: &Grid, h: &HalfPlane, iy: usize) -> Range<usize> {
    let n = grid.cells_per_side();
    let normal = h.normal();
    // Evaluated with the same arithmetic as `classify(&cell_bounds(..))`
    // at that corner, so the dead set is bit-identical to a per-cell
    // classify sweep (floating-point monotonicity puts the evaluated
    // minimum at the geometric minimum corner).
    let outside = |ix: usize| -> bool {
        let b = grid.cell_bounds_at(ix, iy);
        let x = if normal.x > 0.0 { b.min.x } else { b.max.x };
        let y = if normal.y > 0.0 { b.min.y } else { b.max.y };
        !h.contains(Point::new(x, y))
    };
    // Dead columns form a suffix when the normal points along +x and a
    // prefix when it points along -x (a whole-row kill when the boundary
    // is horizontal and the row's band is beyond it).
    let suffix = normal.x > 0.0;
    let (dead_end, kept_end) = if suffix { (n - 1, 0) } else { (0, n - 1) };
    if !outside(dead_end) {
        return 0..0;
    }
    if outside(kept_end) {
        return 0..n;
    }
    // Invariant: outside(dead), !outside(kept); close in on the boundary.
    let (mut dead, mut kept) = (dead_end, kept_end);
    while dead.abs_diff(kept) > 1 {
        let mid = (dead + kept) / 2;
        if outside(mid) {
            dead = mid;
        } else {
            kept = mid;
        }
    }
    if suffix {
        dead..n
    } else {
        0..dead + 1
    }
}

/// Mark dead every alive cell entirely outside `h`'s kept side. Returns
/// the number of cells killed.
///
/// On one grid row the dead cells are a contiguous run at the row's pruned
/// end, so each row resolves with one bisection (`dead_columns`) plus one
/// masked range clear instead of classifying every alive cell
/// individually — the same dead set, bit for bit.
pub fn kill_cells(grid: &Grid, alive: &mut CellSet, h: &HalfPlane) -> usize {
    let n = grid.cells_per_side();
    // Rows with no alive cell are no-op kills; bound the sweep to the
    // alive id range (after a few bisectors the region is a handful of
    // rows around q).
    let (Some(first), Some(last)) = (alive.first_set(), alive.last_set()) else {
        return 0;
    };
    let mut removed = 0;
    for iy in first / n..=last / n {
        let dead = dead_columns(grid, h, iy);
        removed += alive.remove_range(iy * n + dead.start, iy * n + dead.end);
    }
    removed
}

/// Reusable buffers for the pruning and cleaning routines: polygon rings
/// for the scanline redraw, bisector staging and one row's coverage
/// counts for the order-k redraw, and ordering/keep marks for candidate
/// cleaning. One of these lives inside every `EvalScratch`, so
/// steady-state redraws allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct PruneScratch {
    region: ConvexPolygon,
    strip: ConvexPolygon,
    clip_buf: Vec<Point>,
    planes: Vec<HalfPlane>,
    cover: Vec<i32>,
    order: Vec<usize>,
    keep: Vec<bool>,
    kept: Vec<Point>,
}

/// Recompute the alive region from scratch. This is the redraw of the
/// incremental steps ("Redraw the bisectors between q and all objects in
/// RNNcand; only the cells between q and the bisectors are marked as
/// alive", Algorithm 2 lines 3–4).
///
/// Implementation note: the naive redraw classifies **every** grid cell
/// against every bisector — `O(n²·k)` per tick, which at paper scale
/// (64×64 grid, per-tick redraw) costs more than all the searches
/// combined. Instead the exact kept region (the intersection of the
/// bisector half-planes, clipped to the data space — a convex polygon
/// around `q`) is materialized first and rasterized onto the grid by
/// scanline. The result can be a strict subset of
/// the per-bisector redraw (a cell can avoid being fully beyond any
/// single bisector yet still miss the intersection), but it always covers
/// every cell that intersects the exact kept region — which is where all
/// potential answers live — so completeness is unaffected.
pub fn recompute_alive(grid: &Grid, q: Point, sites: &[Point]) -> CellSet {
    let mut alive = CellSet::new(grid.num_cells());
    let mut scratch = PruneScratch::default();
    recompute_alive_into(grid, q, sites, &mut alive, &mut scratch);
    alive
}

/// [`recompute_alive`] writing into a caller-provided set (re-shaped to
/// this grid and cleared first) with reusable polygon scratch, so a warm
/// redraw performs no heap allocation.
pub fn recompute_alive_into(
    grid: &Grid,
    q: Point,
    sites: &[Point],
    alive: &mut CellSet,
    scratch: &mut PruneScratch,
) {
    alive.reset(grid.num_cells());
    let region = &mut scratch.region;
    region.set_from_aabb(grid.space());
    for &s in sites {
        if let Some(h) = HalfPlane::bisector(q, s) {
            region.clip_with(&h, &mut scratch.clip_buf);
        }
    }
    let bbox = match region.bounding_box() {
        Some(b) => b,
        // The region always contains q, so an empty polygon can only be
        // numerical degeneracy; fall back to q's own cell.
        None => {
            alive.insert(grid.cell_of_point(q));
            return;
        }
    };
    // Scanline rasterization: for each grid row under the region's bbox,
    // clip the polygon to the row's y-band and mark the cells under the
    // clipped part's x-extent. For a convex region this marks exactly the
    // cells the polygon intersects, in O(rows · vertices + |alive|) —
    // crucially independent of the bbox area, which spans half the grid
    // whenever the region is open toward a space boundary.
    let lo = grid.space().clamp(bbox.min);
    let hi = grid.space().clamp(bbox.max);
    let (ix_lo, iy0) = grid.cell_coords(grid.cell_of_point(lo));
    let (ix_hi, iy1) = grid.cell_coords(grid.cell_of_point(hi));
    for iy in iy0..=iy1 {
        let band = grid.cell_bounds(grid.cell_at(0, iy));
        let above = HalfPlane::from_coeffs(0.0, -1.0, -band.min.y).expect("unit normal");
        let below = HalfPlane::from_coeffs(0.0, 1.0, band.max.y).expect("unit normal");
        let strip = &mut scratch.strip;
        strip.copy_from(region);
        strip.clip_with(&above, &mut scratch.clip_buf);
        strip.clip_with(&below, &mut scratch.clip_buf);
        let (ix0, ix1) = match strip.bounding_box() {
            Some(b) => {
                let l = grid.space().clamp(b.min);
                let r = grid.space().clamp(b.max);
                (
                    grid.cell_coords(grid.cell_of_point(l)).0,
                    grid.cell_coords(grid.cell_of_point(r)).0,
                )
            }
            // The strip degenerated to (near) nothing — possibly a sliver
            // thinner than the clipper's vertex tolerance. Fall back to
            // the full bbox x-range for this row: conservative (a few
            // extra alive cells), never incomplete.
            None => (ix_lo, ix_hi),
        };
        for ix in ix0..=ix1 {
            alive.insert(grid.cell_at(ix, iy));
        }
    }
    // Guard against pathological clipping: the query's own cell is always
    // part of the region.
    alive.insert(grid.cell_of_point(q));
}

/// Order-`k` alive-region recomputation for the RkNN extension: a cell is
/// dead iff it lies fully beyond the bisectors of **at least `k`**
/// monitored sites (every point of it then has ≥ k objects closer than
/// the query, so nothing in it can be a reverse k-nearest neighbor).
///
/// The order-k region is a union of half-plane intersections and is not
/// convex, so the scanline trick of [`recompute_alive`] does not apply.
/// What still holds is the per-row property behind [`kill_cells`]: on one
/// grid row each bisector's dead cells are a prefix or a suffix, so the
/// row's dead set is "the columns covered by ≥ k of P ranges" — resolved
/// with one difference array and one prefix sum per row,
/// `O(cells + rows · P · log n)` against the `O(cells · P)` of classifying
/// every cell against every bisector. `k = 1` takes the convex path.
pub fn recompute_alive_k(grid: &Grid, q: Point, sites: &[Point], k: usize) -> CellSet {
    let mut alive = CellSet::new(grid.num_cells());
    recompute_alive_k_into(grid, q, sites, k, &mut alive, &mut PruneScratch::default());
    alive
}

/// [`recompute_alive_k`] writing into a caller-provided set with reusable
/// bisector and row-coverage staging, so a warm redraw performs no heap
/// allocation.
pub fn recompute_alive_k_into(
    grid: &Grid,
    q: Point,
    sites: &[Point],
    k: usize,
    alive: &mut CellSet,
    scratch: &mut PruneScratch,
) {
    assert!(k >= 1, "order must be positive");
    if k == 1 {
        // The order-1 region is one convex polygon, so the scanline
        // raster applies. The sweep below run at k = 1 would yield the
        // per-bisector union instead — a strict superset of the raster
        // (different alive sets, different counters) at ~5× its cost
        // (DESIGN.md §9).
        recompute_alive_into(grid, q, sites, alive, scratch);
        return;
    }
    sweep_alive_k(grid, q, sites, k, alive, scratch);
}

/// The row sweep behind [`recompute_alive_k_into`], valid at every
/// `k ≥ 1`: the alive set is bit-identical to classifying each cell
/// against each bisector because [`dead_columns`] is.
fn sweep_alive_k(
    grid: &Grid,
    q: Point,
    sites: &[Point],
    k: usize,
    alive: &mut CellSet,
    scratch: &mut PruneScratch,
) {
    let PruneScratch { planes, cover, .. } = scratch;
    planes.clear();
    planes.extend(sites.iter().filter_map(|&s| HalfPlane::bisector(q, s)));
    alive.reset(grid.num_cells());
    alive.fill();
    if planes.len() < k {
        // Fewer than k bisectors can never exclude a cell.
        return;
    }
    // `k ≤ planes.len()` here, and a coverage count is bounded by the
    // number of planes, so saturating cannot change a comparison.
    let k = i32::try_from(k).unwrap_or(i32::MAX);
    let n = grid.cells_per_side();
    for iy in 0..n {
        // Difference array over the row's column boundaries: +1 where a
        // plane's dead range opens, −1 where it closes (an empty range
        // cancels itself).
        cover.clear();
        cover.resize(n + 1, 0);
        for h in planes.iter() {
            let dead = dead_columns(grid, h, iy);
            cover[dead.start] += 1;
            cover[dead.end] -= 1;
        }
        // One prefix sum across the row; each maximal run of columns
        // covered by ≥ k planes dies with one masked range clear.
        let mut depth = 0i32;
        let mut run_start = None;
        for (ix, d) in cover.iter().enumerate() {
            depth += d;
            match run_start {
                None if depth >= k => run_start = Some(ix),
                Some(start) if depth < k => {
                    alive.remove_range(iy * n + start, iy * n + ix);
                    run_start = None;
                }
                _ => {}
            }
        }
    }
    alive.insert(grid.cell_of_point(q));
}

/// Initial capacity of a monitor's candidate buffers at order `k`.
/// Cleaning bounds the monitored set at `6k` (at most `k` survivors per
/// 60° pie) and tighten overshoots it briefly, so `8k` is the headroom
/// that keeps steady-state ticks from regrowing them — clamped, because
/// `k` arrives in a SUBSCRIBE frame.
pub(crate) fn monitored_capacity(k: usize) -> usize {
    k.saturating_mul(8).clamp(16, 256)
}

/// The candidate-cleaning rule shared by both incremental steps
/// (Algorithm 2 line 8, Algorithm 4 line 8) at order `k`: drop a
/// monitored object `o_i` when **at least `k`** other monitored objects
/// are strictly closer to it than the query is — `o_i` can then be
/// neither an answer nor a bisector that bounds one.
///
/// Removal is sequential in increasing distance from the query: a
/// candidate is dropped only when dominated by candidates that are
/// *kept*. (Applying the paper's rule simultaneously would delete both
/// members of a mutually-dominating pair, throwing away the bisector that
/// bounds the region and re-discovering both next tick — sequential
/// application keeps the nearer one and is what the rule needs to mean
/// for the region to stay bounded.)
///
/// `items` are `(position, payload)` pairs; the function retains the
/// non-dominated ones in place, preserving their relative order.
pub fn clean_dominated_k<T>(items: &mut Vec<(Point, T)>, q: Point, k: usize) {
    clean_dominated_k_with(items, q, k, &mut PruneScratch::default());
}

/// [`clean_dominated_k`] with reusable ordering scratch.
pub fn clean_dominated_k_with<T>(
    items: &mut Vec<(Point, T)>,
    q: Point,
    k: usize,
    scratch: &mut PruneScratch,
) {
    assert!(k >= 1, "order must be positive");
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..items.len());
    order.sort_by(|&i, &j| items[i].0.dist_sq(q).total_cmp(&items[j].0.dist_sq(q)));
    let keep = &mut scratch.keep;
    keep.clear();
    keep.resize(items.len(), false);
    let kept_positions = &mut scratch.kept;
    kept_positions.clear();
    for &i in order.iter() {
        let p = items[i].0;
        let d_q = p.dist_sq(q);
        let dominators = kept_positions
            .iter()
            .filter(|kp| p.dist_sq(**kp) < d_q)
            .count();
        if dominators < k {
            keep[i] = true;
            kept_positions.push(p);
        }
    }
    let mut it = keep.iter();
    items.retain(|_| *it.next().unwrap());
}

#[cfg(test)]
mod tests {
    use super::*;
    use igern_geom::{Aabb, RegionSide};

    fn grid(n: usize) -> Grid {
        Grid::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), n)
    }

    /// The dense redraw the row sweep replaced — every cell classified
    /// against every bisector — kept as the sweep's oracle.
    fn dense_alive_k(grid: &Grid, q: Point, sites: &[Point], k: usize) -> CellSet {
        let planes: Vec<HalfPlane> = sites
            .iter()
            .filter_map(|&s| HalfPlane::bisector(q, s))
            .collect();
        let mut alive = CellSet::new(grid.num_cells());
        if planes.len() < k {
            alive.fill();
            return alive;
        }
        for c in 0..grid.num_cells() {
            let bounds = grid.cell_bounds(c);
            let violated = planes
                .iter()
                .filter(|h| h.classify(&bounds) == RegionSide::Outside)
                .count();
            if violated < k {
                alive.insert(c);
            }
        }
        alive.insert(grid.cell_of_point(q));
        alive
    }

    #[test]
    fn bisector_kills_far_half() {
        let g = grid(10);
        let mut alive = CellSet::full(g.num_cells());
        let q = Point::new(2.0, 5.0);
        let o = Point::new(8.0, 5.0);
        // Bisector at x = 5: the 5 right-most columns die.
        // Column 5 spans x ∈ [5, 6]: its left corners sit ON the bisector,
        // so it straddles and survives; columns 6..10 (40 cells) die.
        let killed = kill_cells_beyond_bisector(&g, &mut alive, q, o);
        assert_eq!(killed, 40);
        assert_eq!(alive.count(), 60);
        // q's own cell stays alive; o's cell is dead.
        assert!(alive.contains(g.cell_of_point(q)));
        assert!(!alive.contains(g.cell_of_point(o)));
    }

    #[test]
    fn straddling_cells_survive() {
        let g = grid(4); // cell width 2.5; bisector at x = 5 is a cell edge
        let mut alive = CellSet::full(g.num_cells());
        kill_cells_beyond_bisector(&g, &mut alive, Point::new(2.0, 5.0), Point::new(8.0, 5.0));
        // Columns 0..2 (x < 5) survive; columns 2.. die only if fully
        // beyond. With the boundary exactly on the cell edge, the closed
        // kept side keeps the edge cells' left borders — they die because
        // all four corners are not strictly outside? The corners on x=5
        // are ON the line, i.e. inside the closed half-plane.
        let on_boundary_cell = g.cell_at(2, 0); // spans x in [5, 7.5]
        assert!(
            alive.contains(on_boundary_cell),
            "cell touching the bisector must stay alive"
        );
        let far_cell = g.cell_at(3, 0); // spans x in [7.5, 10]
        assert!(!alive.contains(far_cell));
    }

    #[test]
    fn row_sweep_matches_per_cell_classify() {
        // The bisection kill must produce the exact dead set of the
        // reference per-cell classify sweep — including straddling cells
        // and bisectors at every orientation — even when the alive set is
        // already partially dead.
        let mut state = 83u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        for n in [1usize, 3, 8, 16] {
            let g = grid(n);
            for round in 0..40 {
                let q = Point::new(rnd(), rnd());
                let site = match round % 4 {
                    // Axis-aligned bisectors exercise the zero-normal
                    // components.
                    0 => Point::new(rnd(), q.y),
                    1 => Point::new(q.x, rnd()),
                    _ => Point::new(rnd(), rnd()),
                };
                let Some(h) = HalfPlane::bisector(q, site) else {
                    continue;
                };
                let mut fast = CellSet::full(g.num_cells());
                // Pre-kill a random slice so the sweep also runs against
                // partially-dead sets.
                if round % 3 == 0 {
                    kill_cells_beyond_bisector(&g, &mut fast, q, Point::new(rnd(), rnd()));
                }
                let mut slow = fast.clone();
                let fast_removed = kill_cells(&g, &mut fast, &h);
                let slow_removed =
                    slow.retain(|c| h.classify(&g.cell_bounds(c)) != RegionSide::Outside);
                assert_eq!(fast, slow, "n={n} round={round} q={q} site={site}");
                assert_eq!(fast_removed, slow_removed);
            }
        }
    }

    #[test]
    fn order_k_sweep_matches_dense_scan() {
        // The coverage sweep must produce the exact alive set of the
        // dense cell × plane scan at every order, grid size and bisector
        // orientation, through a scratch reused across shapes.
        let mut state = 4711u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        let mut scratch = PruneScratch::default();
        let mut alive = CellSet::new(0);
        let mut pruned_some = false;
        for n in [1usize, 3, 8, 16, 64] {
            let g = grid(n);
            let w = 10.0 / n as f64;
            for round in 0..24 {
                let q = match round % 4 {
                    // On a cell border (both axes) and in a corner cell.
                    0 => Point::new(w * (n / 2) as f64, w * (n / 3) as f64),
                    1 => Point::new(0.01 * rnd(), 10.0 - 0.01 * rnd()),
                    _ => Point::new(rnd(), rnd()),
                };
                let sites: Vec<Point> = (0..(rnd() * 3.1) as usize)
                    .map(|i| match (round + i) % 5 {
                        // Coincident with q: no bisector.
                        0 => q,
                        // Axis-aligned bisectors: a zero normal component.
                        1 => Point::new(rnd(), q.y),
                        2 => Point::new(q.x, rnd()),
                        _ => Point::new(rnd(), rnd()),
                    })
                    .collect();
                for k in 1..=6usize {
                    let want = dense_alive_k(&g, q, &sites, k);
                    sweep_alive_k(&g, q, &sites, k, &mut alive, &mut scratch);
                    let at = format!("n={n} round={round} k={k} q={q} sites={}", sites.len());
                    assert_eq!(alive, want, "sweep: {at}");
                    if k > 1 {
                        recompute_alive_k_into(&g, q, &sites, k, &mut alive, &mut scratch);
                        assert_eq!(alive, want, "redraw: {at}");
                        pruned_some |= alive.count() < g.num_cells();
                    }
                }
            }
        }
        assert!(pruned_some, "some order-k redraw must exclude cells");
    }

    #[test]
    fn coincident_site_is_a_noop() {
        let g = grid(5);
        let mut alive = CellSet::full(g.num_cells());
        let q = Point::new(5.0, 5.0);
        assert_eq!(kill_cells_beyond_bisector(&g, &mut alive, q, q), 0);
        assert_eq!(alive.count(), g.num_cells());
    }

    #[test]
    fn recompute_is_a_subset_of_sequential_killing() {
        // The polygon-bbox redraw may legitimately kill more cells than
        // per-bisector killing (a cell can be outside the intersection
        // without being fully beyond any single bisector), but never
        // fewer, and always keeps the query's cell.
        let g = grid(8);
        let q = Point::new(3.0, 3.0);
        let sites = [
            Point::new(7.0, 3.0),
            Point::new(3.0, 9.0),
            Point::new(1.0, 1.0),
        ];
        let redraw = recompute_alive(&g, q, &sites);
        let mut seq = CellSet::full(g.num_cells());
        for &s in &sites {
            kill_cells_beyond_bisector(&g, &mut seq, q, s);
        }
        for c in redraw.iter() {
            assert!(
                seq.contains(c),
                "redraw kept a cell sequential killing removed"
            );
        }
        assert!(redraw.contains(g.cell_of_point(q)));
    }

    #[test]
    fn recompute_covers_every_non_dominated_point() {
        // Completeness: any probe point at least as close to q as to every
        // site must land in an alive cell.
        let g = grid(16);
        let q = Point::new(4.2, 5.9);
        let sites = [
            Point::new(8.0, 6.0),
            Point::new(4.0, 1.5),
            Point::new(0.5, 8.0),
            Point::new(5.0, 9.0),
        ];
        let alive = recompute_alive(&g, q, &sites);
        for i in 0..64 {
            for j in 0..64 {
                let p = Point::new(i as f64 * 10.0 / 63.0, j as f64 * 10.0 / 63.0);
                let d_q = p.dist_sq(q);
                if sites.iter().all(|s| d_q <= p.dist_sq(*s)) {
                    assert!(
                        alive.contains(g.cell_of_point(p)),
                        "non-dominated point {p} in a dead cell"
                    );
                }
            }
        }
    }

    #[test]
    fn recompute_with_no_sites_is_everything() {
        let g = grid(8);
        let alive = recompute_alive(&g, Point::new(5.0, 5.0), &[]);
        assert_eq!(alive.count(), g.num_cells());
    }

    #[test]
    fn alive_region_is_sound() {
        // Any point in a dead cell must be closer to some site than to q.
        let g = grid(16);
        let q = Point::new(4.0, 6.0);
        let sites = [Point::new(8.0, 6.0), Point::new(4.0, 1.0)];
        let alive = recompute_alive(&g, q, &sites);
        for c in 0..g.num_cells() {
            if alive.contains(c) {
                continue;
            }
            let center = g.cell_bounds(c).center();
            let dominated = sites.iter().any(|s| center.dist_sq(*s) < center.dist_sq(q));
            assert!(dominated, "dead cell {c} center not dominated");
        }
    }

    #[test]
    fn clean_dominated_removes_shadowed_candidates() {
        let q = Point::new(0.0, 0.0);
        // c0 is close to q; c1 sits right behind c0 (closer to c0 than to q).
        let mut items = vec![
            (Point::new(1.0, 0.0), "c0"),
            (Point::new(1.5, 0.0), "c1"),
            (Point::new(0.0, 2.0), "c2"),
        ];
        clean_dominated_k(&mut items, q, 1);
        let names: Vec<&str> = items.iter().map(|&(_, n)| n).collect();
        assert_eq!(names, vec!["c0", "c2"]);
    }

    #[test]
    fn clean_dominated_keeps_mutually_far_candidates() {
        let q = Point::new(5.0, 5.0);
        let mut items = vec![
            (Point::new(6.0, 5.0), 0),
            (Point::new(4.0, 5.0), 1),
            (Point::new(5.0, 6.5), 2),
        ];
        clean_dominated_k(&mut items, q, 1);
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn clean_dominated_keeps_one_of_a_mutual_pair() {
        // Two candidates dominate each other; the nearer to q survives so
        // its bisector keeps bounding the region.
        let q = Point::ORIGIN;
        let mut items = vec![
            (Point::new(2.1, 0.0), "far"),
            (Point::new(2.0, 0.0), "near"),
        ];
        clean_dominated_k(&mut items, q, 1);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].1, "near");
    }

    #[test]
    fn recompute_alive_k_covers_order_k_region() {
        // Any probe with fewer than k sites strictly closer than q must
        // land in an alive cell.
        let g = grid(16);
        let q = Point::new(5.0, 5.0);
        let sites = [
            Point::new(7.0, 5.0),
            Point::new(3.0, 5.0),
            Point::new(5.0, 8.0),
            Point::new(5.0, 2.0),
        ];
        for k in 1..=3usize {
            let alive = recompute_alive_k(&g, q, &sites, k);
            for i in 0..40 {
                for j in 0..40 {
                    let p = Point::new(i as f64 * 0.25, j as f64 * 0.25);
                    let d_q = p.dist_sq(q);
                    let closer = sites.iter().filter(|s| p.dist_sq(**s) < d_q).count();
                    if closer < k {
                        assert!(
                            alive.contains(g.cell_of_point(p)),
                            "k={k}: probe {p} (closer={closer}) in dead cell"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn recompute_alive_k_grows_with_k() {
        let g = grid(12);
        let q = Point::new(5.0, 5.0);
        let sites = [
            Point::new(7.0, 5.0),
            Point::new(3.0, 5.0),
            Point::new(5.0, 7.5),
        ];
        let a1 = recompute_alive_k(&g, q, &sites, 1);
        let a2 = recompute_alive_k(&g, q, &sites, 2);
        for c in a1.iter() {
            assert!(a2.contains(c), "order-2 region must contain order-1");
        }
        assert!(a2.count() > a1.count());
        // With fewer than k sites everything is alive.
        let a_all = recompute_alive_k(&g, q, &sites, 4);
        assert_eq!(a_all.count(), g.num_cells());
    }

    #[test]
    fn clean_dominated_k_requires_k_dominators() {
        let q = Point::ORIGIN;
        // c2 has exactly one kept dominator (c0); with k=2 it survives.
        let items = vec![
            (Point::new(1.0, 0.0), "c0"),
            (Point::new(1.4, 0.0), "c1"),
            (Point::new(1.8, 0.0), "c2"),
        ];
        let mut k1 = items.clone();
        clean_dominated_k(&mut k1, q, 1);
        assert_eq!(k1.iter().map(|&(_, n)| n).collect::<Vec<_>>(), vec!["c0"]);
        let mut k2 = items.clone();
        clean_dominated_k(&mut k2, q, 2);
        assert_eq!(
            k2.iter().map(|&(_, n)| n).collect::<Vec<_>>(),
            vec!["c0", "c1"],
            "c2 is dominated by both kept candidates under k=2"
        );
        let mut k3 = items;
        clean_dominated_k(&mut k3, q, 3);
        assert_eq!(k3.len(), 3);
    }

    #[test]
    fn clean_dominated_on_empty_and_singleton() {
        let q = Point::ORIGIN;
        let mut empty: Vec<(Point, ())> = Vec::new();
        clean_dominated_k(&mut empty, q, 1);
        assert!(empty.is_empty());
        let mut one = vec![(Point::new(1.0, 1.0), ())];
        clean_dominated_k(&mut one, q, 1);
        assert_eq!(one.len(), 1);
    }
}
