//! Rectangular range queries over the grid.

use igern_geom::Point;

use crate::grid::Grid;
use crate::object::ObjectId;
use crate::stats::OpCounters;

/// All objects inside the closed box, in arbitrary order.
pub fn objects_in_aabb(
    grid: &Grid,
    bounds: &igern_geom::Aabb,
    ops: &mut OpCounters,
) -> Vec<(ObjectId, Point)> {
    let mut out = Vec::new();
    let lo = grid.space().clamp(bounds.min);
    let hi = grid.space().clamp(bounds.max);
    let (ix0, iy0) = grid.cell_coords(grid.cell_of_point(lo));
    let (ix1, iy1) = grid.cell_coords(grid.cell_of_point(hi));
    for iy in iy0..=iy1 {
        for ix in ix0..=ix1 {
            let cell = grid.cell_at(ix, iy);
            ops.cells_visited += 1;
            for &id in grid.objects_in(cell) {
                ops.objects_visited += 1;
                let Some(pos) = grid.position(id) else {
                    // Bucket/position desync: treat the object as
                    // removed rather than killing the search.
                    ops.desyncs += 1;
                    continue;
                };
                if bounds.contains(pos) {
                    out.push((id, pos));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use igern_geom::Aabb;

    fn grid_with(points: &[(f64, f64)]) -> Grid {
        let mut g = Grid::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), 5);
        for (i, &(x, y)) in points.iter().enumerate() {
            g.insert(ObjectId(i as u32), Point::new(x, y));
        }
        g
    }

    #[test]
    fn aabb_range_exact() {
        let g = grid_with(&[(1.0, 1.0), (4.0, 4.0), (8.0, 2.0)]);
        let mut ops = OpCounters::new();
        let hits = objects_in_aabb(&g, &Aabb::from_coords(0.0, 0.0, 4.0, 4.0), &mut ops);
        let mut ids: Vec<u32> = hits.iter().map(|(id, _)| id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn empty_ranges() {
        let g = grid_with(&[(5.0, 5.0)]);
        let mut ops = OpCounters::new();
        assert!(objects_in_aabb(&g, &Aabb::from_coords(8.0, 8.0, 9.0, 9.0), &mut ops).is_empty());
    }
}
