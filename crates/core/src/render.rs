//! ASCII rendering of monitor state — a debugging aid that draws the
//! grid, the alive region, the query, and the monitored candidates the
//! way the paper's Figures 1–3 do.
//!
//! ```text
//! · · ▒ ▒ ▒ · · ·
//! · ▒ ▒ c ▒ ▒ · ·
//! ▒ ▒ ▒ Q ▒ c · ·
//! · ▒ c ▒ ▒ · · ·
//! ```
//!
//! `Q` query cell, `c` candidate cell, `▒` alive cell, `·` dead cell,
//! rows printed top (max y) to bottom.

use igern_geom::Point;
use igern_grid::{CellSet, Grid, ObjectId};

/// Render the alive region of a monitor over its grid.
///
/// `candidates` are marked with `c` (their current grid positions), the
/// query cell with `Q`. A cell that is both the query's and a
/// candidate's shows `Q`.
pub fn render_region(grid: &Grid, alive: &CellSet, q: Point, candidates: &[ObjectId]) -> String {
    let n = grid.cells_per_side();
    let q_cell = grid.cell_of_point(q);
    let cand_cells: Vec<usize> = candidates
        .iter()
        .filter_map(|&id| grid.position(id).map(|p| grid.cell_of_point(p)))
        .collect();
    let mut out = String::with_capacity(n * (2 * n + 1));
    for iy in (0..n).rev() {
        for ix in 0..n {
            let c = grid.cell_at(ix, iy);
            let ch = if c == q_cell {
                'Q'
            } else if cand_cells.contains(&c) {
                'c'
            } else if alive.contains(c) {
                '▒'
            } else {
                '·'
            };
            out.push(ch);
            if ix + 1 < n {
                out.push(' ');
            }
        }
        out.push('\n');
    }
    out
}

/// Render grid occupancy as a digit heat map (`·` empty, `1`–`9`
/// counts, `+` for ten or more).
pub fn render_occupancy(grid: &Grid) -> String {
    let n = grid.cells_per_side();
    let mut out = String::with_capacity(n * (2 * n + 1));
    for iy in (0..n).rev() {
        for ix in 0..n {
            let count = grid.objects_in(grid.cell_at(ix, iy)).len();
            let ch = match count {
                0 => '·',
                1..=9 => char::from_digit(count as u32, 10).unwrap(),
                _ => '+',
            };
            out.push(ch);
            if ix + 1 < n {
                out.push(' ');
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MonoIgern;
    use igern_geom::Aabb;
    use igern_grid::OpCounters;

    fn grid_with(points: &[(f64, f64)]) -> Grid {
        let mut g = Grid::new(Aabb::from_coords(0.0, 0.0, 8.0, 8.0), 4);
        for (i, &(x, y)) in points.iter().enumerate() {
            g.insert(ObjectId(i as u32), Point::new(x, y));
        }
        g
    }

    #[test]
    fn region_render_shape_and_markers() {
        let g = grid_with(&[(1.0, 1.0), (7.0, 7.0)]);
        let mut ops = OpCounters::new();
        let q = Point::new(3.0, 3.0);
        let exact = crate::prune::PruneGranularity::Exact;
        let m = MonoIgern::initial(&g, q, None, 1, exact, &mut ops, &mut Default::default());
        let art = render_region(&g, m.alive_cells(), q, &m.candidates());
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4, "one line per row");
        assert!(lines
            .iter()
            .all(|l| l.chars().filter(|c| *c != ' ').count() == 4));
        assert_eq!(art.matches('Q').count(), 1, "exactly one query marker");
        assert!(art.contains('c'), "candidates must be drawn");
        // The query sits in cell (1,1), i.e. third line from the top.
        let q_line = lines[2];
        assert_eq!(q_line.chars().filter(|c| *c == 'Q').count(), 1);
    }

    #[test]
    fn occupancy_render_counts() {
        let g = grid_with(&[(1.0, 1.0), (1.2, 1.3), (7.0, 7.0)]);
        let art = render_occupancy(&g);
        // Cell (0,0) holds two objects → digit 2 on the bottom row.
        let lines: Vec<&str> = art.lines().collect();
        assert!(lines[3].starts_with('2'));
        // Cell (3,3) holds one object → digit 1 on the top row.
        assert!(lines[0].ends_with('1'));
        assert_eq!(art.matches('·').count(), 14, "14 empty cells");
    }

    #[test]
    fn dense_cells_cap_at_plus() {
        let pts: Vec<(f64, f64)> = (0..12).map(|i| (0.5 + 0.05 * i as f64, 0.5)).collect();
        let g = grid_with(&pts);
        let art = render_occupancy(&g);
        assert!(art.contains('+'));
    }
}
