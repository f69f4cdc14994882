//! Cell feed: a per-tick snapshot cache of cell buckets.
//!
//! *Priming* a cell copies the `(id, position, live)` triples of its
//! bucket into dense arrays, with the positions also laid out as
//! `xs`/`ys` columns. No evaluation path reads a feed: the shared-scan
//! batch evaluator that did was deleted (DESIGN §16 records why), and
//! the type remains only so the benchmark can keep replaying the cost of
//! priming (`grid.feed_prime_ns_per_cell`).
//!
//! A primed cell stores its bucket in **exact bucket order**, including
//! desynced entries (bucket ids whose position slot is gone) flagged
//! `live == false`. The feed is only valid while the grid is frozen —
//! prime and read within one pass, never across mutations.

use igern_geom::Point;

use crate::grid::{CellId, Grid};
use crate::object::ObjectId;

/// One cached bucket entry: the object, its position, and whether the
/// position slot was present at prime time (`false` = bucket/position
/// desync).
#[derive(Debug, Clone, Copy)]
pub struct FeedEntry {
    pub id: ObjectId,
    pub pos: Point,
    pub live: bool,
}

/// A primed cell viewed as structure-of-arrays columns.
///
/// The columns are parallel to `entries`. Dead (desynced) entries hold
/// `f64::INFINITY` coordinates, so any distance computed against them is
/// infinite and a plain minimum never selects them; their count is
/// carried separately for bulk `desyncs` accounting.
#[derive(Debug, Clone, Copy)]
pub struct FeedScan<'a> {
    pub entries: &'a [FeedEntry],
    pub xs: &'a [f64],
    pub ys: &'a [f64],
    /// Raw object ids (`ObjectId.0`), for exclusion tests.
    pub ids: &'a [u32],
    /// Number of dead entries in the cell.
    pub dead: u32,
}

/// The bucket snapshot cache: `begin` once per pass, `prime` per cell,
/// `get` / `get_scan` to read a primed cell.
///
/// Cell validity is epoch-stamped: `begin` bumps the epoch instead of
/// clearing the per-cell index, so starting a tick is O(1) in the
/// number of grid cells (after the first sizing) and the steady state
/// allocates nothing.
#[derive(Debug, Default)]
pub struct CellFeed {
    epoch: u64,
    /// Per-cell epoch stamp; the cell's span is valid iff it equals
    /// `epoch`.
    stamp: Vec<u64>,
    /// Per-cell `(start, len)` span into `entries`.
    span: Vec<(u32, u32)>,
    /// Per-cell dead-entry count (valid under the same stamp as `span`).
    dead: Vec<u32>,
    entries: Vec<FeedEntry>,
    /// Position/id columns parallel to `entries` (see [`FeedScan`]).
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u32>,
}

impl CellFeed {
    /// An empty feed; sized on the first [`CellFeed::begin`].
    pub fn new() -> Self {
        CellFeed::default()
    }

    /// Start a new prime/read cycle over a grid of `num_cells` cells:
    /// every previously primed cell becomes invalid.
    pub fn begin(&mut self, num_cells: usize) {
        self.epoch += 1;
        if self.stamp.len() < num_cells {
            // Stamps start at 0 and the epoch is pre-incremented, so
            // fresh cells are never spuriously valid.
            self.stamp.resize(num_cells, 0);
            self.span.resize(num_cells, (0, 0));
            self.dead.resize(num_cells, 0);
        }
        self.entries.clear();
        self.xs.clear();
        self.ys.clear();
        self.ids.clear();
    }

    /// Whether `cell` is primed in the current cycle.
    #[inline]
    pub fn is_primed(&self, cell: CellId) -> bool {
        self.stamp.get(cell).is_some_and(|&s| s == self.epoch)
    }

    /// Cache `cell`'s bucket (id, position, live) in exact bucket
    /// order. Priming an already-primed cell is a no-op.
    pub fn prime(&mut self, grid: &Grid, cell: CellId) {
        debug_assert!(cell < self.stamp.len(), "begin() must size the feed");
        if self.stamp[cell] == self.epoch {
            return;
        }
        let start = self.entries.len();
        let mut dead = 0u32;
        for &id in grid.objects_in(cell) {
            let entry = match grid.position(id) {
                Some(pos) => FeedEntry {
                    id,
                    pos,
                    live: true,
                },
                None => {
                    dead += 1;
                    FeedEntry {
                        id,
                        pos: Point::ORIGIN,
                        live: false,
                    }
                }
            };
            // Dead columns are infinite so distance kernels skip them
            // without a branch.
            let (x, y) = if entry.live {
                (entry.pos.x, entry.pos.y)
            } else {
                (f64::INFINITY, f64::INFINITY)
            };
            self.entries.push(entry);
            self.xs.push(x);
            self.ys.push(y);
            self.ids.push(id.0);
        }
        self.span[cell] = (start as u32, (self.entries.len() - start) as u32);
        self.dead[cell] = dead;
        self.stamp[cell] = self.epoch;
    }

    /// The primed entries of `cell`, or `None` when the cell was not
    /// primed this cycle (callers fall back to the grid).
    #[inline]
    pub fn get(&self, cell: CellId) -> Option<&[FeedEntry]> {
        if !self.is_primed(cell) {
            return None;
        }
        let (start, len) = self.span[cell];
        Some(&self.entries[start as usize..(start + len) as usize])
    }

    /// The primed entries of `cell` as structure-of-arrays columns, or
    /// `None` when the cell was not primed this cycle (callers fall back
    /// to the grid). Same validity rules as [`CellFeed::get`].
    #[inline]
    pub fn get_scan(&self, cell: CellId) -> Option<FeedScan<'_>> {
        if !self.is_primed(cell) {
            return None;
        }
        let (start, len) = self.span[cell];
        let range = start as usize..(start + len) as usize;
        Some(FeedScan {
            entries: &self.entries[range.clone()],
            xs: &self.xs[range.clone()],
            ys: &self.ys[range.clone()],
            ids: &self.ids[range],
            dead: self.dead[cell],
        })
    }

    /// Number of entries cached this cycle (all primed cells).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is primed this cycle.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igern_geom::Aabb;

    fn grid_with(points: &[(f64, f64)]) -> Grid {
        let mut g = Grid::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), 4);
        for (i, &(x, y)) in points.iter().enumerate() {
            g.insert(ObjectId(i as u32), Point::new(x, y));
        }
        g
    }

    #[test]
    fn primed_cells_replay_bucket_order_and_desyncs() {
        let mut g = grid_with(&[(1.0, 1.0), (1.2, 1.4), (9.0, 9.0)]);
        assert!(g.debug_force_desync(ObjectId(1)));
        let cell = g.cell_of_point(Point::new(1.0, 1.0));
        let mut feed = CellFeed::new();
        feed.begin(g.num_cells());
        assert!(feed.get(cell).is_none(), "unprimed cell must miss");
        feed.prime(&g, cell);
        let entries = feed.get(cell).expect("primed");
        let bucket = g.objects_in(cell);
        assert_eq!(entries.len(), bucket.len());
        for (e, &id) in entries.iter().zip(bucket) {
            assert_eq!(e.id, id, "exact bucket order");
            assert_eq!(e.live, g.position(id).is_some());
            if e.live {
                assert_eq!(Some(e.pos), g.position(id));
            }
        }
        assert!(entries.iter().any(|e| !e.live), "desync is cached as dead");
        // The SoA view is parallel to the entries, with dead coordinates
        // pushed to infinity and the dead count carried per cell.
        let scan = feed.get_scan(cell).expect("primed");
        assert_eq!(scan.entries.len(), entries.len());
        assert_eq!(scan.dead, 1);
        for (i, e) in scan.entries.iter().enumerate() {
            assert_eq!(scan.ids[i], e.id.0);
            if e.live {
                assert_eq!((scan.xs[i], scan.ys[i]), (e.pos.x, e.pos.y));
            } else {
                assert!(scan.xs[i].is_infinite() && scan.ys[i].is_infinite());
            }
        }
        assert!(
            feed.get_scan(cell + 1).is_none(),
            "unprimed cell must miss the SoA view too"
        );
    }

    #[test]
    fn begin_invalidates_previous_cycle_without_reallocating() {
        let g = grid_with(&[(1.0, 1.0), (9.0, 9.0)]);
        let mut feed = CellFeed::new();
        feed.begin(g.num_cells());
        let cell = g.cell_of_point(Point::new(1.0, 1.0));
        feed.prime(&g, cell);
        assert!(feed.is_primed(cell));
        feed.begin(g.num_cells());
        assert!(!feed.is_primed(cell));
        assert!(feed.get(cell).is_none());
        assert!(feed.is_empty());
        // Re-priming in the new cycle works and is idempotent.
        feed.prime(&g, cell);
        feed.prime(&g, cell);
        assert_eq!(feed.get(cell).unwrap().len(), 1);
        assert_eq!(feed.len(), 1);
    }
}
