//! Phase I of IGERN — the part of the framework every monitor shares.
//!
//! Algorithms 1 and 3 open with the same loop (lines 3–6) and Algorithms
//! 2 and 4 with the same scenario check, tighten and clean (lines 2–9):
//! pull *sites* out of the alive cells in distance order, draw their
//! bisectors against the query, and kill the cells ≥ `k` bisectors
//! exclude. Which objects act as sites is decided by the grid a caller
//! hands in, and what is verified inside the region afterwards (Phase II)
//! by the caller itself — a [`Region`] knows neither.

use igern_geom::Point;
use igern_grid::{nearest, nearest_undominated_in_cells, CellSet, Grid, ObjectId, OpCounters};

use crate::prune::{
    clean_dominated_k_with, kill_cells_beyond_bisector, monitored_capacity, recompute_alive_k_into,
    PruneGranularity, PruneScratch,
};
use crate::scratch::EvalScratch;

/// Which Section-6 cost class a tighten search is charged to.
#[derive(Clone, Copy)]
pub(crate) enum SearchClass {
    /// Initial step: constrained NN over the (initially unbounded) alive
    /// cells (`NN_c`).
    Constrained,
    /// Incremental step: bounded NN over the already-bounded region
    /// (`NN_b`).
    Bounded,
}

/// The monitored bounded region of one order-`k` query and the sites
/// whose bisectors draw it. Every method takes the grid Phase I probes;
/// cell geometry is read from that same grid.
#[derive(Debug, Clone)]
pub(crate) struct Region {
    /// The query order.
    k: usize,
    /// The query's own id inside the probed grid (excluded from every
    /// search); `None` for a pure query point.
    q_id: Option<ObjectId>,
    /// Query position as of the last evaluation.
    q: Point,
    /// The alive cells (the single monitored bounded region).
    alive: CellSet,
    /// The monitored sites with the positions their bisectors were drawn
    /// at.
    sites: Vec<(Point, ObjectId)>,
    /// Set when the alive region may encode bisectors of sites that were
    /// cleaned out: such objects are no longer watched for movement, so
    /// the next tick must redraw unconditionally or a cell killed by a
    /// departed site's old bisector could hide a new answer. (The paper's
    /// Algorithms 2 and 4 are silent on this corner; without the forced
    /// redraw the completeness proof of Theorem 2 does not go through
    /// after a cleaning step.)
    stale: bool,
    /// Object-level filtering mode (ablation A2).
    granularity: PruneGranularity,
}

impl Region {
    /// The unbounded region of a fresh query: every cell alive, no site.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub(crate) fn new(
        grid: &Grid,
        q: Point,
        q_id: Option<ObjectId>,
        k: usize,
        granularity: PruneGranularity,
    ) -> Self {
        assert!(k >= 1, "k must be positive");
        Region {
            k,
            q_id,
            q,
            alive: CellSet::full(grid.num_cells()),
            sites: Vec::with_capacity(monitored_capacity(k)),
            stale: false,
            granularity,
        }
    }

    /// The query order.
    #[inline]
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// The query's own id inside the probed grid.
    #[inline]
    pub(crate) fn q_id(&self) -> Option<ObjectId> {
        self.q_id
    }

    /// Query position as of the last evaluation.
    #[inline]
    pub(crate) fn q(&self) -> Point {
        self.q
    }

    /// The alive cells.
    #[inline]
    pub(crate) fn alive(&self) -> &CellSet {
        &self.alive
    }

    /// The monitored sites with their last-seen positions.
    #[inline]
    pub(crate) fn sites(&self) -> &[(Point, ObjectId)] {
        &self.sites
    }

    /// Object-level filtering mode.
    #[inline]
    pub(crate) fn granularity(&self) -> PruneGranularity {
        self.granularity
    }

    /// Scenario checks (Algorithms 2/4 lines 2–5): move the query to `q`,
    /// re-read every site's position, and redraw all bisectors — only
    /// cells between `q` and the bisectors stay alive — iff the query or
    /// a site moved, or the region is stale.
    pub(crate) fn refresh(&mut self, grid: &Grid, q: Point, scratch: &mut EvalScratch) {
        let mut moved = q != self.q;
        self.sites.retain_mut(|(pos, id)| match grid.position(*id) {
            Some(p) => {
                if p != *pos {
                    moved = true;
                    *pos = p;
                }
                true
            }
            None => {
                // Object disappeared from the index: its bisector is void.
                moved = true;
                false
            }
        });
        self.q = q;
        if moved || self.stale {
            self.redraw(grid, scratch);
            self.stale = false;
        }
    }

    /// Redraw the order-`k` alive region from the current sites.
    fn redraw(&mut self, grid: &Grid, scratch: &mut EvalScratch) {
        let EvalScratch { sites, prune, .. } = scratch;
        sites.clear();
        sites.extend(self.sites.iter().map(|&(p, _)| p));
        recompute_alive_k_into(grid, self.q, sites, self.k, &mut self.alive, prune);
    }

    /// Phase-I loop (Algorithms 1/3 lines 3–6): repeatedly take the
    /// nearest unmonitored object inside the alive cells that fewer than
    /// `k` sites dominate, monitor it, and kill the cells ≥ `k` bisectors
    /// exclude, until the alive region holds no such object. On an
    /// already-bounded region the loop doubles as the existence check of
    /// Algorithms 2/4 line 6 — a single bounded search when the region is
    /// quiet.
    pub(crate) fn tighten(
        &mut self,
        grid: &Grid,
        class: SearchClass,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        loop {
            match class {
                SearchClass::Constrained => ops.nn_c += 1,
                SearchClass::Bounded => ops.nn_b += 1,
            }
            let next = if self.sites.is_empty() {
                // No bisector drawn yet: every cell is alive, so the
                // constrained search degenerates to an unconstrained one —
                // run it as a ring search instead of sorting the whole
                // cell set.
                nearest(grid, self.q, self.q_id, ops)
            } else {
                // The probe excludes the query object and the sites, and
                // under exact granularity also skips objects already
                // dominated by `k` sites: they cannot bound any point of
                // the exact region and need no bisector (an object they
                // do block is caught by the caller's verification). Cell
                // granularity passes no sites, which disables the
                // domination test.
                let EvalScratch {
                    sites,
                    ids,
                    cell_order,
                    ..
                } = scratch;
                sites.clear();
                if let PruneGranularity::Exact = self.granularity {
                    sites.extend(self.sites.iter().map(|&(p, _)| p));
                }
                ids.clear();
                ids.extend(self.q_id);
                ids.extend(self.sites.iter().map(|&(_, id)| id));
                nearest_undominated_in_cells(
                    grid,
                    self.q,
                    &self.alive,
                    sites,
                    self.k,
                    ids,
                    ops,
                    cell_order,
                )
            };
            let Some(n) = next else { break };
            self.sites.push((n.pos, n.id));
            self.redraw(grid, scratch);
        }
    }

    /// Drop the sites that `k` kept ones dominate (Algorithms 2/4 line
    /// 8); a dropped site's bisector may still shape the region, so mark
    /// it stale. Incremental steps run this unconditionally: movement
    /// alone can make one site dominate another, and with
    /// exact-granularity greedy insertion the cleaned set is guaranteed
    /// ≤ 6k (at most `k` sites per 60° pie survive, by the classic
    /// six-region lemma the paper's related work builds on).
    pub(crate) fn clean(&mut self, prune: &mut PruneScratch) {
        let grown = self.sites.len();
        clean_dominated_k_with(&mut self.sites, self.q, self.k, prune);
        if self.sites.len() < grown {
            self.stale = true;
        }
    }

    /// Monitor a blocker that verification found (Algorithm 3 lines
    /// 13–15): unless it already is a site, draw its one bisector, kill
    /// the cells beyond it and clean.
    pub(crate) fn admit(
        &mut self,
        grid: &Grid,
        pos: Point,
        id: ObjectId,
        prune: &mut PruneScratch,
    ) {
        if !self.sites.iter().any(|&(_, s)| s == id) {
            self.sites.push((pos, id));
            kill_cells_beyond_bisector(grid, &mut self.alive, self.q, pos);
            self.clean(prune);
        }
    }
}
