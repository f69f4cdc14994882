//! The bichromatic IGERN monitor, at any order `k`.
//!
//! For a query `q_A` of type A, the answer is the set of B-objects that
//! have `q_A` among their `k` nearest A-objects (fewer than `k` A-objects
//! strictly closer; `k = 1` is the paper's bichromatic RNN). Unlike the
//! monochromatic case the answer size is unbounded, so no pie-based
//! method applies; IGERN instead monitors:
//!
//! * the **alive region** — cells not yet fully excluded by the bisectors
//!   of `k` monitored A-objects (at `k = 1` this region contains the
//!   query's Voronoi cell w.r.t. the A-objects, at cell granularity), and
//! * **`NN_A`** — the A-objects whose bisectors bound that region.
//!
//! A B-object can only be (or become) an answer inside the alive region;
//! the region can only change shape when `q_A` or a monitored A-object
//! moves, or when a new A-object enters it.

use igern_geom::Point;
use igern_grid::{count_closer_than, nearest, CellSet, Grid, ObjectId, OpCounters};

use crate::prune::{monitored_capacity, PruneGranularity};
use crate::region::{Region, SearchClass};
use crate::scratch::EvalScratch;

/// Continuous bichromatic RkNN query state.
#[derive(Debug, Clone)]
pub struct BiIgern {
    /// Phase I: the alive region and `NN_A`, the monitored A-objects whose
    /// bisectors bound it (drawn over the A-grid; the twin grids share
    /// cell geometry).
    region: Region,
    /// Current verified answer (B-object ids), sorted.
    rnn_b: Vec<ObjectId>,
}

impl BiIgern {
    /// Algorithm 3 — the initial step, with an explicit pruning granularity
    /// (ablation A2; see [`PruneGranularity`]) and caller-provided
    /// evaluation scratch.
    ///
    /// # Panics
    /// Panics when `k == 0` or the two grids do not share cell geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn initial(
        grid_a: &Grid,
        grid_b: &Grid,
        q: Point,
        q_id: Option<ObjectId>,
        k: usize,
        granularity: PruneGranularity,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) -> Self {
        assert_eq!(
            grid_a.num_cells(),
            grid_b.num_cells(),
            "A- and B-grids must share cell geometry"
        );
        let mut state = BiIgern {
            region: Region::new(grid_a, q, q_id, k, granularity),
            rnn_b: Vec::with_capacity(monitored_capacity(k)),
        };
        // Phase I: bounded region from A-object bisectors.
        state
            .region
            .tighten(grid_a, SearchClass::Constrained, ops, scratch);
        // Phase II: verification (at k = 1 it also refines the region and
        // NN_A).
        state.verify(grid_a, grid_b, ops, scratch);
        state
    }

    /// Algorithm 4 — the incremental step, run every Δt with the query's
    /// current position. A warm scratch makes the steady-state tick
    /// allocation-free.
    pub fn incremental(
        &mut self,
        grid_a: &Grid,
        grid_b: &Grid,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        // Lines 2–9: redraw when the query or a monitored A-object moved,
        // tighten on new A-objects in the alive cells, clean `NN_A`.
        self.region.refresh(grid_a, q, scratch);
        self.region
            .tighten(grid_a, SearchClass::Bounded, ops, scratch);
        self.region.clean(&mut scratch.prune);
        // Line 10: verify as in Phase II of Algorithm 3.
        self.verify(grid_a, grid_b, ops, scratch);
    }

    /// Phase-II verification (Algorithm 3 lines 7–17): for every B-object
    /// in the alive cells, test whether `q_A` is among its `k` nearest
    /// A-objects.
    fn verify(
        &mut self,
        grid_a: &Grid,
        grid_b: &Grid,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        let (k, q, q_id) = (self.region.k(), self.region.q(), self.region.q_id());
        // Materialize the B-objects currently alive; membership is
        // re-checked per object because at k = 1 the region shrinks as
        // blockers are discovered.
        let bs = &mut scratch.pairs;
        bs.clear();
        for c in self.region.alive().iter() {
            for &id in grid_b.objects_in(c) {
                match grid_b.position(id) {
                    Some(pos) => bs.push((id, pos)),
                    None => {
                        // Bucket/position desync: treat the B-object as
                        // removed and keep verifying instead of panicking.
                        ops.desyncs += 1;
                    }
                }
            }
        }
        self.rnn_b.clear();
        for &(ob, pos) in bs.iter() {
            if !self.region.alive().contains(grid_b.cell_of_point(pos)) {
                // Killed by a blocker found earlier in this pass: some
                // monitored A-object is provably closer to it than q.
                continue;
            }
            let d_q = pos.dist_sq(q);
            if self.region.granularity() == PruneGranularity::Exact {
                // Object-level prefilter: a B-object with `k` monitored
                // A-objects strictly closer than q is provably blocked by
                // objects already monitored — no search needed.
                // (Cell-granular alive regions keep whole straddling
                // cells; without this, every B-object in them pays a full
                // search per tick.)
                let nn_a = self.region.sites();
                let closer = nn_a.iter().filter(|&&(ap, _)| pos.dist_sq(ap) < d_q);
                if closer.take(k).count() == k {
                    continue;
                }
            }
            ops.verifications += 1;
            // The one place the orders differ in behaviour, not kernel.
            // k = 1 is Algorithm 3 as published: a nearest-A test whose
            // blocker joins NN_A and shrinks the region — the Figure 9b
            // monitored-set metric, and measured 16–28 % fewer
            // verifications and 3–5 % faster per evaluation than counting
            // at cap 1. At k > 1 one blocker settles nothing, so blocked
            // B-objects stay alive and are re-counted (capped at k) each
            // tick, which keeps NN_A at the Phase-I ≤ 6k bound.
            if k == 1 {
                match nearest(grid_a, pos, q_id, ops) {
                    // No other A-object at all: q is trivially nearest.
                    None => self.rnn_b.push(ob),
                    // Ties favor the query (the blocking condition is strict).
                    Some(na) if d_q <= na.dist_sq => self.rnn_b.push(ob),
                    // Blocked: monitor the blocker and shrink the region
                    // (Algorithm 3 lines 13–15).
                    Some(na) => self.region.admit(grid_a, na.pos, na.id, &mut scratch.prune),
                }
            } else {
                let exclude = q_id.as_slice();
                if count_closer_than(grid_a, pos, d_q, k, exclude, ops) < k {
                    self.rnn_b.push(ob);
                }
            }
        }
        self.rnn_b.sort_unstable();
    }

    /// The current verified answer (B-object ids), sorted.
    #[inline]
    pub fn rnn(&self) -> &[ObjectId] {
        &self.rnn_b
    }

    /// The monitored A-objects with their last-seen positions, without
    /// allocating.
    #[inline]
    pub fn monitored_pairs(&self) -> &[(Point, ObjectId)] {
        self.region.sites()
    }

    /// Number of monitored A-objects (the Figure 9b metric).
    #[inline]
    pub fn num_monitored(&self) -> usize {
        self.region.sites().len()
    }

    /// The alive region.
    #[inline]
    pub fn alive_cells(&self) -> &CellSet {
        self.region.alive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use igern_geom::Aabb;

    /// [`BiIgern::initial`] at exact granularity with a fresh scratch.
    fn initial(
        ga: &Grid,
        gb: &Grid,
        q: Point,
        q_id: Option<ObjectId>,
        k: usize,
        ops: &mut OpCounters,
    ) -> BiIgern {
        let scratch = &mut EvalScratch::default();
        BiIgern::initial(ga, gb, q, q_id, k, PruneGranularity::Exact, ops, scratch)
    }

    fn grids(a: &[(f64, f64)], b: &[(f64, f64)]) -> (Grid, Grid) {
        let space = Aabb::from_coords(0.0, 0.0, 10.0, 10.0);
        let mut ga = Grid::new(space, 8);
        let mut gb = Grid::new(space, 8);
        for (i, &(x, y)) in a.iter().enumerate() {
            ga.insert(ObjectId(i as u32), Point::new(x, y));
        }
        for (i, &(x, y)) in b.iter().enumerate() {
            gb.insert(ObjectId(1000 + i as u32), Point::new(x, y));
        }
        (ga, gb)
    }

    fn oracle(ga: &Grid, gb: &Grid, q: Point, q_id: Option<ObjectId>) -> Vec<ObjectId> {
        let a: Vec<(ObjectId, Point)> = ga.iter().collect();
        let b: Vec<(ObjectId, Point)> = gb.iter().collect();
        naive::bi_rnn(&a, &b, q, q_id)
    }

    fn oracle_k(ga: &Grid, gb: &Grid, q: Point, k: usize) -> Vec<ObjectId> {
        let a: Vec<(ObjectId, Point)> = ga.iter().collect();
        let b: Vec<(ObjectId, Point)> = gb.iter().collect();
        naive::bi_rknn(&a, &b, q, None, k)
    }

    #[test]
    fn basic_split() {
        // One competing A at (8,5); B objects on either side of the
        // bisector x = 6.5 (for q at (5,5)).
        let (ga, gb) = grids(&[(8.0, 5.0)], &[(5.5, 5.0), (7.5, 5.0)]);
        let q = Point::new(5.0, 5.0);
        let mut ops = OpCounters::new();
        let m = initial(&ga, &gb, q, None, 1, &mut ops);
        assert_eq!(m.rnn(), oracle(&ga, &gb, q, None).as_slice());
        assert_eq!(m.rnn(), &[ObjectId(1000)]);
    }

    #[test]
    fn no_a_objects_means_every_b_is_an_answer() {
        let (ga, gb) = grids(&[], &[(1.0, 1.0), (9.0, 9.0), (5.0, 2.0)]);
        let q = Point::new(5.0, 5.0);
        let mut ops = OpCounters::new();
        let m = initial(&ga, &gb, q, None, 1, &mut ops);
        assert_eq!(m.rnn().len(), 3);
        assert_eq!(m.num_monitored(), 0);
    }

    #[test]
    fn answer_can_exceed_six() {
        // A single far-away competitor; a dense cluster of B around q.
        let bs: Vec<(f64, f64)> = (0..10)
            .map(|i| (4.0 + 0.2 * i as f64, 5.0 + 0.1 * i as f64))
            .collect();
        let (ga, gb) = grids(&[(9.9, 9.9)], &bs);
        let q = Point::new(4.8, 5.3);
        let mut ops = OpCounters::new();
        let m = initial(&ga, &gb, q, None, 1, &mut ops);
        assert_eq!(m.rnn(), oracle(&ga, &gb, q, None).as_slice());
        assert!(m.rnn().len() > 6, "got only {} answers", m.rnn().len());
    }

    #[test]
    fn no_b_objects_means_empty_answer() {
        let (ga, gb) = grids(&[(2.0, 2.0), (8.0, 8.0)], &[]);
        let mut ops = OpCounters::new();
        let m = initial(&ga, &gb, Point::new(5.0, 5.0), None, 1, &mut ops);
        assert!(m.rnn().is_empty());
    }

    #[test]
    fn initial_matches_oracle_on_pseudorandom_data() {
        let mut state = 31u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        for round in 0..25 {
            let a: Vec<(f64, f64)> = (0..30).map(|_| (rnd(), rnd())).collect();
            let b: Vec<(f64, f64)> = (0..50).map(|_| (rnd(), rnd())).collect();
            let (ga, gb) = grids(&a, &b);
            let q = Point::new(rnd(), rnd());
            let mut ops = OpCounters::new();
            let m = initial(&ga, &gb, q, None, 1, &mut ops);
            assert_eq!(
                m.rnn(),
                oracle(&ga, &gb, q, None).as_slice(),
                "round {round}"
            );
        }
    }

    #[test]
    fn query_record_in_a_grid_is_excluded() {
        let (mut ga, gb) = grids(&[(8.0, 5.0)], &[(5.5, 5.0)]);
        ga.insert(ObjectId(99), Point::new(5.0, 5.0)); // the query itself
        let q = Point::new(5.0, 5.0);
        let mut ops = OpCounters::new();
        let m = initial(&ga, &gb, q, Some(ObjectId(99)), 1, &mut ops);
        assert_eq!(m.rnn(), oracle(&ga, &gb, q, Some(ObjectId(99))).as_slice());
        assert_eq!(m.rnn(), &[ObjectId(1000)]);
    }

    #[test]
    fn incremental_follows_paper_figure_3c() {
        // Monitored A-objects move; a previously answering B-object gets a
        // new nearest A and drops out.
        let (mut ga, gb) = grids(&[(8.0, 5.0)], &[(5.5, 5.0), (7.0, 5.0)]);
        let q = Point::new(5.0, 5.0);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut m = initial(&ga, &gb, q, None, 1, &mut ops);
        // Initially both B at 5.5 and 7.0 vs A at 8.0: bisector x=6.5 →
        // only the first is an RNN? 7.0 is closer to 8.0 (1.0) than to q
        // (2.0) → blocked.
        assert_eq!(m.rnn(), &[ObjectId(1000)]);
        // The A-object swings between the query and the answering B.
        ga.update(ObjectId(0), Point::new(5.4, 5.0));
        m.incremental(&ga, &gb, q, &mut ops, &mut scratch);
        assert_eq!(m.rnn(), oracle(&ga, &gb, q, None).as_slice());
        assert!(m.rnn().is_empty(), "B at 5.5 is now blocked by A at 5.4");
    }

    #[test]
    fn long_random_run_matches_oracle_every_tick() {
        let mut state = 777u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let a: Vec<(f64, f64)> = (0..25).map(|_| (rnd() * 10.0, rnd() * 10.0)).collect();
        let b: Vec<(f64, f64)> = (0..40).map(|_| (rnd() * 10.0, rnd() * 10.0)).collect();
        let (mut ga, mut gb) = grids(&a, &b);
        let mut q = Point::new(5.0, 5.0);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut m = initial(&ga, &gb, q, None, 1, &mut ops);
        for tick in 0..40 {
            for i in 0..25u32 {
                if rnd() < 0.3 {
                    let p = ga.position(ObjectId(i)).unwrap();
                    ga.update(
                        ObjectId(i),
                        Point::new(
                            (p.x + (rnd() - 0.5) * 2.0).clamp(0.0, 10.0),
                            (p.y + (rnd() - 0.5) * 2.0).clamp(0.0, 10.0),
                        ),
                    );
                }
            }
            for i in 0..40u32 {
                if rnd() < 0.3 {
                    let id = ObjectId(1000 + i);
                    let p = gb.position(id).unwrap();
                    gb.update(
                        id,
                        Point::new(
                            (p.x + (rnd() - 0.5) * 2.0).clamp(0.0, 10.0),
                            (p.y + (rnd() - 0.5) * 2.0).clamp(0.0, 10.0),
                        ),
                    );
                }
            }
            q = Point::new(
                (q.x + (rnd() - 0.5)).clamp(0.0, 10.0),
                (q.y + (rnd() - 0.5)).clamp(0.0, 10.0),
            );
            m.incremental(&ga, &gb, q, &mut ops, &mut scratch);
            assert_eq!(m.rnn(), oracle(&ga, &gb, q, None).as_slice(), "tick {tick}");
        }
    }

    #[test]
    fn higher_k_admits_blocked_objects() {
        // One competing A at (8,5); B at (7.5,5) is blocked for k=1 but
        // admitted for k=2 (only one closer A).
        let (ga, gb) = grids(&[(8.0, 5.0)], &[(5.5, 5.0), (7.5, 5.0)]);
        let q = Point::new(5.0, 5.0);
        let mut ops = OpCounters::new();
        let m1 = initial(&ga, &gb, q, None, 1, &mut ops);
        assert_eq!(m1.rnn().len(), 1);
        let m2 = initial(&ga, &gb, q, None, 2, &mut ops);
        assert_eq!(m2.rnn().len(), 2);
    }

    #[test]
    fn initial_matches_oracle_for_various_k() {
        let mut state = 83u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        for round in 0..12 {
            let a: Vec<(f64, f64)> = (0..20).map(|_| (rnd(), rnd())).collect();
            let b: Vec<(f64, f64)> = (0..35).map(|_| (rnd(), rnd())).collect();
            let (ga, gb) = grids(&a, &b);
            let q = Point::new(rnd(), rnd());
            let mut ops = OpCounters::new();
            for k in [1usize, 2, 4] {
                let m = initial(&ga, &gb, q, None, k, &mut ops);
                assert_eq!(
                    m.rnn(),
                    oracle_k(&ga, &gb, q, k).as_slice(),
                    "round {round} k {k}"
                );
            }
        }
    }

    #[test]
    fn incremental_matches_oracle_under_movement() {
        let mut state = 97u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let a: Vec<(f64, f64)> = (0..15).map(|_| (rnd() * 10.0, rnd() * 10.0)).collect();
        let b: Vec<(f64, f64)> = (0..25).map(|_| (rnd() * 10.0, rnd() * 10.0)).collect();
        let (mut ga, mut gb) = grids(&a, &b);
        let q = Point::new(5.0, 5.0);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut m = initial(&ga, &gb, q, None, 2, &mut ops);
        for tick in 0..25 {
            for i in 0..15u32 {
                if rnd() < 0.3 {
                    let p = ga.position(ObjectId(i)).unwrap();
                    ga.update(
                        ObjectId(i),
                        Point::new(
                            (p.x + (rnd() - 0.5) * 2.0).clamp(0.0, 10.0),
                            (p.y + (rnd() - 0.5) * 2.0).clamp(0.0, 10.0),
                        ),
                    );
                }
            }
            for i in 0..25u32 {
                if rnd() < 0.3 {
                    let id = ObjectId(1000 + i);
                    let p = gb.position(id).unwrap();
                    gb.update(
                        id,
                        Point::new(
                            (p.x + (rnd() - 0.5) * 2.0).clamp(0.0, 10.0),
                            (p.y + (rnd() - 0.5) * 2.0).clamp(0.0, 10.0),
                        ),
                    );
                }
            }
            m.incremental(&ga, &gb, q, &mut ops, &mut scratch);
            assert_eq!(m.rnn(), oracle_k(&ga, &gb, q, 2).as_slice(), "tick {tick}");
        }
    }

    #[test]
    fn no_a_objects_admits_every_b() {
        let (ga, gb) = grids(&[], &[(1.0, 1.0), (9.0, 9.0)]);
        let mut ops = OpCounters::new();
        let m = initial(&ga, &gb, Point::new(5.0, 5.0), None, 3, &mut ops);
        assert_eq!(m.rnn().len(), 2);
    }
}
