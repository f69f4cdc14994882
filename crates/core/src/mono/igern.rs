//! The monochromatic IGERN monitor, at any order `k` (continuous reverse
//! `k`-nearest neighbors; `k = 1` is the paper's RNN query).
//!
//! One *initial step* (Algorithm 1) runs at query-issue time; an
//! *incremental step* (Algorithm 2) runs every tick after that. Between
//! ticks the monitor keeps only:
//!
//! * the **alive region** — a single bounded set of grid cells around the
//!   query (vs. six pie regions in CRNN), and
//! * **`RNNcand`** — the candidate objects whose bisectors bound that
//!   region (on average ≈3 at `k = 1`, vs. exactly 6 in CRNN).
//!
//! Everything outside the alive region is provably dominated by some
//! candidate (Theorem 2, Case 2), so only the region and the candidates
//! need watching.
//!
//! Every step is written in the order-`k` form of the paper's journal
//! version, which at `k = 1` is Algorithms 1–2 as published: an object
//! `o` is an RkNN of `q` iff fewer than `k` objects lie strictly closer
//! to `o` than `q`, so
//!
//! * **dominance** needs ≥ `k` monitored candidates strictly closer to an
//!   object than the query;
//! * a cell of the **alive region** dies only when ≥ `k` bisectors fully
//!   exclude it (see [`crate::prune::recompute_alive_k_into`]);
//! * **verification** counts blockers up to `k` instead of testing for
//!   one;
//! * the candidate bound becomes `6k` (at most `k` greedily-inserted
//!   candidates survive per 60° pie).

use igern_geom::Point;
use igern_grid::{count_closer_than, CellSet, Grid, ObjectId, OpCounters};

use crate::prune::{monitored_capacity, PruneGranularity};
use crate::region::{Region, SearchClass};
use crate::scratch::EvalScratch;

/// Continuous monochromatic RkNN query state.
#[derive(Debug, Clone)]
pub struct MonoIgern {
    /// Phase I: the alive region and `RNNcand`, the candidates whose
    /// bisectors bound it (drawn over the all-objects grid).
    region: Region,
    /// Current verified answer, sorted by id.
    rnn: Vec<ObjectId>,
}

impl MonoIgern {
    /// Algorithm 1 — the initial step: compute the first answer, the alive
    /// region, and `RNNcand`, with an explicit pruning granularity
    /// (ablation A2; see [`PruneGranularity`]) and caller-provided
    /// evaluation scratch.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn initial(
        grid: &Grid,
        q: Point,
        q_id: Option<ObjectId>,
        k: usize,
        granularity: PruneGranularity,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) -> Self {
        let mut state = MonoIgern {
            region: Region::new(grid, q, q_id, k, granularity),
            rnn: Vec::with_capacity(monitored_capacity(k)),
        };
        // Phase I: bounded region.
        state
            .region
            .tighten(grid, SearchClass::Constrained, ops, scratch);
        // Phase II: verification.
        state.verify(grid, ops);
        state
    }

    /// Algorithm 2 — the incremental step, run every Δt with the query's
    /// current position. A warm scratch makes the steady-state tick
    /// allocation-free.
    pub fn incremental(
        &mut self,
        grid: &Grid,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        // Lines 2–9: redraw if the query or a candidate moved, tighten on
        // objects that (re-)entered the alive region, clean `RNNcand`.
        self.region.refresh(grid, q, scratch);
        self.region
            .tighten(grid, SearchClass::Bounded, ops, scratch);
        self.region.clean(&mut scratch.prune);
        // Line 10: verification.
        self.verify(grid, ops);
    }

    /// Phase-II verification (Algorithm 1 line 8 / Algorithm 2 line 10):
    /// keep a candidate iff the query is among its `k` nearest objects —
    /// i.e. fewer than `k` other objects lie strictly closer to it than
    /// the query does. Rebuilds `self.rnn` in place.
    fn verify(&mut self, grid: &Grid, ops: &mut OpCounters) {
        let (k, q, q_id) = (self.region.k(), self.region.q(), self.region.q_id());
        self.rnn.clear();
        for &(pos, id) in self.region.sites() {
            ops.verifications += 1;
            let pair;
            let single;
            let exclude: &[ObjectId] = match q_id {
                Some(qid) => {
                    pair = [id, qid];
                    &pair
                }
                None => {
                    single = [id];
                    &single
                }
            };
            let d_q = pos.dist_sq(q);
            if count_closer_than(grid, pos, d_q, k, exclude, ops) < k {
                self.rnn.push(id);
            }
        }
        self.rnn.sort_unstable();
    }

    /// The current verified answer, sorted by id.
    #[inline]
    pub fn rnn(&self) -> &[ObjectId] {
        &self.rnn
    }

    /// The monitored candidate set `RNNcand`.
    pub fn candidates(&self) -> Vec<ObjectId> {
        self.region.sites().iter().map(|&(_, id)| id).collect()
    }

    /// The monitored candidates with their last-seen positions, without
    /// allocating.
    #[inline]
    pub fn candidate_pairs(&self) -> &[(Point, ObjectId)] {
        self.region.sites()
    }

    /// Number of monitored objects (the Figure 7b metric; ≈3 on average
    /// at `k = 1` vs. CRNN's constant 6, and ≤ 6k under exact greedy
    /// insertion).
    #[inline]
    pub fn num_monitored(&self) -> usize {
        self.region.sites().len()
    }

    /// The alive region.
    #[inline]
    pub fn alive_cells(&self) -> &CellSet {
        self.region.alive()
    }

    /// Area of the monitored (alive) region — the metric behind the
    /// paper's claim that IGERN watches "about one sixth of the area
    /// monitored by CRNN" (§3.3).
    pub fn monitored_area(&self, grid: &Grid) -> f64 {
        let cell_area = grid.space().area() / grid.num_cells() as f64;
        self.region.alive().count() as f64 * cell_area
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use igern_geom::Aabb;

    /// [`MonoIgern::initial`] at exact granularity with a fresh scratch.
    fn initial(
        g: &Grid,
        q: Point,
        q_id: Option<ObjectId>,
        k: usize,
        ops: &mut OpCounters,
    ) -> MonoIgern {
        let scratch = &mut EvalScratch::default();
        MonoIgern::initial(g, q, q_id, k, PruneGranularity::Exact, ops, scratch)
    }

    fn grid_with(points: &[(f64, f64)]) -> Grid {
        let mut g = Grid::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), 8);
        for (i, &(x, y)) in points.iter().enumerate() {
            g.insert(ObjectId(i as u32), Point::new(x, y));
        }
        g
    }

    fn oracle(g: &Grid, q: Point, q_id: Option<ObjectId>) -> Vec<ObjectId> {
        let objs: Vec<(ObjectId, Point)> = g.iter().collect();
        naive::mono_rnn(&objs, q, q_id)
    }

    fn oracle_k(g: &Grid, q: Point, k: usize) -> Vec<ObjectId> {
        let objs: Vec<(ObjectId, Point)> = g.iter().collect();
        naive::mono_rknn(&objs, q, None, k)
    }

    #[test]
    fn paper_figure_1_shape() {
        // Mirror of the Figure 1 walkthrough: the nearest object is always
        // a candidate; objects hidden behind bisectors are not.
        let g = grid_with(&[
            (5.0, 6.0), // o1: close, above q
            (6.5, 5.0), // o2: close, right of q
            (4.0, 4.0), // o3: close, lower-left
            (9.5, 9.5), // far corner
            (9.9, 0.1), // far corner
        ]);
        let q = Point::new(5.0, 5.0);
        let mut ops = OpCounters::new();
        let m = initial(&g, q, None, 1, &mut ops);
        assert_eq!(m.rnn(), oracle(&g, q, None).as_slice());
        // The far corners must not be monitored (dominated by nearer
        // candidates' bisectors) — the whole point of the bounded region.
        assert!(m.num_monitored() < 5);
        // The query's cell is always alive.
        assert!(m.alive_cells().contains(g.cell_of_point(q)));
    }

    #[test]
    fn initial_matches_oracle_on_pseudorandom_data() {
        let mut state = 17u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        for round in 0..30 {
            let pts: Vec<(f64, f64)> = (0..80).map(|_| (rnd(), rnd())).collect();
            let g = grid_with(&pts);
            let q = Point::new(rnd(), rnd());
            let mut ops = OpCounters::new();
            let m = initial(&g, q, None, 1, &mut ops);
            assert_eq!(m.rnn(), oracle(&g, q, None).as_slice(), "round {round}");
        }
    }

    #[test]
    fn empty_grid_has_no_answers() {
        let g = grid_with(&[]);
        let mut ops = OpCounters::new();
        let m = initial(&g, Point::new(5.0, 5.0), None, 1, &mut ops);
        assert!(m.rnn().is_empty());
        assert_eq!(m.num_monitored(), 0);
    }

    #[test]
    fn single_object_is_always_rnn() {
        let g = grid_with(&[(2.0, 2.0)]);
        let mut ops = OpCounters::new();
        let m = initial(&g, Point::new(8.0, 8.0), None, 1, &mut ops);
        assert_eq!(m.rnn(), &[ObjectId(0)]);
    }

    #[test]
    fn query_object_in_grid_is_excluded() {
        let mut g = grid_with(&[(3.0, 3.0)]);
        g.insert(ObjectId(7), Point::new(5.0, 5.0)); // the query itself
        let mut ops = OpCounters::new();
        let m = initial(&g, Point::new(5.0, 5.0), Some(ObjectId(7)), 1, &mut ops);
        assert_eq!(
            m.rnn(),
            oracle(&g, Point::new(5.0, 5.0), Some(ObjectId(7))).as_slice()
        );
        assert!(!m.candidates().contains(&ObjectId(7)));
    }

    #[test]
    fn incremental_tracks_object_movement() {
        let mut g = grid_with(&[(4.0, 5.0), (8.0, 5.0)]);
        let q = Point::new(5.0, 5.0);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut m = initial(&g, q, None, 1, &mut ops);
        assert_eq!(m.rnn(), oracle(&g, q, None).as_slice());
        // Object 1 swings close to object 0: object 0 stops being an RNN.
        g.update(ObjectId(1), Point::new(3.5, 5.0));
        m.incremental(&g, q, &mut ops, &mut scratch);
        assert_eq!(m.rnn(), oracle(&g, q, None).as_slice());
        // And moves far away again.
        g.update(ObjectId(1), Point::new(9.5, 9.5));
        m.incremental(&g, q, &mut ops, &mut scratch);
        assert_eq!(m.rnn(), oracle(&g, q, None).as_slice());
    }

    #[test]
    fn incremental_tracks_query_movement() {
        let g = grid_with(&[(2.0, 2.0), (8.0, 8.0), (2.0, 8.0)]);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut m = initial(&g, Point::new(5.0, 5.0), None, 1, &mut ops);
        for &(x, y) in &[(1.0, 1.0), (9.0, 9.0), (5.0, 9.0), (0.5, 9.5)] {
            let q = Point::new(x, y);
            m.incremental(&g, q, &mut ops, &mut scratch);
            assert_eq!(m.rnn(), oracle(&g, q, None).as_slice(), "q = {q}");
        }
    }

    #[test]
    fn incremental_detects_new_object_in_alive_region() {
        let mut g = grid_with(&[(4.0, 5.0)]);
        let q = Point::new(5.0, 5.0);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut m = initial(&g, q, None, 1, &mut ops);
        assert_eq!(m.rnn(), &[ObjectId(0)]);
        // A new object appears right next to the query (Figure 2c's
        // scenario): the answer must absorb it.
        g.insert(ObjectId(1), Point::new(5.3, 5.0));
        m.incremental(&g, q, &mut ops, &mut scratch);
        assert_eq!(m.rnn(), oracle(&g, q, None).as_slice());
        assert!(m.candidates().contains(&ObjectId(1)));
    }

    #[test]
    fn quiescent_ticks_keep_the_answer() {
        let g = grid_with(&[(4.0, 5.0), (8.0, 2.0), (1.0, 9.0)]);
        let q = Point::new(5.0, 5.0);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut m = initial(&g, q, None, 1, &mut ops);
        let first = m.rnn().to_vec();
        for _ in 0..5 {
            m.incremental(&g, q, &mut ops, &mut scratch);
            assert_eq!(m.rnn(), first.as_slice());
        }
    }

    #[test]
    fn long_random_run_matches_oracle_every_tick() {
        let mut state = 1234u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<(f64, f64)> = (0..60).map(|_| (rnd() * 10.0, rnd() * 10.0)).collect();
        let mut g = grid_with(&pts);
        let mut q = Point::new(5.0, 5.0);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut m = initial(&g, q, None, 1, &mut ops);
        for tick in 0..40 {
            // Jitter a random third of the objects and the query.
            for i in 0..60u32 {
                if rnd() < 0.33 {
                    let p = g.position(ObjectId(i)).unwrap();
                    let np = Point::new(
                        (p.x + (rnd() - 0.5) * 2.0).clamp(0.0, 10.0),
                        (p.y + (rnd() - 0.5) * 2.0).clamp(0.0, 10.0),
                    );
                    g.update(ObjectId(i), np);
                }
            }
            q = Point::new(
                (q.x + (rnd() - 0.5)).clamp(0.0, 10.0),
                (q.y + (rnd() - 0.5)).clamp(0.0, 10.0),
            );
            m.incremental(&g, q, &mut ops, &mut scratch);
            assert_eq!(m.rnn(), oracle(&g, q, None).as_slice(), "tick {tick}");
            assert!(m.rnn().len() <= 6, "mono RNN bound violated");
        }
    }

    #[test]
    fn monitored_set_stays_small() {
        let mut state = 5150u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<(f64, f64)> = (0..200).map(|_| (rnd() * 10.0, rnd() * 10.0)).collect();
        let g = grid_with(&pts);
        let mut ops = OpCounters::new();
        let mut total = 0usize;
        for i in 0..20 {
            let q = Point::new(rnd() * 10.0, rnd() * 10.0);
            let m = initial(&g, q, None, 1, &mut ops);
            total += m.num_monitored();
            let _ = i;
        }
        let avg = total as f64 / 20.0;
        // The paper reports ≈3.x monitored objects on average; allow a
        // loose band since this is a tiny data set.
        assert!(avg < 8.0, "average monitored = {avg}");
    }

    #[test]
    fn initial_matches_oracle_for_various_k() {
        let mut state = 29u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        for round in 0..12 {
            let pts: Vec<(f64, f64)> = (0..60).map(|_| (rnd(), rnd())).collect();
            let g = grid_with(&pts);
            let q = Point::new(rnd(), rnd());
            let mut ops = OpCounters::new();
            for k in [1usize, 2, 3, 5] {
                let m = initial(&g, q, None, k, &mut ops);
                assert_eq!(
                    m.rnn(),
                    oracle_k(&g, q, k).as_slice(),
                    "round {round} k {k}"
                );
                assert!(m.num_monitored() <= 6 * k, "6k candidate bound violated");
            }
        }
    }

    #[test]
    fn answers_are_monotone_in_k() {
        let g = grid_with(&[
            (4.0, 5.0),
            (4.5, 5.0),
            (6.0, 5.0),
            (5.0, 7.0),
            (9.0, 9.0),
            (1.0, 2.0),
        ]);
        let q = Point::new(5.0, 5.0);
        let mut ops = OpCounters::new();
        let mut prev: Vec<ObjectId> = Vec::new();
        for k in 1..=4 {
            let m = initial(&g, q, None, k, &mut ops);
            for id in &prev {
                assert!(m.rnn().contains(id), "k={k} lost an answer from k-1");
            }
            prev = m.rnn().to_vec();
        }
    }

    #[test]
    fn incremental_matches_oracle_under_movement() {
        let mut state = 59u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<(f64, f64)> = (0..40).map(|_| (rnd() * 10.0, rnd() * 10.0)).collect();
        for k in [2usize, 3] {
            let mut g = grid_with(&pts);
            let mut q = Point::new(5.0, 5.0);
            let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
            let mut m = initial(&g, q, None, k, &mut ops);
            for tick in 0..25 {
                for i in 0..40u32 {
                    if rnd() < 0.3 {
                        let p = g.position(ObjectId(i)).unwrap();
                        g.update(
                            ObjectId(i),
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
                m.incremental(&g, q, &mut ops, &mut scratch);
                assert_eq!(m.rnn(), oracle_k(&g, q, k).as_slice(), "k {k} tick {tick}");
            }
        }
    }

    #[test]
    fn empty_and_small_populations() {
        let g = grid_with(&[]);
        let mut ops = OpCounters::new();
        let m = initial(&g, Point::new(5.0, 5.0), None, 3, &mut ops);
        assert!(m.rnn().is_empty());
        // With n ≤ k, every object is an answer.
        let g2 = grid_with(&[(1.0, 1.0), (9.0, 9.0)]);
        let m2 = initial(&g2, Point::new(5.0, 5.0), None, 5, &mut ops);
        assert_eq!(m2.rnn().len(), 2);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let g = grid_with(&[]);
        let mut ops = OpCounters::new();
        initial(&g, Point::ORIGIN, None, 0, &mut ops);
    }
}
