//! Anchor-cell batch/shared evaluation.
//!
//! The per-query path re-derives a near-identical expanding-ring scan for
//! every standing query: co-located queries of the same algorithm walk the
//! same cells and re-gather the same object positions tick after tick.
//! [`BatchEvaluator`] groups the live, non-skipped queries of one tick by
//! `(algorithm class, anchor cell)` — the [`BatchClass`] key — and runs
//! **one** ring-ordered priming pass per group that loads every cell the
//! group will read into a [`CellFeed`]. Each member then evaluates against
//! the shared feed: one position gather per cell per group, instead of one
//! per member.
//!
//! # Equivalence invariants
//!
//! Batched evaluation is a pure execution-plan change; the gates that keep
//! it bit-identical to the per-query path at any worker count:
//!
//! * **Feed replay** — a primed cell stores its bucket in exact bucket
//!   order (desynced entries included), and every `*_feed` NN kernel
//!   replays it with the same visit sequence and the same counter
//!   increments as a direct grid scan ([`CellFeed`]).
//! * **Fallback** — a cell the priming pass did not cover reads the grid
//!   directly inside the kernels. The store is frozen during evaluation,
//!   so the feed and the grid agree; incomplete priming costs performance,
//!   never correctness.
//! * **Order** — skip decisions are taken in lane order before any
//!   evaluation runs (the dirty-set skip check reads only pre-tick state),
//!   and each member evaluates against its own monitor exactly as the
//!   per-query path would.
//!
//! Together these make the feed a read-through cache of the frozen grids,
//! which is why answers, op counters, and skip decisions cannot diverge.

use igern_geom::Point;
use igern_grid::{
    visit::{max_ring_radius, ring_cells},
    CellFeed, CellId, CellSet,
};

use crate::eval::{evaluate_at, presample, Presample, QuerySlot};
use crate::metrics::TickSample;
use crate::scratch::EvalScratch;
use crate::store::SpatialStore;

/// The shared-scan caches handed to a monitor evaluation. Mono monitors
/// read `all` (the all-objects grid); bichromatic monitors read `a`/`b`.
/// `Feeds::default()` — no feeds — is the plain per-query path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Feeds<'f> {
    /// Feed over the all-objects grid.
    pub all: Option<&'f CellFeed>,
    /// Feed over the A-grid.
    pub a: Option<&'f CellFeed>,
    /// Feed over the B-grid.
    pub b: Option<&'f CellFeed>,
}

/// Batch-grouping class: queries share a scan only when they run the same
/// algorithm at the same order `k` (their monitors read the same grids
/// with the same candidate logic) and anchor in the same cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BatchClass {
    /// Monochromatic IGERN at order `k`.
    Mono(usize),
    /// Bichromatic IGERN at order `k`.
    Bi(usize),
}

impl BatchClass {
    /// Whether the class evaluates against the A-/B-grids (vs. the
    /// all-objects grid).
    fn is_bichromatic(self) -> bool {
        matches!(self, BatchClass::Bi(_))
    }
}

/// One planned (non-skipped, batchable) evaluation.
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    class: BatchClass,
    cell: CellId,
    idx: u32,
    pos: Point,
}

/// The shared-scan batch evaluator. Owns the per-tick feeds, the grouping
/// plan, and the output samples; all buffers persist across ticks so the
/// steady-state batched tick allocates nothing.
#[derive(Debug, Default)]
pub struct BatchEvaluator {
    feed_all: CellFeed,
    feed_a: CellFeed,
    feed_b: CellFeed,
    plan: Vec<PlanEntry>,
    /// Union of a group's watch sets: the cells its members may read,
    /// primed in ring order from the anchor cell.
    watch: CellSet,
    out: Vec<TickSample>,
    groups: u64,
    members: u64,
}

impl BatchEvaluator {
    /// A fresh evaluator; buffers are sized lazily on the first run.
    pub fn new() -> Self {
        BatchEvaluator::default()
    }

    /// Evaluate every slot of `lane` for tick `tick`, sharing one priming
    /// scan per `(class, anchor cell)` group. Semantically identical to
    /// calling [`crate::eval::evaluate_query`] on each slot in lane order;
    /// results land in [`BatchEvaluator::samples`] by lane index.
    ///
    /// Two passes: first presample every slot in lane order (desync and
    /// skip samples are final; unbatchable monitors evaluate inline), then
    /// sort the batchable remainder by `(class, cell, lane index)` and run
    /// each group — multi-member groups prime the feeds over the union of
    /// their watch sets before their members evaluate.
    pub fn run(
        &mut self,
        store: &SpatialStore,
        lane: &mut [QuerySlot],
        tick: u64,
        route: bool,
        scratch: &mut EvalScratch,
    ) {
        self.out.clear();
        self.out.resize(lane.len(), TickSample::default());
        self.plan.clear();
        self.groups = 0;
        self.members = 0;
        self.feed_all.begin(store.all().num_cells());
        self.feed_a.begin(store.grid_a().num_cells());
        self.feed_b.begin(store.grid_b().num_cells());

        // Pass 1: presample in lane order; plan the batchable evaluations.
        for (i, slot) in lane.iter_mut().enumerate() {
            match presample(store, slot, tick, route) {
                Presample::Done(sample) => self.out[i] = sample,
                Presample::Evaluate(pos) => match slot.monitor.batch_class() {
                    Some(class) => self.plan.push(PlanEntry {
                        class,
                        cell: store.all().cell_of_point(pos),
                        idx: i as u32,
                        pos,
                    }),
                    None => {
                        self.out[i] =
                            evaluate_at(store, slot, pos, tick, scratch, Feeds::default());
                    }
                },
            }
        }

        // Pass 2: group and evaluate. The sort key ends with the lane
        // index so members evaluate in lane order within their group.
        self.plan.sort_unstable_by_key(|e| (e.class, e.cell, e.idx));
        let mut g = 0;
        while g < self.plan.len() {
            let (class, cell) = (self.plan[g].class, self.plan[g].cell);
            let mut h = g + 1;
            while h < self.plan.len() && self.plan[h].class == class && self.plan[h].cell == cell {
                h += 1;
            }
            if h - g == 1 {
                // Singleton: nothing to share, so skip the priming cost
                // and run the plain path (feeds only affect performance).
                let e = self.plan[g];
                self.out[e.idx as usize] = evaluate_at(
                    store,
                    &mut lane[e.idx as usize],
                    e.pos,
                    tick,
                    scratch,
                    Feeds::default(),
                );
            } else {
                self.groups += 1;
                self.members += (h - g) as u64;
                self.run_group(store, lane, tick, scratch, g, h, class, cell);
            }
            g = h;
        }
    }

    /// Prime the feeds over a multi-member group's read closure, then
    /// evaluate its members against the shared feeds.
    #[allow(clippy::too_many_arguments)]
    fn run_group(
        &mut self,
        store: &SpatialStore,
        lane: &mut [QuerySlot],
        tick: u64,
        scratch: &mut EvalScratch,
        g: usize,
        h: usize,
        class: BatchClass,
        cell: CellId,
    ) {
        // The cells the group may read: the union of the members' watch
        // sets plus the anchor cell. An uninitialized member publishes no
        // watch set; cells it reads beyond the union fall back to direct
        // grid reads inside the kernels.
        let grid = store.all();
        self.watch.reset(grid.num_cells());
        for e in &self.plan[g..h] {
            if let Some(w) = lane[e.idx as usize].monitor.monitored_cells() {
                self.watch.union_with(w);
            }
        }
        self.watch.insert(cell);

        // One ring-ordered priming sweep from the anchor cell, stopping
        // as soon as every watched cell is cached. Rings partition the
        // grid, so the sweep terminates with exactly the watch primed.
        let (cx, cy) = grid.cell_coords(cell);
        let target = self.watch.count();
        let mut primed = 0usize;
        'sweep: for r in 0..=max_ring_radius(grid, cx, cy) {
            for c in ring_cells(grid, cx, cy, r) {
                if !self.watch.contains(c) {
                    continue;
                }
                if class.is_bichromatic() {
                    self.feed_a.prime(store.grid_a(), c);
                    self.feed_b.prime(store.grid_b(), c);
                } else {
                    self.feed_all.prime(grid, c);
                }
                primed += 1;
                if primed == target {
                    break 'sweep;
                }
            }
        }

        let feeds = if class.is_bichromatic() {
            Feeds {
                all: None,
                a: Some(&self.feed_a),
                b: Some(&self.feed_b),
            }
        } else {
            Feeds {
                all: Some(&self.feed_all),
                a: None,
                b: None,
            }
        };
        for e in &self.plan[g..h] {
            let slot = &mut lane[e.idx as usize];
            self.out[e.idx as usize] = evaluate_at(store, slot, e.pos, tick, scratch, feeds);
        }
    }

    /// The samples of the last [`BatchEvaluator::run`], by lane index.
    pub fn samples(&self) -> &[TickSample] {
        &self.out
    }

    /// Multi-member groups formed in the last run.
    pub fn groups(&self) -> u64 {
        self.groups
    }

    /// Members that evaluated through a shared scan in the last run.
    pub fn members(&self) -> u64 {
        self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_query;
    use crate::processor::Algorithm;
    use crate::types::ObjectKind;
    use igern_geom::Aabb;
    use igern_grid::ObjectId;

    fn store(n: usize, seed: u64) -> SpatialStore {
        let mut state = seed;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
        };
        let kinds: Vec<ObjectKind> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    ObjectKind::B
                } else {
                    ObjectKind::A
                }
            })
            .collect();
        let mut s = SpatialStore::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), 8, kinds);
        let pts: Vec<Point> = (0..n).map(|_| Point::new(rnd(), rnd())).collect();
        s.load(&pts);
        s
    }

    /// Clustered queries across every batchable class must produce
    /// bit-identical samples (answers, counters, skip flags) to the
    /// per-query path, initial tick and incremental ticks alike.
    #[test]
    fn batched_run_matches_per_query_evaluation() {
        let mut s = store(120, 7);
        let algos = [
            Algorithm::IgernMono,
            Algorithm::IgernMonoK(2),
            Algorithm::IgernBi,
            Algorithm::IgernBiK(2),
            Algorithm::Crnn, // unbatchable: exercises the inline path
        ];
        // Two queries per algorithm anchored on A-objects near each other
        // so anchor cells collide and groups actually form.
        let anchors: Vec<ObjectId> = (0..s.len() as u32)
            .map(ObjectId)
            .filter(|&id| s.kind(id) == ObjectKind::A)
            .take(algos.len() * 2)
            .collect();
        let mk = || {
            anchors
                .iter()
                .enumerate()
                .map(|(i, &id)| QuerySlot::new(id, algos[i % algos.len()].make_monitor(Some(id))))
                .collect::<Vec<_>>()
        };
        let mut plain = mk();
        let mut lane = mk();
        let mut scratch = EvalScratch::default();
        let mut batch = BatchEvaluator::new();
        let mut state = 99u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for tick in 0..12 {
            batch.run(&s, &mut lane, tick, true, &mut scratch);
            for (i, slot) in plain.iter_mut().enumerate() {
                let want = evaluate_query(&s, slot, tick, true, &mut scratch);
                let got = batch.samples()[i];
                assert_eq!(got.ops, want.ops, "tick {tick} slot {i}");
                assert_eq!(got.skipped, want.skipped, "tick {tick} slot {i}");
                assert_eq!(got.answer_size, want.answer_size, "tick {tick} slot {i}");
                assert_eq!(got.monitored, want.monitored, "tick {tick} slot {i}");
                assert_eq!(
                    lane[i].answer, slot.answer,
                    "tick {tick} slot {i} answers diverge"
                );
            }
            // Jitter a third of the objects for the next tick.
            s.drain_dirty();
            for id in 0..s.len() as u32 {
                if rnd() < 0.33 {
                    if let Some(p) = s.position(ObjectId(id)) {
                        s.apply(
                            ObjectId(id),
                            Point::new(
                                (p.x + (rnd() - 0.5)).clamp(0.0, 10.0),
                                (p.y + (rnd() - 0.5)).clamp(0.0, 10.0),
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Same-cell same-class queries form shared-scan groups.
    #[test]
    fn co_located_queries_share_a_group() {
        let kinds = vec![ObjectKind::A; 6];
        let mut s = SpatialStore::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), 8, kinds);
        // Three queries in one cell, plus scattered non-query objects.
        s.load(&[
            Point::new(5.0, 5.0),
            Point::new(5.1, 5.1),
            Point::new(5.2, 5.0),
            Point::new(2.0, 8.0),
            Point::new(8.0, 2.0),
            Point::new(1.0, 1.0),
        ]);
        let mut lane: Vec<QuerySlot> = (0..3)
            .map(|i| {
                QuerySlot::new(
                    ObjectId(i),
                    Algorithm::IgernMono.make_monitor(Some(ObjectId(i))),
                )
            })
            .collect();
        let mut batch = BatchEvaluator::new();
        let mut scratch = EvalScratch::default();
        batch.run(&s, &mut lane, 0, false, &mut scratch);
        assert_eq!(batch.groups(), 1, "one anchor cell, one class");
        assert_eq!(batch.members(), 3);
        assert_eq!(batch.samples().len(), 3);
    }
}
