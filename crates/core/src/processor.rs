//! The continuous query processor: many standing RNN queries of mixed
//! algorithms evaluated over one update stream, tick by tick, with
//! per-tick metrics.
//!
//! This is the engine the experiment harness drives. At each tick the
//! caller feeds the position updates (from any `igern_mobgen` mover), the
//! processor applies them to the [`SpatialStore`], then re-evaluates every
//! registered query with its [`ContinuousMonitor`], recording a
//! [`TickSample`](crate::metrics::TickSample).
//!
//! # Dirty-region update routing
//!
//! The store journals which grid cells were touched since the last tick.
//! Before re-evaluating a query, the processor intersects the tick's
//! dirty set with the query's watched cells
//! ([`ContinuousMonitor::monitored_cells`]) plus its anchor cell; when
//! they are disjoint, the previous answer is provably still valid and the
//! query is skipped, recording a zero-cost sample marked
//! [`TickSample::skipped`](crate::metrics::TickSample::skipped). Routing is on by default and can be turned
//! off with [`Processor::set_skip_routing`] (every query then re-runs
//! every tick, the pre-routing behavior).

use std::time::Instant;

use igern_geom::Point;
use igern_grid::ObjectId;

use crate::batch::{BatchEvaluator, SlotLane};
use crate::eval::{evaluate_query, QuerySlot};
use crate::history::History;
use crate::hooks::SharedSimHooks;
use crate::monitor::{ContinuousMonitor, NullMonitor};
use crate::obs::PipelineMetrics;
use crate::scratch::EvalScratch;
use crate::store::SpatialStore;

/// Which algorithm evaluates a continuous query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// IGERN, monochromatic (Algorithms 1–2).
    IgernMono,
    /// CRNN six-pie monitoring (monochromatic).
    Crnn,
    /// Snapshot TPL re-run every tick (monochromatic).
    TplRepeat,
    /// IGERN, bichromatic (Algorithms 3–4). The query object must be of
    /// kind A.
    IgernBi,
    /// Voronoi-cell reconstruction every tick (bichromatic).
    VoronoiRepeat,
    /// IGERN generalized to reverse k-nearest neighbors, monochromatic
    /// (the journal-version extension).
    IgernMonoK(usize),
    /// IGERN generalized to reverse k-nearest neighbors, bichromatic.
    IgernBiK(usize),
    /// Plain continuous k-nearest neighbors (guard-circle monitoring) —
    /// the substrate facility of the paper's reference \[17\], offered as a
    /// processor algorithm for completeness.
    Knn(usize),
}

impl Algorithm {
    /// Whether the algorithm answers bichromatic queries.
    pub fn is_bichromatic(self) -> bool {
        matches!(
            self,
            Algorithm::IgernBi | Algorithm::VoronoiRepeat | Algorithm::IgernBiK(_)
        )
    }
}

/// One registered continuous query: the shared evaluator state plus the
/// processor-side sample log.
struct Query {
    slot: QuerySlot,
    history: History,
    /// Tombstone: the query was removed and is skipped by evaluation.
    removed: bool,
}

/// The processor's query vector as a batch-evaluation lane; tombstoned
/// slots are holes.
struct QueryLane<'a>(&'a mut [Query]);

impl SlotLane for QueryLane<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn slot(&mut self, i: usize) -> Option<&mut QuerySlot> {
        let q = &mut self.0[i];
        if q.removed {
            None
        } else {
            Some(&mut q.slot)
        }
    }
}

/// The processor.
pub struct Processor {
    store: SpatialStore,
    queries: Vec<Query>,
    tick: u64,
    skip_routing: bool,
    batch: bool,
    history_capacity: Option<usize>,
    metrics: Option<PipelineMetrics>,
    sim_hooks: Option<SharedSimHooks>,
    /// Reusable evaluation workspace for the serial path; once warm, a
    /// steady-state tick allocates nothing.
    scratch: EvalScratch,
    /// Shared-scan batch evaluator for the serial path (used when
    /// [`Processor::set_batch`] enables batching).
    batch_eval: BatchEvaluator,
}

impl Processor {
    /// Wrap a loaded store. Dirty-region skip routing starts enabled and
    /// per-query histories are unbounded.
    pub fn new(store: SpatialStore) -> Self {
        Processor {
            store,
            queries: Vec::new(),
            tick: 0,
            skip_routing: true,
            batch: false,
            history_capacity: None,
            metrics: None,
            sim_hooks: None,
            scratch: EvalScratch::new(),
            batch_eval: BatchEvaluator::new(),
        }
    }

    /// Attach (or detach, with `None`) an observability bundle. When set,
    /// every round records phase timings, per-query samples, dirty-cell
    /// counts, and §6 operation totals into the bundle's registry. The
    /// hot path pays only relaxed atomic increments; detached (the
    /// default) it pays nothing.
    pub fn set_metrics(&mut self, metrics: Option<PipelineMetrics>) {
        self.metrics = metrics;
    }

    /// The attached observability bundle, if any.
    pub fn metrics(&self) -> Option<&PipelineMetrics> {
        self.metrics.as_ref()
    }

    /// Install (or clear, with `None`) simulation fault-injection hooks
    /// (see [`crate::hooks::SimHooks`]). [`Processor::step`] fires
    /// [`on_tick`](crate::hooks::SimHooks::on_tick) and applies
    /// [`desync_targets`](crate::hooks::SimHooks::desync_targets)
    /// after updates are applied and before evaluation. Never installed
    /// in production; the disabled path costs one `Option` check.
    pub fn set_sim_hooks(&mut self, hooks: Option<SharedSimHooks>) {
        self.sim_hooks = hooks;
    }

    /// The underlying store.
    pub fn store(&self) -> &SpatialStore {
        &self.store
    }

    /// Test hook: corrupt the store's bucket state for `id` (see
    /// [`SpatialStore::debug_force_desync`]). Returns whether the object
    /// was present.
    #[doc(hidden)]
    pub fn debug_force_desync(&mut self, id: ObjectId) -> bool {
        self.store.debug_force_desync(id)
    }

    /// Enable or disable dirty-region skip routing in [`Processor::step`].
    /// Disabled, every query re-evaluates every tick (the force-evaluate
    /// oracle).
    pub fn set_skip_routing(&mut self, on: bool) {
        self.skip_routing = on;
    }

    /// Whether dirty-region skip routing is enabled.
    pub fn skip_routing(&self) -> bool {
        self.skip_routing
    }

    /// Enable or disable anchor-cell shared-scan batch evaluation on the
    /// serial path (see [`crate::batch::BatchEvaluator`]). Off by default;
    /// answers, op counters, and skip decisions are bit-identical either
    /// way — batching only changes how grid buckets are scanned.
    pub fn set_batch(&mut self, on: bool) {
        self.batch = on;
    }

    /// Whether shared-scan batch evaluation is enabled.
    pub fn batch(&self) -> bool {
        self.batch
    }

    /// Cap the per-query sample history of **subsequently added** queries
    /// at `cap` retained samples (`None` = unbounded, the default).
    /// Summary stats ([`History::stats`]) still fold every sample exactly,
    /// so eviction never changes reported aggregates.
    pub fn set_history_capacity(&mut self, cap: Option<usize>) {
        if let Some(c) = cap {
            assert!(c >= 1, "history capacity must be at least 1");
        }
        self.history_capacity = cap;
    }

    /// The history capacity applied to newly added queries.
    pub fn history_capacity(&self) -> Option<usize> {
        self.history_capacity
    }

    /// Register a continuous query anchored at moving object `obj`;
    /// returns its index.
    ///
    /// # Panics
    /// Panics when `obj` is not in the store, or when a bichromatic
    /// algorithm is requested for a non-A object.
    pub fn add_query(&mut self, obj: ObjectId, algo: Algorithm) -> usize {
        self.add_query_in(obj, algo, crate::types::DistanceMode::Euclidean)
    }

    /// [`Processor::add_query`] with an explicit distance mode; returns
    /// the query's index.
    ///
    /// # Panics
    /// Panics under the [`Processor::add_query`] conditions, and
    /// additionally when network mode is requested but the store has no
    /// attached road network (see `SpatialStore::set_network`).
    pub fn add_query_in(
        &mut self,
        obj: ObjectId,
        algo: Algorithm,
        mode: crate::types::DistanceMode,
    ) -> usize {
        if algo.is_bichromatic() {
            assert_eq!(
                self.store.kind(obj),
                crate::types::ObjectKind::A,
                "bichromatic query object must be of kind A"
            );
        }
        if let Algorithm::IgernMonoK(k) | Algorithm::IgernBiK(k) | Algorithm::Knn(k) = algo {
            assert!(k >= 1, "k must be positive");
        }
        if mode == crate::types::DistanceMode::Network {
            assert!(
                self.store.network().is_some(),
                "network-mode query requires a store with an attached road network"
            );
        }
        self.add_query_with(obj, algo.make_monitor_in(mode, Some(obj)))
    }

    /// Register a continuous query evaluated by a caller-supplied
    /// monitor (e.g. a custom [`ContinuousMonitor`] implementation);
    /// returns its index. Tombstoned slots are reused, so the index of a
    /// previously removed query may be handed out again.
    ///
    /// # Panics
    /// Panics when `obj` is not in the store.
    pub fn add_query_with(&mut self, obj: ObjectId, monitor: Box<dyn ContinuousMonitor>) -> usize {
        assert!(
            self.store.position(obj).is_some(),
            "query object {obj} not in store"
        );
        let q = Query {
            slot: QuerySlot::new(obj, monitor),
            history: History::with_capacity(self.history_capacity),
            removed: false,
        };
        match self.queries.iter().position(|slot| slot.removed) {
            Some(i) => {
                // Hand the tombstone's (cleared) answer buffer to the new
                // tenant so slot churn does not reallocate it.
                let old = std::mem::replace(&mut self.queries[i], q);
                let mut buf = old.slot.answer;
                buf.clear();
                self.queries[i].slot.answer = buf;
                i
            }
            None => {
                self.queries.push(q);
                self.queries.len() - 1
            }
        }
    }

    /// Drop a registered query, freeing its monitor state and history
    /// allocations (the answer buffer is kept for the slot's next
    /// tenant). Indices of other queries are stable (the slot is
    /// tombstoned until [`Processor::add_query`] reuses it); accessing a
    /// removed query panics.
    pub fn remove_query(&mut self, i: usize) {
        assert!(!self.queries[i].removed, "query {i} already removed");
        let q = &mut self.queries[i];
        q.removed = true;
        q.slot.initialized = false;
        q.slot.monitor = Box::new(NullMonitor);
        // Keep the answer buffer's allocation for the slot's next tenant;
        // clearing empties the visible answer just the same.
        q.slot.answer.clear();
        q.history = History::unbounded();
    }

    /// Insert a new moving object into the store at runtime.
    pub fn insert_object(&mut self, id: ObjectId, kind: crate::types::ObjectKind, pos: Point) {
        self.store.insert(id, kind, pos);
    }

    /// Remove a moving object from the store at runtime.
    ///
    /// # Panics
    /// Panics if a live query is anchored at the object.
    pub fn remove_object(&mut self, id: ObjectId) -> Option<Point> {
        assert!(
            !self.queries.iter().any(|q| !q.removed && q.slot.obj == id),
            "cannot remove the anchor of a live query"
        );
        self.store.remove(id)
    }

    /// Apply a single position update without ticking. The touched cells
    /// stay in the store's dirty journal until the next
    /// [`Processor::step`] / [`Processor::evaluate_all`] closes the
    /// round, so skip routing remains sound: streaming ingesters (the
    /// network server) apply updates one by one as they arrive and then
    /// call `step(&[])` to evaluate the accumulated batch.
    pub fn apply_update(&mut self, id: ObjectId, pos: Point) {
        self.store.apply(id, pos);
        if let Some(m) = &self.metrics {
            m.updates_total.inc();
        }
    }

    /// Apply one tick of updates and re-evaluate every query, skipping
    /// those whose watched cells saw no update (when routing is on).
    pub fn step(&mut self, updates: &[(ObjectId, Point)]) {
        self.apply_updates(updates);
        self.tick += 1;
        self.fire_tick_hooks();
        self.evaluate_round(self.skip_routing);
    }

    /// Fire the pre-evaluation injection points of any installed
    /// [`SimHooks`](crate::hooks::SimHooks): `on_tick`, then the tick's
    /// scripted grid desyncs.
    fn fire_tick_hooks(&mut self) {
        if let Some(h) = self.sim_hooks.clone() {
            h.on_tick(self.tick);
            for id in h.desync_targets(self.tick) {
                self.store.debug_force_desync(id);
            }
        }
    }

    /// Apply-updates phase shared by the serial and parallel steps: one
    /// batched pass over the tick's deltas (see
    /// [`SpatialStore::apply_batch`]).
    fn apply_updates(&mut self, updates: &[(ObjectId, Point)]) {
        let start = self.metrics.is_some().then(Instant::now);
        self.store.apply_batch(updates);
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.apply_seconds.observe_duration(t0.elapsed());
            m.updates_total.add(updates.len() as u64);
        }
    }

    /// Observations taken once per round, just before the journal drain.
    fn observe_round(&self, eval_start: Option<Instant>) {
        if let Some(m) = &self.metrics {
            if let Some(t0) = eval_start {
                m.evaluate_seconds.observe_duration(t0.elapsed());
            }
            m.dirty_cells.observe(self.store.dirty_all().count() as f64);
            m.ticks_total.inc();
        }
    }

    /// Evaluate all queries against the current store state without
    /// applying updates, ignoring skip routing (used for the initial
    /// evaluation at T₀ and as the force-evaluate oracle).
    pub fn evaluate_all(&mut self) {
        self.evaluate_round(false);
    }

    fn evaluate_round(&mut self, route: bool) {
        let tick = self.tick;
        let eval_start = self.metrics.is_some().then(Instant::now);
        // Queries borrow the store immutably; detach the vector to satisfy
        // the borrow checker without cloning the store.
        let mut queries = std::mem::take(&mut self.queries);
        if self.batch {
            let mut lane = QueryLane(&mut queries);
            self.batch_eval
                .run(&self.store, &mut lane, tick, route, &mut self.scratch);
            for (q, sample) in queries.iter_mut().zip(self.batch_eval.samples()) {
                if let Some(sample) = sample {
                    if let Some(m) = &self.metrics {
                        m.record_sample(sample);
                    }
                    q.history.push(*sample);
                }
            }
            if let Some(m) = &self.metrics {
                m.batch_groups_total.add(self.batch_eval.groups());
                m.batch_members_total.add(self.batch_eval.members());
            }
        } else {
            for q in &mut queries {
                if !q.removed {
                    let sample =
                        evaluate_query(&self.store, &mut q.slot, tick, route, &mut self.scratch);
                    if let Some(m) = &self.metrics {
                        m.record_sample(&sample);
                    }
                    q.history.push(sample);
                }
            }
        }
        self.queries = queries;
        self.observe_round(eval_start);
        // Close out the journal: the next tick's dirt starts from here.
        self.store.drain_dirty();
    }

    /// Current tick count (number of `step`/`evaluate_all` rounds).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Latest answer of query `i`, sorted by object id.
    ///
    /// # Panics
    /// Panics when the query was removed.
    pub fn answer(&self, i: usize) -> &[ObjectId] {
        assert!(!self.queries[i].removed, "query {i} was removed");
        &self.queries[i].slot.answer
    }

    /// Number of objects query `i` currently monitors.
    pub fn monitored(&self, i: usize) -> usize {
        self.queries[i].slot.monitored
    }

    /// Per-tick history of query `i` (a ring when a capacity is set; the
    /// embedded stats always cover every tick).
    pub fn history(&self, i: usize) -> &History {
        &self.queries[i].history
    }

    /// The query object of query `i`.
    pub fn query_object(&self, i: usize) -> ObjectId {
        self.queries[i].slot.obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::types::ObjectKind;
    use igern_geom::Aabb;

    /// Build a loaded store with the first `n_a` objects of kind A.
    fn store(points: &[(f64, f64)], n_a: usize) -> SpatialStore {
        let kinds = (0..points.len())
            .map(|i| {
                if i < n_a {
                    ObjectKind::A
                } else {
                    ObjectKind::B
                }
            })
            .collect();
        let mut s = SpatialStore::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), 8, kinds);
        let pts: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        s.load(&pts);
        s
    }

    #[test]
    fn mono_algorithms_agree_with_each_other_and_the_oracle() {
        let pts = [
            (5.0, 5.0),
            (4.0, 5.0),
            (6.5, 5.0),
            (5.0, 8.0),
            (1.0, 1.0),
            (9.0, 2.0),
        ];
        let mut p = Processor::new(store(&pts, pts.len()));
        let qi = p.add_query(ObjectId(0), Algorithm::IgernMono);
        let qc = p.add_query(ObjectId(0), Algorithm::Crnn);
        let qt = p.add_query(ObjectId(0), Algorithm::TplRepeat);
        p.evaluate_all();
        let objs: Vec<(ObjectId, Point)> = p.store().all().iter().collect();
        let want = naive::mono_rnn(&objs, Point::new(5.0, 5.0), Some(ObjectId(0)));
        assert_eq!(p.answer(qi), want.as_slice());
        assert_eq!(p.answer(qc), want.as_slice());
        assert_eq!(p.answer(qt), want.as_slice());
    }

    #[test]
    fn bi_algorithms_agree_over_a_moving_stream() {
        // 3 A objects (ids 0..3), 5 B objects (ids 3..8); query at object 0.
        let pts = [
            (5.0, 5.0),
            (2.0, 2.0),
            (8.0, 8.0),
            (4.0, 5.0),
            (6.0, 6.0),
            (1.0, 9.0),
            (9.0, 1.0),
            (5.0, 3.0),
        ];
        let mut p = Processor::new(store(&pts, 3));
        let qi = p.add_query(ObjectId(0), Algorithm::IgernBi);
        let qv = p.add_query(ObjectId(0), Algorithm::VoronoiRepeat);
        p.evaluate_all();
        assert_eq!(p.answer(qi), p.answer(qv));
        // Drift every object a little for a few ticks.
        let mut state = 9u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        for _ in 0..10 {
            let ups: Vec<(ObjectId, Point)> = (0..8u32)
                .map(|i| {
                    let cur = p.store().position(ObjectId(i)).unwrap();
                    (
                        ObjectId(i),
                        Point::new(
                            (cur.x + rnd()).clamp(0.0, 10.0),
                            (cur.y + rnd()).clamp(0.0, 10.0),
                        ),
                    )
                })
                .collect();
            p.step(&ups);
            assert_eq!(p.answer(qi), p.answer(qv));
            let a: Vec<(ObjectId, Point)> = p.store().grid_a().iter().collect();
            let b: Vec<(ObjectId, Point)> = p.store().grid_b().iter().collect();
            let qpos = p.store().position(ObjectId(0)).unwrap();
            assert_eq!(
                p.answer(qi),
                naive::bi_rnn(&a, &b, qpos, Some(ObjectId(0))).as_slice()
            );
        }
    }

    #[test]
    fn history_accumulates_one_sample_per_tick() {
        let pts = [(5.0, 5.0), (4.0, 4.0), (6.0, 6.0)];
        let mut p = Processor::new(store(&pts, 3));
        let q = p.add_query(ObjectId(0), Algorithm::IgernMono);
        p.evaluate_all();
        p.step(&[(ObjectId(1), Point::new(4.5, 4.5))]);
        p.step(&[]);
        assert_eq!(p.history(q).len(), 3);
        assert_eq!(p.history(q)[0].tick, 0);
        assert_eq!(p.history(q)[2].tick, 2);
        assert_eq!(p.tick(), 2);
        assert_eq!(p.query_object(q), ObjectId(0));
    }

    #[test]
    fn k_rnn_queries_match_the_k_oracles() {
        let pts = [
            (5.0, 5.0),
            (4.0, 5.0),
            (4.5, 5.0),
            (6.5, 5.0),
            (5.0, 8.0),
            (1.0, 1.0),
            (9.0, 2.0),
            (2.0, 8.0),
        ];
        let mut p = Processor::new(store(&pts, 4));
        let q2 = p.add_query(ObjectId(0), Algorithm::IgernMonoK(2));
        let qb2 = p.add_query(ObjectId(0), Algorithm::IgernBiK(2));
        p.evaluate_all();
        p.step(&[(ObjectId(3), Point::new(5.5, 5.2))]);
        let objs: Vec<(ObjectId, Point)> = p.store().all().iter().collect();
        let a: Vec<(ObjectId, Point)> = p.store().grid_a().iter().collect();
        let b: Vec<(ObjectId, Point)> = p.store().grid_b().iter().collect();
        let qpos = p.store().position(ObjectId(0)).unwrap();
        assert_eq!(
            p.answer(q2),
            naive::mono_rknn(&objs, qpos, Some(ObjectId(0)), 2).as_slice()
        );
        assert_eq!(
            p.answer(qb2),
            naive::bi_rknn(&a, &b, qpos, Some(ObjectId(0)), 2).as_slice()
        );
    }

    #[test]
    fn knn_queries_run_through_the_processor() {
        let pts = [(5.0, 5.0), (4.0, 5.0), (6.5, 5.0), (5.0, 8.0), (1.0, 1.0)];
        let mut p = Processor::new(store(&pts, pts.len()));
        let h = p.add_query(ObjectId(0), Algorithm::Knn(2));
        p.evaluate_all();
        // The two nearest to (5,5) are objects 1 (d=1) and 2 (d=1.5),
        // reported sorted by id.
        assert_eq!(p.answer(h), &[ObjectId(1), ObjectId(2)]);
        p.step(&[(ObjectId(4), Point::new(5.2, 5.0))]);
        assert_eq!(p.answer(h), &[ObjectId(1), ObjectId(4)]);
        assert_eq!(p.monitored(h), 2);
    }

    #[test]
    fn removed_queries_are_skipped() {
        let pts = [(5.0, 5.0), (4.0, 4.0), (6.0, 6.0)];
        let mut p = Processor::new(store(&pts, 3));
        let a = p.add_query(ObjectId(0), Algorithm::IgernMono);
        let b = p.add_query(ObjectId(1), Algorithm::IgernMono);
        p.evaluate_all();
        p.remove_query(a);
        p.step(&[]);
        // The surviving query keeps accumulating history.
        assert_eq!(p.history(b).len(), 2);
        assert_eq!(p.query_object(b), ObjectId(1));
    }

    #[test]
    #[should_panic(expected = "was removed")]
    fn removed_query_answer_panics() {
        let pts = [(5.0, 5.0), (4.0, 4.0)];
        let mut p = Processor::new(store(&pts, 2));
        let a = p.add_query(ObjectId(0), Algorithm::IgernMono);
        p.evaluate_all();
        p.remove_query(a);
        let _ = p.answer(a);
    }

    #[test]
    fn dynamic_population_is_tracked_exactly() {
        let pts = [(5.0, 5.0), (4.0, 5.0), (8.0, 8.0)];
        let mut p = Processor::new(store(&pts, 3));
        let h = p.add_query(ObjectId(0), Algorithm::IgernMono);
        p.evaluate_all();
        // A brand-new object appears right next to the query.
        p.insert_object(ObjectId(50), ObjectKind::A, Point::new(5.4, 5.0));
        p.step(&[]);
        let objs: Vec<(ObjectId, Point)> = p.store().all().iter().collect();
        let want = naive::mono_rnn(&objs, Point::new(5.0, 5.0), Some(ObjectId(0)));
        assert_eq!(p.answer(h), want.as_slice());
        assert!(p.answer(h).contains(&ObjectId(50)));
        // And disappears again (e.g. logs out).
        p.remove_object(ObjectId(50));
        p.step(&[]);
        let objs: Vec<(ObjectId, Point)> = p.store().all().iter().collect();
        let want = naive::mono_rnn(&objs, Point::new(5.0, 5.0), Some(ObjectId(0)));
        assert_eq!(p.answer(h), want.as_slice());
        assert!(!p.answer(h).contains(&ObjectId(50)));
    }

    #[test]
    fn tombstoned_slots_are_reused() {
        let pts = [(5.0, 5.0), (4.0, 4.0), (6.0, 6.0)];
        let mut p = Processor::new(store(&pts, 3));
        let a = p.add_query(ObjectId(0), Algorithm::IgernMono);
        let b = p.add_query(ObjectId(1), Algorithm::IgernMono);
        p.evaluate_all();
        p.remove_query(a);
        let c = p.add_query(ObjectId(2), Algorithm::Knn(1));
        assert_eq!(c, a, "removed slot must be handed out again");
        assert_ne!(c, b);
        assert_eq!(p.num_queries(), 2);
        p.step(&[]);
        assert_eq!(p.query_object(c), ObjectId(2));
        assert_eq!(p.history(c).len(), 1, "fresh query, fresh history");
    }

    #[test]
    fn bounded_history_keeps_stats_exact() {
        let pts = [(5.0, 5.0), (4.0, 4.0), (6.0, 6.0)];
        let mut p = Processor::new(store(&pts, 3));
        assert_eq!(p.history_capacity(), None);
        p.set_history_capacity(Some(2));
        assert_eq!(p.history_capacity(), Some(2));
        let q = p.add_query(ObjectId(0), Algorithm::IgernMono);
        p.evaluate_all();
        for i in 0..5 {
            p.step(&[(ObjectId(1), Point::new(4.0 + 0.1 * i as f64, 4.0))]);
        }
        let h = p.history(q);
        // Only the last two samples are retained…
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].tick, 4);
        assert_eq!(h[1].tick, 5);
        // …but the aggregate folded all six (initial + five steps).
        assert_eq!(h.total(), 6);
        assert_eq!(h.stats().len(), 6);
    }

    #[test]
    fn localized_updates_skip_untouched_queries() {
        // Query cluster near the center; spectators in the far corner.
        let pts = [(5.0, 5.0), (4.5, 5.0), (5.5, 5.0), (9.5, 9.5), (9.0, 9.5)];
        let mut p = Processor::new(store(&pts, pts.len()));
        let h = p.add_query(ObjectId(0), Algorithm::IgernMono);
        p.evaluate_all();
        assert!(!p.history(h)[0].skipped, "initial step always evaluates");
        // A far-corner move touches no watched cell: skipped, zero cost.
        p.step(&[(ObjectId(3), Point::new(9.4, 9.4))]);
        let s = p.history(h)[1];
        assert!(s.skipped);
        assert_eq!(s.elapsed, std::time::Duration::ZERO);
        assert_eq!(s.ops.nn + s.ops.nn_b + s.ops.verifications, 0);
        let objs: Vec<(ObjectId, Point)> = p.store().all().iter().collect();
        let want = naive::mono_rnn(&objs, Point::new(5.0, 5.0), Some(ObjectId(0)));
        assert_eq!(p.answer(h), want.as_slice(), "reused answer still right");
        // A candidate move lands in the watch: evaluated.
        p.step(&[(ObjectId(1), Point::new(4.4, 5.1))]);
        assert!(!p.history(h)[2].skipped);
        // Quiet tick: everything (even snapshots) skips.
        let t = p.add_query(ObjectId(0), Algorithm::TplRepeat);
        p.step(&[]);
        p.step(&[]);
        let th = p.history(t);
        assert!(th[th.len() - 1].skipped);
        assert!(p.history(h)[4].skipped);
    }

    #[test]
    fn disabling_skip_routing_forces_every_tick() {
        let pts = [(5.0, 5.0), (4.5, 5.0), (9.5, 9.5)];
        let mut p = Processor::new(store(&pts, 3));
        assert!(p.skip_routing());
        p.set_skip_routing(false);
        assert!(!p.skip_routing());
        let h = p.add_query(ObjectId(0), Algorithm::IgernMono);
        p.evaluate_all();
        p.step(&[]);
        p.step(&[(ObjectId(2), Point::new(9.4, 9.4))]);
        assert!(p.history(h).iter().all(|s| !s.skipped));
    }

    #[test]
    fn routed_and_forced_processors_agree_over_a_stream() {
        let pts: Vec<(f64, f64)> = (0..30)
            .map(|i| ((i * 7 % 30) as f64 / 3.0, (i * 11 % 30) as f64 / 3.0))
            .collect();
        let mk = |routing| {
            let mut p = Processor::new(store(&pts, 20));
            p.set_skip_routing(routing);
            p.add_query(ObjectId(0), Algorithm::IgernMono);
            p.add_query(ObjectId(0), Algorithm::Crnn);
            p.add_query(ObjectId(0), Algorithm::IgernBi);
            p.add_query(ObjectId(0), Algorithm::IgernMonoK(2));
            p.add_query(ObjectId(0), Algorithm::Knn(3));
            p.evaluate_all();
            p
        };
        let mut routed = mk(true);
        let mut forced = mk(false);
        let mut state = 77u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for tick in 0..30 {
            // Localized updates: only objects 20..30 (far half) move on
            // most ticks, so center queries get skippable ticks.
            let lo = if tick % 4 == 0 { 0 } else { 20 };
            let mut ups: Vec<(ObjectId, Point)> = Vec::new();
            for i in lo..30u32 {
                if rnd() < 0.5 {
                    let cur = routed.store().position(ObjectId(i)).unwrap();
                    ups.push((
                        ObjectId(i),
                        Point::new(
                            (cur.x + rnd() - 0.5).clamp(0.0, 10.0),
                            (cur.y + rnd() - 0.5).clamp(0.0, 10.0),
                        ),
                    ));
                }
            }
            routed.step(&ups);
            forced.step(&ups);
            for qi in 0..5 {
                assert_eq!(
                    routed.answer(qi),
                    forced.answer(qi),
                    "query {qi} tick {tick}"
                );
            }
        }
    }

    #[test]
    fn batched_processor_matches_per_query_processor() {
        let pts: Vec<(f64, f64)> = (0..30)
            .map(|i| ((i * 7 % 30) as f64 / 3.0, (i * 11 % 30) as f64 / 3.0))
            .collect();
        let mk = |batch| {
            let mut p = Processor::new(store(&pts, 20));
            p.set_batch(batch);
            assert_eq!(p.batch(), batch);
            p.add_query(ObjectId(0), Algorithm::IgernMono);
            p.add_query(ObjectId(0), Algorithm::IgernMonoK(2));
            p.add_query(ObjectId(0), Algorithm::IgernBi);
            p.add_query(ObjectId(0), Algorithm::IgernBiK(2));
            p.add_query(ObjectId(1), Algorithm::IgernMono);
            p.add_query(ObjectId(0), Algorithm::Crnn);
            p.evaluate_all();
            p
        };
        let mut plain = mk(false);
        let mut batched = mk(true);
        let mut state = 123u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for tick in 0..20 {
            let mut ups: Vec<(ObjectId, Point)> = Vec::new();
            for i in 0..30u32 {
                if rnd() < 0.4 {
                    let cur = plain.store().position(ObjectId(i)).unwrap();
                    ups.push((
                        ObjectId(i),
                        Point::new(
                            (cur.x + rnd() - 0.5).clamp(0.0, 10.0),
                            (cur.y + rnd() - 0.5).clamp(0.0, 10.0),
                        ),
                    ));
                }
            }
            if tick == 7 {
                plain.remove_query(4);
                batched.remove_query(4);
            }
            plain.step(&ups);
            batched.step(&ups);
            for qi in [0usize, 1, 2, 3, 5] {
                assert_eq!(
                    plain.answer(qi),
                    batched.answer(qi),
                    "query {qi} tick {tick}"
                );
                let (ph, bh) = (plain.history(qi), batched.history(qi));
                let (a, b) = (ph[ph.len() - 1], bh[bh.len() - 1]);
                assert_eq!(a.skipped, b.skipped, "query {qi} tick {tick}");
                assert_eq!(a.ops, b.ops, "query {qi} tick {tick}");
                assert_eq!(a.monitored, b.monitored, "query {qi} tick {tick}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "anchor of a live query")]
    fn cannot_remove_query_anchor() {
        let pts = [(5.0, 5.0), (4.0, 4.0)];
        let mut p = Processor::new(store(&pts, 2));
        p.add_query(ObjectId(0), Algorithm::IgernMono);
        p.remove_object(ObjectId(0));
    }

    #[test]
    #[should_panic(expected = "must be of kind A")]
    fn bichromatic_query_must_be_kind_a() {
        let pts = [(5.0, 5.0), (4.0, 4.0)];
        let mut p = Processor::new(store(&pts, 1));
        p.add_query(ObjectId(1), Algorithm::IgernBi);
    }
}
