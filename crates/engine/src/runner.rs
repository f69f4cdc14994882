//! [`TickRunner`] — the one tick loop.
//!
//! # Dirty-region update routing
//!
//! The store journals which grid cells were touched since the last tick.
//! Before re-evaluating a query, the per-query step intersects the tick's
//! dirty set with the query's watched cells
//! ([`ContinuousMonitor::monitored_cells`]) plus its anchor cell; when
//! they are disjoint, the previous answer is provably still valid and the
//! query is skipped, recording a zero-cost sample marked
//! [`TickSample::skipped`](igern_core::metrics::TickSample::skipped).
//! Routing is on by default and can be turned off with
//! [`TickRunner::set_skip_routing`] (every query then re-runs every tick).
//!
//! # Shards
//!
//! A round never moves a query or the store between threads: every shard
//! is evaluated in place, borrowing the store immutably for the length of
//! [`std::thread::scope`]. The scope's join is the only synchronisation —
//! when it returns, the runner holds the store and every shard
//! exclusively again, and a shard that panicked has turned into a panic
//! of the round. With one worker there is no scope and no thread: the
//! single shard runs as a plain loop on the caller.

use std::time::Instant;

use igern_core::eval::{evaluate_query, QuerySlot};
use igern_core::history::History;
use igern_core::hooks::{SharedSimHooks, SimHooks};
use igern_core::obs::MetricsRegistry;
use igern_core::processor::Algorithm;
use igern_core::{ContinuousMonitor, DistanceMode, EvalScratch, ObjectKind, SpatialStore};
use igern_geom::Point;
use igern_grid::ObjectId;

use crate::{EngineError, EngineMetrics, Placement};

/// One disjoint share of the standing queries, evaluated as a unit. The
/// three vectors are parallel and kept in ascending query-id order, so a
/// shard always evaluates its queries in the same order.
#[derive(Default)]
struct Shard {
    qids: Vec<usize>,
    slots: Vec<QuerySlot>,
    histories: Vec<History>,
    /// Reusable evaluation workspace; once warm, a steady-state tick
    /// allocates nothing.
    scratch: EvalScratch,
}

impl Shard {
    fn insert(&mut self, qid: usize, slot: QuerySlot, history: History) {
        let at = self.qids.partition_point(|&id| id < qid);
        self.qids.insert(at, qid);
        self.slots.insert(at, slot);
        self.histories.insert(at, history);
    }

    fn remove(&mut self, at: usize) -> (usize, QuerySlot, History) {
        (
            self.qids.remove(at),
            self.slots.remove(at),
            self.histories.remove(at),
        )
    }

    /// Evaluate every query of the shard against the frozen `store` and
    /// log one sample each.
    fn run(
        &mut self,
        worker: usize,
        store: &SpatialStore,
        tick: u64,
        route: bool,
        hooks: Option<&dyn SimHooks>,
        metrics: Option<&EngineMetrics>,
    ) {
        if let Some(h) = hooks {
            h.on_worker_shard(worker, tick);
        }
        let start = metrics.is_some().then(Instant::now);
        for (slot, history) in self.slots.iter_mut().zip(&mut self.histories) {
            let sample = evaluate_query(store, slot, tick, route, &mut self.scratch);
            if let Some(m) = metrics {
                m.pipeline.record_sample(&sample);
            }
            history.push(sample);
        }
        if let (Some(m), Some(t0)) = (metrics, start) {
            m.worker_tick_seconds[worker].observe_duration(t0.elapsed());
        }
    }
}

/// The tick runner: a store, the standing queries registered against it,
/// and the loop that re-evaluates them tick by tick.
pub struct TickRunner {
    store: SpatialStore,
    shards: Vec<Shard>,
    /// Query id → owning shard; `None` is a tombstone whose id the next
    /// registration reuses.
    owner: Vec<Option<usize>>,
    placement: Placement,
    rr_cursor: usize,
    tick: u64,
    skip_routing: bool,
    history_capacity: Option<usize>,
    metrics: Option<EngineMetrics>,
    sim_hooks: Option<SharedSimHooks>,
}

impl TickRunner {
    /// Wrap a loaded store, splitting future queries over `workers`
    /// shards. Dirty-region skip routing starts enabled and per-query
    /// histories unbounded.
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    pub fn new(store: SpatialStore, workers: usize, placement: Placement) -> Self {
        assert!(workers >= 1, "need at least one worker");
        TickRunner {
            store,
            shards: (0..workers).map(|_| Shard::default()).collect(),
            owner: Vec::new(),
            placement,
            rr_cursor: 0,
            tick: 0,
            skip_routing: true,
            history_capacity: None,
            metrics: None,
            sim_hooks: None,
        }
    }

    /// Number of shards (evaluation threads per round, the caller's
    /// included).
    pub fn num_workers(&self) -> usize {
        self.shards.len()
    }

    /// Live queries per shard.
    pub fn worker_loads(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.qids.len()).collect()
    }

    /// The underlying store.
    pub fn store(&self) -> &SpatialStore {
        &self.store
    }

    /// Enable or disable dirty-region skip routing in
    /// [`TickRunner::step`]. Disabled, every query re-evaluates every
    /// tick (the force-evaluate oracle).
    pub fn set_skip_routing(&mut self, on: bool) {
        self.skip_routing = on;
    }

    /// Does nothing: there is one evaluation path, and no batch setting
    /// left to switch. Kept only because `benchmark/src/offline.rs` still
    /// calls it for its `batch.off` / `batch.on` variant runs.
    pub fn set_batch(&mut self, _on: bool) {}

    /// Cap the per-query sample history of **subsequently added** queries
    /// at `cap` retained samples (`None` = unbounded, the default).
    /// Summary stats ([`History::stats`]) still fold every sample exactly,
    /// so eviction never changes reported aggregates.
    ///
    /// # Panics
    /// Panics when `cap` is `Some(0)`.
    pub fn set_history_capacity(&mut self, cap: Option<usize>) {
        if let Some(c) = cap {
            assert!(c >= 1, "history capacity must be at least 1");
        }
        self.history_capacity = cap;
    }

    /// Register the runner's instruments under `prefix` and start
    /// recording: every round then logs phase timings, per-query samples,
    /// dirty-cell counts, §6 operation totals, and the per-shard series
    /// of [`EngineMetrics`]. The hot path pays only relaxed atomic
    /// increments; unattached (the default) it pays nothing.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry, prefix: &str) {
        self.metrics = Some(EngineMetrics::register(
            registry,
            prefix,
            self.num_workers(),
        ));
    }

    /// Install (or clear, with `None`) simulation fault-injection hooks
    /// (see [`SimHooks`]). [`TickRunner::step`] fires `on_tick` and
    /// applies `desync_targets` after updates are applied and before
    /// evaluation; each shard fires `on_worker_shard` before evaluating.
    /// Never installed in production; the disabled path costs one
    /// `Option` check.
    pub fn set_sim_hooks(&mut self, hooks: Option<SharedSimHooks>) {
        self.sim_hooks = hooks;
    }

    /// Test hook: corrupt the store's bucket state for `id` (see
    /// `SpatialStore::debug_force_desync`). Returns whether the object
    /// was present.
    #[doc(hidden)]
    pub fn debug_force_desync(&mut self, id: ObjectId) -> bool {
        self.store.debug_force_desync(id)
    }

    /// Register a continuous query anchored at moving object `obj`;
    /// returns its index.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`] when `obj` is not in the store;
    /// [`EngineError::NotKindA`] when a bichromatic algorithm is
    /// requested for a non-A object; [`EngineError::ZeroK`] when a
    /// k-variant algorithm is given `k == 0`.
    pub fn add_query(&mut self, obj: ObjectId, algo: Algorithm) -> Result<usize, EngineError> {
        self.add_query_in(obj, algo, DistanceMode::Euclidean)
    }

    /// [`TickRunner::add_query`] with an explicit distance mode.
    ///
    /// # Errors
    /// As [`TickRunner::add_query`], plus [`EngineError::NoNetwork`]
    /// when [`DistanceMode::Network`] is requested on a store without an
    /// attached road network (see `SpatialStore::set_network`).
    pub fn add_query_in(
        &mut self,
        obj: ObjectId,
        algo: Algorithm,
        mode: DistanceMode,
    ) -> Result<usize, EngineError> {
        if self.store.position(obj).is_none() {
            return Err(EngineError::UnknownObject(obj));
        }
        if algo.is_bichromatic() && self.store.kind(obj) != ObjectKind::A {
            return Err(EngineError::NotKindA(obj));
        }
        if let Algorithm::IgernMonoK(0) | Algorithm::IgernBiK(0) | Algorithm::Knn(0) = algo {
            return Err(EngineError::ZeroK);
        }
        if mode == DistanceMode::Network && self.store.network().is_none() {
            return Err(EngineError::NoNetwork);
        }
        self.add_query_with(obj, algo.make_monitor_in(mode, Some(obj)))
    }

    /// Register a continuous query evaluated by a caller-supplied
    /// monitor (e.g. a custom [`ContinuousMonitor`] implementation);
    /// returns its index. The lowest tombstoned index is reused first, so
    /// the index of a previously removed query may be handed out again.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`] when `obj` is not in the store.
    pub fn add_query_with(
        &mut self,
        obj: ObjectId,
        monitor: Box<dyn ContinuousMonitor>,
    ) -> Result<usize, EngineError> {
        let pos = self
            .store
            .position(obj)
            .ok_or(EngineError::UnknownObject(obj))?;
        let grid = self.store.all();
        let worker = self.placement.pick(
            grid.cell_of_point(pos),
            grid.num_cells(),
            &self.worker_loads(),
            &mut self.rr_cursor,
        );
        let qid = match self.owner.iter().position(Option::is_none) {
            Some(i) => i,
            None => {
                self.owner.push(None);
                self.owner.len() - 1
            }
        };
        self.owner[qid] = Some(worker);
        self.shards[worker].insert(
            qid,
            QuerySlot::new(obj, monitor),
            History::with_capacity(self.history_capacity),
        );
        self.rebalance();
        Ok(qid)
    }

    /// Drop a registered query, freeing its monitor state and history.
    /// Indices of other queries are stable (the index is tombstoned until
    /// a registration reuses it); accessing a removed query panics.
    ///
    /// # Panics
    /// Panics when the query was already removed.
    pub fn remove_query(&mut self, i: usize) {
        let worker = self.owner[i]
            .take()
            .unwrap_or_else(|| panic!("query {i} already removed"));
        let shard = &mut self.shards[worker];
        let at = shard
            .qids
            .binary_search(&i)
            .expect("owning shard holds the query");
        shard.remove(at);
        self.rebalance();
    }

    /// Migrate queries off the fullest shard until the placement policy
    /// is satisfied. Deterministic: highest query id moves first, ties on
    /// load break toward the lowest worker id.
    fn rebalance(&mut self) {
        let mut migrated = 0u64;
        loop {
            let loads = || self.shards.iter().map(|s| s.qids.len()).enumerate();
            let (max_w, max) = loads()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .expect("at least one shard");
            let (min_w, min) = loads()
                .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
                .expect("at least one shard");
            if !self.placement.needs_rebalance(min, max) {
                if let (Some(m), 1..) = (&self.metrics, migrated) {
                    m.rebalance_total.inc();
                    m.migrations_total.add(migrated);
                }
                return;
            }
            let (qid, slot, history) = self.shards[max_w].remove(max - 1);
            self.shards[min_w].insert(qid, slot, history);
            self.owner[qid] = Some(min_w);
            migrated += 1;
        }
    }

    /// Insert a new moving object into the store at runtime.
    pub fn insert_object(&mut self, id: ObjectId, kind: ObjectKind, pos: Point) {
        self.store.insert(id, kind, pos);
    }

    /// Remove a moving object from the store at runtime.
    ///
    /// # Panics
    /// Panics if a live query is anchored at the object — callers that
    /// take ids from untrusted input must check first.
    pub fn remove_object(&mut self, id: ObjectId) -> Option<Point> {
        assert!(
            !self
                .shards
                .iter()
                .any(|s| s.slots.iter().any(|q| q.obj == id)),
            "cannot remove the anchor of a live query"
        );
        self.store.remove(id)
    }

    /// Apply a single position update without ticking. The touched cells
    /// stay in the store's dirty journal until the next
    /// [`TickRunner::step`] / [`TickRunner::evaluate_all`] closes the
    /// round, so skip routing remains sound: streaming ingesters (the
    /// network server) apply updates one by one as they arrive and then
    /// call `step(&[])` to evaluate the accumulated batch.
    pub fn apply_update(&mut self, id: ObjectId, pos: Point) {
        self.store.apply(id, pos);
        if let Some(m) = &self.metrics {
            m.pipeline.updates_total.inc();
        }
    }

    /// Apply one tick of updates and re-evaluate every query, skipping
    /// those whose watched cells saw no update (when routing is on).
    /// Returns once every shard has finished; a panic inside any shard
    /// panics here.
    pub fn step(&mut self, updates: &[(ObjectId, Point)]) {
        let start = self.metrics.is_some().then(Instant::now);
        self.store.apply_batch(updates);
        if let (Some(m), Some(t0)) = (&self.metrics, start) {
            m.pipeline.apply_seconds.observe_duration(t0.elapsed());
            m.pipeline.updates_total.add(updates.len() as u64);
        }
        self.tick += 1;
        if let Some(h) = self.sim_hooks.clone() {
            h.on_tick(self.tick);
            for id in h.desync_targets(self.tick) {
                self.store.debug_force_desync(id);
            }
        }
        self.round(self.skip_routing);
    }

    /// Evaluate all queries against the current store state without
    /// applying updates, ignoring skip routing (used for the initial
    /// evaluation at T₀ and as the force-evaluate oracle).
    pub fn evaluate_all(&mut self) {
        self.round(false);
    }

    fn round(&mut self, route: bool) {
        let start = self.metrics.is_some().then(Instant::now);
        let (store, tick) = (&self.store, self.tick);
        let (hooks, metrics) = (self.sim_hooks.as_deref(), self.metrics.as_ref());
        let (first, rest) = self.shards.split_first_mut().expect("at least one shard");
        if rest.is_empty() {
            first.run(0, store, tick, route, hooks, metrics);
        } else {
            std::thread::scope(|scope| {
                for (w, shard) in rest.iter_mut().enumerate() {
                    scope.spawn(move || shard.run(w + 1, store, tick, route, hooks, metrics));
                }
                first.run(0, store, tick, route, hooks, metrics);
            });
        }
        if let Some(m) = &self.metrics {
            if let Some(t0) = start {
                m.pipeline.evaluate_seconds.observe_duration(t0.elapsed());
            }
            for (gauge, shard) in m.shard_size.iter().zip(&self.shards) {
                gauge.set(shard.qids.len() as f64);
            }
            m.pipeline
                .dirty_cells
                .observe(self.store.dirty_all().count() as f64);
            m.pipeline.ticks_total.inc();
        }
        // Close out the journal: the next tick's dirt starts from here.
        self.store.drain_dirty();
    }

    /// Current tick count (number of `step` rounds).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Number of query indices handed out (live + tombstoned).
    pub fn num_queries(&self) -> usize {
        self.owner.len()
    }

    /// The owning shard of live query `i` and the query's position in it.
    fn locate(&self, i: usize) -> (&Shard, usize) {
        let worker = self.owner[i].unwrap_or_else(|| panic!("query {i} was removed"));
        let shard = &self.shards[worker];
        let at = shard
            .qids
            .binary_search(&i)
            .expect("owning shard holds the query");
        (shard, at)
    }

    /// Latest answer of query `i`, sorted by object id.
    ///
    /// # Panics
    /// Panics when the query was removed (as do the other per-query
    /// accessors).
    pub fn answer(&self, i: usize) -> &[ObjectId] {
        let (shard, at) = self.locate(i);
        &shard.slots[at].answer
    }

    /// Number of objects query `i` currently monitors.
    pub fn monitored(&self, i: usize) -> usize {
        let (shard, at) = self.locate(i);
        shard.slots[at].monitored
    }

    /// Per-tick history of query `i` (a ring when a capacity is set; the
    /// embedded stats always cover every tick).
    pub fn history(&self, i: usize) -> &History {
        let (shard, at) = self.locate(i);
        &shard.histories[at]
    }

    /// The query object of query `i`.
    pub fn query_object(&self, i: usize) -> ObjectId {
        let (shard, at) = self.locate(i);
        shard.slots[at].obj
    }
}
