//! `igern-engine` — the tick loop for standing RNN queries.
//!
//! [`TickRunner`] owns the [`SpatialStore`] and every registered query.
//! Each tick it applies the update stream to the store, then re-evaluates
//! the queries against the now-frozen store with the per-query step of
//! [`igern_core::eval`], skipping those whose watched cells saw no update
//! (dirty-region routing, on by default).
//!
//! The queries are split into `workers` disjoint *shards*. One shard is
//! evaluated inline on the calling thread; with more, shards `1..` run on
//! scoped threads that borrow the store for the round while shard 0 runs
//! on the caller. A shard writes only its own queries, so answers, skip
//! decisions, and op counters do not depend on the worker count, and a
//! panic inside any shard surfaces as a panic of the tick.
//!
//! Shard membership is managed by a [`Placement`] policy (round-robin or
//! anchor-cell spatial bands) with deterministic rebalancing on query
//! add/remove; see [`placement`].
//!
//! [`SpatialStore`]: igern_core::SpatialStore

#![forbid(unsafe_code)]

use std::fmt;

use igern_core::obs::{
    Counter, Gauge, Histogram, MetricsRegistry, PipelineMetrics, LATENCY_BUCKETS_S,
};
use igern_grid::ObjectId;

pub mod placement;
pub mod runner;

pub use placement::Placement;
pub use runner::TickRunner;

/// A recoverable registration error: bad registrations are reported as
/// values so long-running drivers (the CLI, network frontends) can
/// surface them without unwinding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The query anchor object is not in the store.
    UnknownObject(ObjectId),
    /// A bichromatic algorithm was requested for a non-A anchor.
    NotKindA(ObjectId),
    /// A k-variant algorithm was requested with `k == 0`.
    ZeroK,
    /// A network-distance query was requested on a store with no
    /// attached road network.
    NoNetwork,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownObject(id) => {
                write!(f, "query object {id} not in store")
            }
            EngineError::NotKindA(id) => {
                write!(f, "bichromatic query object {id} must be of kind A")
            }
            EngineError::ZeroK => write!(f, "k must be positive"),
            EngineError::NoNetwork => {
                write!(
                    f,
                    "network-distance query requires an attached road network"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The runner's observability bundle: the per-sample [`PipelineMetrics`]
/// surface plus the per-shard instruments (shard evaluation latency,
/// shard sizes, and rebalance activity).
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// The per-sample and per-round surface.
    pub pipeline: PipelineMetrics,
    /// Per-shard evaluation latency
    /// (`<prefix>_worker_tick_seconds{worker="i"}`).
    pub worker_tick_seconds: Vec<Histogram>,
    /// Per-shard live-query count (`<prefix>_shard_size{worker="i"}`).
    pub shard_size: Vec<Gauge>,
    /// Rebalance passes that migrated at least one query
    /// (`<prefix>_rebalance_total`).
    pub rebalance_total: Counter,
    /// Individual query migrations (`<prefix>_migrations_total`).
    pub migrations_total: Counter,
}

impl EngineMetrics {
    /// Register (or re-attach to) the bundle under `prefix` for a
    /// runner with `workers` shards.
    pub fn register(registry: &MetricsRegistry, prefix: &str, workers: usize) -> Self {
        let n = |suffix: &str| format!("{prefix}_{suffix}");
        EngineMetrics {
            pipeline: PipelineMetrics::register(registry, prefix),
            worker_tick_seconds: (0..workers)
                .map(|w| {
                    registry.histogram_labeled(
                        &n("worker_tick_seconds"),
                        &[("worker", &w.to_string())],
                        &LATENCY_BUCKETS_S,
                    )
                })
                .collect(),
            shard_size: (0..workers)
                .map(|w| registry.gauge_labeled(&n("shard_size"), &[("worker", &w.to_string())]))
                .collect(),
            rebalance_total: registry.counter(&n("rebalance_total")),
            migrations_total: registry.counter(&n("migrations_total")),
        }
    }
}

#[cfg(test)]
mod processor;

#[cfg(test)]
mod tests {
    use super::*;
    use igern_core::processor::Algorithm;
    use igern_core::{DistanceMode, ObjectKind, SpatialStore};
    use igern_geom::{Aabb, Point};

    /// Build a loaded store with the first `n_a` objects of kind A.
    pub(crate) fn store(points: &[(f64, f64)], n_a: usize) -> SpatialStore {
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

    fn pts() -> Vec<(f64, f64)> {
        (0..24)
            .map(|i| ((i * 7 % 24) as f64 / 2.4, (i * 13 % 24) as f64 / 2.4))
            .collect()
    }

    #[test]
    fn round_robin_shards_stay_balanced_through_churn() {
        let pts = pts();
        let mut engine = TickRunner::new(store(&pts, pts.len()), 4, Placement::RoundRobin);
        let mut handles = Vec::new();
        for i in 0..10u32 {
            handles.push(engine.add_query(ObjectId(i), Algorithm::IgernMono).unwrap());
        }
        assert_eq!(engine.worker_loads(), &[3, 3, 2, 2]);
        // Remove everything on worker 0's rotation: rebalance keeps the
        // spread within one.
        engine.remove_query(handles[0]);
        engine.remove_query(handles[4]);
        engine.remove_query(handles[8]);
        let loads = engine.worker_loads();
        assert_eq!(loads.iter().sum::<usize>(), 7);
        assert!(
            loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 1,
            "{loads:?}"
        );
        engine.evaluate_all();
        engine.step(&[]);
        // Survivors still answer after migration.
        for &h in &handles[1..4] {
            let _ = engine.answer(h);
        }
    }

    #[test]
    fn anchor_cell_placement_groups_by_band() {
        let pts = [(0.5, 0.5), (0.6, 0.6), (9.5, 9.5), (9.4, 9.4)];
        let mut engine = TickRunner::new(store(&pts, pts.len()), 2, Placement::AnchorCell);
        // Interleave bands so the intermediate spread never trips the
        // 2x rebalance threshold.
        let a = engine.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        let c = engine.add_query(ObjectId(2), Algorithm::IgernMono).unwrap();
        let b = engine.add_query(ObjectId(1), Algorithm::IgernMono).unwrap();
        let d = engine.add_query(ObjectId(3), Algorithm::IgernMono).unwrap();
        // Low corner anchors share a band, far corner the other.
        assert_eq!(engine.worker_loads(), &[2, 2]);
        engine.evaluate_all();
        engine.step(&[(ObjectId(1), Point::new(0.7, 0.7))]);
        for (q, obj) in [(a, 0), (b, 1), (c, 2), (d, 3)] {
            assert_eq!(engine.query_object(q), ObjectId(obj));
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let pts = pts();
        TickRunner::new(store(&pts, 24), 0, Placement::RoundRobin);
    }

    #[test]
    fn bad_registrations_are_reported_as_errors() {
        let pts = pts();
        for workers in [1, 2] {
            // First 4 objects are kind A, the rest are B.
            let mut r = TickRunner::new(store(&pts, 4), workers, Placement::RoundRobin);
            assert_eq!(
                r.add_query(ObjectId(999), Algorithm::IgernMono),
                Err(EngineError::UnknownObject(ObjectId(999)))
            );
            assert_eq!(
                r.add_query(ObjectId(10), Algorithm::IgernBi),
                Err(EngineError::NotKindA(ObjectId(10)))
            );
            assert_eq!(
                r.add_query(ObjectId(0), Algorithm::Knn(0)),
                Err(EngineError::ZeroK)
            );
            assert_eq!(
                r.add_query_in(ObjectId(0), Algorithm::IgernMono, DistanceMode::Network),
                Err(EngineError::NoNetwork)
            );
            // Failed registrations leave no residue: no slot, no load.
            assert_eq!(r.num_queries(), 0);
            assert_eq!(r.worker_loads(), vec![0; workers]);
            let q = r.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
            assert_eq!(q, 0);
            r.evaluate_all();
        }
        assert_eq!(
            EngineError::UnknownObject(ObjectId(999)).to_string(),
            "query object o999 not in store"
        );
    }

    #[test]
    fn engine_metrics_capture_rounds_and_workers() {
        let pts = pts();
        for workers in [1, 2] {
            let reg = MetricsRegistry::new();
            let mut engine =
                TickRunner::new(store(&pts, pts.len()), workers, Placement::RoundRobin);
            engine.attach_metrics(&reg, "igern_engine");
            for i in 0..4u32 {
                engine.add_query(ObjectId(i), Algorithm::IgernMono).unwrap();
            }
            engine.evaluate_all();
            engine.step(&[(ObjectId(10), Point::new(1.0, 1.0))]);
            let m = EngineMetrics::register(&reg, "igern_engine", workers);
            assert_eq!(m.pipeline.ticks_total.get(), 2);
            assert_eq!(m.pipeline.updates_total.get(), 1);
            assert_eq!(
                m.pipeline.queries_evaluated_total.get() + m.pipeline.queries_skipped_total.get(),
                8,
                "4 queries × 2 rounds, each either evaluated or skipped"
            );
            // Both rounds timed their evaluation phase, the one step its
            // apply phase — at every worker count.
            assert_eq!(m.pipeline.evaluate_seconds.count(), 2, "{workers} workers");
            assert_eq!(m.pipeline.apply_seconds.count(), 1);
            // Every shard timed both rounds, and shard gauges cover all
            // live queries.
            let worker_ticks: u64 = m.worker_tick_seconds.iter().map(|h| h.count()).sum();
            assert_eq!(worker_ticks, 2 * workers as u64);
            let shard_total: f64 = m.shard_size.iter().map(|g| g.get()).sum();
            assert_eq!(shard_total, 4.0);
            // The full registry exports cleanly through both formats.
            let prom = reg.render_prometheus();
            igern_core::obs::promtext::lint(&prom).expect("engine export lints");
            igern_core::obs::jsontext::parse(&reg.render_json()).expect("json parses");
        }
    }
}
