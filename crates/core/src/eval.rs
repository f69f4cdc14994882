//! The per-query evaluation step. `igern-engine`'s `TickRunner` runs it
//! over every shard of standing queries — inline for one shard, on
//! scoped threads for more — so answers, skip decisions, and
//! deterministic metrics do not depend on the worker count.

use std::time::Instant;

use igern_geom::Point;
use igern_grid::{ObjectId, OpCounters};

use crate::metrics::TickSample;
use crate::monitor::ContinuousMonitor;
use crate::scratch::EvalScratch;
use crate::store::SpatialStore;

/// One standing query's evaluator state: the anchor object, the boxed
/// monitor, and the latest derived results. Owns no history — the engine
/// driving it decides where samples go.
pub struct QuerySlot {
    /// The moving object acting as the query.
    pub obj: ObjectId,
    /// The evaluation strategy.
    pub monitor: Box<dyn ContinuousMonitor>,
    /// The monitor has had its initial evaluation.
    pub initialized: bool,
    /// Latest answer, sorted by object id.
    pub answer: Vec<ObjectId>,
    /// Objects monitored after the latest evaluation.
    pub monitored: usize,
    /// Monitored-region area after the latest evaluation.
    pub region_area: f64,
}

impl QuerySlot {
    /// A fresh (uninitialized) slot for a query anchored at `obj`.
    pub fn new(obj: ObjectId, monitor: Box<dyn ContinuousMonitor>) -> Self {
        QuerySlot {
            obj,
            monitor,
            initialized: false,
            // Headroom so small per-tick answer fluctuations never regrow
            // the buffer mid-stream.
            answer: Vec::with_capacity(16),
            monitored: 0,
            region_area: 0.0,
        }
    }
}

/// The skip decision: may `slot` keep its previous answer this tick?
///
/// Sound only because every store mutation dirties the touched cells of
/// the all-objects grid (a superset of the A/B dirt) and each monitor's
/// watch set is a conservative closure of the cells its next incremental
/// step reads (see [`crate::monitor`]). The anchor cell is always checked
/// so a move of the query object itself — or of a neighbor sharing its
/// cell — forces re-evaluation.
pub fn can_skip(store: &SpatialStore, slot: &QuerySlot, anchor: Point) -> bool {
    if !slot.initialized {
        return false;
    }
    let dirty = store.dirty_all();
    if dirty.contains(store.all().cell_of_point(anchor)) {
        return false;
    }
    match slot.monitor.monitored_cells() {
        None => dirty.is_empty(),
        Some(watch) => !dirty.intersects(watch),
    }
}

/// Evaluate one query against the current store state and return its
/// sample for tick `tick`. With `route` set, the dirty-region skip check
/// runs first and a zero-cost skipped sample is returned when the
/// previous answer is provably still valid.
///
/// This is *the* per-query step; it only reads `store` (plus the slot it
/// mutates), so disjoint slots can be evaluated concurrently against the
/// same frozen store.
///
/// A slot whose anchor object has vanished from the store (a desync — the
/// engine should have removed the query first) degrades gracefully: the
/// previous answer is carried over as a skipped sample whose
/// `ops.desyncs` is set, so the event is counted instead of panicking
/// mid-tick.
///
/// `scratch` is the shard's reusable evaluation workspace; a warm scratch
/// makes the steady-state tick allocation-free. Shards must not share one
/// scratch concurrently, but any slot may be evaluated with any shard's
/// scratch — the answer does not depend on the scratch contents.
pub fn evaluate_query(
    store: &SpatialStore,
    slot: &mut QuerySlot,
    tick: u64,
    route: bool,
    scratch: &mut EvalScratch,
) -> TickSample {
    let Some(pos) = store.position(slot.obj) else {
        let mut ops = OpCounters::new();
        ops.desyncs = 1;
        return TickSample {
            tick,
            ops,
            monitored: slot.monitored,
            answer_size: slot.answer.len(),
            region_area: slot.region_area,
            skipped: true,
            ..TickSample::default()
        };
    };
    if route && can_skip(store, slot, pos) {
        // Zero-cost sample: the previous answer is reused verbatim.
        return TickSample {
            tick,
            monitored: slot.monitored,
            answer_size: slot.answer.len(),
            region_area: slot.region_area,
            skipped: true,
            ..TickSample::default()
        };
    }
    // One `evaluate` — the monitor knows whether that is its initial or
    // its incremental step — then refresh the slot's derived results.
    let mut ops = OpCounters::new();
    let start = Instant::now();
    slot.monitor.evaluate(store, pos, &mut ops, scratch);
    // Only `can_skip` reads this: a monitor that has never evaluated
    // must not skip a quiet first tick.
    slot.initialized = true;
    let elapsed = start.elapsed();
    slot.monitor.answer_into(&mut slot.answer);
    slot.monitored = slot.monitor.num_monitored();
    slot.region_area = slot.monitor.region_area(store);
    TickSample {
        tick,
        elapsed,
        ops,
        monitored: slot.monitored,
        answer_size: slot.answer.len(),
        region_area: slot.region_area,
        skipped: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Algorithm;
    use crate::types::ObjectKind;
    use igern_geom::Aabb;

    fn store(points: &[(f64, f64)]) -> SpatialStore {
        let kinds = vec![ObjectKind::A; points.len()];
        let mut s = SpatialStore::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), 8, kinds);
        let pts: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        s.load(&pts);
        s
    }

    #[test]
    fn initial_then_incremental_then_skip() {
        let mut s = store(&[(5.0, 5.0), (4.0, 5.0), (9.5, 9.5)]);
        s.drain_dirty();
        let mut slot = QuerySlot::new(
            ObjectId(0),
            Algorithm::IgernMono.make_monitor(Some(ObjectId(0))),
        );
        let mut scratch = EvalScratch::default();
        // Uninitialized slots never skip, even on a quiet store.
        assert!(!can_skip(&s, &slot, Point::new(5.0, 5.0)));
        let s0 = evaluate_query(&s, &mut slot, 0, true, &mut scratch);
        assert!(!s0.skipped);
        assert!(slot.initialized);
        // Both neighbors have the query as their nearest object.
        assert_eq!(slot.answer, vec![ObjectId(1), ObjectId(2)]);
        s.drain_dirty();
        // Quiet tick: routed evaluation skips, carrying the answer over.
        let s1 = evaluate_query(&s, &mut slot, 1, true, &mut scratch);
        assert!(s1.skipped);
        assert_eq!(s1.answer_size, 2);
        assert_eq!(s1.tick, 1);
        // Forced evaluation never skips.
        let s2 = evaluate_query(&s, &mut slot, 2, false, &mut scratch);
        assert!(!s2.skipped);
        // A move in the watched region forces routed re-evaluation.
        s.apply(ObjectId(1), Point::new(4.2, 5.0));
        let s3 = evaluate_query(&s, &mut slot, 3, true, &mut scratch);
        assert!(!s3.skipped);
    }
}
