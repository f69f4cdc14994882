//! A panic inside one shard must fail the tick, not hang it.
//!
//! The round joins its shards with `std::thread::scope`, which cannot
//! block on a thread that has died: the panic resurfaces on the caller.
//! The watchdog below is what fails if that join is ever replaced by
//! something that can wait for ever on a dead shard (a results channel
//! some idle worker keeps open, say).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use igern_core::processor::Algorithm;
use igern_core::{ContinuousMonitor, EvalScratch, ObjectKind, SpatialStore};
use igern_engine::{Placement, TickRunner};
use igern_geom::{Aabb, Point};
use igern_grid::{CellSet, ObjectId, OpCounters};

/// A monitor whose evaluation panics.
struct PanickingMonitor;

impl ContinuousMonitor for PanickingMonitor {
    fn evaluate(&mut self, _: &SpatialStore, _: Point, _: &mut OpCounters, _: &mut EvalScratch) {
        panic!("monitor failed");
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        None
    }

    fn num_monitored(&self) -> usize {
        0
    }

    fn region_area(&self, _: &SpatialStore) -> f64 {
        0.0
    }
}

#[test]
fn a_shard_panic_fails_the_tick_instead_of_hanging_it() {
    for workers in [1, 2] {
        let (done, watchdog) = mpsc::channel();
        std::thread::spawn(move || {
            let mut store = SpatialStore::new(
                Aabb::from_coords(0.0, 0.0, 10.0, 10.0),
                8,
                vec![ObjectKind::A; 3],
            );
            store.load(&[
                Point::new(5.0, 5.0),
                Point::new(4.0, 4.0),
                Point::new(6.0, 6.0),
            ]);
            let mut runner = TickRunner::new(store, workers, Placement::RoundRobin);
            // Round-robin: the healthy query lands on shard 0, the
            // panicking one on the last shard (a spawned thread when
            // there are two).
            runner.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
            runner
                .add_query_with(ObjectId(1), Box::new(PanickingMonitor))
                .unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(|| runner.evaluate_all()));
            let _ = done.send(outcome.is_err());
        });
        let panicked = watchdog
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("evaluate_all never returned at {workers} workers"));
        assert!(panicked, "evaluate_all swallowed the shard panic");
    }
}
