//! What the tick loop promises a caller-supplied [`ContinuousMonitor`]
//! (`TickRunner::add_query_with` is the extension point): `evaluate`
//! runs once on `evaluate_all`, once per tick that dirties the monitor's
//! watch set or anchor cell and never on a skipped tick; and every tick
//! logs one sample, skipped or not — whatever the worker count.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use igern_core::processor::Algorithm;
use igern_core::{ContinuousMonitor, EvalScratch, ObjectKind, SpatialStore};
use igern_engine::{Placement, TickRunner};
use igern_geom::{Aabb, Point};
use igern_grid::{CellSet, ObjectId, OpCounters};

/// Counts its evaluations and watches nothing but its anchor cell.
struct CountingMonitor {
    evaluations: Arc<AtomicUsize>,
    watch: Option<CellSet>,
}

impl ContinuousMonitor for CountingMonitor {
    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        _: &mut OpCounters,
        _: &mut EvalScratch,
    ) {
        self.evaluations.fetch_add(1, Relaxed);
        let grid = store.all();
        let mut watch = CellSet::new(grid.num_cells());
        watch.insert(grid.cell_of_point(q));
        self.watch = Some(watch);
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        self.watch.as_ref()
    }

    fn num_monitored(&self) -> usize {
        0
    }

    fn region_area(&self, _: &SpatialStore) -> f64 {
        0.0
    }
}

#[test]
fn evaluate_runs_once_per_unskipped_tick_with_empty_feeds() {
    // Objects 0 (the anchor) and 1 share the corner cell at the origin;
    // objects 2 and 3 share the opposite corner cell.
    let near = |d: f64| Point::new(0.5 + d, 0.5);
    let far = |d: f64| Point::new(9.5 - d, 9.5);
    // Per tick: the update applied, and whether it dirties the watch.
    let stream = [
        (ObjectId(3), far(0.1), false),
        (ObjectId(1), near(0.1), true),
        (ObjectId(0), near(0.2), true), // the anchor itself moves
        (ObjectId(2), far(0.2), false),
        (ObjectId(3), far(0.3), false),
        (ObjectId(1), near(0.3), true),
    ];
    for workers in [1, 2] {
        let mut store = SpatialStore::new(
            Aabb::from_coords(0.0, 0.0, 10.0, 10.0),
            8,
            vec![ObjectKind::A; 4],
        );
        store.load(&[near(0.0), near(0.05), far(0.0), far(0.05)]);
        let mut runner = TickRunner::new(store, workers, Placement::RoundRobin);
        // Round-robin: the built-in query takes shard 0, so at two
        // workers the counting one runs on the spawned thread.
        runner.add_query(ObjectId(2), Algorithm::IgernMono).unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        let monitor = CountingMonitor {
            evaluations: Arc::clone(&calls),
            watch: None,
        };
        let q = runner
            .add_query_with(ObjectId(0), Box::new(monitor))
            .unwrap();

        let at = format!("workers {workers}");
        runner.evaluate_all();
        let mut expected = 1;
        assert_eq!(calls.load(Relaxed), expected, "{at}");
        for (tick, &(id, pos, dirties_watch)) in stream.iter().enumerate() {
            runner.step(&[(id, pos)]);
            expected += usize::from(dirties_watch);
            assert_eq!(calls.load(Relaxed), expected, "{at} tick {tick}");
            let history = runner.history(q);
            assert_eq!(history.len(), tick + 2, "{at}: one sample per tick");
            assert_eq!(history.latest().unwrap().skipped, !dirties_watch, "{at}");
        }
        // A fully quiet tick is skipped too, and still sampled.
        runner.step(&[]);
        assert_eq!(calls.load(Relaxed), expected, "{at}");
        assert_eq!(runner.history(q).len(), stream.len() + 2, "{at}");
    }
}
