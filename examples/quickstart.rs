//! Quickstart: continuously monitor the reverse nearest neighbors of a
//! moving query over a handful of moving objects.
//!
//! Run with: `cargo run --example quickstart`

use igern::core::processor::Algorithm;
use igern::core::types::ObjectKind;
use igern::core::SpatialStore;
use igern::engine::{Placement, TickRunner};
use igern::geom::{Aabb, Point};
use igern::grid::ObjectId;

fn main() {
    // A 100×100 space indexed by a 16×16 grid; five objects, all one type
    // (monochromatic). Object 0 doubles as the query.
    let space = Aabb::from_coords(0.0, 0.0, 100.0, 100.0);
    let mut store = SpatialStore::new(space, 16, vec![ObjectKind::A; 5]);
    store.load(&[
        Point::new(50.0, 50.0), // the query
        Point::new(40.0, 50.0),
        Point::new(65.0, 50.0),
        Point::new(50.0, 80.0),
        Point::new(10.0, 10.0),
    ]);

    let mut runner = TickRunner::new(store, 1, Placement::RoundRobin);
    let query = runner.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
    runner.evaluate_all(); // the IGERN initial step

    println!("tick 0: RNNs of object 0 = {:?}", runner.answer(query));

    // Object 2 drifts toward object 1 tick by tick; the answer follows.
    for (tick, x) in [(1, 55.0), (2, 47.0), (3, 42.0)] {
        runner.step(&[(ObjectId(2), Point::new(x, 50.0))]);
        println!(
            "tick {tick}: object 2 at x={x:>4}: RNNs = {:?} (monitoring {} objects)",
            runner.answer(query),
            runner.monitored(query),
        );
    }
}
