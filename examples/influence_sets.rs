//! Influence sets (Korn & Muthukrishnan, cited in the paper's intro):
//! "the RNNs of a query point q are those objects on which q has
//! significant influence". A new store location influences exactly the
//! customers for whom it would be the nearest store — and, more
//! tolerantly, the reverse *k*-nearest neighbors: customers that would
//! have it among their k closest stores.
//!
//! This example places candidate store sites among existing stores
//! (type A) and customers (type B), and compares the influence sets at
//! k = 1, 2, 3 using the continuous RkNN monitors while customers move.
//!
//! Run with: `cargo run --example influence_sets`

use igern::core::processor::Algorithm;
use igern::core::types::ObjectKind;
use igern::core::SpatialStore;
use igern::engine::{Placement, TickRunner};
use igern::geom::{Aabb, Point};
use igern::grid::ObjectId;
use igern::mobgen::{Movement, ObjKind, Workload, WorkloadConfig};

const STORES: usize = 8; // existing stores + the candidate site (type A)
const CUSTOMERS: usize = 80; // moving customers (type B)

fn main() {
    let cfg = WorkloadConfig {
        num_objects: STORES + CUSTOMERS,
        seed: 7,
        movement: Movement::RandomWaypoint {
            space: Aabb::from_coords(0.0, 0.0, 1000.0, 1000.0),
            min_speed: 1.0,
            max_speed: 6.0,
        },
        kind_a_fraction: Some(STORES as f64 / (STORES + CUSTOMERS) as f64),
    };
    let mut world = Workload::from_config(&cfg);
    let kinds: Vec<ObjectKind> = world
        .kinds()
        .iter()
        .map(|k| match k {
            ObjKind::A => ObjectKind::A,
            ObjKind::B => ObjectKind::B,
        })
        .collect();
    let mut store = SpatialStore::new(world.mover().space(), 16, kinds);
    let spawn: Vec<Point> = (0..world.len() as u32)
        .map(|i| world.mover().position(i))
        .collect();
    store.load(&spawn);

    // Object 0 is the candidate site; monitor its influence at three
    // tolerance levels simultaneously.
    let mut runner = TickRunner::new(store, 1, Placement::RoundRobin);
    let site = ObjectId(0);
    let queries: Vec<(usize, usize)> = (1..=3)
        .map(|k| (k, runner.add_query(site, Algorithm::IgernBiK(k)).unwrap()))
        .collect();
    runner.evaluate_all();

    for tick in 0..5 {
        if tick > 0 {
            let ups: Vec<(ObjectId, Point)> = world
                .advance()
                .iter()
                .map(|u| (ObjectId(u.id), u.pos))
                .collect();
            runner.step(&ups);
        }
        println!("— tick {tick} —");
        let mut prev = 0;
        for &(k, q) in &queries {
            let influenced = runner.answer(q).len();
            println!(
                "  influence at k={k}: {influenced:>2} customers \
                 (monitoring {} competitor stores)",
                runner.monitored(q)
            );
            assert!(influenced >= prev, "influence sets must be monotone in k");
            prev = influenced;
        }
    }
}
