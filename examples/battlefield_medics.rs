//! Battlefield scenario (the paper's bichromatic motivation): each
//! medical unit (type A) continuously monitors the wounded soldiers
//! (type B) for whom *it* is the nearest medical unit — its bichromatic
//! reverse nearest neighbors — so it knows exactly which casualties it is
//! responsible for, even as everyone moves.
//!
//! Run with: `cargo run --example battlefield_medics`

use igern::core::processor::Algorithm;
use igern::core::types::ObjectKind;
use igern::core::SpatialStore;
use igern::engine::{Placement, TickRunner};
use igern::geom::{Aabb, Point};
use igern::grid::ObjectId;
use igern::mobgen::{Movement, ObjKind, Workload, WorkloadConfig};

const UNITS: usize = 6; // medical units (type A)
const WOUNDED: usize = 60; // wounded soldiers (type B)
const TICKS: usize = 6;

fn main() {
    // Open-terrain movement: random waypoints over a 1 km² battlefield.
    let cfg = WorkloadConfig {
        num_objects: UNITS + WOUNDED,
        seed: 44,
        movement: Movement::RandomWaypoint {
            space: Aabb::from_coords(0.0, 0.0, 1000.0, 1000.0),
            min_speed: 3.0,
            max_speed: 12.0,
        },
        kind_a_fraction: Some(UNITS as f64 / (UNITS + WOUNDED) as f64),
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

    // Every medical unit runs its own standing bichromatic query.
    let mut runner = TickRunner::new(store, 1, Placement::RoundRobin);
    let queries: Vec<usize> = (0..UNITS as u32)
        .map(|u| runner.add_query(ObjectId(u), Algorithm::IgernBi).unwrap())
        .collect();
    runner.evaluate_all();

    for tick in 0..TICKS {
        if tick > 0 {
            let ups: Vec<(ObjectId, Point)> = world
                .advance()
                .iter()
                .map(|u| (ObjectId(u.id), u.pos))
                .collect();
            runner.step(&ups);
        }
        println!("— tick {tick} —");
        let mut assigned = 0;
        for (unit, &q) in queries.iter().enumerate() {
            let wounded = runner.answer(q);
            assigned += wounded.len();
            println!(
                "  medic {unit}: responsible for {:>2} casualties {:?}",
                wounded.len(),
                wounded
            );
        }
        // Every wounded soldier has exactly one nearest medic (modulo
        // exact ties), so the responsibilities partition the casualties.
        println!("  => {assigned}/{WOUNDED} casualties covered");
        assert!(assigned <= WOUNDED);
        assert!(
            assigned >= WOUNDED - 2,
            "ties aside, coverage must be total"
        );
    }
}
