//! Taxi dispatch over a road network: a taxi (type A) wants the set of
//! waiting passengers (type B) that are *closer to it than to any other
//! taxi* — its bichromatic reverse nearest neighbors. Dispatching on RNNs
//! rather than plain nearest neighbors avoids two taxis chasing the same
//! passenger.
//!
//! The example also cross-checks the continuous IGERN answer against a
//! per-tick Voronoi reconstruction — the two must agree at every tick.
//!
//! Run with: `cargo run --example taxi_dispatch`

use igern::core::processor::Algorithm;
use igern::core::types::ObjectKind;
use igern::core::SpatialStore;
use igern::engine::{Placement, TickRunner};
use igern::geom::Point;
use igern::grid::ObjectId;
use igern::mobgen::{ObjKind, Workload, WorkloadConfig};

const FLEET_AND_RIDERS: usize = 500; // half taxis, half passengers
const TICKS: usize = 6;

fn main() {
    let mut world = Workload::from_config(&WorkloadConfig::network_bi(FLEET_AND_RIDERS, 99));
    let kinds: Vec<ObjectKind> = world
        .kinds()
        .iter()
        .map(|k| match k {
            ObjKind::A => ObjectKind::A,
            ObjKind::B => ObjectKind::B,
        })
        .collect();
    let mut store = SpatialStore::new(world.mover().space(), 32, kinds);
    let spawn: Vec<Point> = (0..world.len() as u32)
        .map(|i| world.mover().position(i))
        .collect();
    store.load(&spawn);

    let mut runner = TickRunner::new(store, 1, Placement::RoundRobin);
    // Three taxis run standing queries, each twice: once with continuous
    // IGERN, once with the repetitive-Voronoi baseline, as a live
    // cross-check.
    let taxis = [ObjectId(0), ObjectId(100), ObjectId(200)];
    let igern_q: Vec<usize> = taxis
        .iter()
        .map(|&t| runner.add_query(t, Algorithm::IgernBi).unwrap())
        .collect();
    let voronoi_q: Vec<usize> = taxis
        .iter()
        .map(|&t| runner.add_query(t, Algorithm::VoronoiRepeat).unwrap())
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
        for ((&taxi, &qi), &qv) in taxis.iter().zip(&igern_q).zip(&voronoi_q) {
            let igern = runner.answer(qi);
            let voronoi = runner.answer(qv);
            assert_eq!(igern, voronoi, "IGERN and Voronoi disagree for {taxi}");
            println!(
                "  taxi {taxi}: {} exclusive passenger(s) {:?}",
                igern.len(),
                igern
            );
        }
    }
    println!("IGERN and the Voronoi rebuild agreed at every tick.");
}
