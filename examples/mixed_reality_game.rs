//! Mixed-reality game scenario (the paper's Botfighters motivation):
//! every player wants to know which other players currently have *her*
//! as their nearest target — her reverse nearest neighbors — so she can
//! dodge their shots.
//!
//! Players move along a synthetic city road network; three of them run
//! standing monochromatic IGERN queries, and the example prints the
//! threats each tick.
//!
//! Run with: `cargo run --example mixed_reality_game`

use igern::core::processor::Algorithm;
use igern::core::types::ObjectKind;
use igern::core::SpatialStore;
use igern::engine::{Placement, TickRunner};
use igern::grid::ObjectId;
use igern::mobgen::{Workload, WorkloadConfig};

const PLAYERS: usize = 400;
const TICKS: usize = 8;

fn main() {
    // A seeded city: players drive the synthetic road network.
    let mut world = Workload::from_config(&WorkloadConfig::network_mono(PLAYERS, 2026));
    let mut store = SpatialStore::new(world.mover().space(), 32, vec![ObjectKind::A; PLAYERS]);
    let spawn: Vec<_> = (0..PLAYERS as u32)
        .map(|i| world.mover().position(i))
        .collect();
    store.load(&spawn);

    let mut runner = TickRunner::new(store, 1, Placement::RoundRobin);
    let heroes = [ObjectId(11), ObjectId(177), ObjectId(333)];
    let queries: Vec<usize> = heroes
        .iter()
        .map(|&h| runner.add_query(h, Algorithm::IgernMono).unwrap())
        .collect();
    runner.evaluate_all();

    for tick in 0..TICKS {
        if tick > 0 {
            let ups: Vec<(ObjectId, _)> = world
                .advance()
                .iter()
                .map(|u| (ObjectId(u.id), u.pos))
                .collect();
            runner.step(&ups);
        }
        println!("— tick {tick} —");
        for (&hero, &q) in heroes.iter().zip(&queries) {
            let threats = runner.answer(q);
            let pos = runner.store().position(hero).unwrap();
            match threats.len() {
                0 => println!("  player {hero} at {pos}: safe (no one targets her)"),
                n => println!(
                    "  player {hero} at {pos}: {n} player(s) locked on: {threats:?} \
                     (IGERN watches only {} candidates)",
                    runner.monitored(q)
                ),
            }
        }
    }

    // Sanity: IGERN can never report more than six monochromatic RNNs.
    for &q in &queries {
        assert!(runner.answer(q).len() <= 6);
    }
}
