//! Network-distance simulation runs (ISSUE 10): the whole lockstep
//! harness — serial processor, sharded engine, and the served wire
//! protocol — checked tick-by-tick against the Dijkstra oracles while
//! the fault plan fires. Everything the Euclidean tier guarantees must
//! hold verbatim with `network: true`: bit-determinism, replay-file
//! round-trips, and exact crash recovery of network subscriptions.

use igern_core::NetworkSpace;
use igern_geom::Point;
use igern_sim::events::sim_network;
use igern_sim::{execute, load_replay, run, write_replay, SimConfig, SimEvent};

fn net_cfg(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ticks: 30,
        objects: 24,
        queries: 8,
        workers: 3,
        network: true,
        ..SimConfig::default()
    }
}

/// The tentpole check: all three backends agree with the brute-force
/// network oracles on every tick of a faulted run, and the run is
/// bit-deterministic.
#[test]
fn network_run_matches_dijkstra_oracles_deterministically() {
    let cfg = net_cfg(7);
    let a = run(&cfg).expect("network sim must pass on a healthy build");
    assert!(
        a.counters.answer_checks > 0,
        "run must actually check answers"
    );
    let b = run(&cfg).expect("second run");
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.counters, b.counters);
}

/// Plan generation snaps every initial position onto the road graph —
/// objects live on edges, not in open space.
#[test]
fn network_plans_place_objects_on_the_road_graph() {
    let cfg = net_cfg(3);
    let plan = cfg.plan();
    assert!(plan.network);
    let ns = NetworkSpace::from_network(&sim_network(plan.seed, plan.space));
    for &(id, _, x, y) in &plan.initial {
        let p = Point::new(x, y);
        let snapped = ns.snap(p).point;
        assert!(
            p.dist(snapped) < 1e-9,
            "object {id} at {p:?} is off-network (nearest edge point {snapped:?})"
        );
    }
    // Moves and inserts are snapped too.
    for e in &plan.events {
        let (x, y) = match e.event {
            SimEvent::Move { x, y, .. } | SimEvent::Insert { x, y, .. } => (x, y),
            _ => continue,
        };
        let p = Point::new(x, y);
        assert!(
            p.dist(ns.snap(p).point) < 1e-9,
            "event position off-network"
        );
    }
}

/// `.simreplay` files carry the network flag, and a loaded plan
/// re-executes to the exact digest of the original run.
#[test]
fn network_replay_files_reproduce_the_run() {
    let cfg = net_cfg(11);
    let plan = cfg.plan();
    let original = execute(&plan, None).expect("network sim");
    let text = write_replay(&plan);
    assert!(text.contains("\"network\": true"));
    let reloaded = load_replay(&text).expect("own writer output");
    assert_eq!(reloaded, plan);
    let replayed = execute(&reloaded, None).expect("replayed network sim");
    assert_eq!(replayed.digest, original.digest);
}

/// Crash recovery on a durable network plan: the restarted server
/// re-registers its network-mode subscriptions from the WAL (the fresh
/// store re-attaches the road graph) and answers stay exact from the
/// first post-restart tick.
#[test]
fn durable_network_run_survives_kill_restarts() {
    let cfg = SimConfig {
        durable: true,
        ..net_cfg(5)
    };
    let plan = cfg.plan();
    assert!(
        plan.events.iter().any(|e| e.event == SimEvent::KillRestart),
        "durable plan must schedule at least one crash"
    );
    let a = execute(&plan, None).expect("durable network sim");
    assert!(a.counters.kill_restarts > 0, "crash must actually fire");
    let b = execute(&plan, None).expect("second run");
    assert_eq!(a.digest, b.digest);
}
