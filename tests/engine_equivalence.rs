//! Sharding equivalence: for any worker count and placement policy, the
//! runner must reproduce the one-worker runner's behaviour exactly —
//! same answers, same answer sizes, same monitored counts, and the same
//! per-tick skip decisions — over a randomized update stream with
//! mid-stream query registration and removal, across all eight
//! algorithms.
//!
//! Every sweep runs under both distance modes: in `DistanceMode::Network`
//! both stores carry the same synthetic road graph and every query
//! registers in network mode.

mod common;

use common::Lcg;
use igern::core::processor::Algorithm;
use igern::core::types::{DistanceMode, ObjectKind};
use igern::core::{NetworkSpace, SpatialStore};
use igern::engine::{Placement, TickRunner};
use igern::geom::{Aabb, Point};
use igern::grid::ObjectId;
use igern::mobgen::{build_synthetic_network, SyntheticNetworkConfig};

const SIDE: f64 = 100.0;
const N_A: usize = 36;
const N_B: usize = 36;
const TICKS: usize = 120;

/// A store with `N_A` kind-A objects followed by `N_B` kind-B objects.
/// In network mode both sides get the same seeded road graph.
fn loaded_store(seed: u64, mode: DistanceMode) -> SpatialStore {
    let mut kinds = vec![ObjectKind::A; N_A];
    kinds.extend(vec![ObjectKind::B; N_B]);
    let mut store = SpatialStore::new(Aabb::from_coords(0.0, 0.0, SIDE, SIDE), 16, kinds);
    if mode == DistanceMode::Network {
        store.set_network(std::sync::Arc::new(NetworkSpace::from_network(
            &build_synthetic_network(&SyntheticNetworkConfig {
                k: 8,
                space: Aabb::from_coords(0.0, 0.0, SIDE, SIDE),
                seed,
                ..Default::default()
            }),
        )));
    }
    let pts = Lcg::new(seed).points(N_A + N_B, SIDE);
    store.load(&pts);
    store
}

const ALGOS: [Algorithm; 8] = [
    Algorithm::IgernMono,
    Algorithm::Crnn,
    Algorithm::TplRepeat,
    Algorithm::IgernBi,
    Algorithm::VoronoiRepeat,
    Algorithm::IgernMonoK(2),
    Algorithm::IgernBiK(2),
    Algorithm::Knn(3),
];

/// Drive the one-worker reference and a `workers`-shard runner through
/// the identical randomized stream — movement, skip routing on, and
/// mid-stream add/remove of standing queries — asserting lock-step
/// equality.
fn run_stream(workers: usize, placement: Placement, seed: u64, mode: DistanceMode) {
    let mut serial = TickRunner::new(loaded_store(seed, mode), 1, Placement::RoundRobin);
    let mut engine = TickRunner::new(loaded_store(seed, mode), workers, placement);

    // Anchors are kind-A objects (required by the bichromatic ones).
    let mut live: Vec<usize> = ALGOS
        .iter()
        .enumerate()
        .map(|(i, &algo)| {
            let obj = ObjectId(i as u32 * 3);
            let qs = serial.add_query_in(obj, algo, mode).expect("valid query");
            let qe = engine.add_query_in(obj, algo, mode).expect("valid query");
            assert_eq!(qs, qe, "index assignment diverged on add");
            qs
        })
        .collect();
    serial.evaluate_all();
    engine.evaluate_all();

    let mut rng = Lcg::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    for tick in 0..TICKS {
        // Movement: mostly a localized clique so skip routing matters.
        // Roughly one tick in ten is fully quiet — that is the only
        // skip opportunity the watch-set-free network monitors have,
        // and a cheap extra case for the Euclidean ones.
        let mut ups: Vec<(ObjectId, Point)> = Vec::new();
        if !rng.bool(0.1) {
            let global = rng.bool(0.3);
            for _ in 0..1 + rng.usize(8) {
                let id = ObjectId(rng.usize(N_A + N_B) as u32);
                let p = if global {
                    rng.point(SIDE)
                } else {
                    Point::new(rng.range_f64(85.0, 100.0), rng.range_f64(85.0, 100.0))
                };
                ups.push((id, p));
            }
        }
        // Mid-stream churn: sometimes remove a standing query, sometimes
        // register a new one (reusing the tombstoned index on both sides).
        if live.len() > 2 && rng.bool(0.08) {
            let at = rng.usize(live.len());
            let q = live.swap_remove(at);
            serial.remove_query(q);
            engine.remove_query(q);
        }
        if rng.bool(0.08) {
            let algo = ALGOS[rng.usize(ALGOS.len())];
            let obj = ObjectId((rng.usize(N_A / 2) * 2) as u32);
            let qs = serial.add_query_in(obj, algo, mode).expect("valid query");
            let qe = engine.add_query_in(obj, algo, mode).expect("valid query");
            assert_eq!(qs, qe, "index assignment diverged at tick {tick}");
            live.push(qs);
        }

        serial.step(&ups);
        engine.step(&ups);
        assert_eq!(serial.tick(), engine.tick());
        for &q in &live {
            assert_eq!(
                serial.answer(q),
                engine.answer(q),
                "answer diverged: query {q} tick {tick} workers {workers} {placement} {mode:?}"
            );
            assert_eq!(serial.monitored(q), engine.monitored(q));
            let ss = serial.history(q).latest().unwrap();
            let es = engine.history(q).latest().unwrap();
            assert_eq!(
                ss.skipped, es.skipped,
                "skip decision diverged: query {q} tick {tick} workers {workers}"
            );
            assert_eq!(ss.answer_size, es.answer_size);
            assert_eq!(ss.monitored, es.monitored);
        }
    }

    // The stream must have exercised the skip path at all worker counts.
    let skipped: usize = live
        .iter()
        .map(|&q| engine.history(q).iter().filter(|s| s.skipped).count())
        .sum();
    assert!(skipped > 0, "stream never skipped — routing not exercised");
}

/// [`run_stream`] under both distance modes.
fn sweep(workers: usize, placement: Placement, seed: u64) {
    for mode in [DistanceMode::Euclidean, DistanceMode::Network] {
        run_stream(workers, placement, seed, mode);
    }
}

#[test]
fn engine_matches_serial_across_worker_counts() {
    for workers in [1, 2, 4, 8] {
        sweep(workers, Placement::RoundRobin, 0x0e17_a2b4);
    }
}

#[test]
fn engine_matches_serial_under_anchor_cell_placement() {
    for workers in [2, 4] {
        sweep(workers, Placement::AnchorCell, 0x5ca1_ab1e);
    }
}
