//! Network-distance correctness gate: every network-mode monitor must
//! answer bit-identically to the brute-force Dijkstra oracles in
//! `igern_core::naive`, across the whole algorithm family, k ∈ {1, 2, 4},
//! routed and forced evaluation, and mid-stream population
//! churn — plus direct admissibility fuzz for the Euclidean lower bound
//! the monitors prune with, and the cases where the pruned candidate
//! expansion is most fragile (tied distances, objects on nodes,
//! populations below k, no blockers, desyncs, two components).

use std::sync::Arc;

use igern_core::naive;
use igern_core::processor::Algorithm;
use igern_core::{net_lb, DistanceMode, NetScratch, NetworkSpace, ObjectKind, SpatialStore};
use igern_engine::{Placement, TickRunner};
use igern_geom::{Aabb, Point};
use igern_grid::ObjectId;
use igern_mobgen::workload::Mover;
use igern_mobgen::{
    build_synthetic_network, NetworkMover, RoadClass, RoadNetwork, SyntheticNetworkConfig,
};

const SPACE: Aabb = Aabb {
    min: Point::new(0.0, 0.0),
    max: Point::new(1000.0, 1000.0),
};

fn network(seed: u64) -> igern_mobgen::RoadNetwork {
    build_synthetic_network(&SyntheticNetworkConfig {
        k: 5,
        space: SPACE,
        jitter: 0.2,
        highway_stride: 2,
        prune_fraction: 0.1,
        seed,
    })
}

/// The fuzz matrix: every algorithm family at k ∈ {1, 2, 4}.
fn all_queries() -> Vec<Algorithm> {
    let mut v = vec![
        Algorithm::IgernMono,
        Algorithm::Crnn,
        Algorithm::TplRepeat,
        Algorithm::IgernBi,
        Algorithm::VoronoiRepeat,
    ];
    for k in [1usize, 2, 4] {
        v.push(Algorithm::IgernMonoK(k));
        v.push(Algorithm::IgernBiK(k));
        v.push(Algorithm::Knn(k));
    }
    v
}

/// The network-mode expected answer for `algo`, straight from the
/// brute-force oracles.
fn expected(
    ns: &NetworkSpace,
    scratch: &mut NetScratch,
    store: &SpatialStore,
    q_obj: ObjectId,
    algo: Algorithm,
) -> Vec<ObjectId> {
    let q = store.position(q_obj).expect("anchor alive");
    let mut all: Vec<(ObjectId, Point)> = store.all().iter().collect();
    all.sort_unstable_by_key(|&(id, _)| id);
    let a: Vec<_> = all
        .iter()
        .copied()
        .filter(|&(id, _)| store.kind(id) == ObjectKind::A)
        .collect();
    let b: Vec<_> = all
        .iter()
        .copied()
        .filter(|&(id, _)| store.kind(id) == ObjectKind::B)
        .collect();
    let qi = Some(q_obj);
    match algo {
        Algorithm::IgernMono | Algorithm::Crnn | Algorithm::TplRepeat => {
            naive::mono_rnn_net(ns, scratch, &all, q, qi)
        }
        Algorithm::IgernMonoK(k) => naive::mono_rknn_net(ns, scratch, &all, q, qi, k),
        Algorithm::IgernBi | Algorithm::VoronoiRepeat => {
            naive::bi_rnn_net(ns, scratch, &a, &b, q, qi)
        }
        Algorithm::IgernBiK(k) => naive::bi_rknn_net(ns, scratch, &a, &b, q, qi, k),
        Algorithm::Knn(k) => naive::knn_net(ns, scratch, &all, q, qi, k),
    }
}

/// A one-shard runner over [`store_for`]`(mover, ns, grid)`.
fn runner_for(mover: &NetworkMover, ns: &Arc<NetworkSpace>, grid: usize) -> TickRunner {
    TickRunner::new(store_for(mover, ns, grid), 1, Placement::RoundRobin)
}

/// Build a store over the mover's current population: even ids are kind
/// A (query side), odd ids kind B.
fn store_for(mover: &NetworkMover, ns: &Arc<NetworkSpace>, grid: usize) -> SpatialStore {
    let n = mover.len();
    let kinds: Vec<ObjectKind> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                ObjectKind::A
            } else {
                ObjectKind::B
            }
        })
        .collect();
    let positions: Vec<Point> = (0..n as u32).map(|i| mover.position(i)).collect();
    let mut store = SpatialStore::new(SPACE, grid, kinds);
    store.load(&positions);
    store.set_network(Arc::clone(ns));
    store
}

/// The tentpole gate: all algorithms × k × churn, routed, against the
/// oracles every tick.
#[test]
fn network_monitors_match_oracles_under_churn() {
    for seed in [3u64, 17] {
        let net = network(seed);
        let ns = Arc::new(NetworkSpace::from_network(&net));
        let mut mover = NetworkMover::new(net, 24, seed);
        let mut p = runner_for(&mover, &ns, 16);
        let mut oracle_scratch = NetScratch::default();

        let algos = all_queries();
        let mut handles = Vec::new();
        for (i, &algo) in algos.iter().enumerate() {
            // Anchors cycle through kind-A objects (even ids).
            let anchor = ObjectId(((i * 2) % mover.len()) as u32);
            handles.push((
                p.add_query_in(anchor, algo, DistanceMode::Network).unwrap(),
                anchor,
                algo,
            ));
        }
        p.evaluate_all();

        for tick in 0..24u64 {
            // Mid-stream churn: a static B joins at tick 8, an A at tick
            // 12; the B leaves at tick 16.
            if tick == 8 {
                p.insert_object(ObjectId(200), ObjectKind::B, Point::new(480.0, 520.0));
            }
            if tick == 12 {
                p.insert_object(ObjectId(201), ObjectKind::A, Point::new(30.0, 950.0));
            }
            if tick == 16 {
                p.remove_object(ObjectId(200));
            }
            let updates: Vec<(ObjectId, Point)> = mover
                .advance()
                .iter()
                .map(|u| (ObjectId(u.id), u.pos))
                .collect();
            p.step(&updates);
            for &(h, anchor, algo) in &handles {
                let want = expected(&ns, &mut oracle_scratch, p.store(), anchor, algo);
                assert_eq!(
                    p.answer(h),
                    want.as_slice(),
                    "seed {seed} tick {tick} algo {algo:?} anchor {anchor}"
                );
            }
        }
    }
}

/// Skip routing must be answer-invisible for network monitors: they
/// publish no watch set, so they may only be skipped on fully quiet
/// ticks — force a quiet tick and a dirty tick and compare to a
/// never-skipping twin.
#[test]
fn network_skip_routing_is_answer_invisible() {
    let net = network(9);
    let ns = Arc::new(NetworkSpace::from_network(&net));
    let mut mover = NetworkMover::new(net, 16, 9);
    let mut routed = runner_for(&mover, &ns, 16);
    let mut forced = runner_for(&mover, &ns, 16);
    forced.set_skip_routing(false);
    let [q_r, q_f] = [&mut routed, &mut forced].map(|r| {
        r.add_query_in(ObjectId(0), Algorithm::IgernMonoK(2), DistanceMode::Network)
            .unwrap()
    });
    routed.evaluate_all();
    forced.evaluate_all();
    for round in 0..10 {
        // Alternate quiet ticks (skip fires) with real movement.
        let updates: Vec<(ObjectId, Point)> = if round % 2 == 0 {
            Vec::new()
        } else {
            mover
                .advance()
                .iter()
                .map(|u| (ObjectId(u.id), u.pos))
                .collect()
        };
        routed.step(&updates);
        forced.step(&updates);
        assert_eq!(routed.answer(q_r), forced.answer(q_f), "round {round}");
    }
}

/// Admissibility fuzz: for arbitrary raw positions (on- and off-network
/// alike), the deflated Euclidean distance between snapped points never
/// exceeds the network distance — and therefore the disk
/// `disk(o, d_net(q, o))` the monitors sweep always contains every true
/// blocker. A violation here is exactly "pruning discarded a true
/// network neighbor".
#[test]
fn euclidean_lower_bound_never_discards_a_network_neighbor() {
    let net = network(5);
    let ns = NetworkSpace::from_network(&net);
    let mut scratch = NetScratch::default();
    let mut state = 0xabcdu64;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for _ in 0..200 {
        let q = ns.snap(Point::new(rnd() * 1000.0, rnd() * 1000.0));
        let o = ns.snap(Point::new(rnd() * 1000.0, rnd() * 1000.0));
        let d_net = ns.dist(&mut scratch, &q, &o);
        assert!(
            net_lb(q.point.dist(o.point)) <= d_net,
            "lower bound exceeded network distance"
        );
        // Every point network-closer to o than q must fall inside the
        // Euclidean pruning disk around o.
        for _ in 0..20 {
            let other = ns.snap(Point::new(rnd() * 1000.0, rnd() * 1000.0));
            let d_oo = ns.dist(&mut scratch, &o, &other);
            if d_oo < d_net {
                assert!(
                    net_lb(o.point.dist(other.point)) < d_net,
                    "true network neighbor outside the pruning disk: \
                     d_net(o,o')={d_oo} bound={d_net}"
                );
            }
        }
    }
}

/// Network answers must be independent of scratch warmth and of which
/// shard's scratch evaluates them: two runners with different evaluation
/// histories agree bit-for-bit.
#[test]
fn answers_are_independent_of_memo_warmth() {
    let net = network(21);
    let ns = Arc::new(NetworkSpace::from_network(&net));
    let mut mover = NetworkMover::new(net, 12, 21);
    // `warm` runs extra queries first so its Dijkstra memos differ.
    let mut warm = runner_for(&mover, &ns, 8);
    let mut cold = runner_for(&mover, &ns, 8);
    for i in 0..6 {
        warm.add_query_in(ObjectId(i * 2), Algorithm::Knn(3), DistanceMode::Network)
            .unwrap();
    }
    warm.evaluate_all();
    let [qw, qc] = [&mut warm, &mut cold].map(|r| {
        r.add_query_in(ObjectId(2), Algorithm::IgernMonoK(2), DistanceMode::Network)
            .unwrap()
    });
    for _ in 0..8 {
        let updates: Vec<(ObjectId, Point)> = mover
            .advance()
            .iter()
            .map(|u| (ObjectId(u.id), u.pos))
            .collect();
        warm.step(&updates);
        cold.step(&updates);
        assert_eq!(warm.answer(qw), cold.answer(qc));
    }
}

/// Registration guard: network mode without an attached network must be
/// rejected up front, not fail deep inside evaluation.
#[test]
#[should_panic(expected = "attached road network")]
fn network_mode_requires_a_network() {
    let mut store = SpatialStore::new(SPACE, 8, vec![ObjectKind::A]);
    store.load(&[Point::new(1.0, 1.0)]);
    let mut p = TickRunner::new(store, 1, Placement::RoundRobin);
    if let Err(e) = p.add_query_in(ObjectId(0), Algorithm::IgernMono, DistanceMode::Network) {
        panic!("{e}");
    }
}

// ---- where the pruned candidate expansion is most fragile ----------------

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    }
}

/// Append a `side × side` lattice of intersections 100 apart, origin at
/// `(x0, 0)`: every edge is exactly 100 long, so distances tie wherever
/// they can.
fn lattice(
    side: usize,
    x0: f64,
    nodes: &mut Vec<Point>,
    segs: &mut Vec<(usize, usize, RoadClass)>,
) {
    let base = nodes.len();
    for j in 0..side {
        for i in 0..side {
            nodes.push(Point::new(x0 + 100.0 * i as f64, 100.0 * j as f64));
            let n = base + j * side + i;
            if i > 0 {
                segs.push((n - 1, n, RoadClass::Main));
            }
            if j > 0 {
                segs.push((n - side, n, RoadClass::Main));
            }
        }
    }
}

fn lattice_net(side: usize) -> RoadNetwork {
    let (mut nodes, mut segs) = (Vec::new(), Vec::new());
    lattice(side, 0.0, &mut nodes, &mut segs);
    RoadNetwork::new(nodes, &segs, SPACE)
}

/// A quarter mark of a random edge of `net`, the edge's ends included
/// (so a fifth of the points sit exactly on nodes, `d_a = 0`).
fn quarter_point(net: &RoadNetwork, rnd: &mut impl FnMut() -> f64) -> Point {
    let e = net.edge((rnd() * net.num_edges() as f64) as usize % net.num_edges());
    let f = (rnd() * 5.0).floor().min(4.0) / 4.0;
    net.node(e.a).lerp(net.node(e.b), f)
}

/// `ticks` ticks of 20 moves each to fresh quarter points, never moving
/// an id in `frozen` or beyond `n`.
fn churn(
    net: &RoadNetwork,
    n: usize,
    frozen: &[ObjectId],
    ticks: usize,
    rnd: &mut impl FnMut() -> f64,
) -> Vec<Vec<(ObjectId, Point)>> {
    let mut tick = || {
        let mut ups = Vec::new();
        for _ in 0..20 {
            let id = ObjectId((rnd() * n as f64) as u32 % n as u32);
            let to = quarter_point(net, rnd);
            if !frozen.contains(&id) {
                ups.push((id, to));
            }
        }
        ups
    };
    (0..ticks).map(|_| tick()).collect()
}

fn runner_over(ns: &Arc<NetworkSpace>, kinds: Vec<ObjectKind>, positions: &[Point]) -> TickRunner {
    let mut store = SpatialStore::new(SPACE, 16, kinds);
    store.load(positions);
    store.set_network(Arc::clone(ns));
    TickRunner::new(store, 1, Placement::RoundRobin)
}

/// Even ids kind A, odd ids kind B.
fn alternating(n: usize) -> Vec<ObjectKind> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                ObjectKind::A
            } else {
                ObjectKind::B
            }
        })
        .collect()
}

/// Register both RkNN colours at k ∈ {1, 2, 4, 8} on every anchor, then
/// hold every answer bit-for-bit to the oracle after the initial
/// evaluation and after each of `ticks`.
fn assert_rknn_exact(
    runner: &mut TickRunner,
    ns: &NetworkSpace,
    anchors: &[ObjectId],
    ticks: &[Vec<(ObjectId, Point)>],
    what: &str,
) {
    let mut handles = Vec::new();
    for &anchor in anchors {
        for k in [1, 2, 4, 8] {
            for algo in [Algorithm::IgernMonoK(k), Algorithm::IgernBiK(k)] {
                let h = runner
                    .add_query_in(anchor, algo, DistanceMode::Network)
                    .unwrap();
                handles.push((h, anchor, algo));
            }
        }
    }
    runner.evaluate_all();
    let mut scratch = NetScratch::default();
    for tick in 0..=ticks.len() {
        if tick > 0 {
            runner.step(&ticks[tick - 1]);
        }
        for &(h, anchor, algo) in &handles {
            let want = expected(ns, &mut scratch, runner.store(), anchor, algo);
            assert_eq!(
                runner.answer(h),
                want.as_slice(),
                "{what}: tick {tick} {algo:?} at {anchor}"
            );
        }
    }
}

/// Equal edge lengths everywhere, co-located objects, objects and the
/// anchor exactly on nodes: the ties a pruning margin must not break.
#[test]
fn pruning_is_exact_where_distances_tie() {
    let net = lattice_net(9);
    let ns = Arc::new(NetworkSpace::from_network(&net));
    let mut rnd = lcg(41);
    let mut positions = vec![net.node(40)];
    positions.extend((1..120).map(|_| quarter_point(&net, &mut rnd)));
    let ticks = churn(&net, 120, &[], 5, &mut rnd);
    let mut runner = runner_over(&ns, alternating(120), &positions);
    let anchors = [ObjectId(0), ObjectId(2)];
    assert_rknn_exact(&mut runner, &ns, &anchors, &ticks, "tied lattice");
}

/// Fewer objects than k: nothing can be blocked k times, range checks
/// never prune, and the expansion runs into its budget.
#[test]
fn populations_below_k_are_exact() {
    for (net, what) in [(lattice_net(3), "3×3 lattice"), (network(11), "synthetic")] {
        let ns = Arc::new(NetworkSpace::from_network(&net));
        let mut rnd = lcg(7);
        for n in [1, 2, 3, 5] {
            let positions: Vec<Point> = (0..n).map(|_| quarter_point(&net, &mut rnd)).collect();
            let ticks = churn(&net, n, &[], 3, &mut rnd);
            let mut runner = runner_over(&ns, alternating(n), &positions);
            assert_rknn_exact(&mut runner, &ns, &[ObjectId(0)], &ticks, what);
        }
    }
}

/// Bichromatic with no A object but the anchor: nothing blocks, so every
/// B object answers.
#[test]
fn bichromatic_without_blockers_is_exact() {
    let net = lattice_net(9);
    let ns = Arc::new(NetworkSpace::from_network(&net));
    let mut rnd = lcg(13);
    let positions: Vec<Point> = (0..60).map(|_| quarter_point(&net, &mut rnd)).collect();
    let mut kinds = vec![ObjectKind::B; 60];
    kinds[0] = ObjectKind::A;
    let ticks = churn(&net, 60, &[], 3, &mut rnd);
    let mut runner = runner_over(&ns, kinds, &positions);
    assert_rknn_exact(&mut runner, &ns, &[ObjectId(0)], &ticks, "lone A");
}

/// A desynced object is still listed on its edge (as in its grid
/// bucket) but is neither a candidate nor a blocker.
#[test]
fn desynced_objects_neither_answer_nor_block() {
    let net = lattice_net(9);
    let ns = Arc::new(NetworkSpace::from_network(&net));
    let mut rnd = lcg(29);
    let positions: Vec<Point> = (0..120).map(|_| quarter_point(&net, &mut rnd)).collect();
    let victims = [3, 5, 8, 11, 17, 40, 41].map(ObjectId);
    let ticks = churn(&net, 120, &victims, 5, &mut rnd);
    let mut runner = runner_over(&ns, alternating(120), &positions);
    for &id in &victims {
        assert!(runner.debug_force_desync(id));
    }
    let anchors = [ObjectId(0), ObjectId(2)];
    assert_rknn_exact(&mut runner, &ns, &anchors, &ticks, "desynced");
}

/// Two components: objects out of `q`'s reach have an infinite bound,
/// which only the exhaustive path decides.
#[test]
fn two_components_are_exact() {
    let (mut nodes, mut segs) = (Vec::new(), Vec::new());
    lattice(4, 0.0, &mut nodes, &mut segs);
    lattice(4, 600.0, &mut nodes, &mut segs);
    let net = RoadNetwork::new(nodes, &segs, SPACE);
    let ns = Arc::new(NetworkSpace::from_network(&net));
    let mut rnd = lcg(5);
    let positions: Vec<Point> = (0..60).map(|_| quarter_point(&net, &mut rnd)).collect();
    let ticks = churn(&net, 60, &[], 4, &mut rnd);
    let mut runner = runner_over(&ns, alternating(60), &positions);
    let anchors = [ObjectId(0), ObjectId(2), ObjectId(4)];
    assert_rknn_exact(&mut runner, &ns, &anchors, &ticks, "two components");
}
