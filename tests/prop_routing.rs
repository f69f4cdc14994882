//! Dirty-region update routing: a runner with skip routing enabled
//! must produce exactly the answers of a force-evaluating runner over
//! the same update stream — for every algorithm, under movement, dynamic
//! insertion, and removal — while actually skipping work when updates
//! stay away from the watched cells.

mod common;

use common::Lcg;
use igern::core::processor::Algorithm;
use igern::core::types::ObjectKind;
use igern::core::SpatialStore;
use igern::engine::{Placement, TickRunner};
use igern::geom::{Aabb, Point};
use igern::grid::ObjectId;

const SIDE: f64 = 100.0;

fn space() -> Aabb {
    Aabb::from_coords(0.0, 0.0, SIDE, SIDE)
}

/// A store with `n_a` kind-A objects followed by `n_b` kind-B objects.
fn loaded_store(rng: &mut Lcg, n_a: usize, n_b: usize, grid_n: usize) -> SpatialStore {
    let mut kinds = vec![ObjectKind::A; n_a];
    kinds.extend(vec![ObjectKind::B; n_b]);
    let mut store = SpatialStore::new(space(), grid_n, kinds);
    let pts = rng.points(n_a + n_b, SIDE);
    store.load(&pts);
    store
}

/// Every algorithm, same random stream with mid-stream object insertion
/// and removal: routed answers must equal force-evaluated answers on
/// every one of 220 ticks.
#[test]
fn routed_answers_equal_forced_answers_for_all_algorithms() {
    let mut rng = Lcg::new(0x0d12_7e57);
    run_equivalence_stream(&mut rng);
}

fn run_equivalence_stream(rng: &mut Lcg) {
    const N_A: usize = 40;
    const N_B: usize = 40;
    const TICKS: usize = 220;

    let algos = [
        Algorithm::IgernMono,
        Algorithm::Crnn,
        Algorithm::TplRepeat,
        Algorithm::IgernBi,
        Algorithm::VoronoiRepeat,
        Algorithm::IgernMonoK(2),
        Algorithm::IgernBiK(2),
        Algorithm::Knn(3),
    ];
    let mk = |rng: &mut Lcg, routing: bool| {
        let mut p = TickRunner::new(loaded_store(rng, N_A, N_B, 16), 1, Placement::RoundRobin);
        p.set_skip_routing(routing);
        // Anchors are kind-A objects (required by the bichromatic ones).
        for (i, &algo) in algos.iter().enumerate() {
            p.add_query(ObjectId(i as u32 * 3), algo).unwrap();
        }
        p.evaluate_all();
        p
    };
    // Both runners must see the same initial positions: clone the
    // stream by re-seeding.
    let seed = rng.next_u64();
    let mut routed = mk(&mut Lcg::new(seed), true);
    let mut forced = mk(&mut Lcg::new(seed), false);

    let mut next_id = (N_A + N_B) as u32;
    let mut dynamic: Vec<ObjectId> = Vec::new();
    for tick in 0..TICKS {
        // Movement: most ticks only a far-corner clique moves, so the
        // routed runner has real opportunities to skip.
        let mut ups: Vec<(ObjectId, Point)> = Vec::new();
        let global = rng.bool(0.3);
        let n_moves = 1 + rng.usize(8);
        for _ in 0..n_moves {
            let id = ObjectId(rng.usize(N_A + N_B) as u32);
            if routed.store().position(id).is_none() {
                continue;
            }
            let p = if global {
                rng.point(SIDE)
            } else {
                // Localized jitter in the upper-right corner.
                Point::new(rng.range_f64(85.0, 100.0), rng.range_f64(85.0, 100.0))
            };
            ups.push((id, p));
        }
        // Dynamic population: occasionally insert a fresh object or
        // remove one inserted earlier (never a query anchor).
        if rng.bool(0.15) {
            let kind = if rng.bool(0.5) {
                ObjectKind::A
            } else {
                ObjectKind::B
            };
            let pos = rng.point(SIDE);
            routed.insert_object(ObjectId(next_id), kind, pos);
            forced.insert_object(ObjectId(next_id), kind, pos);
            dynamic.push(ObjectId(next_id));
            next_id += 1;
        }
        if !dynamic.is_empty() && rng.bool(0.1) {
            let id = dynamic.swap_remove(rng.usize(dynamic.len()));
            routed.remove_object(id);
            forced.remove_object(id);
        }
        routed.step(&ups);
        forced.step(&ups);
        for (qi, algo) in algos.iter().enumerate() {
            assert_eq!(
                routed.answer(qi),
                forced.answer(qi),
                "algorithm {algo:?} diverged at tick {tick}"
            );
        }
    }
    // Sanity: the routed runner did skip something over 220 ticks of
    // mostly-localized updates.
    let skipped: usize = (0..algos.len())
        .map(|qi| routed.history(qi).iter().filter(|s| s.skipped).count())
        .sum();
    assert!(skipped > 0, "routing never skipped a single query-tick");
    let forced_skips: usize = (0..algos.len())
        .map(|qi| forced.history(qi).iter().filter(|s| s.skipped).count())
        .sum();
    assert_eq!(forced_skips, 0, "forced runner must never skip");
}

/// The acceptance workload: 64 queries spread over the space, updates
/// confined to one grid corner. The majority of query-ticks must be
/// skipped, and every answer must equal the force-evaluate oracle.
#[test]
fn corner_updates_skip_the_majority_of_query_ticks() {
    const N_QUERIES: usize = 64;
    const N_FILLER: usize = 336;
    const N_MOVERS: usize = 40;
    const TICKS: usize = 40;
    const CORNER: f64 = 10.0;

    let mut rng = Lcg::new(0xc02e_5eed);
    // Anchors on an 8×8 lattice, fillers uniform, movers in the corner.
    let mut pts: Vec<Point> = Vec::new();
    for iy in 0..8 {
        for ix in 0..8 {
            pts.push(Point::new(ix as f64 * 12.5 + 6.25, iy as f64 * 12.5 + 6.25));
        }
    }
    pts.extend(rng.points(N_FILLER, SIDE));
    for _ in 0..N_MOVERS {
        pts.push(rng.point(CORNER));
    }
    let n = pts.len();
    let mk = |routing: bool| {
        let mut store = SpatialStore::new(space(), 16, vec![ObjectKind::A; n]);
        store.load(&pts);
        let mut p = TickRunner::new(store, 1, Placement::RoundRobin);
        p.set_skip_routing(routing);
        for i in 0..N_QUERIES {
            p.add_query(ObjectId(i as u32), Algorithm::IgernMono)
                .unwrap();
        }
        p.evaluate_all();
        p
    };
    let mut routed = mk(true);
    let mut forced = mk(false);

    let first_mover = (N_QUERIES + N_FILLER) as u32;
    for tick in 0..TICKS {
        let mut ups: Vec<(ObjectId, Point)> = Vec::new();
        for m in 0..N_MOVERS {
            if rng.bool(0.6) {
                // Movers jitter but never leave the corner.
                ups.push((ObjectId(first_mover + m as u32), rng.point(CORNER)));
            }
        }
        routed.step(&ups);
        forced.step(&ups);
        for qi in 0..N_QUERIES {
            assert_eq!(
                routed.answer(qi),
                forced.answer(qi),
                "query {qi} diverged at tick {tick}"
            );
        }
    }

    let mut skipped = 0usize;
    let mut evaluated = 0usize;
    for qi in 0..N_QUERIES {
        // Skip the initial evaluation sample (tick 0, never skippable).
        for s in routed.history(qi).iter().skip(1) {
            if s.skipped {
                skipped += 1;
            } else {
                evaluated += 1;
            }
        }
    }
    assert_eq!(skipped + evaluated, N_QUERIES * TICKS);
    assert!(
        skipped > evaluated,
        "expected the majority of query-ticks skipped, got {skipped} skipped \
         vs {evaluated} evaluated"
    );
}
