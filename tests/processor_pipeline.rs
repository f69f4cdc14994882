//! Cross-crate integration tests: full workload → store → tick runner
//! pipelines comparing every algorithm tick-by-tick against the
//! brute-force oracles.

use igern::core::naive;
use igern::core::processor::Algorithm;
use igern::core::types::ObjectKind;
use igern::core::SpatialStore;
use igern::engine::{Placement, TickRunner};
use igern::geom::Point;
use igern::grid::ObjectId;
use igern::mobgen::{ObjKind, Workload, WorkloadConfig};

/// Build a loaded one-shard runner over a seeded network workload.
fn build(cfg: &WorkloadConfig, grid: usize) -> (Workload, TickRunner) {
    let world = Workload::from_config(cfg);
    let kinds: Vec<ObjectKind> = world
        .kinds()
        .iter()
        .map(|k| match k {
            ObjKind::A => ObjectKind::A,
            ObjKind::B => ObjectKind::B,
        })
        .collect();
    let mut store = SpatialStore::new(world.mover().space(), grid, kinds);
    let spawn: Vec<Point> = (0..world.len() as u32)
        .map(|i| world.mover().position(i))
        .collect();
    store.load(&spawn);
    (world, TickRunner::new(store, 1, Placement::RoundRobin))
}

fn advance(world: &mut Workload, proc: &mut TickRunner) {
    let ups: Vec<(ObjectId, Point)> = world
        .advance()
        .iter()
        .map(|u| (ObjectId(u.id), u.pos))
        .collect();
    proc.step(&ups);
}

#[test]
fn mono_algorithms_agree_with_oracle_over_a_long_run() {
    let cfg = WorkloadConfig::network_mono(600, 11);
    let (mut world, mut proc) = build(&cfg, 24);
    let queries = [ObjectId(0), ObjectId(250), ObjectId(599)];
    let mut handles = Vec::new();
    for &q in &queries {
        handles.push((q, proc.add_query(q, Algorithm::IgernMono).unwrap()));
        handles.push((q, proc.add_query(q, Algorithm::Crnn).unwrap()));
        handles.push((q, proc.add_query(q, Algorithm::TplRepeat).unwrap()));
    }
    proc.evaluate_all();
    for tick in 0..25 {
        if tick > 0 {
            advance(&mut world, &mut proc);
        }
        let objs: Vec<(ObjectId, Point)> = proc.store().all().iter().collect();
        for &(q, h) in &handles {
            let qpos = proc.store().position(q).unwrap();
            let want = naive::mono_rnn(&objs, qpos, Some(q));
            assert_eq!(proc.answer(h), want.as_slice(), "tick {tick} query {q}");
        }
    }
}

#[test]
fn bi_algorithms_agree_with_oracle_over_a_long_run() {
    let cfg = WorkloadConfig::network_bi(500, 23);
    let (mut world, mut proc) = build(&cfg, 24);
    let queries = [ObjectId(0), ObjectId(120), ObjectId(249)];
    let mut handles = Vec::new();
    for &q in &queries {
        handles.push((q, proc.add_query(q, Algorithm::IgernBi).unwrap()));
        handles.push((q, proc.add_query(q, Algorithm::VoronoiRepeat).unwrap()));
    }
    proc.evaluate_all();
    for tick in 0..25 {
        if tick > 0 {
            advance(&mut world, &mut proc);
        }
        let a: Vec<(ObjectId, Point)> = proc.store().grid_a().iter().collect();
        let b: Vec<(ObjectId, Point)> = proc.store().grid_b().iter().collect();
        for &(q, h) in &handles {
            let qpos = proc.store().position(q).unwrap();
            let want = naive::bi_rnn(&a, &b, qpos, Some(q));
            assert_eq!(proc.answer(h), want.as_slice(), "tick {tick} query {q}");
        }
    }
}

#[test]
fn answers_are_invariant_to_grid_size() {
    // The grid is an index, not part of the semantics: any grid size must
    // give identical answers on an identical stream.
    let mut answers_by_grid = Vec::new();
    for grid in [4usize, 16, 48] {
        let cfg = WorkloadConfig::network_mono(300, 5);
        let (mut world, mut proc) = build(&cfg, grid);
        let h = proc.add_query(ObjectId(42), Algorithm::IgernMono).unwrap();
        proc.evaluate_all();
        let mut per_tick = vec![proc.answer(h).to_vec()];
        for _ in 0..10 {
            advance(&mut world, &mut proc);
            per_tick.push(proc.answer(h).to_vec());
        }
        answers_by_grid.push(per_tick);
    }
    assert_eq!(answers_by_grid[0], answers_by_grid[1]);
    assert_eq!(answers_by_grid[1], answers_by_grid[2]);
}

#[test]
fn mono_answer_never_exceeds_six() {
    let cfg = WorkloadConfig::network_mono(800, 31);
    let (mut world, mut proc) = build(&cfg, 32);
    let hs: Vec<usize> = (0..8u32)
        .map(|i| {
            proc.add_query(ObjectId(i * 100), Algorithm::IgernMono)
                .unwrap()
        })
        .collect();
    proc.evaluate_all();
    for _ in 0..15 {
        advance(&mut world, &mut proc);
        for &h in &hs {
            assert!(proc.answer(h).len() <= 6, "six-RNN theorem violated");
            assert!(
                proc.monitored(h) <= 6,
                "exact-mode candidate bound violated"
            );
        }
    }
}

#[test]
fn teleporting_objects_are_handled() {
    // Failure injection: an object teleports across the space each tick —
    // the incremental step must stay exact.
    let cfg = WorkloadConfig::network_mono(200, 77);
    let (mut world, mut proc) = build(&cfg, 16);
    let h = proc.add_query(ObjectId(10), Algorithm::IgernMono).unwrap();
    proc.evaluate_all();
    let space = *proc.store().space();
    for tick in 0..12 {
        let mut ups: Vec<(ObjectId, Point)> = world
            .advance()
            .iter()
            .map(|u| (ObjectId(u.id), u.pos))
            .collect();
        // Teleport object 199 to a pseudo-random corner-ish location.
        let t = tick as f64;
        let tp = Point::new(
            space.min.x + (t * 137.0) % space.width(),
            space.min.y + (t * 311.0) % space.height(),
        );
        ups.push((ObjectId(199), tp));
        proc.step(&ups);
        let objs: Vec<(ObjectId, Point)> = proc.store().all().iter().collect();
        let qpos = proc.store().position(ObjectId(10)).unwrap();
        let want = naive::mono_rnn(&objs, qpos, Some(ObjectId(10)));
        assert_eq!(proc.answer(h), want.as_slice(), "tick {tick}");
    }
}

#[test]
fn quiescent_stream_is_cheap_and_stable() {
    // No object moves: after the initial step the answers must not change,
    // and the incremental steps must do almost no search work.
    let cfg = WorkloadConfig::network_mono(400, 9);
    let (_world, mut proc) = build(&cfg, 24);
    let h = proc.add_query(ObjectId(7), Algorithm::IgernMono).unwrap();
    proc.evaluate_all();
    let first = proc.answer(h).to_vec();
    for _ in 0..10 {
        proc.step(&[]); // empty tick
        assert_eq!(proc.answer(h), first.as_slice());
    }
    // The initial sample dominates the total object visits.
    let hist = proc.history(h);
    let initial_visits = hist[0].ops.objects_visited;
    let later_max = hist
        .iter()
        .skip(1)
        .map(|s| s.ops.objects_visited)
        .max()
        .unwrap();
    assert!(
        later_max <= initial_visits,
        "quiescent ticks ({later_max}) must not out-work the initial step ({initial_visits})"
    );
}

#[test]
fn duplicate_positions_do_not_break_exactness() {
    // Several objects stacked on the same point (distance ties everywhere).
    let kinds = vec![ObjectKind::A; 6];
    let space = igern::geom::Aabb::from_coords(0.0, 0.0, 10.0, 10.0);
    let mut store = SpatialStore::new(space, 8, kinds);
    store.load(&[
        Point::new(5.0, 5.0), // query
        Point::new(4.0, 5.0),
        Point::new(4.0, 5.0), // duplicate of object 1
        Point::new(4.0, 5.0), // another duplicate
        Point::new(8.0, 8.0),
        Point::new(1.0, 1.0),
    ]);
    let mut proc = TickRunner::new(store, 1, Placement::RoundRobin);
    let hi = proc.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
    let hc = proc.add_query(ObjectId(0), Algorithm::Crnn).unwrap();
    proc.evaluate_all();
    let objs: Vec<(ObjectId, Point)> = proc.store().all().iter().collect();
    let want = naive::mono_rnn(&objs, Point::new(5.0, 5.0), Some(ObjectId(0)));
    assert_eq!(proc.answer(hi), want.as_slice());
    assert_eq!(proc.answer(hc), want.as_slice());
}

#[test]
fn random_waypoint_movement_also_exact() {
    // Ablation A4's movement model goes through the same exactness check.
    let cfg = WorkloadConfig {
        num_objects: 300,
        seed: 3,
        movement: igern::mobgen::Movement::RandomWaypoint {
            space: igern::geom::Aabb::from_coords(0.0, 0.0, 500.0, 500.0),
            min_speed: 2.0,
            max_speed: 10.0,
        },
        kind_a_fraction: Some(0.5),
    };
    let (mut world, mut proc) = build(&cfg, 16);
    let hm = proc.add_query(ObjectId(3), Algorithm::IgernMono).unwrap();
    let hb = proc.add_query(ObjectId(3), Algorithm::IgernBi).unwrap();
    proc.evaluate_all();
    for tick in 0..15 {
        advance(&mut world, &mut proc);
        let qpos = proc.store().position(ObjectId(3)).unwrap();
        let objs: Vec<(ObjectId, Point)> = proc.store().all().iter().collect();
        let a: Vec<(ObjectId, Point)> = proc.store().grid_a().iter().collect();
        let b: Vec<(ObjectId, Point)> = proc.store().grid_b().iter().collect();
        assert_eq!(
            proc.answer(hm),
            naive::mono_rnn(&objs, qpos, Some(ObjectId(3))).as_slice(),
            "mono tick {tick}"
        );
        assert_eq!(
            proc.answer(hb),
            naive::bi_rnn(&a, &b, qpos, Some(ObjectId(3))).as_slice(),
            "bi tick {tick}"
        );
    }
}
