//! Soak test: a mixed fleet of every algorithm over a long shared stream
//! with dynamic population churn, verified against the oracles at
//! checkpoints. Exercises the cross-product of features that unit tests
//! cover in isolation.

use igern::core::naive;
use igern::core::processor::Algorithm;
use igern::core::types::ObjectKind;
use igern::core::SpatialStore;
use igern::engine::{Placement, TickRunner};
use igern::geom::Point;
use igern::grid::ObjectId;
use igern::mobgen::{ObjKind, Workload, WorkloadConfig};

#[test]
fn mixed_fleet_long_run_with_churn() {
    let cfg = WorkloadConfig::network_bi(400, 2026);
    let mut world = Workload::from_config(&cfg);
    let kinds: Vec<ObjectKind> = world
        .kinds()
        .iter()
        .map(|k| match k {
            ObjKind::A => ObjectKind::A,
            ObjKind::B => ObjectKind::B,
        })
        .collect();
    let mut store = SpatialStore::new(world.mover().space(), 24, kinds);
    let spawn: Vec<Point> = (0..world.len() as u32)
        .map(|i| world.mover().position(i))
        .collect();
    store.load(&spawn);
    let mut proc = TickRunner::new(store, 1, Placement::RoundRobin);

    // One of everything, anchored on A-objects.
    let anchors = [ObjectId(0), ObjectId(50), ObjectId(100), ObjectId(150)];
    let algos = [
        Algorithm::IgernMono,
        Algorithm::Crnn,
        Algorithm::TplRepeat,
        Algorithm::IgernBi,
        Algorithm::VoronoiRepeat,
        Algorithm::IgernMonoK(3),
        Algorithm::IgernBiK(2),
        Algorithm::Knn(5),
    ];
    let mut handles = Vec::new();
    for (i, &algo) in algos.iter().enumerate() {
        let anchor = anchors[i % anchors.len()];
        handles.push((anchor, algo, proc.add_query(anchor, algo).unwrap()));
    }
    proc.evaluate_all();

    // Extra objects that appear and disappear over the run.
    let mut ghost_alive = false;
    for tick in 1..=60 {
        let ups: Vec<(ObjectId, Point)> = world
            .advance()
            .iter()
            .map(|u| (ObjectId(u.id), u.pos))
            .collect();
        // Population churn every 7 ticks: a kind-A ghost object near the
        // first anchor flickers in and out.
        if tick % 7 == 0 {
            if ghost_alive {
                proc.remove_object(ObjectId(9_000));
            } else {
                let near = proc.store().position(anchors[0]).unwrap();
                proc.insert_object(
                    ObjectId(9_000),
                    ObjectKind::A,
                    Point::new(near.x + 3.0, near.y),
                );
            }
            ghost_alive = !ghost_alive;
        }
        proc.step(&ups);

        // Checkpoint every 10 ticks: every query must match its oracle.
        if tick % 10 != 0 {
            continue;
        }
        let objs: Vec<(ObjectId, Point)> = proc.store().all().iter().collect();
        let a: Vec<(ObjectId, Point)> = proc.store().grid_a().iter().collect();
        let b: Vec<(ObjectId, Point)> = proc.store().grid_b().iter().collect();
        for &(anchor, algo, h) in &handles {
            let qpos = proc.store().position(anchor).unwrap();
            match algo {
                Algorithm::IgernMono | Algorithm::Crnn | Algorithm::TplRepeat => {
                    let want = naive::mono_rnn(&objs, qpos, Some(anchor));
                    assert_eq!(proc.answer(h), want.as_slice(), "{algo:?} tick {tick}");
                }
                Algorithm::IgernBi | Algorithm::VoronoiRepeat => {
                    let want = naive::bi_rnn(&a, &b, qpos, Some(anchor));
                    assert_eq!(proc.answer(h), want.as_slice(), "{algo:?} tick {tick}");
                }
                Algorithm::IgernMonoK(k) => {
                    let want = naive::mono_rknn(&objs, qpos, Some(anchor), k);
                    assert_eq!(proc.answer(h), want.as_slice(), "{algo:?} tick {tick}");
                }
                Algorithm::IgernBiK(k) => {
                    let want = naive::bi_rknn(&a, &b, qpos, Some(anchor), k);
                    assert_eq!(proc.answer(h), want.as_slice(), "{algo:?} tick {tick}");
                }
                Algorithm::Knn(k) => {
                    // Oracle: the k smallest distances, ids sorted.
                    let mut all: Vec<(f64, ObjectId)> = objs
                        .iter()
                        .filter(|&&(id, _)| id != anchor)
                        .map(|&(id, p)| (qpos.dist_sq(p), id))
                        .collect();
                    all.sort_by(|x, y| x.0.total_cmp(&y.0));
                    let mut want: Vec<ObjectId> =
                        all.into_iter().take(k).map(|(_, id)| id).collect();
                    want.sort_unstable();
                    assert_eq!(proc.answer(h), want.as_slice(), "{algo:?} tick {tick}");
                }
            }
        }
    }
}
