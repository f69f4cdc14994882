//! Integration tests for the auxiliary continuous k-NN monitor, the
//! duality invariant connecting it to the RNN monitors, and the pinned
//! digests of the IGERN monitors.

mod common;

use common::Lcg;
use igern::core::processor::Algorithm;
use igern::core::prune::PruneGranularity;
use igern::core::types::ObjectKind;
use igern::core::{EvalScratch, KnnMonitor, MonoIgern, SpatialStore};
use igern::engine::{Placement, TickRunner};
use igern::geom::{Aabb, Point};
use igern::grid::{k_nearest, Grid, ObjectId, OpCounters};
use igern::mobgen::{Workload, WorkloadConfig};

/// Build a grid mirroring a workload's initial state.
fn grid_of(world: &Workload, n: usize) -> Grid {
    let mut g = Grid::new(world.mover().space(), n);
    for i in 0..world.len() as u32 {
        g.insert(ObjectId(i), world.mover().position(i));
    }
    g
}

#[test]
fn rknn_knn_duality_holds_every_tick() {
    // o ∈ RkNN(q)  ⟺  q is among o's k nearest (counting q as an object).
    let mut world = Workload::from_config(&WorkloadConfig::network_mono(250, 13));
    let mut g = grid_of(&world, 16);
    let q_id = ObjectId(0);
    let k = 3;
    let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
    let q = g.position(q_id).unwrap();
    let exact = PruneGranularity::Exact;
    let mut monitor = MonoIgern::initial(&g, q, Some(q_id), k, exact, &mut ops, &mut scratch);
    for tick in 0..10 {
        if tick > 0 {
            for u in world.advance().to_vec() {
                g.update(ObjectId(u.id), u.pos);
            }
            monitor.incremental(&g, g.position(q_id).unwrap(), &mut ops, &mut scratch);
        }
        let q_pos = g.position(q_id).unwrap();
        let answer = monitor.rnn();
        for i in 0..250u32 {
            let o = ObjectId(i);
            if o == q_id {
                continue;
            }
            let o_pos = g.position(o).unwrap();
            // q is among o's k nearest iff fewer than k other objects are
            // strictly closer to o than q is.
            let knn_of_o = k_nearest(&g, o_pos, k, Some(o), &mut ops);
            let q_in_knn = knn_of_o
                .iter()
                .any(|n| n.id == q_id)
                // Ties at the k-th distance also qualify under the strict
                // "fewer than k closer" definition.
                || knn_of_o
                    .last()
                    .is_some_and(|kth| o_pos.dist_sq(q_pos) <= kth.dist_sq)
                || knn_of_o.len() < k;
            assert_eq!(
                answer.contains(&o),
                q_in_knn,
                "duality violated for {o} at tick {tick}"
            );
        }
    }
}

#[test]
fn monitors_survive_population_collapse() {
    // Remove objects until only the query remains; all monitors must
    // degrade to empty answers without panicking.
    let world = Workload::from_config(&WorkloadConfig::network_mono(50, 31));
    let mut g = grid_of(&world, 8);
    let q_id = ObjectId(0);
    let q = g.position(q_id).unwrap();
    let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
    let exact = PruneGranularity::Exact;
    let mut knn = KnnMonitor::initial(&g, q, Some(q_id), 5, &mut ops);
    let mut rknn = MonoIgern::initial(&g, q, Some(q_id), 2, exact, &mut ops, &mut scratch);
    for i in 1..50u32 {
        g.remove(ObjectId(i));
        knn.incremental(&g, q, &mut ops);
        rknn.incremental(&g, q, &mut ops, &mut scratch);
    }
    assert!(knn.answer().is_empty());
    assert!(rknn.rnn().is_empty());
}

/// FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Drive 16 queries of `algo` (8 packed into one grid cell, 8
/// scattered) over 2,400 mixed-kind objects for the
/// initial evaluation plus 30 ticks of movement; returns the FNV-1a
/// digests of `(answers, all seven op counters, monitored)` and of the
/// answers alone, over every query and tick.
fn igern_run_digests(algo: Algorithm, workers: usize) -> (u64, u64) {
    const N: usize = 2400;
    const SIDE: f64 = 1000.0;
    const QUERIES: usize = 16;
    let kinds: Vec<ObjectKind> = (0..N)
        .map(|i| {
            if i % 3 == 2 {
                ObjectKind::B
            } else {
                ObjectKind::A
            }
        })
        .collect();
    let mut rng = Lcg::new(0x16e7);
    let mut pts = rng.points(N, SIDE);
    // Anchors are kind-A ids 0, 1, 3, 4, 6, …; the first eight share the
    // cell at (400..431, 400..431) of the 32×32 grid.
    let anchors: Vec<ObjectId> = (0..N as u32)
        .filter(|i| i % 3 != 2)
        .take(QUERIES)
        .map(ObjectId)
        .collect();
    for (j, a) in anchors.iter().take(QUERIES / 2).enumerate() {
        pts[a.0 as usize] = Point::new(402.0 + 3.0 * j as f64, 405.0 + 2.0 * j as f64);
    }
    let mut store = SpatialStore::new(Aabb::from_coords(0.0, 0.0, SIDE, SIDE), 32, kinds);
    store.load(&pts);
    let mut p = TickRunner::new(store, workers, Placement::RoundRobin);
    let qs: Vec<usize> = anchors
        .iter()
        .map(|&a| p.add_query(a, algo).unwrap())
        .collect();
    let (mut full, mut answers) = (Fnv::new(), Fnv::new());
    for tick in 0..=30 {
        if tick == 0 {
            p.evaluate_all();
        } else {
            let mut ups = Vec::new();
            for (i, pos) in pts.iter_mut().enumerate() {
                // The packed anchors stay put.
                let packed = anchors[..QUERIES / 2].contains(&ObjectId(i as u32));
                if !packed && rng.usize(4) == 0 {
                    *pos = Point::new(
                        (pos.x + rng.range_f64(-20.0, 20.0)).clamp(0.0, SIDE),
                        (pos.y + rng.range_f64(-20.0, 20.0)).clamp(0.0, SIDE),
                    );
                    ups.push((ObjectId(i as u32), *pos));
                }
            }
            p.step(&ups);
        }
        for &q in &qs {
            let ans = p.answer(q);
            for h in [&mut full, &mut answers] {
                h.word(ans.len() as u64);
                for id in ans {
                    h.word(id.0 as u64);
                }
            }
            let o = p.history(q).latest().unwrap().ops;
            for w in [
                o.nn,
                o.nn_c,
                o.nn_b,
                o.verifications,
                o.cells_visited,
                o.objects_visited,
                o.desyncs,
                p.monitored(q) as u64,
            ] {
                full.word(w);
            }
        }
    }
    (full.0, answers.0)
}

/// Behaviour pin for the merge of the k = 1 / order-k monitor twins into
/// one `MonoIgern` / `BiIgern`. The digests were recorded by running
/// this test at the parent commit 578e915, where `IgernMono` and
/// `IgernMonoK(1)` were different code (already with equal digests) and
/// `IgernBi` and `IgernBiK(1)` different behaviour. Seven rows are the
/// parent's values unchanged. The one predicted change is `IgernBiK(1)`:
/// it now evaluates as `IgernBi` (Algorithm 3's Phase II, whose blockers
/// join `NN_A`) instead of the capped blocker count, so its full digest
/// moved from the parent's `0xe25ace557c889d87` to `IgernBi`'s row — its
/// answers digest is the parent's.
///
/// The digests were produced by the serial loop `TickRunner` replaced
/// (one thread, one query vector). Answers, op counters and `monitored`
/// do not depend on how the queries are sharded, so every row must
/// reproduce at any worker count.
#[test]
fn igern_behaviour_is_pinned_to_the_pre_merge_twins() {
    let rows: [(Algorithm, u64, u64); 8] = [
        (Algorithm::IgernMono, 0x85517ce5013056d0, 0x133aec73e7186350),
        (
            Algorithm::IgernMonoK(1),
            0x85517ce5013056d0,
            0x133aec73e7186350,
        ),
        (
            Algorithm::IgernMonoK(2),
            0x62c07e9d8717517b,
            0x61e7eb0fff5ab055,
        ),
        (
            Algorithm::IgernMonoK(4),
            0xc6b2b3e0204b6924,
            0xc4297cbe5c293bae,
        ),
        (Algorithm::IgernBi, 0x4403fcbd628f1eac, 0xb98687479b43db5a),
        (
            Algorithm::IgernBiK(1),
            0x4403fcbd628f1eac,
            0xb98687479b43db5a,
        ),
        (
            Algorithm::IgernBiK(2),
            0x288e7e286a63a40e,
            0xa907ed21789c386d,
        ),
        (
            Algorithm::IgernBiK(4),
            0x7cd060a9bd0020d4,
            0x630e1b93f2a73f0b,
        ),
    ];
    for (algo, full, answers) in rows {
        for workers in [1, 2, 4] {
            let got = igern_run_digests(algo, workers);
            assert_eq!(
                got,
                (full, answers),
                "{algo:?} workers {workers}: (full, answers) digests {:#018x} {:#018x}",
                got.0,
                got.1
            );
        }
    }
}
