//! Microbenchmarks for the hot paths: the shared NN substrate, the
//! per-tick cost of each continuous algorithm (the quantity behind
//! Figures 7a/8a/9a/10a), grid maintenance (behind Figure 6a), and the
//! processor's routed evaluation over many standing queries.
//!
//! Run with `cargo run --release -p igern-bench --bin microbench`.
//! Timing comes from the in-repo [`igern_bench::microtime`] harness, so
//! the whole workspace builds offline.

use igern_bench::microtime::{bench, bench_batched};
use igern_core::baselines::{tpl_snapshot, voronoi_snapshot, Crnn};
use igern_core::processor::{Algorithm, Processor};
use igern_core::types::ObjectKind;
use igern_core::{BiIgern, KnnMonitor, MonoIgern, RangeMonitor, SpatialStore};
use igern_grid::{exists_closer_than, k_nearest, nearest, ObjectId, OpCounters};
use igern_mobgen::{ObjKind, Workload, WorkloadConfig};
use igern_rtree::{tpl_snapshot_rtree, RTree};

const N_OBJECTS: usize = 50_000;
const GRID: usize = 64;
const SEED: u64 = 7;

/// One loaded store + a mover positioned a few ticks in, shared by all
/// benchmarks.
struct Fixture {
    store: SpatialStore,
    world: Workload,
    query: ObjectId,
}

fn fixture(bichromatic: bool) -> Fixture {
    let cfg = if bichromatic {
        WorkloadConfig::network_bi(N_OBJECTS, SEED)
    } else {
        WorkloadConfig::network_mono(N_OBJECTS, SEED)
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
    let mut store = SpatialStore::new(world.mover().space(), GRID, kinds);
    let init: Vec<_> = (0..world.len() as u32)
        .map(|i| world.mover().position(i))
        .collect();
    store.load(&init);
    // Warm a few ticks so objects are in steady-state motion.
    for _ in 0..3 {
        for u in world.advance().to_vec() {
            store.apply(ObjectId(u.id), u.pos);
        }
    }
    Fixture {
        store,
        world,
        query: ObjectId(0),
    }
}

fn bench_nn_substrate() {
    let f = fixture(false);
    let q = f.store.position(f.query).unwrap();
    bench("nn_substrate", "nearest", || {
        let mut ops = OpCounters::new();
        nearest(f.store.all(), q, Some(f.query), &mut ops)
    });
    bench("nn_substrate", "k_nearest_16", || {
        let mut ops = OpCounters::new();
        k_nearest(f.store.all(), q, 16, Some(f.query), &mut ops)
    });
    bench("nn_substrate", "exists_closer_than", || {
        let mut ops = OpCounters::new();
        exists_closer_than(f.store.all(), q, 100.0, &[f.query], &mut ops)
    });
}

fn bench_mono_per_tick() {
    let mut f = fixture(false);
    let q = f.store.position(f.query).unwrap();
    let mut ops = OpCounters::new();
    let igern0 = MonoIgern::initial(f.store.all(), q, Some(f.query), 1, &mut ops);
    let crnn0 = Crnn::initial(f.store.all(), q, Some(f.query), &mut ops);
    // Advance one more tick so the monitors see movement.
    for u in f.world.advance().to_vec() {
        f.store.apply(ObjectId(u.id), u.pos);
    }
    let q1 = f.store.position(f.query).unwrap();

    bench_batched(
        "mono_per_tick",
        "igern_incremental",
        || igern0.clone(),
        |mut m| {
            let mut ops = OpCounters::new();
            m.incremental(f.store.all(), q1, &mut ops);
            m
        },
    );
    bench_batched(
        "mono_per_tick",
        "crnn_incremental",
        || crnn0.clone(),
        |mut m| {
            let mut ops = OpCounters::new();
            m.incremental(f.store.all(), q1, &mut ops);
            m
        },
    );
    bench("mono_per_tick", "tpl_snapshot", || {
        let mut ops = OpCounters::new();
        tpl_snapshot(f.store.all(), q1, Some(f.query), &mut ops)
    });
    bench("mono_per_tick", "igern_initial", || {
        let mut ops = OpCounters::new();
        MonoIgern::initial(f.store.all(), q1, Some(f.query), 1, &mut ops)
    });
}

fn bench_bi_per_tick() {
    let mut f = fixture(true);
    let q = f.store.position(f.query).unwrap();
    let mut ops = OpCounters::new();
    let igern0 = BiIgern::initial(
        f.store.grid_a(),
        f.store.grid_b(),
        q,
        Some(f.query),
        1,
        &mut ops,
    );
    for u in f.world.advance().to_vec() {
        f.store.apply(ObjectId(u.id), u.pos);
    }
    let q1 = f.store.position(f.query).unwrap();

    bench_batched(
        "bi_per_tick",
        "igern_bi_incremental",
        || igern0.clone(),
        |mut m| {
            let mut ops = OpCounters::new();
            m.incremental(f.store.grid_a(), f.store.grid_b(), q1, &mut ops);
            m
        },
    );
    bench("bi_per_tick", "voronoi_snapshot", || {
        let mut ops = OpCounters::new();
        voronoi_snapshot(
            f.store.grid_a(),
            f.store.grid_b(),
            q1,
            Some(f.query),
            &mut ops,
        )
    });
}

fn bench_extensions() {
    let mut f = fixture(false);
    let q = f.store.position(f.query).unwrap();
    let mut ops = OpCounters::new();
    let krnn0 = MonoIgern::initial(f.store.all(), q, Some(f.query), 4, &mut ops);
    let knn0 = KnnMonitor::initial(f.store.all(), q, Some(f.query), 8, &mut ops);
    let range0 = RangeMonitor::initial(f.store.all(), q, 25.0, Some(f.query), &mut ops);
    for u in f.world.advance().to_vec() {
        f.store.apply(ObjectId(u.id), u.pos);
    }
    let q1 = f.store.position(f.query).unwrap();
    bench_batched(
        "monitors_per_tick",
        "krnn_k4_incremental",
        || krnn0.clone(),
        |mut m| {
            let mut ops = OpCounters::new();
            m.incremental(f.store.all(), q1, &mut ops);
            m
        },
    );
    bench_batched(
        "monitors_per_tick",
        "knn_k8_incremental",
        || knn0.clone(),
        |mut m| {
            let mut ops = OpCounters::new();
            m.incremental(f.store.all(), q1, &mut ops);
            m
        },
    );
    bench_batched(
        "monitors_per_tick",
        "range_r25_incremental",
        || range0.clone(),
        |mut m| {
            let mut ops = OpCounters::new();
            m.incremental(f.store.all(), q1, &mut ops);
            m
        },
    );
}

fn bench_processor() {
    // 64 standing IGERN queries over one tick of updates, with and
    // without dirty-region routing.
    let build = || {
        let mut f = fixture(false);
        let kinds = vec![ObjectKind::A; f.store.len()];
        let mut store = SpatialStore::new(*f.store.space(), GRID, kinds);
        let init: Vec<_> = f.store.all().iter().collect();
        for (id, p) in init {
            store.insert(id, ObjectKind::A, p);
        }
        let mut proc = Processor::new(store);
        for i in 0..64u32 {
            proc.add_query(ObjectId(i * 500), Algorithm::IgernMono);
        }
        proc.evaluate_all();
        let ups: Vec<(ObjectId, igern_geom::Point)> = f
            .world
            .advance()
            .iter()
            .map(|u| (ObjectId(u.id), u.pos))
            .collect();
        (proc, ups)
    };
    bench_batched(
        "processor_64_queries",
        "step_sequential",
        build,
        |(mut proc, ups)| {
            proc.step(&ups);
            proc
        },
    );
    bench_batched(
        "processor_64_queries",
        "step_force_evaluate",
        || {
            let (mut proc, ups) = build();
            proc.set_skip_routing(false);
            (proc, ups)
        },
        |(mut proc, ups)| {
            proc.step(&ups);
            proc
        },
    );
}

fn bench_rtree() {
    let f = fixture(false);
    let mut tree = RTree::new();
    for (id, p) in f.store.all().iter() {
        tree.insert(id, p).unwrap();
    }
    let q = f.store.position(f.query).unwrap();
    bench("rtree", "nearest", || {
        let mut ops = OpCounters::new();
        igern_rtree::nearest(&tree, q, Some(f.query), &mut ops)
    });
    bench("rtree", "tpl_snapshot_native", || {
        let mut ops = OpCounters::new();
        tpl_snapshot_rtree(&tree, q, Some(f.query), &mut ops)
    });
}

fn bench_grid_maintenance() {
    bench_batched(
        "grid_maintenance",
        "apply_one_tick_50k",
        || {
            let mut f = fixture(false);
            let ups = f.world.advance().to_vec();
            (f.store, ups)
        },
        |(mut store, ups)| {
            for u in &ups {
                store.apply(ObjectId(u.id), u.pos);
            }
            store.cell_changes()
        },
    );
}

fn main() {
    bench_nn_substrate();
    bench_mono_per_tick();
    bench_bi_per_tick();
    bench_extensions();
    bench_processor();
    bench_rtree();
    bench_grid_maintenance();
}
