//! Experiment E7 — ablations called out in DESIGN.md §7.
//!
//! * **A1** incremental vs re-evaluation: IGERN vs snapshot TPL re-run
//!   every tick (where do the savings come from?).
//! * **A2** pruning granularity: cell-level (the paper's literal
//!   algorithm) vs exact object-level dominance filtering — candidate-set
//!   size and CPU per tick.
//! * **A4** movement model: network-constrained vs random-waypoint — the
//!   IGERN advantage must not be an artifact of road clustering.

use std::time::{Duration, Instant};

use crate::report::{ms, print_table, write_csv};
use crate::{harness, ExpArgs, RunConfig};
use igern_core::baselines::{voronoi_snapshot_with, SiteAcquisition};
use igern_core::processor::Algorithm;
use igern_core::prune::PruneGranularity;
use igern_core::{EvalScratch, MonoIgern};
use igern_grid::{ObjectId, OpCounters};
use igern_mobgen::{HotspotConfig, Movement, ObjKind, Workload, WorkloadConfig};

pub(crate) fn run(args: &ExpArgs) {
    println!(
        "E7: ablations — {} objects, grid {}, {} ticks, seed {}",
        args.objects, args.grid, args.ticks, args.seed
    );
    ablation_a1(args);
    ablation_a2(args);
    ablation_a4(args);
    ablation_a6(args);
    ablation_a7(args);
}

/// A1: incremental maintenance vs re-evaluating from scratch.
fn ablation_a1(args: &ExpArgs) {
    let cfg = RunConfig {
        num_queries: args.queries,
        ..RunConfig::mono(args.objects, args.grid, args.ticks, args.seed)
    };
    let igern = harness::run_one(&cfg, Algorithm::IgernMono);
    let tpl = harness::run_one(&cfg, Algorithm::TplRepeat);
    let headers = [
        "algorithm",
        "mean_ms_per_tick",
        "total_ms",
        "nn_c",
        "nn_b",
        "obj_visits",
    ];
    let rows = vec![
        vec![
            "IGERN (incremental)".into(),
            ms(igern.mean_time()),
            ms(igern.total_time()),
            igern.ops.nn_c.to_string(),
            igern.ops.nn_b.to_string(),
            igern.ops.objects_visited.to_string(),
        ],
        vec![
            "TPL (re-evaluate)".into(),
            ms(tpl.mean_time()),
            ms(tpl.total_time()),
            tpl.ops.nn_c.to_string(),
            tpl.ops.nn_b.to_string(),
            tpl.ops.objects_visited.to_string(),
        ],
    ];
    print_table("A1: incremental vs snapshot re-evaluation", &headers, &rows);
    write_csv(&args.out_dir, "ablation_a1_incremental", &headers, &rows);
}

/// A2: cell-granularity vs exact object-level pruning.
fn ablation_a2(args: &ExpArgs) {
    let headers = [
        "granularity",
        "mean_ms_per_tick",
        "mean_monitored",
        "obj_visits",
    ];
    let mut rows = Vec::new();
    for (label, gran) in [
        ("cell (paper-literal)", PruneGranularity::Cell),
        ("exact (default)", PruneGranularity::Exact),
    ] {
        let (mean_t, monitored, visits) = run_mono_with_granularity(args, gran);
        rows.push(vec![
            label.to_string(),
            ms(mean_t),
            format!("{monitored:.2}"),
            visits.to_string(),
        ]);
    }
    print_table("A2: pruning granularity", &headers, &rows);
    write_csv(&args.out_dir, "ablation_a2_granularity", &headers, &rows);
    println!(
        "\nExpected: cell granularity re-discovers every object in the\n\
         straddling cells each tick (orders of magnitude more visits and\n\
         CPU); per-tick cleaning caps the *retained* monitored count, so\n\
         the answers and final candidate counts match the exact mode."
    );
}

/// Drive MonoIgern manually so the granularity can be selected.
fn run_mono_with_granularity(args: &ExpArgs, gran: PruneGranularity) -> (Duration, f64, u64) {
    let mut workload =
        Workload::from_config(&WorkloadConfig::network_mono(args.objects, args.seed));
    let mut store = harness::build_store(&workload, args.grid);
    let queries = (0..args.queries)
        .map(|i| ObjectId((i * workload.len() / args.queries.max(1)) as u32))
        .collect::<Vec<_>>();
    let mut ops = OpCounters::new();
    let mut scratch = EvalScratch::default();
    let mut monitors: Vec<MonoIgern> = Vec::new();
    let mut total = Duration::ZERO;
    let mut monitored_sum = 0u64;
    let mut samples = 0u64;
    let t0 = Instant::now();
    for &q in &queries {
        let pos = store.position(q).unwrap();
        let m = MonoIgern::initial(store.all(), pos, Some(q), 1, gran, &mut ops, &mut scratch);
        monitored_sum += m.num_monitored() as u64;
        samples += 1;
        monitors.push(m);
    }
    total += t0.elapsed();
    for _ in 1..args.ticks {
        for u in workload.advance().to_vec() {
            store.apply(ObjectId(u.id), u.pos);
        }
        let t = Instant::now();
        for (m, &q) in monitors.iter_mut().zip(&queries) {
            let pos = store.position(q).unwrap();
            m.incremental(store.all(), pos, &mut ops, &mut scratch);
            monitored_sum += m.num_monitored() as u64;
            samples += 1;
        }
        total += t.elapsed();
    }
    let per_tick = total / (args.ticks as u32 * queries.len().max(1) as u32);
    (
        per_tick,
        monitored_sum as f64 / samples as f64,
        ops.objects_visited,
    )
}

/// A4: movement model — network vs random waypoint.
fn ablation_a4(args: &ExpArgs) {
    let headers = ["movement", "igern_ms", "crnn_ms", "igern_monitored"];
    let mut rows = Vec::new();
    for (label, cfg) in [
        (
            "network (Brinkhoff)",
            WorkloadConfig::network_mono(args.objects, args.seed),
        ),
        (
            "random waypoint",
            WorkloadConfig {
                num_objects: args.objects,
                seed: args.seed,
                movement: Movement::RandomWaypoint {
                    space: igern_geom::Aabb::from_coords(0.0, 0.0, 1000.0, 1000.0),
                    min_speed: 2.0,
                    max_speed: 8.0,
                },
                kind_a_fraction: None,
            },
        ),
    ] {
        let run = |algo| harness::run_workload(&cfg, args.grid, args.ticks, args.queries, algo);
        let igern = run(Algorithm::IgernMono);
        let crnn = run(Algorithm::Crnn);
        rows.push(vec![
            label.to_string(),
            ms(igern.mean_time()),
            ms(crnn.mean_time()),
            format!("{:.2}", igern.mean_monitored),
        ]);
    }
    print_table("A4: movement model", &headers, &rows);
    write_csv(&args.out_dir, "ablation_a4_movement", &headers, &rows);
    println!("\nExpected: IGERN < CRNN under both movement models.");
}

/// A7: Voronoi-baseline site acquisition — incremental iterator (our
/// strongest implementation) vs restart-per-site (the paper's §6
/// `a_t·NN_c` accounting), against IGERN-bi, over one bichromatic stream.
fn ablation_a7(args: &ExpArgs) {
    let mut workload = Workload::from_config(&WorkloadConfig::network_bi(args.objects, args.seed));
    let mut store = harness::build_store(&workload, args.grid);
    let queries = workload.pick_queries(ObjKind::A, args.queries);
    let mut t_inc = Duration::ZERO;
    let mut t_restart = Duration::ZERO;
    let mut ops_inc = OpCounters::new();
    let mut ops_restart = OpCounters::new();
    let mut evals = 0u32;
    for _ in 0..args.ticks {
        for u in workload.advance().to_vec() {
            store.apply(ObjectId(u.id), u.pos);
        }
        for &q in &queries {
            let pos = store.position(ObjectId(q)).unwrap();
            let t = Instant::now();
            let a = voronoi_snapshot_with(
                store.grid_a(),
                store.grid_b(),
                pos,
                Some(ObjectId(q)),
                SiteAcquisition::Incremental,
                &mut ops_inc,
            );
            t_inc += t.elapsed();
            let t = Instant::now();
            let b = voronoi_snapshot_with(
                store.grid_a(),
                store.grid_b(),
                pos,
                Some(ObjectId(q)),
                SiteAcquisition::RestartPerSite,
                &mut ops_restart,
            );
            t_restart += t.elapsed();
            assert_eq!(a.rnn, b.rnn, "acquisition modes must agree");
            evals += 1;
        }
    }
    let headers = ["voronoi variant", "ms_per_eval", "obj_visits"];
    let rows = vec![
        vec![
            "incremental iterator".into(),
            ms(t_inc / evals),
            ops_inc.objects_visited.to_string(),
        ],
        vec![
            "restart per site (paper cost model)".into(),
            ms(t_restart / evals),
            ops_restart.objects_visited.to_string(),
        ],
    ];
    print_table("A7: Voronoi-baseline site acquisition", &headers, &rows);
    write_csv(&args.out_dir, "ablation_a7_voronoi_sites", &headers, &rows);
    println!(
        "
Expected: identical answers; the restart-per-site variant (the
         literal §6 accounting) is substantially more expensive — part of
         the paper's reported IGERN-vs-Voronoi gap is baseline-substrate
         strength rather than algorithmic structure."
    );
}

/// A6: spatial skew — Gaussian hotspots vs the road network.
fn ablation_a6(args: &ExpArgs) {
    let headers = ["distribution", "igern_ms", "crnn_ms", "igern_monitored"];
    let mut rows = Vec::new();
    for (label, cfg) in [
        (
            "network (baseline)",
            WorkloadConfig::network_mono(args.objects, args.seed),
        ),
        (
            "gaussian hotspots",
            WorkloadConfig {
                num_objects: args.objects,
                seed: args.seed,
                movement: Movement::Hotspot(HotspotConfig::default()),
                kind_a_fraction: None,
            },
        ),
    ] {
        let run = |algo| harness::run_workload(&cfg, args.grid, args.ticks, args.queries, algo);
        let igern = run(Algorithm::IgernMono);
        let crnn = run(Algorithm::Crnn);
        rows.push(vec![
            label.to_string(),
            ms(igern.mean_time()),
            ms(crnn.mean_time()),
            format!("{:.2}", igern.mean_monitored),
        ]);
    }
    print_table("A6: spatial skew (hotspot clustering)", &headers, &rows);
    write_csv(&args.out_dir, "ablation_a6_skew", &headers, &rows);
    println!(
        "
Expected: heavy clustering favors IGERN's single adaptive region
         over CRNN's fixed six pies (queries inside a hotspot see dense
         pies; queries at a hotspot fringe see open-ended ones)."
    );
}
