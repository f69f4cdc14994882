//! Experiment E9 — ablation A5: index substrate (grid vs R-tree).
//!
//! The paper runs everything on a grid; the original TPL was designed for
//! R-trees. This ablation runs the snapshot TPL on both substrates over
//! the same update stream, and also compares raw index-maintenance cost
//! (the price a tree pays for moving objects — the reason the continuous
//! query literature moved to grids).

use std::time::{Duration, Instant};

use crate::report::{ms, print_table, write_csv};
use crate::rtree::{tpl_snapshot_rtree, RTree};
use crate::{harness, ExpArgs};
use igern_core::baselines::tpl_snapshot;
use igern_grid::{ObjectId, OpCounters};
use igern_mobgen::{Workload, WorkloadConfig};

pub(crate) fn run(args: &ExpArgs) {
    println!(
        "E9: substrate ablation (grid vs R-tree) — {} objects, grid {}, {} ticks, seed {}",
        args.objects, args.grid, args.ticks, args.seed
    );

    let mut workload =
        Workload::from_config(&WorkloadConfig::network_mono(args.objects, args.seed));
    let mut store = harness::build_store(&workload, args.grid);
    let mut rtree = RTree::new();
    for i in 0..workload.len() as u32 {
        rtree
            .insert(ObjectId(i), workload.mover().position(i))
            .unwrap();
    }
    let queries: Vec<ObjectId> = (0..args.queries)
        .map(|i| ObjectId((i * workload.len() / args.queries.max(1)) as u32))
        .collect();

    let mut grid_maint = Duration::ZERO;
    let mut tree_maint = Duration::ZERO;
    let mut grid_query = Duration::ZERO;
    let mut tree_query = Duration::ZERO;
    let mut grid_ops = OpCounters::new();
    let mut tree_ops = OpCounters::new();
    let mut evaluations = 0u32;

    for _ in 0..args.ticks {
        let ups = workload.advance().to_vec();
        let t = Instant::now();
        for u in &ups {
            store.apply(ObjectId(u.id), u.pos);
        }
        grid_maint += t.elapsed();
        let t = Instant::now();
        for u in &ups {
            rtree.update(ObjectId(u.id), u.pos).unwrap();
        }
        tree_maint += t.elapsed();

        for &q in &queries {
            let pos = store.position(q).unwrap();
            let t = Instant::now();
            let a = tpl_snapshot(store.all(), pos, Some(q), &mut grid_ops);
            grid_query += t.elapsed();
            let t = Instant::now();
            let b = tpl_snapshot_rtree(&rtree, pos, Some(q), &mut tree_ops);
            tree_query += t.elapsed();
            assert_eq!(a.rnn, b.rnn, "substrates must agree");
            evaluations += 1;
        }
    }

    let headers = [
        "substrate",
        "maint_ms_per_tick",
        "tpl_ms_per_eval",
        "nodes_or_cells_visited",
        "objects_visited",
    ];
    let rows = vec![
        vec![
            "grid".into(),
            ms(grid_maint / args.ticks as u32),
            ms(grid_query / evaluations),
            grid_ops.cells_visited.to_string(),
            grid_ops.objects_visited.to_string(),
        ],
        vec![
            "r-tree".into(),
            ms(tree_maint / args.ticks as u32),
            ms(tree_query / evaluations),
            tree_ops.cells_visited.to_string(),
            tree_ops.objects_visited.to_string(),
        ],
    ];
    print_table("E9 / A5: TPL on grid vs native R-tree", &headers, &rows);
    write_csv(&args.out_dir, "e9_substrate", &headers, &rows);
    println!(
        "\nBoth substrates return identical answers (asserted tick-by-tick).\n\
         Expected: query costs comparable; index maintenance far cheaper on\n\
         the grid under 100% movement — the reason the continuous-query\n\
         literature (and the paper) uses grids for moving objects."
    );
}
