//! Experiment E1 — Figure 6: the effect of grid size.
//!
//! * Figure 6a: number of cell changes (index maintenance overhead) as the
//!   grid grows — monotone increasing.
//! * Figure 6b: total CPU time of the monochromatic IGERN query under each
//!   grid size — U-shaped (coarse grids make NN search scan too many
//!   objects; very fine grids pay in update overhead and pruning work),
//!   with the sweet spot at a moderate size. The paper picks the
//!   compromise used by all other experiments.

use crate::report::{ms, print_table, write_csv};
use crate::{harness, ExpArgs, RunConfig};
use igern_core::processor::Algorithm;

pub(crate) fn run(args: &ExpArgs) {
    println!(
        "E1 (Figure 6): grid-size sweep — {} objects, {} ticks, seed {}",
        args.objects, args.ticks, args.seed
    );
    let mut rows = Vec::new();
    for grid in args.grid_sweep() {
        let cfg = RunConfig {
            num_queries: args.queries,
            ..RunConfig::mono(args.objects, grid, args.ticks, args.seed)
        };
        let cell_changes = harness::measure_cell_changes(&cfg);
        let run = harness::run_one(&cfg, Algorithm::IgernMono);
        rows.push(vec![
            grid.to_string(),
            format!("{:.1}", cell_changes as f64 / 1e3),
            ms(run.total_time()),
            run.ops.objects_visited.to_string(),
        ]);
    }
    print_table(
        "Figure 6a/6b: grid size vs cell changes (K) and IGERN CPU time (ms)",
        &["grid", "cell_changes_K", "cpu_total_ms", "objects_visited"],
        &rows,
    );
    write_csv(
        &args.out_dir,
        "fig6_grid_size",
        &["grid", "cell_changes_K", "cpu_total_ms", "objects_visited"],
        &rows,
    );
    println!(
        "\nExpected shape: cell changes rise monotonically with grid size;\n\
         CPU time is high for tiny grids, dips at a moderate size, and\n\
         rises again for very fine grids (Figure 6b's U-shape)."
    );
}
