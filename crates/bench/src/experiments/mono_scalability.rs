//! Experiment E2 — Figure 7: monochromatic scalability, IGERN vs CRNN.
//!
//! * Figure 7a: average CPU time per tick as the object count grows from
//!   10K to 100K — IGERN consistently below CRNN.
//! * Figure 7b: average number of monitored objects — CRNN pins six,
//!   IGERN averages ≈3.

use crate::report::{ms, print_table, write_csv};
use crate::{harness, ExpArgs, RunConfig};
use igern_core::processor::Algorithm;

pub(crate) fn run(args: &ExpArgs) {
    println!(
        "E2 (Figure 7): monochromatic scalability — grid {}, {} ticks, seed {}",
        args.grid, args.ticks, args.seed
    );
    let mut rows = Vec::new();
    for n in args.object_sweep() {
        let cfg = RunConfig {
            num_queries: args.queries,
            ..RunConfig::mono(n, args.grid, args.ticks, args.seed)
        };
        let igern = harness::run_one(&cfg, Algorithm::IgernMono);
        let crnn = harness::run_one(&cfg, Algorithm::Crnn);
        rows.push(vec![
            (n / 1000).to_string(),
            ms(igern.mean_time()),
            ms(crnn.mean_time()),
            format!("{:.2}", igern.mean_monitored),
            format!("{:.2}", crnn.mean_monitored),
            format!(
                "{:.3}",
                igern.mean_region_area / crnn.mean_region_area.max(1e-9)
            ),
            igern.ops.objects_visited.to_string(),
            crnn.ops.objects_visited.to_string(),
        ]);
    }
    let headers = [
        "objects_K",
        "igern_ms",
        "crnn_ms",
        "igern_monitored",
        "crnn_monitored",
        "area_ratio",
        "igern_obj_visits",
        "crnn_obj_visits",
    ];
    print_table(
        "Figure 7a/7b: avg CPU per tick (ms) and monitored objects, IGERN vs CRNN",
        &headers,
        &rows,
    );
    write_csv(&args.out_dir, "fig7_mono_scalability", &headers, &rows);
    println!(
        "\nExpected shape: IGERN below CRNN at every size (one region,\n\
         fewer candidates); CRNN monitored ≈ 6 throughout, IGERN ≈ 3;\n\
         IGERN's monitored area a small fraction of CRNN's (§3.3 argues\n\
         about one sixth)."
    );
}
