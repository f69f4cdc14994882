//! Experiment E4 — Figure 9: bichromatic scalability, IGERN vs repetitive
//! Voronoi.
//!
//! * Figure 9a: average CPU time per tick as objects grow 10K..100K
//!   (half A, half B) — IGERN grows far more slowly than Voronoi.
//! * Figure 9b: monitored objects, monochromatic vs bichromatic IGERN —
//!   nearly the same, showing the unified framework costs nothing extra.

use crate::report::{ms, print_table, write_csv};
use crate::{harness, ExpArgs, RunConfig};
use igern_core::processor::Algorithm;

pub(crate) fn run(args: &ExpArgs) {
    println!(
        "E4 (Figure 9): bichromatic scalability — grid {}, {} ticks, seed {}",
        args.grid, args.ticks, args.seed
    );
    let mut rows = Vec::new();
    for n in args.object_sweep() {
        let bi_cfg = RunConfig {
            num_queries: args.queries,
            ..RunConfig::bi(n, args.grid, args.ticks, args.seed)
        };
        let mono_cfg = RunConfig {
            num_queries: args.queries,
            ..RunConfig::mono(n, args.grid, args.ticks, args.seed)
        };
        let igern_bi = harness::run_one(&bi_cfg, Algorithm::IgernBi);
        let voronoi = harness::run_one(&bi_cfg, Algorithm::VoronoiRepeat);
        let igern_mono = harness::run_one(&mono_cfg, Algorithm::IgernMono);
        rows.push(vec![
            (n / 1000).to_string(),
            ms(igern_bi.mean_time()),
            ms(voronoi.mean_time()),
            format!("{:.2}", igern_mono.mean_monitored),
            format!("{:.2}", igern_bi.mean_monitored),
            format!("{:.2}", igern_bi.mean_answer),
        ]);
    }
    let headers = [
        "objects_K",
        "igern_bi_ms",
        "voronoi_ms",
        "mono_monitored",
        "bi_monitored",
        "bi_answer_size",
    ];
    print_table(
        "Figure 9a/9b: avg CPU per tick (ms) and monitored objects (mono vs bi)",
        &headers,
        &rows,
    );
    write_csv(&args.out_dir, "fig9_bi_scalability", &headers, &rows);
    println!(
        "\nExpected shape: IGERN's growth with object count is much gentler\n\
         than repetitive Voronoi's; monitored counts for mono and bi IGERN\n\
         are close (Figure 9b's point about the unified framework)."
    );
}
