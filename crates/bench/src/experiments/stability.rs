//! Experiments E3 and E5 — Figures 8 and 10: stability over time, IGERN
//! against the colour's baseline (CRNN / repetitive Voronoi).
//!
//! * Figures 8a/10a: per-tick CPU time of the first ten ticks — tick 0
//!   (the initial step) is the expensive one; later ticks are flat. In the
//!   bichromatic case plain Voronoi construction may win at tick 0
//!   (IGERN's initial step does extra work to set up monitoring), but from
//!   tick 1 on IGERN is consistently cheaper.
//! * Figures 8b/10b: accumulated CPU time over up to 100 ticks — the
//!   IGERN saving grows with the horizon.

use crate::report::{ms, print_table, write_csv};
use crate::{harness, ExpArgs, RunConfig};
use igern_core::processor::Algorithm;

/// One colour's stability figure: `colour` is [`RunConfig::mono`] or
/// [`RunConfig::bi`], `igern` and `baseline` the two algorithms compared.
pub(crate) fn run(
    args: &ExpArgs,
    figure: u32,
    colour: fn(usize, usize, usize, u64) -> RunConfig,
    igern: Algorithm,
    baseline: Algorithm,
) {
    let cfg = RunConfig {
        num_queries: args.queries,
        ..colour(args.objects, args.grid, args.ticks, args.seed)
    };
    let (exp, short, base, expected) = if cfg.bichromatic {
        (
            "E5",
            "bi",
            "voronoi",
            "Voronoi may win only at tick 0; for every tick\n\
             after, IGERN is cheaper and the accumulated gap keeps growing.",
        )
    } else {
        (
            "E3",
            "mono",
            "crnn",
            "tick 0 dominates; ticks ≥ 1 flat and stable;\n\
             the accumulated-time gap between CRNN and IGERN widens with the\n\
             number of slots.",
        )
    };
    println!(
        "{exp} (Figure {figure}): {short}chromatic stability — {} objects, grid {}, seed {}",
        args.objects, args.grid, args.seed
    );
    let igern = harness::run_one(&cfg, igern);
    let baseline = harness::run_one(&cfg, baseline);
    let base_ms = format!("{base}_ms");

    // Figure a: the first ten ticks.
    let first = 10.min(cfg.ticks);
    let rows_a: Vec<Vec<String>> = (0..first)
        .map(|t| {
            vec![
                t.to_string(),
                ms(igern.tick_times[t]),
                ms(baseline.tick_times[t]),
            ]
        })
        .collect();
    print_table(
        &format!("Figure {figure}a: CPU time per tick (ms), first ticks"),
        &["tick", "igern_ms", &base_ms],
        &rows_a,
    );
    write_csv(
        &args.out_dir,
        &format!("fig{figure}a_{short}_time_intervals"),
        &["tick", "igern_ms", &base_ms],
        &rows_a,
    );

    // Figure b: accumulated time at growing horizons.
    let marks: Vec<usize> = [10, 20, 40, 60, 80, 100]
        .into_iter()
        .filter(|&m| m <= cfg.ticks)
        .collect();
    let rows_b: Vec<Vec<String>> = marks
        .iter()
        .map(|&m| {
            vec![
                m.to_string(),
                ms(igern.accumulated[m - 1]),
                ms(baseline.accumulated[m - 1]),
            ]
        })
        .collect();
    print_table(
        &format!("Figure {figure}b: accumulated CPU time (ms) by number of time slots"),
        &["slots", "igern_ms", &base_ms],
        &rows_b,
    );
    write_csv(
        &args.out_dir,
        &format!("fig{figure}b_{short}_accumulated"),
        &["slots", "igern_ms", &base_ms],
        &rows_b,
    );
    println!("\nExpected shape: {expected}");
}
