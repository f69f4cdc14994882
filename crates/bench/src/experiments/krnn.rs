//! Experiment E8 — the reverse **k**-nearest-neighbor extension (the
//! journal version of the paper generalizes IGERN to RkNN): per-tick CPU,
//! monitored objects (bounded by 6k), and answer size as `k` grows.

use crate::report::{ms, print_table, write_csv};
use crate::{harness, ExpArgs, RunConfig};
use igern_core::processor::Algorithm;

pub(crate) fn run(args: &ExpArgs) {
    println!(
        "E8: reverse k-NN sweep — {} objects, grid {}, {} ticks, seed {}",
        args.objects, args.grid, args.ticks, args.seed
    );
    let ks: &[usize] = if args.quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let mut rows = Vec::new();
    for &k in ks {
        let mono_cfg = RunConfig {
            num_queries: args.queries,
            ..RunConfig::mono(args.objects, args.grid, args.ticks, args.seed)
        };
        let bi_cfg = RunConfig {
            num_queries: args.queries,
            ..RunConfig::bi(args.objects, args.grid, args.ticks, args.seed)
        };
        let mono = harness::run_one(&mono_cfg, Algorithm::IgernMonoK(k));
        let bi = harness::run_one(&bi_cfg, Algorithm::IgernBiK(k));
        rows.push(vec![
            k.to_string(),
            ms(mono.mean_time()),
            format!("{:.2}", mono.mean_monitored),
            format!("{:.2}", mono.mean_answer),
            ms(bi.mean_time()),
            format!("{:.2}", bi.mean_monitored),
            format!("{:.2}", bi.mean_answer),
        ]);
    }
    let headers = [
        "k",
        "mono_ms",
        "mono_monitored",
        "mono_answer",
        "bi_ms",
        "bi_monitored",
        "bi_answer",
    ];
    print_table("E8: RkNN extension, mono and bi, vs k", &headers, &rows);
    write_csv(&args.out_dir, "e8_krnn", &headers, &rows);
    println!(
        "\nExpected shape: monitored objects and answer sizes grow roughly\n\
         linearly with k (bounded by 6k); CPU grows faster than k: more\n\
         tighten rounds per evaluation, each redrawing the non-convex\n\
         order-k region against up to 6k bisectors."
    );
}
