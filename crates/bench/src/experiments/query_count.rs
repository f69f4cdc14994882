//! Experiment E10 — query-count scalability: total processor cost per
//! tick as the number of standing queries grows (the processor-oriented
//! claim of the paper's introduction: IGERN "scales up for large numbers
//! of moving objects **and queries**").

use std::time::Duration;

use crate::report::{ms, print_table, write_csv};
use crate::{run_one, ExpArgs, RunConfig};
use igern_core::processor::Algorithm;

pub(crate) fn run(args: &ExpArgs) {
    println!(
        "E10: query-count sweep — {} objects, grid {}, {} ticks, seed {}",
        args.objects, args.grid, args.ticks, args.seed
    );
    let counts: &[usize] = if args.quick {
        &[1, 4, 16]
    } else {
        &[1, 4, 16, 64, 256]
    };
    let mut rows = Vec::new();
    for &nq in counts {
        let cfg = RunConfig {
            num_queries: nq,
            ..RunConfig::mono(args.objects, args.grid, args.ticks, args.seed)
        };
        let igern = run_one(&cfg, Algorithm::IgernMono);
        let crnn = run_one(&cfg, Algorithm::Crnn);
        // mean_time() is per query per tick; total per tick = × nq.
        let total = |d: Duration| d * nq as u32;
        rows.push(vec![
            nq.to_string(),
            ms(total(igern.mean_time())),
            ms(total(crnn.mean_time())),
            ms(igern.mean_time()),
            ms(crnn.mean_time()),
        ]);
    }
    let headers = [
        "queries",
        "igern_total_ms_per_tick",
        "crnn_total_ms_per_tick",
        "igern_per_query_ms",
        "crnn_per_query_ms",
    ];
    print_table(
        "E10: processor cost vs number of standing queries",
        &headers,
        &rows,
    );
    write_csv(&args.out_dir, "e10_query_count", &headers, &rows);
    println!(
        "\nExpected shape: total cost grows linearly in the query count for\n\
         both algorithms (queries are independent), with IGERN's slope\n\
         roughly a third of CRNN's — so the query capacity at a fixed tick\n\
         budget is correspondingly higher."
    );
}
