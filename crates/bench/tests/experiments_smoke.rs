//! The reproduction driver end to end: the whole experiment table at
//! `--quick` scale writes the 16 CSV files with the documented columns,
//! and `--only` selects exactly what it names. Cell values are not pinned
//! — operation counts move legitimately when the algorithms improve.

use std::fs;
use std::path::{Path, PathBuf};

use igern_bench::ExpArgs;

/// Every CSV the full table writes, with its header row.
const FILES: &[(&str, &str)] = &[
    (
        "ablation_a1_incremental.csv",
        "algorithm,mean_ms_per_tick,total_ms,nn_c,nn_b,obj_visits",
    ),
    (
        "ablation_a2_granularity.csv",
        "granularity,mean_ms_per_tick,mean_monitored,obj_visits",
    ),
    (
        "ablation_a4_movement.csv",
        "movement,igern_ms,crnn_ms,igern_monitored",
    ),
    (
        "ablation_a6_skew.csv",
        "distribution,igern_ms,crnn_ms,igern_monitored",
    ),
    (
        "ablation_a7_voronoi_sites.csv",
        "voronoi variant,ms_per_eval,obj_visits",
    ),
    (
        "e10_query_count.csv",
        "queries,igern_total_ms_per_tick,crnn_total_ms_per_tick,igern_per_query_ms,crnn_per_query_ms",
    ),
    (
        "e8_krnn.csv",
        "k,mono_ms,mono_monitored,mono_answer,bi_ms,bi_monitored,bi_answer",
    ),
    (
        "e9_substrate.csv",
        "substrate,maint_ms_per_tick,tpl_ms_per_eval,nodes_or_cells_visited,objects_visited",
    ),
    ("fig10a_bi_time_intervals.csv", "tick,igern_ms,voronoi_ms"),
    ("fig10b_bi_accumulated.csv", "slots,igern_ms,voronoi_ms"),
    (
        "fig6_grid_size.csv",
        "grid,cell_changes_K,cpu_total_ms,objects_visited",
    ),
    (
        "fig7_mono_scalability.csv",
        "objects_K,igern_ms,crnn_ms,igern_monitored,crnn_monitored,area_ratio,igern_obj_visits,crnn_obj_visits",
    ),
    ("fig8a_mono_time_intervals.csv", "tick,igern_ms,crnn_ms"),
    ("fig8b_mono_accumulated.csv", "slots,igern_ms,crnn_ms"),
    (
        "fig9_bi_scalability.csv",
        "objects_K,igern_bi_ms,voronoi_ms,mono_monitored,bi_monitored,bi_answer_size",
    ),
    (
        "sec6_cost_model.csv",
        "algorithm,model_cost,ratio_vs_its_baseline",
    ),
];

/// A fresh output directory under the system temp dir.
fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("igern_experiments_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run(dir: &Path, extra: &[&str]) -> Result<(), String> {
    let flags = ["--quick", "--out", dir.to_str().unwrap()];
    igern_bench::run(&ExpArgs::parse_from(
        flags.iter().chain(extra).map(|s| s.to_string()),
    ))
}

/// Sorted file names in `dir`.
fn written(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn quick_run_writes_every_table() {
    let dir = out_dir("all");
    run(&dir, &[]).unwrap();
    let expected: Vec<&str> = FILES.iter().map(|&(name, _)| name).collect();
    assert_eq!(written(&dir), expected);
    for &(name, header) in FILES {
        let text = fs::read_to_string(dir.join(name)).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(header), "{name}");
        assert!(lines.next().is_some(), "{name} has no data row");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn only_selects_by_id() {
    let dir = out_dir("only");
    run(&dir, &["--only", "e3,e5"]).unwrap();
    assert_eq!(
        written(&dir),
        [
            "fig10a_bi_time_intervals.csv",
            "fig10b_bi_accumulated.csv",
            "fig8a_mono_time_intervals.csv",
            "fig8b_mono_accumulated.csv",
        ]
    );
    fs::remove_dir_all(&dir).unwrap();

    let err = run(&dir, &["--only", "e1,e11"]).unwrap_err();
    assert!(err.contains("\"e11\"") && err.contains("e1,e2,"), "{err}");
    assert!(!dir.exists(), "an unknown id must run nothing");
}
