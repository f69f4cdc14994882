//! Runs `run --quick` end to end and checks its report against
//! `BENCHMARK.json`: the same metric names, each exactly once per
//! workload it is defined on, each with its unit; the same workloads.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

use igern_core::obs::jsontext::{parse, Value};

const WORKLOADS: [&str; 4] = ["city", "hotspot", "roadnet", "serve"];
/// The end-to-end metrics every workload reports.
const ON_EVERY_WORKLOAD: [&str; 5] = [
    "setup_s",
    "tick_ms_p50",
    "updates_per_s",
    "peak_rss_mb",
    "failed_ops_share",
];

fn names_and_units(section: &Value) -> BTreeMap<String, String> {
    section
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn quick_run_reports_exactly_the_metrics_benchmark_json_lists() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let spec = std::fs::read_to_string(repo.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse(&spec).expect("BENCHMARK.json is JSON");
    let mut listed = names_and_units(spec.get("end_to_end").expect("end_to_end"));
    let per_layer = names_and_units(spec.get("per_layer").expect("per_layer"));
    assert!(
        per_layer.keys().all(|k| !listed.contains_key(k)),
        "a name is listed in both sections"
    );
    listed.extend(per_layer);
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for name in listed.keys() {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
            "metric name {name:?}"
        );
    }

    let out = Command::new(env!("CARGO_BIN_EXE_igern-benchmark"))
        .args(["run", "--quick", "--seed", "7"])
        .current_dir(repo)
        .output()
        .expect("run the benchmark");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "quick run failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `workload metric value unit`, one line per metric.
    let mut seen: BTreeMap<(String, String), String> = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let is_metric = f.len() >= 4
            && WORKLOADS.contains(&f[0])
            && f[2].parse::<f64>().is_ok()
            && !f[1].starts_with("self.");
        if is_metric {
            let key = (f[0].to_string(), f[1].to_string());
            let previous = seen.insert(key, f[3].to_string());
            assert!(previous.is_none(), "{} reported twice on {}", f[1], f[0]);
        }
    }
    let reported: BTreeSet<&str> = seen.keys().map(|k| k.1.as_str()).collect();
    let expected: BTreeSet<&str> = listed.keys().map(String::as_str).collect();
    assert_eq!(reported, expected, "reported vs BENCHMARK.json");
    for ((workload, name), unit) in &seen {
        assert_eq!(unit, &listed[name], "unit of {name} on {workload}");
    }
    for workload in WORKLOADS {
        for name in ON_EVERY_WORKLOAD {
            assert!(
                seen.contains_key(&(workload.to_string(), name.to_string())),
                "{name} missing on {workload}"
            );
        }
    }

    let latest = repo.join("benchmark/results/latest.json");
    let latest = parse(&std::fs::read_to_string(latest).expect("results file")).expect("JSON");
    let host = latest.get("host").expect("host block");
    for key in ["nproc", "commit", "rustc", "avx2", "filesystem"] {
        assert!(host.get(key).is_some(), "host block lacks {key}");
    }
    assert_eq!(
        latest
            .get("runs")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(2 * WORKLOADS.len())
    );
    for workload in WORKLOADS {
        let trace = repo.join(format!("benchmark/results/{workload}.trace.json"));
        let trace = parse(&std::fs::read_to_string(trace).expect("trace file")).expect("JSON");
        assert!(!trace
            .get("spans")
            .and_then(Value::as_array)
            .expect("spans")
            .is_empty());
    }
}
