//! `compare A.json B.json`: apply each end-to-end metric's bound per
//! workload, check counts and digests for exact equality, exit non-zero
//! on a regression.
//!
//! A results file may hold several runs of a workload (`run --repeats
//! N`); each side is then its median, and a metric whose run-to-run
//! spread (interquartile range over the median, on either side) is wider
//! than its bound is reported `unresolved`, not `ok`.

use std::process::ExitCode;

use crate::report::{parse_results, Better, Class, RunResult, METRICS, WORKLOADS};
use crate::stats::{median, percentile};

fn load(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_results(&text).map_err(|e| format!("{path}: {e}"))
}

/// The values of `name` over `runs`' runs of one kind of one workload.
fn values(runs: &[RunResult], workload: &str, traced: bool, name: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metrics.get(name).copied())
        .collect()
}

/// Interquartile range over the median; 0 with fewer than four runs.
fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    if v.len() < 4 || m == 0.0 {
        0.0
    } else {
        (percentile(v, 0.75) - percentile(v, 0.25)) / m.abs()
    }
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let same_seed = a.first().map(|r| r.seed) == b.first().map(|r| r.seed);
    let mut regressions = 0;
    println!("workload metric A B change bound verdict");
    for workload in WORKLOADS {
        for def in METRICS.iter().filter(|d| d.defined_on(workload)) {
            match def.class {
                Class::EndToEnd { bound } => {
                    let (va, vb) = (
                        values(&a, workload, false, def.name),
                        values(&b, workload, false, def.name),
                    );
                    if va.is_empty() || vb.is_empty() {
                        continue;
                    }
                    let (ma, mb) = (median(&va), median(&vb));
                    let worse_by = match def.better {
                        Better::Lower => mb - ma,
                        Better::Higher => ma - mb,
                    };
                    // A share of the baseline, or the raw increase where
                    // the baseline is 0 (`failed_ops_share`).
                    let worse_share = if ma == 0.0 {
                        worse_by
                    } else {
                        worse_by / ma.abs()
                    };
                    let verdict = if worse_share > bound {
                        regressions += 1;
                        "regressed"
                    } else if spread(&va).max(spread(&vb)) > bound {
                        "unresolved (spread wider than bound)"
                    } else {
                        "ok"
                    };
                    println!(
                        "{workload} {} {ma:.6} {mb:.6} {:+.2}% {:.0}% {verdict}",
                        def.name,
                        worse_share * 100.0,
                        bound * 100.0
                    );
                }
                Class::Layer { count: true } if same_seed => {
                    let (va, vb) = (
                        values(&a, workload, true, def.name),
                        values(&b, workload, true, def.name),
                    );
                    if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                        let same = va.iter().chain(&vb).all(|v| v == x);
                        if !same {
                            regressions += 1;
                        }
                        println!(
                            "{workload} {} {x} {y} count {}",
                            def.name,
                            if same { "ok" } else { "differs" }
                        );
                    }
                }
                Class::Layer { .. } => {}
            }
        }
        for traced in [false, true] {
            let digests: Vec<u64> = a
                .iter()
                .chain(&b)
                .filter(|r| r.workload == workload && r.traced == traced)
                .map(|r| r.answer_digest)
                .collect();
            if same_seed && !digests.is_empty() {
                let same = digests.iter().all(|d| *d == digests[0]);
                if !same {
                    regressions += 1;
                }
                println!(
                    "{workload} answer_digest(trace {}) {:016x} {}",
                    u8::from(traced),
                    digests[0],
                    if same { "ok" } else { "differs" }
                );
            }
        }
    }
    if !same_seed {
        println!("seeds differ: counts and digests not compared");
    }
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{regressions} regression(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_needs_four_runs() {
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 0.0);
        let s = spread(&[10.0, 11.0, 12.0, 13.0, 14.0]);
        assert!((s - 2.0 / 12.0).abs() < 1e-12, "{s}");
    }
}
