//! The IGERN benchmark: four workloads, gated end-to-end metrics and an
//! outside-in per-layer trace. See `benchmark/README.md`.
//!
//! ```text
//! igern-benchmark run [--seed N] [--seconds S] [--quick] [--repeats N]
//!     every workload, untraced (N times) then traced, each run in its
//!     own child process; writes benchmark/results/latest.json
//! igern-benchmark run --workload W --trace 0|1 [--seed N] [--seconds S]
//!     one run in this process; the last line is the driver's JSON
//! igern-benchmark compare A.json B.json
//! ```

mod compare;
mod inputs;
mod layers;
mod offline;
mod oracle;
mod report;
mod serve;
mod stats;
mod sut;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Host, RunResult, CONTRACT_END_TO_END, METRICS, WORKLOADS};

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct RunPlan {
    pub workload: String,
    pub seed: u64,
    /// Nominal length of the timed part; tick counts derive from it.
    pub seconds: f64,
    /// Populations ÷ 10, 30 ticks, all checks on, nothing gated.
    pub quick: bool,
    pub traced: bool,
}

impl RunPlan {
    /// Population divisor.
    pub fn div(&self) -> usize {
        if self.quick {
            10
        } else {
            1
        }
    }
}

/// The benchmark's directory: `benchmark/` under the working directory
/// when run from a checkout's root (how the driver and the README run
/// it), else where the package was built.
pub fn bench_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

pub fn results_dir() -> PathBuf {
    let dir = bench_dir().join("results");
    std::fs::create_dir_all(&dir).expect("create benchmark/results");
    dir
}

/// Scratch space on the repository's own filesystem (never tmpfs): the
/// `serve` workload's write-ahead logs live here.
pub fn scratch_dir() -> PathBuf {
    let dir = bench_dir().join("target");
    std::fs::create_dir_all(&dir).expect("create benchmark/target");
    dir
}

pub fn write_trace_file(plan: &RunPlan, tracer: &trace::Tracer) {
    let path = results_dir().join(format!("{}.trace.json", plan.workload));
    std::fs::write(&path, tracer.to_json(&plan.workload, plan.seed)).expect("write trace file");
}

struct Args {
    seed: u64,
    seconds: f64,
    quick: bool,
    /// Times each workload runs untraced (`compare` uses the medians and
    /// the spread between them).
    repeats: usize,
    workload: Option<String>,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 7,
        seconds: 10.0,
        quick: false,
        repeats: 1,
        workload: None,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&a.seconds) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            "--quick" => a.quick = true,
            "--repeats" => {
                a.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                if a.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w} (one of {WORKLOADS:?})"));
                }
                a.workload = Some(w.clone());
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

fn run_one(plan: &RunPlan) -> RunResult {
    let res = if plan.workload == "serve" {
        serve::run(plan)
    } else {
        offline::run(plan)
    };
    res.check_complete();
    res
}

/// One workload in this process: print its lines, optionally write the
/// full record, end with the driver's JSON line.
fn run_single(args: &Args, workload: &str) -> ExitCode {
    let plan = RunPlan {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        traced: args.traced,
    };
    let res = run_one(&plan);
    res.print_lines();
    if let Some(out) = &args.out {
        std::fs::write(out, res.to_json("")).expect("write --out file");
    }
    let names: Vec<&str> = if plan.traced {
        METRICS
            .iter()
            .map(|m| m.name)
            .filter(|n| !CONTRACT_END_TO_END.contains(n))
            .collect()
    } else {
        CONTRACT_END_TO_END.to_vec()
    };
    println!("{}", res.contract_line(&names));
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

fn host() -> Host {
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
        rustc: command_line("rustc", &["--version"]),
        #[cfg(target_arch = "x86_64")]
        avx2: std::is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        avx2: false,
        filesystem: filesystem_of(&scratch_dir()),
    }
}

/// Every workload, untraced then traced, each run in a child process so
/// `peak_rss_mb` is the workload's own and one workload's heap layout
/// cannot reach the next.
fn run_all(args: &Args) -> ExitCode {
    let host = host();
    println!(
        "host: nproc {} commit {} {} avx2 {} filesystem {}  seed {}{}",
        host.nproc,
        host.commit,
        host.rustc,
        host.avx2,
        host.filesystem,
        args.seed,
        if args.quick { "  (quick)" } else { "" }
    );
    let exe = std::env::current_exe().expect("own path");
    let mut runs: Vec<RunResult> = Vec::new();
    let mut ok = true;
    let kinds: Vec<bool> = (0..args.repeats).map(|_| false).chain([true]).collect();
    for workload in WORKLOADS {
        for &traced in &kinds {
            let out = results_dir().join(format!("{workload}.t{}.json", u8::from(traced)));
            let _ = std::fs::remove_file(&out);
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out);
            if args.quick {
                cmd.arg("--quick");
            }
            // The child's lines are the report; its last line (the
            // driver's JSON) is dropped from this view.
            let output = cmd.output().expect("spawn workload child");
            let text = String::from_utf8_lossy(&output.stdout);
            let lines: Vec<&str> = text.lines().collect();
            for line in &lines[..lines.len().saturating_sub(1)] {
                println!("{line}");
            }
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let parsed = std::fs::read_to_string(&out)
                .map_err(|e| e.to_string())
                .and_then(|t| sut::json::parse(&t).map_err(|e| e.to_string()))
                .and_then(|v| RunResult::from_json(&v));
            let _ = std::fs::remove_file(&out);
            match parsed {
                Ok(res) => {
                    ok &= res.correct() && output.status.success();
                    runs.push(res);
                }
                Err(e) => {
                    println!(
                        "{workload} (trace {}) produced no result: {e}",
                        u8::from(traced)
                    );
                    ok = false;
                }
            }
        }
    }
    let path = results_dir().join("latest.json");
    std::fs::write(
        &path,
        report::results_json(&host, args.seed, args.quick, &runs),
    )
    .expect("write results file");
    println!("wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: a check failed or a workload was unstable (see the notes above)");
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: igern-benchmark run [--seed N] [--seconds S] [--quick] [--repeats N] \
                     [--workload city|hotspot|roadnet|serve --trace 0|1] [--out FILE]\n       \
                     igern-benchmark compare A.json B.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(a) => match a.workload.clone() {
                Some(w) => run_single(&a, &w),
                None => run_all(&a),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
