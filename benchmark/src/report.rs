//! The metric catalogue (names, units, bounds, where each is defined) and
//! the result record a run produces.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::sut::json::{self, Value};

pub const WORKLOADS: [&str; 4] = ["city", "hotspot", "roadnet", "serve"];

const ALL: &[&str] = &WORKLOADS;
const OFFLINE: &[&str] = &["city", "hotspot", "roadnet"];
const EUCLID: &[&str] = &["city", "hotspot"];
const EUCLID_SERVE: &[&str] = &["city", "hotspot", "serve"];
const CITY: &[&str] = &["city"];
const ROADNET: &[&str] = &["roadnet"];
const SERVE: &[&str] = &["serve"];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    /// Gated: may worsen by `bound` (a share of the baseline) before it
    /// counts as a regression.
    EndToEnd { bound: f64 },
    /// Diagnostic; `count` metrics must repeat exactly for a seed.
    Layer { count: bool },
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
    /// Workloads the metric is defined on.
    pub on: &'static [&'static str],
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::EndToEnd { bound },
        on,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Layer { count: false },
        on,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Layer { count: true },
        on,
    }
}

use Better::{Higher, Lower};

/// Every metric the benchmark reports. `BENCHMARK.json` lists the same
/// names (`tests/schema.rs` checks it).
pub const METRICS: &[MetricDef] = &[
    // ---- end to end ---------------------------------------------------------
    // The time metrics carry the widest bound the driver's contract
    // allows: on the host this was sized on their spread over ten seeds is
    // 8–17 % (README, "Findings").
    e2e("setup_s", "s", Lower, 0.25, ALL),
    e2e("tick_ms_p50", "ms", Lower, 0.25, ALL),
    e2e("updates_per_s", "1/s", Higher, 0.25, ALL),
    e2e("peak_rss_mb", "MB", Lower, 0.05, ALL),
    e2e("recovery_ms", "ms", Lower, 0.25, SERVE),
    e2e("failed_ops_share", "ratio", Lower, 0.0, ALL),
    // ---- generator (not the system under test) ------------------------------
    layer("mobgen.gen_share", "ratio", Lower, ALL),
    // ---- proto --------------------------------------------------------------
    layer("proto.decode_ns_per_frame", "ns", Lower, SERVE),
    layer("proto.delta_encode_ns_per_frame", "ns", Lower, SERVE),
    count("proto.bytes_per_update", "B", Lower, SERVE),
    // ---- reactor + server ---------------------------------------------------
    layer("server.ingest_ns_per_update", "ns", Lower, SERVE),
    layer("server.wal_off_round_ms_p50", "ms", Lower, SERVE),
    layer("server.tick_push_ms", "ms", Lower, SERVE),
    layer("server.ping_rtt_us_p50", "us", Lower, SERVE),
    count("server.delta_frames_per_tick", "count", Lower, SERVE),
    count("server.delta_bytes_per_tick", "B", Lower, SERVE),
    layer("server.snapshot_round_extra_ms", "ms", Lower, SERVE),
    layer("server.round_ms_p95", "ms", Lower, SERVE),
    layer("reactor.events_per_wakeup", "count", Higher, SERVE),
    layer("reactor.short_write_resumes", "count", Lower, SERVE),
    layer("server.slow_consumer_events", "count", Lower, SERVE),
    layer("server.protocol_errors", "count", Lower, SERVE),
    // ---- wal ----------------------------------------------------------------
    layer("wal.append_ns_per_record", "ns", Lower, SERVE),
    layer("wal.sync_us_per_tick", "us", Lower, SERVE),
    count("wal.bytes_per_update", "B", Lower, SERVE),
    count("wal.replayed_records", "count", Lower, SERVE),
    layer("wal.replay_records_per_s", "1/s", Higher, SERVE),
    // ---- core::store + grid, update path ------------------------------------
    layer("store.apply_ns_per_update", "ns", Lower, ALL),
    count("store.cell_change_share", "ratio", Lower, ALL),
    count("store.dirty_cells_per_tick", "count", Lower, ALL),
    // ---- grid::nn, grid::feed -----------------------------------------------
    layer("grid.nn_ns_per_call", "ns", Lower, ALL),
    layer("grid.knn8_ns_per_call", "ns", Lower, ALL),
    count("grid.nn_cells_per_call", "count", Lower, ALL),
    count("grid.nn_objects_per_call", "count", Lower, ALL),
    layer("grid.feed_prime_ns_per_cell", "ns", Lower, ALL),
    // ---- core::prune --------------------------------------------------------
    layer(
        "prune.recompute_alive_us_per_call",
        "us",
        Lower,
        EUCLID_SERVE,
    ),
    // ---- core monitors ------------------------------------------------------
    layer("core.eval_us.igern_mono", "us", Lower, OFFLINE),
    layer("core.eval_us.igern_bi", "us", Lower, &["city", "roadnet"]),
    layer("core.eval_us.igern_mono_k4", "us", Lower, CITY),
    layer("core.eval_us.igern_bi_k4", "us", Lower, CITY),
    layer("core.eval_us.knn8", "us", Lower, CITY),
    layer("core.eval_us.knn4", "us", Lower, ROADNET),
    layer("core.eval_ms_per_tick", "ms", Lower, ALL),
    layer("core.tick_residue_ms", "ms", Lower, OFFLINE),
    count("core.skip_share", "ratio", Higher, ALL),
    count("core.monitored_mean", "count", Lower, OFFLINE),
    count("core.answer_mean", "count", Lower, OFFLINE),
    count("core.cells_per_eval", "count", Lower, ALL),
    count("core.objects_per_eval", "count", Lower, ALL),
    count("core.nn_per_eval", "count", Lower, ALL),
    count("core.verifications_per_eval", "count", Lower, ALL),
    layer("core.routing_off_ms_per_tick", "ms", Lower, OFFLINE),
    // ---- core::batch --------------------------------------------------------
    layer("batch.off_ms_per_tick", "ms", Lower, EUCLID),
    layer("batch.on_ms_per_tick", "ms", Lower, EUCLID),
    count("batch.groups_per_tick", "count", Lower, EUCLID_SERVE),
    count("batch.members_per_group", "count", Higher, EUCLID_SERVE),
    // ---- engine -------------------------------------------------------------
    layer("engine.w2_ms_per_tick", "ms", Lower, OFFLINE),
    layer("engine.w2_speedup", "ratio", Higher, OFFLINE),
    layer("engine.tick_ms_p95", "ms", Lower, OFFLINE),
    // ---- core::netspace -----------------------------------------------------
    layer("net.snap_ns_per_call", "ns", Lower, ROADNET),
    layer("net.dist_us_per_call_warm", "us", Lower, ROADNET),
    layer("net.expand_us_per_node", "us", Lower, ROADNET),
    count("net.nodes", "count", Lower, ROADNET),
    count("net.edges", "count", Lower, ROADNET),
    // ---- attribution --------------------------------------------------------
    layer("attr.unattributed_share", "ratio", Lower, ALL),
    layer("trace.overhead_share", "ratio", Lower, ALL),
];

/// The end-to-end metrics `BENCHMARK.json` can carry: the driver's
/// contract wants every one of them on every workload and never 0, which
/// `recovery_ms` (serve only) and `failed_ops_share` (0 on a good run)
/// cannot meet. Those two are listed there under `per_layer`; `compare`
/// still gates them.
pub const CONTRACT_END_TO_END: [&str; 4] =
    ["setup_s", "tick_ms_p50", "updates_per_s", "peak_rss_mb"];

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

impl MetricDef {
    pub fn defined_on(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }

    pub fn is_end_to_end(&self) -> bool {
        matches!(self.class, Class::EndToEnd { .. })
    }

    /// Whether a run of this kind reports the metric: end-to-end metrics
    /// come from `--trace 0` runs, per-layer ones from `--trace 1` runs.
    /// The two end-to-end metrics `BENCHMARK.json` has to list under
    /// `per_layer` (see [`CONTRACT_END_TO_END`]) come from both.
    pub fn reported_by(&self, traced: bool) -> bool {
        if self.is_end_to_end() {
            !traced || !CONTRACT_END_TO_END.contains(&self.name)
        } else {
            traced
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub quick: bool,
    /// Metric name → value, for the metrics defined on this workload and
    /// reported by this kind of run.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind the timing metrics.
    pub samples: BTreeMap<String, u64>,
    /// FNV-1a over every query's final answer.
    pub answer_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The work done in the two halves of the timed run is within 20 %
    /// (see [`RunResult::judge_stationarity`]).
    pub stable: bool,
    /// Second half's work over the first half's, minus one.
    pub work_drift: f64,
    /// Failed predictions, failed checks, anything a reader should see.
    pub notes: Vec<String>,
    /// Layer self times of the traced run, by span name.
    pub self_ms: BTreeMap<String, f64>,
}

impl RunResult {
    pub fn for_plan(plan: &crate::RunPlan) -> RunResult {
        RunResult {
            workload: plan.workload.clone(),
            traced: plan.traced,
            seed: plan.seed,
            quick: plan.quick,
            stable: true,
            ..Default::default()
        }
    }

    /// Close the run's accounts: the generator must have stayed under a
    /// tenth of the timed time, and `tally` becomes the failure counts.
    pub fn finish(&mut self, mut tally: crate::oracle::Tally, gen_share: f64) {
        tally.record(gen_share < 0.10 || self.quick, || {
            format!(
                "generator took {:.1} % of the timed time",
                gen_share * 100.0
            )
        });
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.notes.extend(tally.notes);
        let share = crate::stats::ratio(self.failed as f64, self.attempted as f64);
        self.set("failed_ops_share", share);
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let def = metric(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(
            def.defined_on(&self.workload),
            "{name} is not defined on {}",
            self.workload
        );
        assert!(def.reported_by(self.traced), "{name} in the wrong run");
        let previous = self.metrics.insert(name.to_string(), value);
        assert!(previous.is_none(), "{name} reported twice");
    }

    /// The stationarity guard: the second half of the timed run must do
    /// within 20 % of the first half's work, else the workload is still
    /// settling (a mover leaving its uniform start, a structure still
    /// growing) and its medians describe no steady state.
    ///
    /// Work is the monitors' own operation count (cells and objects
    /// visited), not time: on the shared two-core host this was sized on,
    /// machine speed moves ±25 % for seconds at a time, and a time-based
    /// guard failed half of all runs of workloads that were stationary.
    /// The limit is 20 %, not 10 %: `roadnet`'s 24 queries alone move the
    /// work of a half by ±10 % (σ ≈ 5 % over ten seeds) with the mover long
    /// settled. The time drift is still reported when it exceeds the limit.
    pub fn judge_stationarity(&mut self, work_halves: (f64, f64), tick_ms: &[f64]) {
        const LIMIT: f64 = 0.20;
        let work_drift = work_halves.1 / work_halves.0 - 1.0;
        self.work_drift = work_drift;
        self.stable = self.quick || work_drift.abs() <= LIMIT;
        if !self.stable {
            self.notes.push(format!(
                "unstable: the second half did {:+.1} % of the first half's work",
                work_drift * 100.0
            ));
        }
        let (a, b) = tick_ms.split_at(tick_ms.len() / 2);
        let time_drift = crate::stats::median(b) / crate::stats::median(a) - 1.0;
        if time_drift.abs() > LIMIT {
            self.notes.push(format!(
                "second-half tick_ms_p50 is {:+.1} % of the first half's (work moved {:+.1} %)",
                time_drift * 100.0,
                work_drift * 100.0
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.stable
    }

    /// Every metric this run owes, each exactly once.
    pub fn check_complete(&self) {
        for def in METRICS {
            let owed = def.defined_on(&self.workload) && def.reported_by(self.traced);
            assert_eq!(
                owed,
                self.metrics.contains_key(def.name),
                "{} on {} (traced: {})",
                def.name,
                self.workload,
                self.traced
            );
        }
    }

    /// `workload metric value unit` lines, one per metric.
    pub fn print_lines(&self) {
        for (name, value) in &self.metrics {
            let def = metric(name).expect("set() checked the name");
            // A traced run repeats two end-to-end metrics for the
            // driver's JSON only; the untraced run's are the record.
            if self.traced && def.is_end_to_end() {
                continue;
            }
            let n = self
                .samples
                .get(name)
                .map_or(String::new(), |n| format!("  (n={n})"));
            println!(
                "{} {} {} {}{}",
                self.workload,
                name,
                fmt_value(*value),
                def.unit,
                n
            );
        }
        for (name, ms) in &self.self_ms {
            println!("{} self.{} {:.3} ms", self.workload, name, ms);
        }
        println!(
            "{} answer_digest {:016x}  attempted {} failed {}{}",
            self.workload,
            self.answer_digest,
            self.attempted,
            self.failed,
            match (self.traced, self.stable) {
                (true, _) => String::new(),
                (false, true) => format!("  work drift {:+.1} %", self.work_drift * 100.0),
                (false, false) =>
                    format!("  work drift {:+.1} %  unstable", self.work_drift * 100.0),
            }
        );
        for note in &self.notes {
            println!("{} note: {}", self.workload, note);
        }
    }

    /// The last line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`. `names` is the metric set the run kind owes
    /// the driver; a metric this workload has no value for reads 0.
    pub fn contract_line(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let def = metric(name).expect("contract names come from the catalogue");
                let v = self.metrics.get(*name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    fmt_value(v),
                    def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn to_json(&self, indent: &str) -> String {
        let map = |m: &BTreeMap<String, f64>| {
            m.iter()
                .map(|(k, v)| format!("\"{k}\": {}", fmt_value(*v)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        let notes = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", escape(n)))
            .collect::<Vec<_>>()
            .join(", ");
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n{indent}  \"workload\": \"{}\", \"traced\": {}, \"seed\": {}, \"quick\": {},\n\
             {indent}  \"answer_digest\": \"{:016x}\", \"attempted\": {}, \"failed\": {}, \
             \"stable\": {}, \"work_drift\": {},\n\
             {indent}  \"metrics\": {{{}}},\n\
             {indent}  \"samples\": {{{}}},\n\
             {indent}  \"self_ms\": {{{}}},\n\
             {indent}  \"notes\": [{}]\n{indent}}}",
            self.workload,
            self.traced,
            self.seed,
            self.quick,
            self.answer_digest,
            self.attempted,
            self.failed,
            self.stable,
            fmt_value(self.work_drift),
            map(&self.metrics),
            samples,
            map(&self.self_ms),
            notes
        );
        s
    }

    pub fn from_json(v: &Value) -> Result<RunResult, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field {k}"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("{k} is not a number"))
        };
        let boolean = |k: &str| match field(k)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("{k} is not a boolean")),
        };
        let map = |k: &str| -> Result<BTreeMap<String, f64>, String> {
            match field(k)? {
                Value::Object(m) => m
                    .iter()
                    .map(|(name, x)| {
                        x.as_f64()
                            .map(|x| (name.clone(), x))
                            .ok_or_else(|| format!("{k}.{name} is not a number"))
                    })
                    .collect(),
                _ => Err(format!("{k} is not an object")),
            }
        };
        let digest = field("answer_digest")?
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("answer_digest is not a hex string")?;
        Ok(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .to_string(),
            traced: boolean("traced")?,
            seed: num("seed")? as u64,
            quick: boolean("quick")?,
            metrics: map("metrics")?,
            samples: map("samples")?
                .into_iter()
                .map(|(k, v)| (k, v as u64))
                .collect(),
            answer_digest: digest,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            stable: boolean("stable")?,
            work_drift: num("work_drift")?,
            notes: field("notes")?
                .as_array()
                .ok_or("notes is not an array")?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
            self_ms: map("self_ms")?,
        })
    }
}

/// All digits of a measurement; whole numbers without a fraction.
pub fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Where and on what a result was measured.
#[derive(Debug, Clone, Default)]
pub struct Host {
    pub nproc: usize,
    pub commit: String,
    pub rustc: String,
    pub avx2: bool,
    /// Filesystem type under `benchmark/target/` (where `serve` logs).
    pub filesystem: String,
}

impl Host {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"commit\": \"{}\", \"rustc\": \"{}\", \"avx2\": {}, \
             \"filesystem\": \"{}\"}}",
            self.nproc,
            escape(&self.commit),
            escape(&self.rustc),
            self.avx2,
            escape(&self.filesystem)
        )
    }
}

/// A results file: the host block plus every run, untraced and traced.
pub fn results_json(host: &Host, seed: u64, quick: bool, runs: &[RunResult]) -> String {
    let body: Vec<String> = runs
        .iter()
        .map(|r| format!("    {}", r.to_json("    ")))
        .collect();
    format!(
        "{{\n  \"host\": {},\n  \"seed\": {seed},\n  \"quick\": {quick},\n  \"runs\": [\n{}\n  ]\n}}\n",
        host.to_json(),
        body.join(",\n")
    )
}

pub fn parse_results(text: &str) -> Result<Vec<RunResult>, String> {
    let v = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    v.get("runs")
        .and_then(Value::as_array)
        .ok_or("no \"runs\" array")?
        .iter()
        .map(RunResult::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                m.name.len() <= 64
                    && m.name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{}",
                m.name
            );
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
            assert!(!m.on.is_empty());
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
        }
        assert!(METRICS.len() - 2 <= 128);
    }

    #[test]
    fn result_round_trips_and_contract_line_has_the_four_keys() {
        let mut r = RunResult {
            workload: "city".into(),
            seed: 7,
            stable: true,
            attempted: 12,
            answer_digest: 0xdead_beef,
            ..Default::default()
        };
        r.set("tick_ms_p50", 110.25);
        r.set("setup_s", 0.5);
        r.samples.insert("tick_ms_p50".into(), 90);
        r.notes.push("a \"quoted\" note".into());
        let text = results_json(&Host::default(), 7, false, &[r.clone()]);
        let back = parse_results(&text).unwrap();
        assert_eq!(back[0].metrics, r.metrics);
        assert_eq!(back[0].answer_digest, r.answer_digest);
        assert_eq!(back[0].notes, r.notes);

        let line = r.contract_line(&CONTRACT_END_TO_END);
        let v = json::parse(&line).unwrap();
        match &v {
            Value::Object(m) => assert_eq!(
                m.keys().map(String::as_str).collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            ),
            _ => panic!("not an object"),
        }
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("tick_ms_p50").unwrap().get("value").unwrap().as_f64(),
            Some(110.25)
        );
        assert_eq!(
            m.get("peak_rss_mb").unwrap().get("unit").unwrap().as_str(),
            Some("MB")
        );
    }
}
