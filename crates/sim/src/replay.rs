//! `.simreplay` files: self-contained JSON descriptions of one run.
//!
//! A replay file carries everything [`crate::exec::execute`] needs — the
//! space, the initial population, and the event schedule — so a failure
//! minimized on one machine re-executes anywhere with
//! `igern sim --replay FILE`, no generator or seed required.
//!
//! The writer is hand-rolled (the workspace is dependency-free) and
//! every emitted file is validated by round-tripping through the JSON
//! parser in `igern_core::obs::jsontext` before it is handed out.
//! Floats are printed with `{:?}`, Rust's shortest round-trip
//! representation, so positions survive the text encoding bit-exactly.

use std::fmt::Write as _;

use igern_core::obs::jsontext::{self, Value};
use igern_core::processor::Algorithm;
use igern_core::types::ObjectKind;
use igern_geom::Aabb;

use crate::events::{FrameFault, Plan, ScheduledEvent, SimEvent};

/// Format marker of the current replay schema.
pub const REPLAY_FORMAT: &str = "igern-simreplay";
/// Schema version the writer emits and the loader accepts.
pub const REPLAY_VERSION: u64 = 1;

/// A malformed or unsupported replay file.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayError(pub String);

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replay file: {}", self.0)
    }
}

impl std::error::Error for ReplayError {}

/// Stable algorithm naming shared by the replay format and the CLI.
pub fn algo_name(algo: Algorithm) -> (&'static str, usize) {
    match algo {
        Algorithm::IgernMono => ("igern", 0),
        Algorithm::Crnn => ("crnn", 0),
        Algorithm::TplRepeat => ("tpl", 0),
        Algorithm::IgernBi => ("igern-bi", 0),
        Algorithm::VoronoiRepeat => ("voronoi", 0),
        Algorithm::IgernMonoK(k) => ("igern-k", k),
        Algorithm::IgernBiK(k) => ("igern-bi-k", k),
        Algorithm::Knn(k) => ("knn", k),
    }
}

/// Inverse of [`algo_name`].
pub fn algo_by_name(name: &str, k: usize) -> Option<Algorithm> {
    Some(match name {
        "igern" => Algorithm::IgernMono,
        "crnn" => Algorithm::Crnn,
        "tpl" => Algorithm::TplRepeat,
        "igern-bi" => Algorithm::IgernBi,
        "voronoi" => Algorithm::VoronoiRepeat,
        "igern-k" => Algorithm::IgernMonoK(k),
        "igern-bi-k" => Algorithm::IgernBiK(k),
        "knn" => Algorithm::Knn(k),
        _ => return None,
    })
}

/// Serialize a plan to replay JSON. The output is round-tripped
/// through the workspace JSON parser before being returned, so a
/// written file is guaranteed loadable.
///
/// # Panics
/// Panics if the writer produced text its own loader rejects — a bug,
/// not an input condition.
pub fn write_replay(plan: &Plan) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"format\": \"{REPLAY_FORMAT}\",");
    let _ = writeln!(s, "  \"version\": {REPLAY_VERSION},");
    let _ = writeln!(s, "  \"seed\": {},", plan.seed);
    let _ = writeln!(
        s,
        "  \"space\": [{:?}, {:?}, {:?}, {:?}],",
        plan.space.min.x, plan.space.min.y, plan.space.max.x, plan.space.max.y
    );
    let _ = writeln!(s, "  \"grid\": {},", plan.grid);
    let _ = writeln!(s, "  \"workers\": {},", plan.workers);
    let _ = writeln!(s, "  \"ticks\": {},", plan.ticks);
    let _ = writeln!(s, "  \"server\": {},", plan.server);
    let _ = writeln!(s, "  \"durable\": {},", plan.durable);
    let _ = writeln!(s, "  \"network\": {},", plan.network);
    match plan.victim_anchor {
        Some(a) => {
            let _ = writeln!(s, "  \"victim_anchor\": {a},");
        }
        None => s.push_str("  \"victim_anchor\": null,\n"),
    }
    s.push_str("  \"initial\": [\n");
    for (i, &(id, kind, x, y)) in plan.initial.iter().enumerate() {
        let comma = if i + 1 < plan.initial.len() { "," } else { "" };
        let k = if kind == ObjectKind::A { "A" } else { "B" };
        let _ = writeln!(s, "    [{id}, \"{k}\", {x:?}, {y:?}]{comma}");
    }
    s.push_str("  ],\n");
    s.push_str("  \"events\": [\n");
    for (i, e) in plan.events.iter().enumerate() {
        let comma = if i + 1 < plan.events.len() { "," } else { "" };
        let t = e.tick;
        let body = match &e.event {
            SimEvent::Move { id, x, y } => {
                format!("\"op\": \"move\", \"id\": {id}, \"x\": {x:?}, \"y\": {y:?}")
            }
            SimEvent::Insert { id, kind, x, y } => {
                let k = if *kind == ObjectKind::A { "A" } else { "B" };
                format!("\"op\": \"insert\", \"id\": {id}, \"kind\": \"{k}\", \"x\": {x:?}, \"y\": {y:?}")
            }
            SimEvent::Remove { id } => format!("\"op\": \"remove\", \"id\": {id}"),
            SimEvent::AddQuery { q, anchor, algo } => {
                let (name, k) = algo_name(*algo);
                format!(
                    "\"op\": \"add-query\", \"q\": {q}, \"anchor\": {anchor}, \"algo\": \"{name}\", \"k\": {k}"
                )
            }
            SimEvent::RemoveQuery { q } => format!("\"op\": \"remove-query\", \"q\": {q}"),
            SimEvent::ForceDesync { id } => format!("\"op\": \"desync\", \"id\": {id}"),
            SimEvent::StallWorker { worker } => {
                format!("\"op\": \"stall-worker\", \"worker\": {worker}")
            }
            SimEvent::ClientStall { ticks } => {
                format!("\"op\": \"client-stall\", \"ticks\": {ticks}")
            }
            SimEvent::FrameFault { fault } => {
                format!("\"op\": \"frame-fault\", \"fault\": \"{}\"", fault.name())
            }
            SimEvent::KillRestart => "\"op\": \"kill-restart\"".to_string(),
        };
        let _ = writeln!(s, "    {{\"tick\": {t}, {body}}}{comma}");
    }
    s.push_str("  ]\n}\n");

    let reloaded = load_replay(&s).expect("writer emitted an unloadable replay (bug)");
    assert_eq!(&reloaded, plan, "writer round-trip changed the plan (bug)");
    s
}

fn num(v: Option<&Value>, what: &str) -> Result<f64, ReplayError> {
    v.and_then(Value::as_f64)
        .ok_or_else(|| ReplayError(format!("missing or non-numeric {what}")))
}

fn uint(v: Option<&Value>, what: &str) -> Result<u64, ReplayError> {
    let f = num(v, what)?;
    if f < 0.0 || f.fract() != 0.0 || f > (1u64 << 53) as f64 {
        return Err(ReplayError(format!("{what} is not a valid integer: {f}")));
    }
    Ok(f as u64)
}

fn kind_of(v: Option<&Value>, what: &str) -> Result<ObjectKind, ReplayError> {
    match v.and_then(Value::as_str) {
        Some("A") => Ok(ObjectKind::A),
        Some("B") => Ok(ObjectKind::B),
        other => Err(ReplayError(format!("bad {what}: {other:?}"))),
    }
}

/// Parse replay JSON back into a [`Plan`].
pub fn load_replay(text: &str) -> Result<Plan, ReplayError> {
    let root = jsontext::parse(text).map_err(|e| ReplayError(format!("not JSON: {e}")))?;
    if root.get("format").and_then(Value::as_str) != Some(REPLAY_FORMAT) {
        return Err(ReplayError(format!(
            "missing \"format\": \"{REPLAY_FORMAT}\" marker"
        )));
    }
    let version = uint(root.get("version"), "version")?;
    if version != REPLAY_VERSION {
        return Err(ReplayError(format!(
            "unsupported version {version} (reader supports {REPLAY_VERSION})"
        )));
    }
    let space = root
        .get("space")
        .and_then(Value::as_array)
        .ok_or_else(|| ReplayError("missing space array".into()))?;
    if space.len() != 4 {
        return Err(ReplayError("space must be [x0, y0, x1, y1]".into()));
    }
    let coord = |i: usize| num(space.get(i), "space coordinate");
    let space = Aabb::from_coords(coord(0)?, coord(1)?, coord(2)?, coord(3)?);

    let mut initial = Vec::new();
    for row in root
        .get("initial")
        .and_then(Value::as_array)
        .ok_or_else(|| ReplayError("missing initial array".into()))?
    {
        let row = row
            .as_array()
            .ok_or_else(|| ReplayError("initial row is not an array".into()))?;
        if row.len() != 4 {
            return Err(ReplayError("initial row must be [id, kind, x, y]".into()));
        }
        initial.push((
            uint(row.first(), "initial id")? as u32,
            kind_of(row.get(1), "initial kind")?,
            num(row.get(2), "initial x")?,
            num(row.get(3), "initial y")?,
        ));
    }

    let mut events = Vec::new();
    for item in root
        .get("events")
        .and_then(Value::as_array)
        .ok_or_else(|| ReplayError("missing events array".into()))?
    {
        let tick = uint(item.get("tick"), "event tick")?;
        let op = item
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| ReplayError("event without op".into()))?;
        let id = || uint(item.get("id"), "event id").map(|v| v as u32);
        let event = match op {
            "move" => SimEvent::Move {
                id: id()?,
                x: num(item.get("x"), "x")?,
                y: num(item.get("y"), "y")?,
            },
            "insert" => SimEvent::Insert {
                id: id()?,
                kind: kind_of(item.get("kind"), "kind")?,
                x: num(item.get("x"), "x")?,
                y: num(item.get("y"), "y")?,
            },
            "remove" => SimEvent::Remove { id: id()? },
            "add-query" => {
                let name = item
                    .get("algo")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ReplayError("add-query without algo".into()))?;
                let k = uint(item.get("k"), "k")? as usize;
                SimEvent::AddQuery {
                    q: uint(item.get("q"), "q")? as u32,
                    anchor: uint(item.get("anchor"), "anchor")? as u32,
                    algo: algo_by_name(name, k)
                        .ok_or_else(|| ReplayError(format!("unknown algo {name:?}")))?,
                }
            }
            "remove-query" => SimEvent::RemoveQuery {
                q: uint(item.get("q"), "q")? as u32,
            },
            "desync" => SimEvent::ForceDesync { id: id()? },
            "stall-worker" => SimEvent::StallWorker {
                worker: uint(item.get("worker"), "worker")? as u32,
            },
            "client-stall" => SimEvent::ClientStall {
                ticks: uint(item.get("ticks"), "ticks")? as u32,
            },
            "frame-fault" => {
                let name = item
                    .get("fault")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ReplayError("frame-fault without fault".into()))?;
                SimEvent::FrameFault {
                    fault: FrameFault::by_name(name)
                        .ok_or_else(|| ReplayError(format!("unknown fault {name:?}")))?,
                }
            }
            "kill-restart" => SimEvent::KillRestart,
            other => return Err(ReplayError(format!("unknown op {other:?}"))),
        };
        events.push(ScheduledEvent { tick, event });
    }

    let victim_anchor = match root.get("victim_anchor") {
        None | Some(Value::Null) => None,
        Some(v) => Some(uint(Some(v), "victim_anchor")? as u32),
    };

    Ok(Plan {
        seed: uint(root.get("seed"), "seed")?,
        space,
        grid: uint(root.get("grid"), "grid")? as usize,
        workers: uint(root.get("workers"), "workers")? as usize,
        ticks: uint(root.get("ticks"), "ticks")?,
        server: matches!(root.get("server"), Some(Value::Bool(true))),
        // Absent in files written before durability existed: off.
        durable: matches!(root.get("durable"), Some(Value::Bool(true))),
        // A `"batch"` key, written while a batch evaluation switch
        // existed, is ignored: there is one evaluation path.
        // Absent in files written before network distance existed: off.
        network: matches!(root.get("network"), Some(Value::Bool(true))),
        victim_anchor,
        initial,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{generate, GenConfig};

    fn plan() -> Plan {
        generate(&GenConfig {
            seed: 11,
            ticks: 30,
            objects: 16,
            grid: 8,
            queries: 8,
            workers: 4,
            space: Aabb::from_coords(0.0, 0.0, 64.0, 64.0),
            faults: true,
            server: true,
            durable: false,
            network: false,
        })
    }

    #[test]
    fn round_trip_preserves_the_plan() {
        let p = plan();
        let text = write_replay(&p);
        assert_eq!(load_replay(&text).unwrap(), p);
    }

    #[test]
    fn durable_round_trip_keeps_the_flag_and_kill_events() {
        let p = generate(&GenConfig {
            seed: 11,
            ticks: 30,
            objects: 16,
            grid: 8,
            queries: 8,
            workers: 4,
            space: Aabb::from_coords(0.0, 0.0, 64.0, 64.0),
            faults: true,
            server: true,
            durable: true,
            network: false,
        });
        assert!(p.events.iter().any(|e| e.event == SimEvent::KillRestart));
        let text = write_replay(&p);
        assert!(text.contains("\"durable\": true"));
        assert!(text.contains("\"op\": \"kill-restart\""));
        assert_eq!(load_replay(&text).unwrap(), p);
        // Files that predate the field load as non-durable.
        assert!(
            !load_replay(&text.replacen("  \"durable\": true,\n", "", 1))
                .unwrap()
                .durable
        );
    }

    #[test]
    fn network_round_trip_keeps_the_flag() {
        let p = generate(&GenConfig {
            seed: 11,
            ticks: 30,
            objects: 16,
            grid: 8,
            queries: 8,
            workers: 4,
            space: Aabb::from_coords(0.0, 0.0, 64.0, 64.0),
            faults: true,
            server: true,
            durable: false,
            network: true,
        });
        let text = write_replay(&p);
        assert!(text.contains("\"network\": true"));
        assert_eq!(load_replay(&text).unwrap(), p);
        // Files that predate the field load as Euclidean.
        assert!(
            !load_replay(&text.replacen("  \"network\": true,\n", "", 1))
                .unwrap()
                .network
        );
    }

    #[test]
    fn a_batch_key_from_older_files_is_ignored() {
        let text = write_replay(&plan());
        assert!(!text.contains("\"batch\""));
        let older = text.replacen("  \"network\":", "  \"batch\": true,\n  \"network\":", 1);
        assert!(older.contains("\"batch\": true"));
        let (new, old) = (load_replay(&text).unwrap(), load_replay(&older).unwrap());
        assert_eq!(new, old);
        let digest = |p: &Plan| crate::exec::execute(p, None).expect("replay runs").digest;
        assert_eq!(digest(&new), digest(&old));
    }

    #[test]
    fn bad_inputs_are_rejected_with_context() {
        for (text, needle) in [
            ("nonsense", "not JSON"),
            ("{}", "format"),
            (
                "{\"format\": \"igern-simreplay\", \"version\": 99}",
                "version",
            ),
            (
                "{\"format\": \"igern-simreplay\", \"version\": 1, \"space\": [0, 0]}",
                "space",
            ),
        ] {
            let err = load_replay(text).unwrap_err();
            assert!(err.0.contains(needle), "{err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn algo_names_cover_the_cycle() {
        for algo in crate::events::ALGO_CYCLE {
            let (name, k) = algo_name(algo);
            assert_eq!(algo_by_name(name, k), Some(algo));
        }
    }
}
