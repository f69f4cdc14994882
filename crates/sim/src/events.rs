//! The simulation event model and the seeded schedule generator.
//!
//! A [`Plan`] is the complete, self-contained description of one
//! simulation run: the data space, the initial population, and a flat
//! tick-stamped list of [`SimEvent`]s. Everything downstream — the
//! executor, the shrinker, the replay file — operates on plans, so a
//! failure found in a 300-tick seeded run can be cut down to a handful
//! of events and re-executed from a file with no generator in the loop.

use igern_core::processor::Algorithm;
use igern_core::types::ObjectKind;
use igern_geom::Aabb;
use igern_mobgen::rng::Rng64;
use igern_mobgen::schedule::{MotionEvent, MotionSchedule, ScheduleConfig};
use igern_mobgen::ObjKind;

/// A server→victim frame-stream corruption, applied to one pushed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// The frame is silently dropped.
    Drop,
    /// The frame is delivered twice.
    Duplicate,
    /// Only the first half of the frame's bytes are delivered,
    /// corrupting the victim's framing from that point on.
    Truncate,
    /// The frame is held back and delivered after the next one.
    Reorder,
}

impl FrameFault {
    /// Stable name used in replay files.
    pub fn name(self) -> &'static str {
        match self {
            FrameFault::Drop => "drop",
            FrameFault::Duplicate => "duplicate",
            FrameFault::Truncate => "truncate",
            FrameFault::Reorder => "reorder",
        }
    }

    /// Inverse of [`FrameFault::name`].
    pub fn by_name(s: &str) -> Option<Self> {
        Some(match s {
            "drop" => FrameFault::Drop,
            "duplicate" => FrameFault::Duplicate,
            "truncate" => FrameFault::Truncate,
            "reorder" => FrameFault::Reorder,
            _ => return None,
        })
    }
}

/// One thing that happens to the system under test.
///
/// Population and query events are applied through each backend's own
/// mutation path (store calls offline, wire frames on the server);
/// fault events are routed through the injection seams — the
/// [`igern_core::hooks::SimHooks`] trait for engine faults and the
/// memory transport's write tap for wire faults.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// Object `id` reports a new position (teleports included).
    Move { id: u32, x: f64, y: f64 },
    /// A dead object (re-)enters the space.
    Insert {
        id: u32,
        kind: ObjectKind,
        x: f64,
        y: f64,
    },
    /// A live object leaves the space.
    Remove { id: u32 },
    /// Register continuous query `q` anchored at object `anchor`.
    AddQuery {
        q: u32,
        anchor: u32,
        algo: Algorithm,
    },
    /// Drop continuous query `q`.
    RemoveQuery { q: u32 },
    /// Corrupt the grid state of object `id` mid-tick (the bucket
    /// desync fault, injected via `SpatialStore::debug_force_desync`).
    ForceDesync { id: u32 },
    /// Stall one evaluation worker of the sharded backend mid-tick.
    StallWorker { worker: u32 },
    /// The victim client stops draining its connection for this many
    /// ticks (drives the server's slow-consumer machinery).
    ClientStall { ticks: u32 },
    /// Corrupt one server→victim frame.
    FrameFault { fault: FrameFault },
    /// Crash-kill the served backend (no final tick, no clean
    /// snapshot) and restart it from its write-ahead log. Only valid on
    /// durable server plans; the executor re-subscribes its clients and
    /// every answer must still match the mirror afterwards.
    KillRestart,
}

/// A [`SimEvent`] pinned to the tick it happens on. Events of tick `t`
/// are applied before engine tick `t` runs; ticks are 1-based.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent {
    pub tick: u64,
    pub event: SimEvent,
}

/// A complete, self-contained simulation run description.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The seed the plan was generated from (0 for loaded replays that
    /// predate the field — informational only; execution never draws
    /// randomness).
    pub seed: u64,
    /// Data space of every backend's store.
    pub space: Aabb,
    /// Grid resolution (`n × n` cells).
    pub grid: usize,
    /// Worker count of the sharded backend (and the server when it has
    /// more than one worker).
    pub workers: usize,
    /// Number of engine ticks to run.
    pub ticks: u64,
    /// Whether the wire-protocol backend (server over the in-memory
    /// transport) participates.
    pub server: bool,
    /// Whether the served backend runs with a write-ahead log (a
    /// throwaway directory managed by the executor). Required for
    /// [`SimEvent::KillRestart`] to be admissible; implies the
    /// generator never emits [`SimEvent::ForceDesync`] — desync is an
    /// unrecoverable corruption the durability layer would silently
    /// repair on replay, splitting the backends from the mirror.
    pub durable: bool,
    /// Whether every query runs under network (shortest-path) distance.
    /// The road graph is rebuilt deterministically from `seed` and
    /// `space` (see [`sim_network`]); plan generation snaps every
    /// position onto it, and the mirror checks answers against the
    /// Dijkstra oracles instead of the Euclidean ones.
    pub network: bool,
    /// Anchor of the fault-victim client's own subscription. The
    /// executor's mirror pins this object: it is never removed, so the
    /// victim's standing query stays semantically valid on the server
    /// while its connection is being abused.
    pub victim_anchor: Option<u32>,
    /// Initial population: `(id, kind, x, y)` — loaded into every
    /// backend's store before tick 1.
    pub initial: Vec<(u32, ObjectKind, f64, f64)>,
    /// The tick-stamped schedule, sorted by tick.
    pub events: Vec<ScheduledEvent>,
}

impl Plan {
    /// Events scheduled for `tick`, in order.
    pub fn events_at(&self, tick: u64) -> impl Iterator<Item = &SimEvent> {
        self.events
            .iter()
            .filter(move |e| e.tick == tick)
            .map(|e| &e.event)
    }

    /// The object the schedule must keep alive for the whole run: the
    /// fault-victim client's anchor when one is set, otherwise — on
    /// server plans — the smallest initial id, which the workload
    /// client anchors its tick-barrier subscription at (the server
    /// pushes `TICK_END` only to subscribed connections, and the
    /// executor uses that frame as its per-tick delivery barrier).
    /// The mirror refuses `Remove`/`ForceDesync` of this id.
    pub fn pinned_anchor(&self) -> Option<u32> {
        self.victim_anchor.or_else(|| {
            if self.server {
                self.initial.iter().map(|&(id, _, _, _)| id).min()
            } else {
                None
            }
        })
    }
}

/// Generator knobs; see [`crate::SimConfig`] for the user-facing
/// surface these derive from.
#[derive(Debug, Clone)]
pub struct GenConfig {
    pub seed: u64,
    pub ticks: u64,
    pub objects: usize,
    pub grid: usize,
    pub queries: usize,
    pub workers: usize,
    pub space: Aabb,
    pub faults: bool,
    pub server: bool,
    pub durable: bool,
    pub network: bool,
}

/// The road network a network-distance plan runs on: a deterministic
/// function of the plan's seed and space, so executors (and replayed
/// `.simreplay` files, which carry both) rebuild the exact same graph
/// without serializing it.
pub fn sim_network(seed: u64, space: Aabb) -> igern_mobgen::RoadNetwork {
    igern_mobgen::build_synthetic_network(&igern_mobgen::SyntheticNetworkConfig {
        k: 8,
        space,
        jitter: 0.2,
        highway_stride: 3,
        prune_fraction: 0.1,
        seed,
    })
}

/// The algorithm rotation new queries cycle through — all eight
/// processor algorithms, so every seeded run covers the full matrix.
pub const ALGO_CYCLE: [Algorithm; 8] = [
    Algorithm::IgernMono,
    Algorithm::Crnn,
    Algorithm::TplRepeat,
    Algorithm::IgernBi,
    Algorithm::VoronoiRepeat,
    Algorithm::IgernMonoK(2),
    Algorithm::IgernBiK(2),
    Algorithm::Knn(3),
];

/// Generate a plan from one seed: a churned motion schedule, a rotating
/// query population, and — with `faults` on — desyncs, worker stalls,
/// wire-frame corruption, slow-consumer stalls, a mass-delete storm, a
/// re-insert storm, and a teleport storm.
pub fn generate(cfg: &GenConfig) -> Plan {
    let n = cfg.objects.max(4);
    // Network plans snap every generated position onto the road graph:
    // objects live on edges, as road traffic does, and the snapped
    // stream is what makes the Euclidean lower bound tight in practice.
    let net_space = cfg
        .network
        .then(|| igern_core::NetworkSpace::from_network(&sim_network(cfg.seed, cfg.space)));
    let snap = |x: f64, y: f64| -> (f64, f64) {
        match &net_space {
            Some(ns) => {
                let p = ns.snap(igern_geom::Point::new(x, y)).point;
                (p.x, p.y)
            }
            None => (x, y),
        }
    };
    let n_a = n.div_ceil(2); // ids 0..n_a are kind A
    let queries = cfg.queries.clamp(1, n_a);
    // Initial query anchors are ids 0..queries (all kind A, so the full
    // algorithm rotation is valid); the victim client anchors at the
    // last id. All of them are protected from removal.
    let mut protected: Vec<u32> = (0..queries as u32).collect();
    let victim_anchor = (n - 1) as u32;
    if cfg.server {
        protected.push(victim_anchor);
    }

    let motion = MotionSchedule::generate(&ScheduleConfig {
        num_objects: n,
        ticks: cfg.ticks as usize,
        seed: cfg.seed,
        space: cfg.space,
        kind_a_fraction: Some(0.5),
        protected: protected.clone(),
        ..ScheduleConfig::default()
    });
    let kind_of = |id: u32| match motion.kinds()[id as usize] {
        ObjKind::A => ObjectKind::A,
        ObjKind::B => ObjectKind::B,
    };
    let initial: Vec<(u32, ObjectKind, f64, f64)> = motion
        .initial_positions()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (x, y) = snap(p.x, p.y);
            (i as u32, kind_of(i as u32), x, y)
        })
        .collect();

    // Generation-side bookkeeping so fault targets are picked among
    // plausible victims (the executor's mirror re-validates everything
    // anyway — required once the shrinker starts deleting events).
    let mut live: Vec<bool> = vec![true; n];
    let mut desynced: Vec<bool> = vec![false; n];
    let mut query_live: Vec<bool> = Vec::new();
    let mut query_anchor: Vec<u32> = Vec::new();
    let mut rng = Rng64::seed_from_u64(cfg.seed ^ 0x5b5a_d5ec_ce55_a21d);

    let mut events: Vec<ScheduledEvent> = Vec::new();
    let mut push = |tick: u64, event: SimEvent| events.push(ScheduledEvent { tick, event });

    // Tick 1 opens with the standing-query population.
    for q in 0..queries as u32 {
        push(
            1,
            SimEvent::AddQuery {
                q,
                anchor: q,
                algo: ALGO_CYCLE[q as usize % ALGO_CYCLE.len()],
            },
        );
        query_live.push(true);
        query_anchor.push(q);
    }

    let storm_delete = (cfg.ticks / 3).max(2);
    let storm_reinsert = (cfg.ticks / 2).max(3);
    let storm_teleport = (cfg.ticks * 2 / 3).max(4);

    let durable = cfg.durable && cfg.server && cfg.faults;
    let storm_kill = (cfg.ticks / 2 + 1).max(4);

    for t in 1..=cfg.ticks {
        // Crash-kill the durable server: always scheduled first in its
        // tick so every prior mutation sits behind a tick-end barrier
        // (and therefore in the log) before the plug is pulled. One
        // kill is scripted right after the re-insert storm so every
        // durable seed exercises recovery at least once.
        if durable && (t == storm_kill || (t > 1 && rng.gen_bool(0.03))) {
            push(t, SimEvent::KillRestart);
        }

        // Base motion (already includes background churn + teleports).
        for e in motion.events(t as usize - 1) {
            match *e {
                MotionEvent::Move { id, pos } => {
                    if live[id as usize] && !desynced[id as usize] {
                        let (x, y) = snap(pos.x, pos.y);
                        push(t, SimEvent::Move { id, x, y });
                    }
                }
                MotionEvent::Remove { id } => {
                    if live[id as usize]
                        && !desynced[id as usize]
                        && !is_anchored(id, &query_live, &query_anchor)
                    {
                        live[id as usize] = false;
                        push(t, SimEvent::Remove { id });
                    }
                }
                MotionEvent::Insert { id, pos, .. } => {
                    if !live[id as usize] && !desynced[id as usize] {
                        live[id as usize] = true;
                        let (x, y) = snap(pos.x, pos.y);
                        push(
                            t,
                            SimEvent::Insert {
                                id,
                                kind: kind_of(id),
                                x,
                                y,
                            },
                        );
                    }
                }
            }
        }

        // Query churn: occasionally retire one query and open another.
        if t > 1 && rng.gen_bool(0.04) {
            let alive: Vec<u32> = (0..query_live.len() as u32)
                .filter(|&q| query_live[q as usize])
                .collect();
            if alive.len() > 1 {
                let q = alive[rng.gen_range(0..alive.len())];
                query_live[q as usize] = false;
                push(t, SimEvent::RemoveQuery { q });
            }
        }
        if t > 1 && rng.gen_bool(0.06) {
            // Anchor on a live kind-A object so any algorithm is valid.
            let candidates: Vec<u32> = (0..n_a as u32)
                .filter(|&id| live[id as usize] && !desynced[id as usize])
                .collect();
            if !candidates.is_empty() {
                let anchor = candidates[rng.gen_range(0..candidates.len())];
                let q = query_live.len() as u32;
                let algo = ALGO_CYCLE[rng.gen_range(0..ALGO_CYCLE.len())];
                query_live.push(true);
                query_anchor.push(anchor);
                push(t, SimEvent::AddQuery { q, anchor, algo });
            }
        }

        if !cfg.faults {
            continue;
        }

        // Grid desync: a live, unanchored object's bucket state is
        // corrupted mid-tick. The object is gone for good (ghosts are
        // never revived — matching what the fault does to the store).
        // Durable plans skip it: the fault is injected below the ingest
        // path, so a WAL replay would resurrect the ghost as a healthy
        // object and legitimately diverge from the mirror.
        if !durable && rng.gen_bool(0.05) {
            let candidates: Vec<u32> = (0..n as u32)
                .filter(|&id| {
                    live[id as usize]
                        && !desynced[id as usize]
                        && !is_anchored(id, &query_live, &query_anchor)
                        && (!cfg.server || id != victim_anchor)
                })
                .collect();
            if !candidates.is_empty() {
                let id = candidates[rng.gen_range(0..candidates.len())];
                desynced[id as usize] = true;
                live[id as usize] = false;
                push(t, SimEvent::ForceDesync { id });
            }
        }
        if cfg.workers > 1 && rng.gen_bool(0.05) {
            let worker = rng.gen_range(0..cfg.workers) as u32;
            push(t, SimEvent::StallWorker { worker });
        }
        if cfg.server {
            if rng.gen_bool(0.10) {
                let fault = [
                    FrameFault::Drop,
                    FrameFault::Duplicate,
                    FrameFault::Truncate,
                    FrameFault::Reorder,
                ][rng.gen_range(0..4)];
                push(t, SimEvent::FrameFault { fault });
            }
            if rng.gen_bool(0.02) {
                push(t, SimEvent::ClientStall { ticks: 3 });
            }
        }

        // Scripted storms.
        if t == storm_delete {
            let victims: Vec<u32> = (0..n as u32)
                .filter(|&id| {
                    live[id as usize]
                        && !desynced[id as usize]
                        && !protected.contains(&id)
                        && !is_anchored(id, &query_live, &query_anchor)
                })
                .collect();
            for &id in victims.iter().take(victims.len() / 4) {
                live[id as usize] = false;
                push(t, SimEvent::Remove { id });
            }
        }
        if t == storm_reinsert {
            let dead: Vec<u32> = (0..n as u32)
                .filter(|&id| !live[id as usize] && !desynced[id as usize])
                .collect();
            for &id in &dead {
                live[id as usize] = true;
                let (x, y) = snap(
                    rng.gen_range(cfg.space.min.x..cfg.space.max.x),
                    rng.gen_range(cfg.space.min.y..cfg.space.max.y),
                );
                push(
                    t,
                    SimEvent::Insert {
                        id,
                        kind: kind_of(id),
                        x,
                        y,
                    },
                );
            }
        }
        if t == storm_teleport {
            let movers: Vec<u32> = (0..n as u32)
                .filter(|&id| live[id as usize] && !desynced[id as usize])
                .collect();
            for &id in movers.iter().take(movers.len() / 4) {
                let (x, y) = snap(
                    rng.gen_range(cfg.space.min.x..cfg.space.max.x),
                    rng.gen_range(cfg.space.min.y..cfg.space.max.y),
                );
                push(t, SimEvent::Move { id, x, y });
            }
        }
    }

    Plan {
        seed: cfg.seed,
        space: cfg.space,
        grid: cfg.grid,
        workers: cfg.workers,
        ticks: cfg.ticks,
        server: cfg.server,
        durable,
        network: cfg.network,
        victim_anchor: (cfg.server && cfg.faults).then_some(victim_anchor),
        initial,
        events,
    }
}

fn is_anchored(id: u32, query_live: &[bool], query_anchor: &[u32]) -> bool {
    query_anchor
        .iter()
        .zip(query_live)
        .any(|(&a, &alive)| alive && a == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GenConfig {
        GenConfig {
            seed: 3,
            ticks: 60,
            objects: 32,
            grid: 8,
            queries: 8,
            workers: 4,
            space: Aabb::from_coords(0.0, 0.0, 100.0, 100.0),
            faults: true,
            server: true,
            durable: false,
            network: false,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(&cfg()), generate(&cfg()));
        assert_ne!(
            generate(&cfg()).events,
            generate(&GenConfig { seed: 4, ..cfg() }).events
        );
    }

    #[test]
    fn plan_covers_all_eight_algorithms_and_fault_kinds() {
        let plan = generate(&cfg());
        let mut algos = std::collections::BTreeSet::new();
        let (mut desync, mut stall, mut frame) = (false, false, false);
        for e in &plan.events {
            match &e.event {
                SimEvent::AddQuery { algo, .. } => {
                    algos.insert(format!("{algo:?}"));
                }
                SimEvent::ForceDesync { .. } => desync = true,
                SimEvent::StallWorker { .. } => stall = true,
                SimEvent::FrameFault { .. } => frame = true,
                _ => {}
            }
        }
        assert!(algos.len() >= 8, "only {algos:?}");
        assert!(desync && stall && frame, "{desync} {stall} {frame}");
        assert_eq!(plan.victim_anchor, Some(31));
    }

    #[test]
    fn durable_plans_swap_desync_for_kill_restart() {
        let plan = generate(&GenConfig {
            durable: true,
            ..cfg()
        });
        assert!(plan.durable);
        let kills = plan
            .events
            .iter()
            .filter(|e| e.event == SimEvent::KillRestart)
            .count();
        assert!(kills >= 1, "every durable seed schedules a crash");
        assert!(
            !plan
                .events
                .iter()
                .any(|e| matches!(e.event, SimEvent::ForceDesync { .. })),
            "durable plans never desync (replay would repair the ghost)"
        );
        // The kill always opens its tick, so every earlier mutation is
        // behind a tick-end barrier (and in the log) when it lands.
        let mut seen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for e in &plan.events {
            if e.event == SimEvent::KillRestart {
                assert!(!seen.contains(&e.tick), "kill is first in tick {}", e.tick);
            }
            seen.insert(e.tick);
        }
        // Non-durable plans are unchanged by the new knob.
        assert!(!generate(&cfg())
            .events
            .iter()
            .any(|e| e.event == SimEvent::KillRestart));
    }

    #[test]
    fn events_are_tick_sorted_and_in_range() {
        let plan = generate(&cfg());
        let mut last = 0;
        for e in &plan.events {
            assert!(e.tick >= last && e.tick >= 1 && e.tick <= plan.ticks);
            last = e.tick;
        }
    }
}
