//! Deterministic fault-injection simulation harness for the IGERN
//! stack.
//!
//! One seed drives the entire pipeline — [`igern_core::SpatialStore`] →
//! `igern_engine::TickRunner` at one worker and at several →
//! the `igern-server` wire protocol over an in-process memory transport
//! — and every tick of every continuous query is checked against the
//! brute-force oracles in `igern_core::naive`. The fault plan layers
//! grid desyncs, worker stalls, dropped/duplicated/truncated/reordered
//! frames, slow-consumer stalls, teleports, and population storms on
//! top of the workload; all of it must be answer-invisible to a clean
//! subscriber. With [`SimConfig::durable`] on, the served backend runs
//! over a write-ahead log and is crash-killed and restarted mid-run —
//! recovery must reproduce the exact pre-kill answers.
//!
//! The moving parts:
//!
//! * [`events`] — the event model, [`events::Plan`], and the seeded
//!   generator;
//! * [`oracle`] — the canonical mirror deciding event validity and
//!   computing expected answers;
//! * [`exec`] — lockstep execution of all backends with per-tick
//!   checking;
//! * [`shrink`] — delta-debugging minimization of failing schedules;
//! * [`replay`] — self-contained `.simreplay` JSON files.
//!
//! # Example
//!
//! ```
//! use igern_sim::{run, SimConfig};
//!
//! let cfg = SimConfig {
//!     seed: 7,
//!     ticks: 12,
//!     objects: 16,
//!     queries: 4,
//!     server: false, // offline backends only, for doc-test speed
//!     ..SimConfig::default()
//! };
//! let outcome = run(&cfg).expect("healthy build passes its own harness");
//! // Same seed, same digest — the run is bit-deterministic.
//! assert_eq!(outcome.digest, run(&cfg).unwrap().digest);
//! ```

#![forbid(unsafe_code)]

pub mod events;
pub mod exec;
pub mod oracle;
pub mod replay;
pub mod shrink;

use igern_geom::Aabb;

pub use events::{generate, FrameFault, GenConfig, Plan, ScheduledEvent, SimEvent, ALGO_CYCLE};
pub use exec::{execute, Corruption, SimCounters, SimFailure, SimReport};
pub use replay::{load_replay, write_replay, ReplayError};
pub use shrink::{minimize, ShrinkStats};

/// User-facing simulation knobs (the CLI's `sim` subcommand maps its
/// flags straight onto this).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; equal configs ⇒ identical plans, runs, and digests.
    pub seed: u64,
    /// Engine ticks to simulate.
    pub ticks: u64,
    /// Initial population size.
    pub objects: usize,
    /// Grid resolution (`n × n` cells).
    pub grid: usize,
    /// Standing queries opened at tick 1 (rotating through all eight
    /// algorithms; more join and leave over the run).
    pub queries: usize,
    /// Sharded-backend worker count.
    pub workers: usize,
    /// Data space.
    pub space: Aabb,
    /// Inject faults (desyncs, stalls, frame corruption, storms).
    pub faults: bool,
    /// Include the wire-protocol backend (server over the in-memory
    /// transport, plus the fault-victim client when `faults` is on).
    pub server: bool,
    /// Run the served backend over a write-ahead log and schedule
    /// crash-kill/restart faults against it (requires `server` and
    /// `faults`; replaces the grid-desync fault, which a log replay
    /// would repair). Recovery is held to the same oracle as normal
    /// operation: answers must be bit-identical from the first
    /// post-restart tick.
    pub durable: bool,
    /// Evaluate every query under network (shortest-path) distance over
    /// a road graph derived deterministically from `seed` and `space`
    /// (see [`events::sim_network`]). Plan generation snaps all motion
    /// onto the graph and the mirror switches to the Dijkstra oracles.
    pub network: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            ticks: 100,
            objects: 48,
            grid: 16,
            queries: 8,
            workers: 4,
            space: Aabb::from_coords(0.0, 0.0, 1000.0, 1000.0),
            faults: true,
            server: true,
            durable: false,
            network: false,
        }
    }
}

impl SimConfig {
    fn gen_config(&self) -> GenConfig {
        GenConfig {
            seed: self.seed,
            ticks: self.ticks,
            objects: self.objects,
            grid: self.grid,
            queries: self.queries,
            workers: self.workers,
            space: self.space,
            faults: self.faults,
            server: self.server,
            durable: self.durable,
            network: self.network,
        }
    }

    /// Materialize this config's schedule.
    pub fn plan(&self) -> Plan {
        generate(&self.gen_config())
    }
}

/// Generate the plan for `cfg` and execute it against every backend.
pub fn run(cfg: &SimConfig) -> Result<SimReport, SimFailure> {
    execute(&cfg.plan(), None)
}

/// Test seam for the failure → shrink → replay pipeline: run `cfg`
/// with a deliberate wrong answer injected for `query` at `tick` on
/// the serial backend, as if the build were broken. Returns the
/// failing plan together with the observed failure so callers can
/// hand both to [`minimize`].
#[doc(hidden)]
pub fn run_with_corruption(
    cfg: &SimConfig,
    tick: u64,
    query: u32,
) -> (Plan, Result<SimReport, SimFailure>) {
    let plan = cfg.plan();
    let corruption = Corruption { tick, query };
    let outcome = execute(&plan, Some(&corruption));
    (plan, outcome)
}
