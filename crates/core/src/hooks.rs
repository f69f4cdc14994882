//! Deterministic fault-injection points for the simulation harness.
//!
//! `igern-sim` drives the full stack — the tick runner at one and at
//! several workers, and the network server — from one seed and needs to
//! perturb each of them *at the same logical instant* regardless of which
//! threads happen to run the code. [`SimHooks`] is that seam: the tick
//! loop calls into the (optional) hook object at fixed points of the
//! tick, and the simulator's implementation decides — purely from the
//! logical `(tick, worker)` coordinates — whether to inject a grid
//! desync, stall a shard, or do nothing.
//!
//! Production builds never install hooks; the per-tick cost of the
//! disabled path is one `Option` check.

use igern_grid::ObjectId;
use std::sync::Arc;

/// Injection points honored by the tick loop and the server.
///
/// All methods default to no-ops so implementors override only the
/// faults they script. Implementations must be deterministic functions
/// of their arguments (plus internal state advanced in tick order):
/// the harness replays schedules by re-running them, and a hook that
/// consults wall-clock time or an unseeded RNG breaks replay.
pub trait SimHooks: Send + Sync {
    /// Called by the tick runner (the server's tick thread reaches it
    /// through its runner) after the tick counter has advanced and
    /// pending updates are applied, immediately before query evaluation.
    fn on_tick(&self, _tick: u64) {}

    /// Called at the top of each shard's evaluation for `tick`, on the
    /// thread that runs the shard — shard 0 of a one-worker runner
    /// included. Sleeping here simulates a straggler: a stalled shard
    /// delays `step`'s return and nothing else, because every shard
    /// writes only its own queries.
    fn on_worker_shard(&self, _worker: usize, _tick: u64) {}

    /// Object ids whose grid slots should be corrupted (via
    /// `debug_force_desync`) at the start of `tick`, after updates are
    /// applied and before evaluation. Return an empty vector for clean
    /// ticks.
    fn desync_targets(&self, tick: u64) -> Vec<ObjectId> {
        let _ = tick;
        Vec::new()
    }

    /// Called by the network server's tick thread just before it hands
    /// the tick to its runner (the serving-layer analogue of
    /// [`SimHooks::on_tick`], which fires inside the runner). Stalling
    /// here simulates a slow tick thread while connections keep
    /// ingesting.
    fn on_server_tick(&self, _tick: u64) {}
}

/// Shared hook handle as threaded through the runner and the server.
pub type SharedSimHooks = Arc<dyn SimHooks>;
