//! The system under test, as the benchmark sees it.
//!
//! Every reference to a type or function of the repository's crates goes
//! through this file, so the surface the benchmark depends on can be read
//! in one place (it is listed in `benchmark/README.md`). A refactor that
//! removes or renames one of these names needs a benchmark change first.
//!
//! The two *entry points* — what the end-to-end metrics are measured
//! through — are the offline tick driver ([`TickRunner`]) and the wire
//! ([`Server`], [`Client`], [`Frame`]). Everything below "layer replays"
//! is called only by the per-layer replays of `--trace 1` runs.

// ---- entry point 1: the offline tick driver ------------------------------
pub use igern_core::processor::Algorithm;
pub use igern_core::{DistanceMode, NetworkSpace, ObjectKind, SpatialStore};
pub use igern_engine::TickRunner;
pub use igern_geom::{Aabb, Point};
pub use igern_grid::ObjectId;

// ---- entry point 2: the wire ----------------------------------------------
pub use igern_server::proto::{Frame, FrameReader, ReadOutcome};
pub use igern_server::{Client, Event, Server, ServerConfig, TickMode};
pub use igern_wal::{fnv1a, state_digest, SubSpec, WalOptions, FNV_OFFSET};

// ---- values the program already publishes ----------------------------------
pub use igern_core::obs::{MetricsRegistry, COUNT_BUCKETS, LATENCY_BUCKETS_S};

// ---- correctness oracles ----------------------------------------------------
pub use igern_core::naive;
pub use igern_core::NetScratch;

// ---- layer replays -----------------------------------------------------------
pub use igern_core::prune::{recompute_alive_into, PruneScratch};
pub use igern_grid::{k_nearest_into, nearest, CellFeed, CellSet, OpCounters};
pub use igern_wal::WalWriter;

// ---- the benchmark's own file handling ----------------------------------------
pub use igern_core::obs::jsontext as json;

/// Per-query samples a runner retains. The one setting the benchmark
/// makes that a user who sets nothing does not get: the default keeps
/// every sample of every query for ever (112 B per query-tick), which
/// makes tick time and memory functions of how long the run has lasted —
/// `hotspot` drifted +12 % to +40 % between its halves and reached
/// 933 MB. The aggregate `History::stats` still folds every sample.
pub const HISTORY_SAMPLES: usize = 8;

/// A runner over `store` configured the way a user who sets nothing gets
/// it (bar [`HISTORY_SAMPLES`]): worker count and placement are
/// [`ServerConfig::default`]'s; batch and routing are whatever
/// [`TickRunner::new`] leaves them at.
pub fn default_runner(store: SpatialStore) -> TickRunner {
    runner_with_workers(store, ServerConfig::default().workers)
}

/// As [`default_runner`] with an explicit worker count (the
/// `engine.w2_*` variant run only).
pub fn runner_with_workers(store: SpatialStore, workers: usize) -> TickRunner {
    let mut runner = TickRunner::new(store, workers, ServerConfig::default().placement);
    runner.set_history_capacity(Some(HISTORY_SAMPLES));
    runner
}

/// The configuration `serve` boots every server with: defaults for
/// everything but the four fields a deployment has to choose.
pub fn serve_config(space: Aabb, grid: usize, wal_dir: Option<&std::path::Path>) -> ServerConfig {
    ServerConfig {
        space,
        grid,
        tick_mode: TickMode::Manual,
        wal: wal_dir.map(WalOptions::new),
        ..ServerConfig::default()
    }
}

/// Append the wire bytes of `UPSERT_OBJECT` to `out`: what
/// `Frame::UpsertObject { .. }.encode()` returns, without its two
/// allocations per frame — `serve`'s generator encodes 20k of these per
/// round and must stay a small share of the round. The test below holds
/// the two encodings together.
pub fn push_upsert(out: &mut Vec<u8>, id: u32, kind: ObjectKind, x: f64, y: f64) {
    out.extend_from_slice(&22u32.to_le_bytes());
    out.push(2);
    out.extend_from_slice(&id.to_le_bytes());
    out.push(match kind {
        ObjectKind::A => 0,
        ObjectKind::B => 1,
    });
    out.extend_from_slice(&x.to_le_bytes());
    out.extend_from_slice(&y.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_upsert_is_the_protocol_encoding() {
        for (id, kind, x, y) in [
            (0, ObjectKind::A, 0.0, 0.0),
            (u32::MAX, ObjectKind::B, 999.999, -1.5e-7),
        ] {
            let mut out = vec![0xAA];
            push_upsert(&mut out, id, kind, x, y);
            assert_eq!(
                out[1..],
                Frame::UpsertObject { id, kind, x, y }.encode()[..]
            );
        }
    }
}
