//! Reusable evaluation scratch — the heap-buffer pool threaded through
//! every [`ContinuousMonitor`] evaluation so steady-state ticks allocate
//! nothing.
//!
//! One `EvalScratch` lives per shard of the tick runner (`igern-engine`),
//! for the runner's whole lifetime. The buffers inside are
//! written-then-read within a single evaluation; nothing in them carries
//! meaning across calls, so a scratch can be shared freely between
//! queries and algorithms on the same shard.
//!
//! [`ContinuousMonitor`]: crate::monitor::ContinuousMonitor

use igern_geom::Point;
use igern_grid::{CellOrderScratch, CellSet, Neighbor, ObjectId};

use crate::netspace::NetScratch;
use crate::prune::PruneScratch;

/// Per-shard scratch buffers for monitor evaluation.
///
/// Fields are public so algorithm internals can borrow disjoint buffers
/// simultaneously (e.g. staging sites in [`sites`] while redrawing into
/// [`prune`]).
///
/// [`sites`]: EvalScratch::sites
/// [`prune`]: EvalScratch::prune
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Polygon rings, bisector staging, and cleaning marks for the
    /// alive-region redraw and candidate cleaning.
    pub prune: PruneScratch,
    /// Best-first cell frontier of the alive-cell (Phase-I) probe.
    pub cell_order: CellOrderScratch,
    /// Candidate/site position staging for bisector redraws.
    pub sites: Vec<Point>,
    /// Object-id staging (exclude lists, candidate closures).
    pub ids: Vec<ObjectId>,
    /// `(id, position)` staging (bichromatic verification sweeps).
    pub pairs: Vec<(ObjectId, Point)>,
    /// Neighbor staging for k-NN searches.
    pub neighbors: Vec<Neighbor>,
    /// Alive-region staging for snapshot baselines (TPL).
    pub alive: CellSet,
    /// Network-distance state: a fixed-capacity cache of resumable
    /// Dijkstra states and the candidate expansion's reusable search
    /// states. Unlike the buffers above, the cache *does* carry work
    /// across calls — the graph is static, so a resident state stays
    /// valid for the shard's lifetime — but never meaning: results do not
    /// depend on which sources happen to be resident.
    pub net: NetScratch,
}

impl EvalScratch {
    /// A fresh scratch with empty buffers; they warm up on first use.
    pub fn new() -> Self {
        EvalScratch::default()
    }
}
