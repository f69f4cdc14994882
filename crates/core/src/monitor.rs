//! The [`ContinuousMonitor`] trait: one interface over every continuous
//! evaluation strategy the processor can run, plus the *watch set* each
//! strategy exposes for dirty-region update routing.
//!
//! # Watch sets
//!
//! After every evaluation a monitor publishes the set of grid cells whose
//! updates could change its next answer ([`ContinuousMonitor::monitored_cells`]).
//! The processor intersects that set (plus the query's own anchor cell)
//! with the tick's dirty cells and skips the query entirely when they are
//! disjoint — the *skip invariant*: a query may be skipped only if no
//! dirty cell intersects its monitored region ∪ anchor cell.
//!
//! Each watch set below is a conservative closure of the cells the
//! algorithm's next incremental step can read:
//!
//! * **IGERN (mono / RkNN)** — the alive region, the candidates' cells,
//!   and the disk `disk(q, 2·max_cand_dist)`. Verification for candidate
//!   `c` probes `disk(c, |c−q|) ⊆ disk(q, 2|c−q|)`, so any object entering
//!   or leaving a verification disk dirties a cell inside the big disk;
//!   Phase I only reads alive cells; a candidate's own move dirties its
//!   cell.
//! * **IGERN (bi / bichromatic RkNN)** — the alive region, the monitored
//!   `NN_A` objects' cells, and `disk(q, 2·R)` where `R` is the farthest
//!   corner distance of any alive cell. Every B-object in the alive
//!   region has `|b−q| ≤ R`, so its verification disk lies inside
//!   `disk(q, 2R)`; Phase I reads only alive cells; monitored A-objects
//!   may drift outside the region, hence their cells are added.
//! * **CRNN** — with all six pies occupied, the candidates' cells plus
//!   `disk(q, 2·max_cand_dist)` (each pie's NN search is bounded by its
//!   candidate's distance; verification as for IGERN). With an empty pie
//!   the pie search is open-ended and the monitor watches all cells.
//! * **k-NN** — with a full answer, `disk(q, r_k)` (the guard circle);
//!   underfull, all cells (a new object anywhere may join).
//! * **Snapshot baselines (TPL, Voronoi)** — all cells. They recompute
//!   from scratch, so they are only skipped on fully quiet ticks, where
//!   identical input yields an identical snapshot.
//!
//! Within-cell moves dirty their cell (see `igern_grid::Grid::update`),
//! so distance changes inside a watched cell are never missed.

use igern_geom::{Point, SECTOR_COUNT};
use igern_grid::{CellSet, Grid, ObjectId, OpCounters};

use crate::baselines::{tpl_snapshot_with, voronoi_snapshot, Crnn, TplAnswer};
use crate::bi::BiIgern;
use crate::knn_monitor::KnnMonitor;
use crate::mono::MonoIgern;
use crate::net_monitor::{NetKnnMonitor, NetRknnMonitor};
use crate::processor::Algorithm;
use crate::prune::PruneGranularity;
use crate::scratch::EvalScratch;
use crate::store::SpatialStore;
use crate::types::DistanceMode;

/// A continuous query evaluation strategy with a routable watch set.
///
/// The tick loop drives the lifecycle through one call: the first
/// [`evaluate`] of a monitor is its algorithm's initial step, every later
/// one — each tick the query is not skipped — its incremental step. The
/// monitor itself knows which, from whether it holds state yet.
///
/// [`evaluate`]: ContinuousMonitor::evaluate
pub trait ContinuousMonitor: Send + Sync {
    /// Evaluate against the current store with the query object at `q`.
    ///
    /// `scratch` is reusable evaluation workspace owned by the shard; a
    /// warm scratch makes the steady-state tick allocation-free.
    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    );

    /// Write the current answer into `out` (cleared first), sorted by id.
    fn answer_into(&self, out: &mut Vec<ObjectId>);

    /// Cells whose updates may change the next answer; `None` means the
    /// monitor watches the whole space (skip only on quiet ticks).
    fn monitored_cells(&self) -> Option<&CellSet>;

    /// Number of monitored objects (|RNNcand| / |NN_A| / pie count / k).
    fn num_monitored(&self) -> usize;

    /// Area of the monitored region (0 for algorithms without one).
    fn region_area(&self, store: &SpatialStore) -> f64;
}

impl Algorithm {
    /// Build a fresh (uninitialized) monitor for a query anchored at
    /// moving object `q_id`.
    pub fn make_monitor(self, q_id: Option<ObjectId>) -> Box<dyn ContinuousMonitor> {
        match self {
            Algorithm::IgernMono => Box::new(MonoIgernMonitor::new(q_id, 1)),
            Algorithm::Crnn => Box::new(CrnnMonitor::new(q_id)),
            Algorithm::TplRepeat => Box::new(TplRepeatMonitor::new(q_id)),
            Algorithm::IgernBi => Box::new(BiIgernMonitor::new(q_id, 1)),
            Algorithm::VoronoiRepeat => Box::new(VoronoiRepeatMonitor::new(q_id)),
            Algorithm::IgernMonoK(k) => Box::new(MonoIgernMonitor::new(q_id, k)),
            Algorithm::IgernBiK(k) => Box::new(BiIgernMonitor::new(q_id, k)),
            Algorithm::Knn(k) => Box::new(KnnQueryMonitor::new(q_id, k)),
        }
    }

    /// [`Algorithm::make_monitor`] with a distance-mode axis. Euclidean
    /// mode dispatches to the per-algorithm monitors above; network mode
    /// maps each algorithm family onto its graph-distance evaluator (the
    /// mono family — including the snapshot baselines, which are
    /// Euclidean-specific formulations — onto [`NetRknnMonitor::mono`],
    /// the bi family onto [`NetRknnMonitor::bi`], kNN onto
    /// [`NetKnnMonitor`]), preserving each algorithm's k and
    /// chromaticity so the answer *semantics* of a query survive a mode
    /// switch unchanged.
    pub fn make_monitor_in(
        self,
        mode: DistanceMode,
        q_id: Option<ObjectId>,
    ) -> Box<dyn ContinuousMonitor> {
        match mode {
            DistanceMode::Euclidean => self.make_monitor(q_id),
            DistanceMode::Network => match self {
                Algorithm::IgernMono | Algorithm::Crnn | Algorithm::TplRepeat => {
                    Box::new(NetRknnMonitor::mono(q_id, 1))
                }
                Algorithm::IgernMonoK(k) => Box::new(NetRknnMonitor::mono(q_id, k)),
                Algorithm::IgernBi | Algorithm::VoronoiRepeat => {
                    Box::new(NetRknnMonitor::bi(q_id, 1))
                }
                Algorithm::IgernBiK(k) => Box::new(NetRknnMonitor::bi(q_id, k)),
                Algorithm::Knn(k) => Box::new(NetKnnMonitor::new(q_id, k)),
            },
        }
    }
}

/// Add the candidates' cells and `disk(q, 2·max_cand_dist)` to `watch` —
/// the verification closure shared by the candidate-set monitors. Takes
/// the (position, id) pairs the evaluators already cache, so no position
/// lookups or id-vector allocations are needed.
fn add_candidate_closure<I>(grid: &Grid, q: Point, cand: I, watch: &mut CellSet)
where
    I: IntoIterator<Item = (Point, ObjectId)>,
{
    let mut max_d_sq = 0.0f64;
    for (p, _) in cand {
        watch.insert(grid.cell_of_point(p));
        max_d_sq = max_d_sq.max(p.dist_sq(q));
    }
    // Any disk centered at q covers q's own cell, so the anchor cell is
    // always watched even with an empty candidate set.
    grid.add_cells_in_disk(q, 2.0 * max_d_sq.sqrt(), watch);
}

/// [`MonoIgern`] behind the routable interface.
pub struct MonoIgernMonitor {
    q_id: Option<ObjectId>,
    k: usize,
    inner: Option<MonoIgern>,
    watch: CellSet,
}

impl MonoIgernMonitor {
    /// A monitor for an order-`k` query anchored at `q_id`.
    pub fn new(q_id: Option<ObjectId>, k: usize) -> Self {
        MonoIgernMonitor {
            q_id,
            k,
            inner: None,
            watch: CellSet::new(0),
        }
    }
}

impl ContinuousMonitor for MonoIgernMonitor {
    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        let grid = store.all();
        let m = match &mut self.inner {
            Some(m) => {
                m.incremental(grid, q, ops, scratch);
                m
            }
            None => self.inner.insert(MonoIgern::initial(
                grid,
                q,
                self.q_id,
                self.k,
                PruneGranularity::default(),
                ops,
                scratch,
            )),
        };
        // Alive region ∪ candidates' cells ∪ `disk(q, 2·max_cand_dist)`.
        self.watch.clone_from(m.alive_cells());
        let cand = m.candidate_pairs().iter().copied();
        add_candidate_closure(grid, q, cand, &mut self.watch);
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        if let Some(m) = &self.inner {
            out.extend_from_slice(m.rnn());
        }
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        self.inner.as_ref().map(|_| &self.watch)
    }

    fn num_monitored(&self) -> usize {
        self.inner.as_ref().map_or(0, |m| m.num_monitored())
    }

    fn region_area(&self, store: &SpatialStore) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |m| m.monitored_area(store.all()))
    }
}

/// [`BiIgern`] behind the routable interface.
pub struct BiIgernMonitor {
    q_id: Option<ObjectId>,
    k: usize,
    inner: Option<BiIgern>,
    watch: CellSet,
}

impl BiIgernMonitor {
    /// A monitor for an order-`k` query anchored at kind-A object `q_id`.
    pub fn new(q_id: Option<ObjectId>, k: usize) -> Self {
        BiIgernMonitor {
            q_id,
            k,
            inner: None,
            watch: CellSet::new(0),
        }
    }
}

impl ContinuousMonitor for BiIgernMonitor {
    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        let (grid_a, grid_b) = (store.grid_a(), store.grid_b());
        let m = match &mut self.inner {
            Some(m) => {
                m.incremental(grid_a, grid_b, q, ops, scratch);
                m
            }
            None => self.inner.insert(BiIgern::initial(
                grid_a,
                grid_b,
                q,
                self.q_id,
                self.k,
                PruneGranularity::default(),
                ops,
                scratch,
            )),
        };
        // Alive region ∪ monitored A-objects' cells ∪
        // `disk(q, 2·R_alive_corner)`.
        let grid = store.all();
        self.watch.clone_from(m.alive_cells());
        let mut r_sq = 0.0f64;
        for c in m.alive_cells().iter() {
            r_sq = r_sq.max(grid.cell_bounds(c).maxdist_sq(q));
        }
        grid.add_cells_in_disk(q, 2.0 * r_sq.sqrt(), &mut self.watch);
        for &(p, _) in m.monitored_pairs() {
            self.watch.insert(grid.cell_of_point(p));
        }
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        if let Some(m) = &self.inner {
            out.extend_from_slice(m.rnn());
        }
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        self.inner.as_ref().map(|_| &self.watch)
    }

    fn num_monitored(&self) -> usize {
        self.inner.as_ref().map_or(0, |m| m.num_monitored())
    }

    fn region_area(&self, store: &SpatialStore) -> f64 {
        let grid = store.all();
        let cell_area = grid.space().area() / grid.num_cells() as f64;
        self.inner
            .as_ref()
            .map_or(0.0, |m| m.alive_cells().count() as f64 * cell_area)
    }
}

/// [`Crnn`] behind the routable interface.
pub struct CrnnMonitor {
    q_id: Option<ObjectId>,
    inner: Option<Crnn>,
    watch: CellSet,
    /// All six pies occupied — the pie searches are bounded and `watch`
    /// is a valid closure. With an empty pie the search is open-ended.
    bounded: bool,
}

impl CrnnMonitor {
    /// A monitor for a query anchored at `q_id`.
    pub fn new(q_id: Option<ObjectId>) -> Self {
        CrnnMonitor {
            q_id,
            inner: None,
            watch: CellSet::new(0),
            bounded: false,
        }
    }
}

impl ContinuousMonitor for CrnnMonitor {
    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        _scratch: &mut EvalScratch,
    ) {
        let grid = store.all();
        let m = match &mut self.inner {
            Some(m) => {
                m.incremental(grid, q, ops);
                m
            }
            None => self.inner.insert(Crnn::initial(grid, q, self.q_id, ops)),
        };
        self.bounded = m.num_monitored() == SECTOR_COUNT;
        if self.bounded {
            self.watch.reset(grid.num_cells());
            add_candidate_closure(grid, q, m.candidate_pairs(), &mut self.watch);
        }
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        if let Some(m) = &self.inner {
            out.extend_from_slice(m.rnn());
        }
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        if self.bounded {
            self.inner.as_ref().map(|_| &self.watch)
        } else {
            None
        }
    }

    fn num_monitored(&self) -> usize {
        self.inner.as_ref().map_or(0, |m| m.num_monitored())
    }

    fn region_area(&self, store: &SpatialStore) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |m| m.monitored_area(store.all()))
    }
}

/// [`KnnMonitor`] (continuous k-NN) behind the routable interface.
pub struct KnnQueryMonitor {
    q_id: Option<ObjectId>,
    k: usize,
    inner: Option<KnnMonitor>,
    watch: CellSet,
    /// Full answer — the guard circle bounds the next step's reads.
    bounded: bool,
}

impl KnnQueryMonitor {
    /// A monitor for a k-NN query anchored at `q_id`.
    pub fn new(q_id: Option<ObjectId>, k: usize) -> Self {
        KnnQueryMonitor {
            q_id,
            k,
            inner: None,
            watch: CellSet::new(0),
            bounded: false,
        }
    }
}

impl ContinuousMonitor for KnnQueryMonitor {
    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        let grid = store.all();
        let m = match &mut self.inner {
            Some(m) => {
                m.incremental_in(grid, q, ops, scratch);
                m
            }
            None => self
                .inner
                .insert(KnnMonitor::initial(grid, q, self.q_id, self.k, ops)),
        };
        self.bounded = m.answer().len() >= m.k();
        if self.bounded {
            self.watch.reset(grid.num_cells());
            let r_k = m.answer().last().map_or(0.0, |n| n.dist_sq.sqrt());
            grid.add_cells_in_disk(q, r_k, &mut self.watch);
        }
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        if let Some(m) = &self.inner {
            out.extend(m.answer().iter().map(|n| n.id));
            out.sort_unstable();
        }
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        if self.bounded {
            self.inner.as_ref().map(|_| &self.watch)
        } else {
            None
        }
    }

    fn num_monitored(&self) -> usize {
        self.inner.as_ref().map_or(0, |m| m.answer().len())
    }

    fn region_area(&self, _store: &SpatialStore) -> f64 {
        0.0
    }
}

/// Snapshot TPL re-run every tick behind the routable interface. Owns its
/// [`TplAnswer`] so repeated snapshots reuse the answer buffers instead of
/// reallocating them every tick.
pub struct TplRepeatMonitor {
    q_id: Option<ObjectId>,
    ans: TplAnswer,
}

impl TplRepeatMonitor {
    /// A monitor for a query anchored at `q_id`.
    pub fn new(q_id: Option<ObjectId>) -> Self {
        TplRepeatMonitor {
            q_id,
            ans: TplAnswer::default(),
        }
    }
}

impl ContinuousMonitor for TplRepeatMonitor {
    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        tpl_snapshot_with(store.all(), q, self.q_id, ops, scratch, &mut self.ans);
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        out.extend_from_slice(&self.ans.rnn);
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        None
    }

    fn num_monitored(&self) -> usize {
        self.ans.candidates.len()
    }

    fn region_area(&self, _store: &SpatialStore) -> f64 {
        0.0
    }
}

/// Repetitive Voronoi-cell construction behind the routable interface.
pub struct VoronoiRepeatMonitor {
    q_id: Option<ObjectId>,
    rnn: Vec<ObjectId>,
    sites_used: usize,
}

impl VoronoiRepeatMonitor {
    /// A monitor for a query anchored at kind-A object `q_id`.
    pub fn new(q_id: Option<ObjectId>) -> Self {
        VoronoiRepeatMonitor {
            q_id,
            rnn: Vec::new(),
            sites_used: 0,
        }
    }
}

impl ContinuousMonitor for VoronoiRepeatMonitor {
    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        _scratch: &mut EvalScratch,
    ) {
        let ans = voronoi_snapshot(store.grid_a(), store.grid_b(), q, self.q_id, ops);
        self.sites_used = ans.sites_used;
        self.rnn = ans.rnn;
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        out.extend_from_slice(&self.rnn);
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        None
    }

    fn num_monitored(&self) -> usize {
        self.sites_used
    }

    fn region_area(&self, _store: &SpatialStore) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ObjectKind;
    use igern_geom::Aabb;

    fn mono_store(points: &[(f64, f64)]) -> SpatialStore {
        let kinds = vec![ObjectKind::A; points.len()];
        let mut s = SpatialStore::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), 8, kinds);
        let pts: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
        s.load(&pts);
        s
    }

    #[test]
    fn mono_watch_covers_alive_and_candidate_cells() {
        let store = mono_store(&[(5.0, 5.0), (4.0, 5.0), (6.5, 5.0), (1.0, 1.0)]);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let q = Point::new(5.0, 5.0);
        let mut mon = MonoIgernMonitor::new(Some(ObjectId(0)), 1);
        mon.evaluate(&store, q, &mut ops, &mut scratch);
        let watch = mon.monitored_cells().expect("mono watch is bounded");
        let inner = mon.inner.as_ref().unwrap();
        for c in inner.alive_cells().iter() {
            assert!(watch.contains(c), "alive cell {c} missing from watch");
        }
        for id in inner.candidates() {
            let p = store.all().position(id).unwrap();
            assert!(watch.contains(store.all().cell_of_point(p)));
        }
        assert!(watch.contains(store.all().cell_of_point(q)));
    }

    #[test]
    fn knn_watch_is_the_guard_circle_or_everything() {
        let store = mono_store(&[(5.0, 5.0), (4.0, 5.0), (6.0, 5.0), (9.0, 9.0)]);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let q = Point::new(5.0, 5.0);
        // Underfull answer (k > population): watch everything.
        let mut big = KnnQueryMonitor::new(Some(ObjectId(0)), 10);
        big.evaluate(&store, q, &mut ops, &mut scratch);
        assert!(big.monitored_cells().is_none());
        // Full answer: a bounded disk that contains the anchor cell but
        // not the far corner.
        let mut two = KnnQueryMonitor::new(Some(ObjectId(0)), 2);
        two.evaluate(&store, q, &mut ops, &mut scratch);
        let watch = two.monitored_cells().expect("full answer bounds the watch");
        assert!(watch.contains(store.all().cell_of_point(q)));
        assert!(!watch.contains(store.all().cell_of_point(Point::new(9.9, 9.9))));
    }

    #[test]
    fn snapshot_monitors_watch_everything() {
        let store = mono_store(&[(5.0, 5.0), (4.0, 5.0)]);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut tpl = TplRepeatMonitor::new(Some(ObjectId(0)));
        let q = Point::new(5.0, 5.0);
        tpl.evaluate(&store, q, &mut ops, &mut scratch);
        assert!(tpl.monitored_cells().is_none());
        let mut out = Vec::new();
        tpl.answer_into(&mut out);
        assert_eq!(out, vec![ObjectId(1)]);
    }

    #[test]
    fn crnn_watch_unbounded_while_a_pie_is_empty() {
        // A single neighbor occupies one pie; the other five are empty.
        let store = mono_store(&[(5.0, 5.0), (6.0, 5.0)]);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut mon = CrnnMonitor::new(Some(ObjectId(0)));
        let q = Point::new(5.0, 5.0);
        mon.evaluate(&store, q, &mut ops, &mut scratch);
        assert!(mon.num_monitored() < SECTOR_COUNT);
        assert!(mon.monitored_cells().is_none());
    }

    #[test]
    fn every_algorithm_builds_a_monitor() {
        for algo in [
            Algorithm::IgernMono,
            Algorithm::Crnn,
            Algorithm::TplRepeat,
            Algorithm::IgernBi,
            Algorithm::VoronoiRepeat,
            Algorithm::IgernMonoK(2),
            Algorithm::IgernBiK(2),
            Algorithm::Knn(2),
        ] {
            let m = algo.make_monitor(Some(ObjectId(0)));
            assert_eq!(m.num_monitored(), 0, "{algo:?} starts empty");
        }
    }
}
