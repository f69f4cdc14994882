//! Network-distance continuous monitors.
//!
//! These run the mono/bi RkNN families and kNN under the road-network
//! metric (see [`crate::netspace`]). Each evaluation recomputes from the
//! current snapped view — like the snapshot baselines they publish no
//! watch set ([`ContinuousMonitor::monitored_cells`] returns `None`), so
//! skip routing only elides them on fully quiet ticks, which is sound
//! because identical input yields an identical recomputation.
//! Cross-query sharing happens through the lane's cache of resumable
//! Dijkstra states, keyed by source *node* and so shared by every query
//! and candidate touching that node while it stays resident.
//!
//! # Pruning
//!
//! Candidate generation is the pruned Dijkstra expansion outward from
//! `q` of [`crate::netspace`] (`NetView::rknn_candidates`): it walks the
//! per-edge object index and stops along each branch at the first node
//! that `k` blockers are network-closer to than `q` is, so a dense map
//! yields a handful of candidates. It declines to prune — falling back
//! to every live object of the candidate colour — past a pop budget
//! proportional to the population, or on a disconnected graph. Every
//! candidate is then verified exactly: its query distance resumes the
//! cached expansions from the query's edge endpoints, and the
//! per-candidate blocking test sweeps only the Euclidean disk
//! `disk(o, d_net(q, o))` of the *snapped* grid: any blocker `o'` has
//! `d_net(o, o') < d_net(q, o)`, and since network distance dominates
//! straight-line distance between snapped points, `o'` must lie inside
//! that disk. [`net_lb`] keeps the bound sound under floating-point
//! rounding. The sweep visits the disk's cells ring by ring outward from
//! `o` and asks [`NetworkSpace::dist_below`], which settles nothing
//! beyond the bound, so the nearest blockers come first and `o`'s
//! expansions stop near its k-th network neighbour rather than growing to
//! `d_net(q, o)`. Distances are always computed with a fixed argument
//! orientation (query first for query distances, candidate first for
//! blocking distances) so monitors and the `naive` network oracles
//! compare bit-identical floats.

use igern_geom::Point;
use igern_grid::visit::ring_cells;
use igern_grid::{CellSet, Grid, ObjectId, OpCounters};

use crate::monitor::ContinuousMonitor;
use crate::netspace::{net_lb, NetPos, NetView, NetworkSpace};
use crate::scratch::EvalScratch;
use crate::store::SpatialStore;
use crate::types::ObjectKind;

/// Fetch the store's network view or panic with an actionable message —
/// registration paths validate this, so hitting it means a driver wired
/// a network-mode query into a store without a network.
fn net_view(store: &SpatialStore) -> &NetView {
    store
        .net_view()
        .expect("network-mode query on a store without an attached road network")
}

/// Count the objects `o'` with `d_net(o, o') < bound`, stopping at `k`.
/// `blockers_a` restricts the sweep to kind-A objects (bichromatic
/// blocking); the candidate itself and the query object never count.
#[allow(clippy::too_many_arguments)]
fn blocked(
    store: &SpatialStore,
    nv: &NetView,
    ns: &NetworkSpace,
    o_id: ObjectId,
    o_pos: &NetPos,
    bound: f64,
    q_id: Option<ObjectId>,
    blockers_a: bool,
    k: usize,
    ops: &mut OpCounters,
    scratch: &mut EvalScratch,
) -> bool {
    ops.verifications += 1;
    let grid = nv.grid();
    let mut closer = 0usize;
    let mut check =
        |pid: ObjectId, ppos: Point, ops: &mut OpCounters, scratch: &mut EvalScratch| -> bool {
            if pid == o_id || Some(pid) == q_id {
                return false;
            }
            if blockers_a && store.kind(pid) != ObjectKind::A {
                return false;
            }
            if net_lb(o_pos.point.dist(ppos)) >= bound {
                return false;
            }
            let Some(pnp) = nv.net_pos(pid) else {
                ops.desyncs += 1;
                return false;
            };
            ops.objects_visited += 1;
            if ns.dist_below(&mut scratch.net, o_pos, &pnp, bound) {
                closer += 1;
                closer >= k
            } else {
                false
            }
        };
    if !bound.is_finite() {
        // Unreachable query: every reachable neighbor blocks; sweep all.
        for (pid, ppos) in grid.iter() {
            if check(pid, ppos, ops, scratch) {
                return true;
            }
        }
        return closer >= k;
    }
    // The disk's bounding box, visited ring by ring outward from `o`'s
    // cell: nearer blockers first, so the count reaches `k` early.
    let c0 = grid.cell_of_point(Point::new(o_pos.point.x - bound, o_pos.point.y - bound));
    let c1 = grid.cell_of_point(Point::new(o_pos.point.x + bound, o_pos.point.y + bound));
    let (x0, y0) = grid.cell_coords(c0);
    let (x1, y1) = grid.cell_coords(c1);
    let (ox, oy) = grid.cell_coords(grid.cell_of_point(o_pos.point));
    let max_r = (ox - x0).max(x1 - ox).max(oy - y0).max(y1 - oy);
    for r in 0..=max_r {
        for c in ring_cells(grid, ox, oy, r) {
            let (cx, cy) = grid.cell_coords(c);
            if cx < x0 || cx > x1 || cy < y0 || cy > y1 {
                continue;
            }
            if net_lb(grid.cell_bounds(c).mindist(o_pos.point)) >= bound {
                continue;
            }
            ops.cells_visited += 1;
            for &pid in grid.objects_in(c) {
                let Some(ppos) = grid.position(pid) else {
                    ops.desyncs += 1;
                    continue;
                };
                if check(pid, ppos, ops, scratch) {
                    return true;
                }
            }
        }
    }
    closer >= k
}

/// Reverse-k-nearest-neighbors under network distance, monochromatic
/// (`bi = false`, candidates and blockers are all objects) or
/// bichromatic (`bi = true`, candidates are B objects, blockers are A
/// objects).
pub struct NetRknnMonitor {
    q_id: Option<ObjectId>,
    k: usize,
    bi: bool,
    answer: Vec<ObjectId>,
    candidates: usize,
}

impl NetRknnMonitor {
    /// Monochromatic network RkNN anchored at `q_id`.
    pub fn mono(q_id: Option<ObjectId>, k: usize) -> Self {
        Self::new(q_id, k, false)
    }

    /// Bichromatic network RkNN anchored at `q_id`.
    pub fn bi(q_id: Option<ObjectId>, k: usize) -> Self {
        Self::new(q_id, k, true)
    }

    fn new(q_id: Option<ObjectId>, k: usize, bi: bool) -> Self {
        NetRknnMonitor {
            q_id,
            k,
            bi,
            answer: Vec::new(),
            candidates: 0,
        }
    }
}

impl ContinuousMonitor for NetRknnMonitor {
    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        let nv = net_view(store);
        let ns = nv.space().as_ref();
        let sq = ns.snap(q);
        ops.nn += 1;
        self.answer.clear();
        let bi = self.bi;
        nv.rknn_candidates(
            &sq,
            self.q_id,
            self.k,
            |id| !bi || store.kind(id) == ObjectKind::B,
            |id| !bi || store.kind(id) == ObjectKind::A,
            &mut scratch.net,
        );
        // Taken out so the verifier can borrow the scratch; ascending, so
        // the answer is too.
        let cands = std::mem::take(&mut scratch.net.cands);
        self.candidates = cands.len();
        for &oid in &cands {
            let Some(so) = nv.net_pos(oid) else {
                ops.desyncs += 1;
                continue;
            };
            ops.objects_visited += 1;
            let d_oq = ns.dist(&mut scratch.net, &sq, &so);
            if !blocked(
                store, nv, ns, oid, &so, d_oq, self.q_id, self.bi, self.k, ops, scratch,
            ) {
                self.answer.push(oid);
            }
        }
        scratch.net.cands = cands;
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        out.extend_from_slice(&self.answer);
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        None
    }

    fn num_monitored(&self) -> usize {
        self.candidates
    }

    fn region_area(&self, _store: &SpatialStore) -> f64 {
        0.0
    }
}

/// k-nearest-neighbors under network distance: expanding Chebyshev-ring
/// scan of the snapped grid, pruned by the Euclidean lower bound against
/// the current k-th best network distance. Ties broken by object id,
/// matching `naive::knn_net`.
pub struct NetKnnMonitor {
    q_id: Option<ObjectId>,
    k: usize,
    answer: Vec<ObjectId>,
}

impl NetKnnMonitor {
    /// Network kNN anchored at `q_id`.
    pub fn new(q_id: Option<ObjectId>, k: usize) -> Self {
        NetKnnMonitor {
            q_id,
            k,
            answer: Vec::new(),
        }
    }
}

impl ContinuousMonitor for NetKnnMonitor {
    fn evaluate(
        &mut self,
        store: &SpatialStore,
        q: Point,
        ops: &mut OpCounters,
        scratch: &mut EvalScratch,
    ) {
        let nv = net_view(store);
        let ns = nv.space().as_ref();
        let grid: &Grid = nv.grid();
        let sq = ns.snap(q);
        ops.nn += 1;
        // (distance, id)-ordered top-k staging, taken out of the scratch
        // so the network scratch can still feed `ns.dist` while we hold it.
        let mut top = std::mem::take(&mut scratch.net.knn);
        top.clear();
        let (bx, by) = grid.cell_coords(grid.cell_of_point(sq.point));
        let side = grid.cells_per_side() as isize;
        let min_ext = grid.min_cell_extent();
        let (bxi, byi) = (bx as isize, by as isize);
        let max_r = bxi.max(side - 1 - bxi).max(byi.max(side - 1 - byi)).max(0) as usize;
        for r in 0..=max_r {
            if top.len() == self.k {
                let bound = top[self.k - 1].0;
                if net_lb((r as f64 - 1.0).max(0.0) * min_ext) > bound {
                    break;
                }
            }
            let ri = r as isize;
            let mut visit = |cx: isize, cy: isize, ops: &mut OpCounters, sc: &mut EvalScratch| {
                if cx < 0 || cy < 0 || cx >= side || cy >= side {
                    return;
                }
                let c = grid.cell_at(cx as usize, cy as usize);
                if top.len() == self.k
                    && net_lb(grid.cell_bounds(c).mindist(sq.point)) > top[self.k - 1].0
                {
                    return;
                }
                ops.cells_visited += 1;
                for &oid in grid.objects_in(c) {
                    if Some(oid) == self.q_id {
                        continue;
                    }
                    let Some(p) = grid.position(oid) else {
                        ops.desyncs += 1;
                        continue;
                    };
                    if top.len() == self.k && net_lb(sq.point.dist(p)) > top[self.k - 1].0 {
                        continue;
                    }
                    let Some(so) = nv.net_pos(oid) else {
                        ops.desyncs += 1;
                        continue;
                    };
                    ops.objects_visited += 1;
                    let d = ns.dist(&mut sc.net, &sq, &so);
                    let entry = (d, oid);
                    let at = top
                        .partition_point(|&(bd, bid)| bd.total_cmp(&d).then(bid.cmp(&oid)).is_lt());
                    if at < self.k {
                        top.insert(at, entry);
                        top.truncate(self.k);
                    }
                }
            };
            if r == 0 {
                visit(bxi, byi, ops, scratch);
            } else {
                for cx in (bxi - ri)..=(bxi + ri) {
                    visit(cx, byi - ri, ops, scratch);
                    visit(cx, byi + ri, ops, scratch);
                }
                for cy in (byi - ri + 1)..=(byi + ri - 1) {
                    visit(bxi - ri, cy, ops, scratch);
                    visit(bxi + ri, cy, ops, scratch);
                }
            }
        }
        self.answer.clear();
        self.answer.extend(top.iter().map(|&(_, id)| id));
        self.answer.sort_unstable();
        scratch.net.knn = top;
    }

    fn answer_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        out.extend_from_slice(&self.answer);
    }

    fn monitored_cells(&self) -> Option<&CellSet> {
        None
    }

    fn num_monitored(&self) -> usize {
        self.k
    }

    fn region_area(&self, _store: &SpatialStore) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use igern_mobgen::{build_synthetic_network, SyntheticNetworkConfig};

    use super::*;
    use crate::netspace::{Expansion, NetScratch, DIST_CACHE_STATES, POP_BUDGET_PER_OBJECT};

    /// The benchmark's `roadnet` map (48 × 48 intersections, seed 7) with
    /// `n` objects at seeded random positions; even ids are kind A.
    fn roadnet_store(n: usize) -> SpatialStore {
        let net = build_synthetic_network(&SyntheticNetworkConfig {
            k: 48,
            seed: 7,
            ..Default::default()
        });
        let kinds = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    ObjectKind::A
                } else {
                    ObjectKind::B
                }
            })
            .collect();
        let mut store = SpatialStore::new(*net.space(), 64, kinds);
        store.set_network(Arc::new(NetworkSpace::from_network(&net)));
        let mut state = 7u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 1000.0
        };
        let positions: Vec<Point> = (0..n).map(|_| Point::new(rnd(), rnd())).collect();
        store.load(&positions);
        store
    }

    /// Evaluate a k = 1 query anchored at `anchor`; returns what it
    /// monitored and the cost of the expansion it ran.
    fn evaluate(store: &SpatialStore, anchor: ObjectId, bi: bool) -> (usize, Expansion) {
        let mut m = if bi {
            NetRknnMonitor::bi(Some(anchor), 1)
        } else {
            NetRknnMonitor::mono(Some(anchor), 1)
        };
        let q = store.position(anchor).expect("anchor is live");
        let mut scratch = EvalScratch::new();
        let mut ops = OpCounters::new();
        m.evaluate(store, q, &mut ops, &mut scratch);
        let nv = net_view(store);
        let ex = nv.rknn_candidates(
            &nv.space().snap(q),
            Some(anchor),
            1,
            |id| !bi || store.kind(id) == ObjectKind::B,
            |id| !bi || store.kind(id) == ObjectKind::A,
            &mut NetScratch::default(),
        );
        (m.num_monitored(), ex)
    }

    #[test]
    fn dense_maps_prune_to_a_handful_of_candidates() {
        let store = roadnet_store(5_000);
        let mut pops = 0;
        for anchor in (0..5_000).step_by(626).map(ObjectId) {
            for bi in [false, true] {
                let (monitored, ex) = evaluate(&store, anchor, bi);
                assert!(!ex.exhaustive, "{anchor} bi {bi}: fell back ({ex:?})");
                assert!(monitored <= 64, "{anchor} bi {bi}: {monitored} candidates");
                assert!(ex.pops <= 256, "{anchor} bi {bi}: {ex:?}");
                pops += ex.pops;
            }
        }
        // ~8 on average when written; the budget would allow 20,000 each.
        assert!(pops <= 16 * 32, "{pops} pops over 16 expansions");
    }

    /// Every object of the 5k-object map as an anchor (mono, kNN and bi
    /// in turn), evaluated twice through one scratch: the distance cache
    /// ends at `DIST_CACHE_STATES` labels arrays plus the frontiers those
    /// states explored, whatever it has seen, and its expansions stop near
    /// each candidate's k-th neighbour. The memo this replaced held
    /// a `V`-long map per touched node — here nearly every node, ~42 MB.
    #[test]
    fn distance_cache_memory_is_flat_in_time() {
        let store = roadnet_store(5_000);
        let v = net_view(&store).space().num_nodes();
        let mut scratch = EvalScratch::new();
        let mut ops = OpCounters::new();
        let mut monitors: Vec<(ObjectId, Box<dyn ContinuousMonitor>)> = (0..5_000)
            .map(ObjectId)
            .map(|id| {
                let m: Box<dyn ContinuousMonitor> = match id.0 % 3 {
                    0 => Box::new(NetRknnMonitor::mono(Some(id), 1)),
                    1 => Box::new(NetKnnMonitor::new(Some(id), 4)),
                    _ => Box::new(NetRknnMonitor::bi(Some(id), 1)),
                };
                (id, m)
            })
            .collect();
        // Labels, one byte per node and state for the touched lists and
        // heaps of local expansions (~0.4 when written), and the
        // node-to-slot index.
        let ceiling = DIST_CACHE_STATES * v * 8 + DIST_CACHE_STATES * v + 16 * v;
        for pass in 0..2 {
            for (id, m) in &mut monitors {
                let q = store.position(*id).expect("anchor is live");
                m.evaluate(&store, q, &mut ops, &mut scratch);
            }
            assert_eq!(scratch.net.resident_states(), DIST_CACHE_STATES);
            // The dense regime's work, pinned on the cold first pass: ~54,000
            // nodes when written. Sweeping the disk row-major reads ~60,000,
            // and `dist` in place of `dist_below` ~69,000.
            if pass == 0 {
                let settled = scratch.net.settled();
                assert!(settled <= 57_000, "first pass settled {settled} nodes");
            }
            let bytes = scratch.net.resident_bytes();
            assert!(
                bytes <= ceiling,
                "pass {pass}: {bytes} resident bytes over {ceiling}"
            );
        }
    }

    /// The sparse regime no benchmark workload covers: 200 objects, k = 4,
    /// where nearly every expansion falls back to verifying every object
    /// and the ~400 source nodes outnumber the cache. Four queries move
    /// with a fifth of the objects each tick; the nodes the cache settles
    /// per warmed tick are deterministic and pinned (30,000–42,000 when
    /// written, 13–18 full expansions of the 2,304-node map). Evicting the
    /// least recently used state instead settles ~72,000: the mono sweeps
    /// cycle through more sources than the cache holds.
    #[test]
    fn sparse_ticks_settle_a_pinned_number_of_nodes() {
        let mut store = roadnet_store(200);
        let mut monitors: Vec<(ObjectId, NetRknnMonitor)> = [0, 100]
            .into_iter()
            .map(ObjectId)
            .flat_map(|id| {
                [
                    (id, NetRknnMonitor::mono(Some(id), 4)),
                    (id, NetRknnMonitor::bi(Some(id), 4)),
                ]
            })
            .collect();
        let mut scratch = EvalScratch::new();
        let mut ops = OpCounters::new();
        let mut state = 11u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for tick in 0..20 {
            for id in (0..200).map(ObjectId) {
                if rnd() < 0.2 {
                    store.apply(id, Point::new(rnd() * 1000.0, rnd() * 1000.0));
                }
            }
            let before = scratch.net.settled();
            for (id, m) in &mut monitors {
                let q = store.position(*id).expect("anchor is live");
                m.evaluate(&store, q, &mut ops, &mut scratch);
            }
            let settled = scratch.net.settled() - before;
            assert!(
                tick < 10 || settled <= 48_000,
                "tick {tick}: {settled} nodes settled"
            );
        }
    }

    #[test]
    fn sparse_maps_fall_back_within_the_budget() {
        let store = roadnet_store(6);
        for bi in [false, true] {
            let (monitored, ex) = evaluate(&store, ObjectId(0), bi);
            assert!(ex.exhaustive, "bi {bi}: {ex:?}");
            assert!(ex.pops <= POP_BUDGET_PER_OBJECT * 6, "bi {bi}: {ex:?}");
            // Every other live object of the candidate colour.
            assert_eq!(monitored, if bi { 3 } else { 5 });
        }
    }
}
