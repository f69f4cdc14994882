//! Road-network distance: the [`NetworkSpace`] evaluation substrate.
//!
//! The paper's continuous framework is distance-metric-agnostic; this
//! module supplies the graph metric. A [`NetworkSpace`] is an immutable
//! view of a `igern_mobgen::RoadNetwork` prepared for query evaluation:
//!
//! * **Snapping** — every object position is projected onto its nearest
//!   edge ([`NetworkSpace::snap`]), yielding a [`NetPos`] (edge id, the
//!   snapped point, and the arc offsets to both endpoints). A
//!   cell-bucketed edge index makes the nearest-edge search an expanding
//!   ring scan with an exact stop bound.
//! * **Shortest paths** — network distance between two snapped positions
//!   is the minimum over the direct same-edge walk and the four
//!   endpoint-to-endpoint route combinations, where node-to-node
//!   distances come from full single-source Dijkstra expansions weighted
//!   by *edge length* (not travel time). Expansions are memoized per
//!   anchor node in the evaluation lane's [`NetScratch`]; the graph is
//!   static, so a memo entry never invalidates and the steady-state tick
//!   is allocation-free once the working set of anchor nodes is warm.
//! * **Admissible pruning** — edge weights are Euclidean segment
//!   lengths, so the straight-line distance between two snapped points
//!   never exceeds their network distance. [`net_lb`] deflates a
//!   computed Euclidean distance by a small relative slack to stay a
//!   sound lower bound under floating-point rounding; the grid/ring
//!   machinery prunes with it before any exact graph distance is paid.
//!
//! The [`NetView`] is the store-side companion: a grid over the *snapped*
//! positions (so Euclidean cell bounds are valid lower bounds for graph
//! distance), the per-object [`NetPos`] table, and a per-edge object
//! index (`NetView::objects_on`), maintained incrementally by
//! `SpatialStore` whenever a network is attached.
//!
//! # Pruned candidate expansion
//!
//! `NetView::rknn_candidates` generates the candidate set of a network
//! RkNN query without looking at every object. It runs Dijkstra outward
//! from `q`'s snapped edge (seeded at both endpoints with their arc
//! offsets; objects on `q`'s own edge are candidates outright). At each
//! popped node `n` with distance `D` a bounded *range check* — a second
//! Dijkstra from `n` of radius `D − slack` — counts live blocker-colour
//! objects other than `q`'s own, each at the length of whatever path
//! reached it (an upper bound on its distance), and stops at `k`. With
//! `k` found, `n` is *pruned*: not expanded. Otherwise the objects on
//! `n`'s incident edges become candidates and its neighbours are
//! relaxed.
//!
//! This is the eager-pruning lemma of network RkNN (Yiu, Papadias,
//! Mamoulis, Tao, TKDE 2006): if `k` objects `o'ᵢ` have
//! `d(n, o'ᵢ) < d(q, n)`, every object `o` whose shortest path from `q`
//! runs through `n` has `d(o, o'ᵢ) ≤ d(o, n) + d(n, o'ᵢ) < d(o, n) +
//! d(q, n) = d(q, o)` — it is blocked `k` times over, *unless it is one of
//! the `o'ᵢ`*, which cannot block itself. So in monochromatic mode the
//! `k` found objects become candidates too (bichromatic blockers are
//! A objects and candidates B objects, so there nothing is excluded).
//! Every answer is therefore a candidate: walk a shortest path from `q`
//! to it; nodes on it settle at their true distance until the first
//! pruned one, which blocks the answer — a contradiction — or, if none
//! is pruned, the last one is expanded and lists the answer's edge.
//!
//! **Floating point.** Define `d*` as the same min-over-routes formula as
//! [`NetworkSpace::dist`] evaluated exactly over the stored (float) edge
//! lengths and arc offsets; `d*` obeys the triangle inequality through
//! nodes and the path identity above. Every distance this module
//! computes — a Dijkstra label, a range-check bound, a `dist` result — is
//! a float sum of at most `V + 1` nonnegative terms whose exact sum is at
//! most `3·L` (`L` the total edge length: a simple path plus two
//! offsets), so it is within `ε = (V + 1)·u·3L` of its `d*` value (`u` the
//! unit roundoff). Pruning then guarantees `d*(o, o'ᵢ) < d*(q, o) −
//! (slack − 2ε)`, and the verifier's floats sit within `ε` of those, so
//! `dist(o, o'ᵢ) < dist(q, o)` holds in floats whenever `slack ≥ 4ε`.
//! [`NetworkSpace::from_network`] sets `slack = L · max(1e-9, 8·(V + 2)·
//! f64::EPSILON)`, which is `1e-9·L` up to ~5·10⁵ nodes and `≥ 4ε`
//! always. The excluded objects are thus blocked by the verifier's own
//! arithmetic, so answers stay bit-identical to `naive::*_net`.
//!
//! **Budget.** Declining to prune is always sound, so the expansion's
//! heap pops — outer loop and range checks together — are capped at
//! `POP_BUDGET_PER_OBJECT` × the view's population. Past the cap, and
//! always on a graph of more than one component (the expansion never
//! reaches objects outside `q`'s), the candidate set is every live
//! candidate-colour object: the exhaustive loop, verified identically.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use igern_geom::{Aabb, Point, Segment};
use igern_grid::{Grid, ObjectId};
use igern_mobgen::RoadNetwork;

/// Relative slack applied when a floating-point Euclidean distance is
/// used as a lower bound for a network distance. Graph distances are
/// sums of edge lengths; accumulated rounding across a long path is far
/// below `1e-9` relative, so deflating the Euclidean side by that factor
/// keeps the bound admissible without giving up meaningful pruning.
const LB_SLACK: f64 = 1e-9;

/// Deflate a computed Euclidean distance into a sound lower bound for
/// the corresponding network distance (see module docs). Monotone, so
/// pruning comparisons stay consistent.
#[inline]
pub fn net_lb(d_euc: f64) -> f64 {
    d_euc * (1.0 - LB_SLACK)
}

/// Heap pops one candidate expansion may spend per object in the view
/// before it gives up and falls back to every object. Chosen by the
/// sparse sweep in DESIGN §18: dense maps finish far below it, and
/// larger values rescue a few mid-density expansions but spend more on
/// the ones that fail anyway.
pub(crate) const POP_BUDGET_PER_OBJECT: usize = 4;

/// A position projected onto the road network: the nearest edge, the
/// snapped point on it, and the arc distances to the edge's endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetPos {
    /// Id of the nearest edge (ties broken toward the lowest id).
    pub edge: u32,
    /// The projection of the raw position onto that edge's segment.
    pub point: Point,
    /// Arc distance from the snapped point to the edge's `a` endpoint.
    pub d_a: f64,
    /// Arc distance from the snapped point to the edge's `b` endpoint.
    pub d_b: f64,
}

/// One edge of the prepared graph (lengths cached, endpoints compact).
#[derive(Debug, Clone, Copy)]
struct NetEdge {
    a: u32,
    b: u32,
    len: f64,
    seg: Segment,
}

/// An immutable road network prepared for network-distance evaluation:
/// length-weighted adjacency plus a cell-bucketed edge index for
/// nearest-edge snapping. Shared across execution lanes behind an `Arc`;
/// all mutable state (Dijkstra memos, heaps) lives in [`NetScratch`].
#[derive(Debug)]
pub struct NetworkSpace {
    nodes: Vec<Point>,
    edges: Vec<NetEdge>,
    /// CSR adjacency: `adj[adj_off[n]..adj_off[n + 1]]` is node `n`'s
    /// incident `(edge, opposite node)` list.
    adj_off: Vec<u32>,
    adj: Vec<(u32, u32)>,
    space: Aabb,
    /// Edge-index bucket grid: `side × side` cells over `space`.
    side: usize,
    cell_w: f64,
    cell_h: f64,
    buckets: Vec<Vec<u32>>,
    /// Absolute margin the candidate expansion prunes by (module docs).
    slack: f64,
    /// Whether every node reaches every other.
    connected: bool,
}

impl NetworkSpace {
    /// Prepare `net` for evaluation. Edge weights are the segments'
    /// Euclidean lengths — the invariant behind [`net_lb`] — and the
    /// pruning margin and connectivity are fixed here, once.
    ///
    /// # Panics
    /// Panics when the network has no edges (nothing to snap to).
    pub fn from_network(net: &RoadNetwork) -> Self {
        assert!(net.num_edges() > 0, "network must have at least one edge");
        let nodes: Vec<Point> = (0..net.num_nodes()).map(|n| net.node(n)).collect();
        let edges: Vec<NetEdge> = (0..net.num_edges())
            .map(|e| {
                let edge = net.edge(e);
                NetEdge {
                    a: edge.a as u32,
                    b: edge.b as u32,
                    len: edge.len,
                    seg: Segment::new(nodes[edge.a], nodes[edge.b]),
                }
            })
            .collect();
        let mut adj_off = vec![0u32; nodes.len() + 1];
        for e in &edges {
            adj_off[e.a as usize + 1] += 1;
            adj_off[e.b as usize + 1] += 1;
        }
        for i in 0..nodes.len() {
            adj_off[i + 1] += adj_off[i];
        }
        let mut cursor = adj_off.clone();
        let mut adj = vec![(0u32, 0u32); edges.len() * 2];
        for (i, e) in edges.iter().enumerate() {
            adj[cursor[e.a as usize] as usize] = (i as u32, e.b);
            cursor[e.a as usize] += 1;
            adj[cursor[e.b as usize] as usize] = (i as u32, e.a);
            cursor[e.b as usize] += 1;
        }

        let space = *net.space();
        // Bucket resolution ~ sqrt(edge count): keeps per-bucket lists
        // short without blowing up empty-ring scans on sparse networks.
        let side = ((edges.len() as f64).sqrt().ceil() as usize).clamp(1, 128);
        let cell_w = (space.max.x - space.min.x) / side as f64;
        let cell_h = (space.max.y - space.min.y) / side as f64;
        let total_len: f64 = edges.iter().map(|e| e.len).sum();
        let rel = 1e-9f64.max(8.0 * (nodes.len() + 2) as f64 * f64::EPSILON);
        let mut ns = NetworkSpace {
            nodes,
            edges,
            adj_off,
            adj,
            space,
            side,
            cell_w,
            cell_h,
            buckets: vec![Vec::new(); side * side],
            slack: total_len * rel,
            connected: net.is_connected(),
        };
        for i in 0..ns.edges.len() {
            let seg = ns.edges[i].seg;
            let (x0, y0) = ns.bucket_of(Point::new(seg.a.x.min(seg.b.x), seg.a.y.min(seg.b.y)));
            let (x1, y1) = ns.bucket_of(Point::new(seg.a.x.max(seg.b.x), seg.a.y.max(seg.b.y)));
            for by in y0..=y1 {
                for bx in x0..=x1 {
                    ns.buckets[by * ns.side + bx].push(i as u32);
                }
            }
        }
        ns
    }

    /// Number of graph nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of graph edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The embedded data space.
    #[inline]
    pub fn space(&self) -> &Aabb {
        &self.space
    }

    /// Endpoint node positions of edge `e`.
    #[inline]
    pub fn edge_segment(&self, e: u32) -> Segment {
        self.edges[e as usize].seg
    }

    /// Bucket coordinates of `p`, clamped into the grid.
    fn bucket_of(&self, p: Point) -> (usize, usize) {
        let fx = ((p.x - self.space.min.x) / self.cell_w).floor();
        let fy = ((p.y - self.space.min.y) / self.cell_h).floor();
        let bx = (fx.max(0.0) as usize).min(self.side - 1);
        let by = (fy.max(0.0) as usize).min(self.side - 1);
        (bx, by)
    }

    /// Project `p` onto its nearest edge (lowest edge id on exact ties).
    ///
    /// Expanding Chebyshev-ring scan over the edge buckets. The stop
    /// bound is exact: a ring-`r` cell is at least `(r − 1) ·
    /// min(cell_w, cell_h)` away from `p` (measured via `p`'s clamped
    /// projection into the space, which never overestimates), so once a
    /// best edge is closer than that, no farther ring can improve it.
    pub fn snap(&self, p: Point) -> NetPos {
        let (bx, by) = self.bucket_of(p);
        let min_ext = self.cell_w.min(self.cell_h);
        let side = self.side as isize;
        let (bxi, byi) = (bx as isize, by as isize);
        let max_r = bxi.max(side - 1 - bxi).max(byi.max(side - 1 - byi)).max(0) as usize;
        let mut best_d = f64::INFINITY;
        let mut best_e = u32::MAX;
        for r in 0..=max_r {
            if best_e != u32::MAX && (r as f64 - 1.0) * min_ext > best_d {
                break;
            }
            let ri = r as isize;
            let mut visit = |cx: isize, cy: isize| {
                if cx < 0 || cy < 0 || cx >= side || cy >= side {
                    return;
                }
                for &e in &self.buckets[cy as usize * self.side + cx as usize] {
                    let d = self.edges[e as usize].seg.dist(p);
                    if d < best_d || (d == best_d && e < best_e) {
                        best_d = d;
                        best_e = e;
                    }
                }
            };
            if r == 0 {
                visit(bxi, byi);
            } else {
                for cx in (bxi - ri)..=(bxi + ri) {
                    visit(cx, byi - ri);
                    visit(cx, byi + ri);
                }
                for cy in (byi - ri + 1)..=(byi + ri - 1) {
                    visit(bxi - ri, cy);
                    visit(bxi + ri, cy);
                }
            }
        }
        let edge = &self.edges[best_e as usize];
        let t = edge.seg.project(p);
        NetPos {
            edge: best_e,
            point: edge.seg.at(t),
            d_a: t * edge.len,
            d_b: (1.0 - t) * edge.len,
        }
    }

    /// Node `n`'s `(edge, opposite node)` adjacency list.
    #[inline]
    fn incident(&self, n: usize) -> &[(u32, u32)] {
        &self.adj[self.adj_off[n] as usize..self.adj_off[n + 1] as usize]
    }

    /// Ensure `scratch` holds the full single-source distance map from
    /// node `n` (length-weighted Dijkstra; unreachable nodes stay `∞`).
    fn ensure_map(&self, scratch: &mut NetScratch, n: usize) {
        if scratch.maps.len() < self.nodes.len() {
            scratch.maps.resize_with(self.nodes.len(), || None);
        }
        if scratch.maps[n].is_some() {
            return;
        }
        let s = &mut scratch.outer;
        s.reset(self.nodes.len());
        s.relax(n as u32, 0.0);
        let mut unbounded = usize::MAX;
        while let Ok(Some(HeapItem { cost, node })) = s.pop(&mut unbounded) {
            for &(e, v) in self.incident(node as usize) {
                s.relax(v, cost + self.edges[e as usize].len);
            }
        }
        scratch.maps[n] = Some(s.dist[..self.nodes.len()].into());
    }

    /// Memoized single-source network distances from node `n` (test and
    /// oracle seam; [`NetworkSpace::dist`] is the evaluation entry).
    pub fn node_dists<'a>(&self, scratch: &'a mut NetScratch, n: usize) -> &'a [f64] {
        self.ensure_map(scratch, n);
        scratch.maps[n].as_deref().unwrap()
    }

    /// Exact network distance between two snapped positions: the minimum
    /// of the direct same-edge walk (when applicable) and the four
    /// endpoint route combinations. `∞` when `p` and `q` lie in
    /// different components.
    ///
    /// The evaluation order is fixed, so for a given argument order the
    /// result is bit-reproducible; monitors and oracles call it with the
    /// same orientation (query first for query distances, candidate
    /// first for blocking distances) and therefore compare identical
    /// floats.
    pub fn dist(&self, scratch: &mut NetScratch, p: &NetPos, q: &NetPos) -> f64 {
        let pe = self.edges[p.edge as usize];
        let qe = self.edges[q.edge as usize];
        let mut best = if p.edge == q.edge {
            (p.d_a - q.d_a).abs()
        } else {
            f64::INFINITY
        };
        self.ensure_map(scratch, pe.a as usize);
        self.ensure_map(scratch, pe.b as usize);
        for (dp, src) in [(p.d_a, pe.a), (p.d_b, pe.b)] {
            let map = scratch.maps[src as usize].as_deref().unwrap();
            for (dq, dst) in [(q.d_a, qe.a), (q.d_b, qe.b)] {
                let d = dp + map[dst as usize] + dq;
                if d < best {
                    best = d;
                }
            }
        }
        best
    }
}

/// Min-heap entry for the Dijkstra expansion (ties broken by node id so
/// the pop order — though not the resulting distances — is fixed too).
#[derive(Debug, Clone, Copy)]
struct HeapItem {
    cost: f64,
    node: u32,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the cheapest node.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// One reusable bounded Dijkstra: labels start at `∞`, and only the
/// nodes a run touched are reset before the next, so a run costs what
/// it explores, not `V`.
#[derive(Debug, Default)]
struct Sssp {
    dist: Vec<f64>,
    touched: Vec<u32>,
    heap: BinaryHeap<HeapItem>,
}

impl Sssp {
    fn reset(&mut self, nodes: usize) {
        if self.dist.len() < nodes {
            self.dist.resize(nodes, f64::INFINITY);
        }
        for &n in &self.touched {
            self.dist[n as usize] = f64::INFINITY;
        }
        self.touched.clear();
        self.heap.clear();
    }

    fn relax(&mut self, node: u32, cost: f64) {
        let d = &mut self.dist[node as usize];
        if cost < *d {
            if *d == f64::INFINITY {
                self.touched.push(node);
            }
            *d = cost;
            self.heap.push(HeapItem { cost, node });
        }
    }

    /// The next node to settle, skipping stale heap entries. Every heap
    /// pop, stale or not, spends one unit of `left`.
    fn pop(&mut self, left: &mut usize) -> Result<Option<HeapItem>, Spent> {
        while let Some(item) = self.heap.pop() {
            *left = left.checked_sub(1).ok_or(Spent)?;
            if item.cost <= self.dist[item.node as usize] {
                return Ok(Some(item));
            }
        }
        Ok(None)
    }
}

/// The candidate expansion ran out of heap pops.
#[derive(Debug)]
struct Spent;

/// Per-lane mutable state for network-distance evaluation: the memoized
/// single-source Dijkstra maps (keyed by anchor node, never invalidated
/// — the graph is static) and the two reusable Dijkstra states plus
/// buffers of the candidate expansion. Lives inside `EvalScratch`; a
/// warm scratch makes network ticks allocation-free.
#[derive(Debug, Default)]
pub struct NetScratch {
    maps: Vec<Option<Box<[f64]>>>,
    /// Top-k staging for the network kNN monitor.
    pub(crate) knn: Vec<(f64, ObjectId)>,
    /// The candidate expansion's outward search from `q`; also builds
    /// each memoized map, unbounded.
    outer: Sssp,
    /// Its per-node range checks.
    inner: Sssp,
    /// Blockers a range check found (at most `k`).
    found: Vec<ObjectId>,
    /// The last expansion's candidates: ascending, deduplicated.
    pub(crate) cands: Vec<ObjectId>,
}

/// What one candidate expansion cost and whether it pruned. Only the
/// work-bound tests read it; evaluation needs just the candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct Expansion {
    /// Heap pops spent, outer loop and range checks together.
    pub pops: usize,
    /// Whether the candidates are every live candidate-colour object
    /// (budget spent, or a disconnected graph).
    pub exhaustive: bool,
}

impl NetScratch {
    /// Number of anchor nodes whose expansion is currently memoized.
    pub fn memoized(&self) -> usize {
        self.maps.iter().filter(|m| m.is_some()).count()
    }
}

/// The store-side network companion: a grid over *snapped* object
/// positions (valid substrate for Euclidean lower-bound pruning), the
/// per-object [`NetPos`] table, and the per-edge object index the
/// candidate expansion walks. Maintained by `SpatialStore` alongside its
/// raw grids whenever a network is attached.
#[derive(Debug, Clone)]
pub struct NetView {
    space: Arc<NetworkSpace>,
    grid: Grid,
    pos: Vec<Option<NetPos>>,
    /// `on_edge[e]`: the objects snapped onto edge `e`, in no order.
    on_edge: Vec<Vec<ObjectId>>,
    /// `slot[id]`: where `id` sits in its edge's list (meaningful while
    /// `pos[id]` is `Some`), so unlinking is one swap-remove.
    slot: Vec<u32>,
}

impl NetView {
    /// An empty view over `space`, with grid geometry matching the
    /// store's (`n × n` cells over `bounds`).
    pub fn new(space: Arc<NetworkSpace>, bounds: Aabb, n: usize) -> Self {
        let edges = space.num_edges();
        NetView {
            space,
            grid: Grid::new(bounds, n),
            pos: Vec::new(),
            on_edge: vec![Vec::new(); edges],
            slot: Vec::new(),
        }
    }

    /// The prepared network.
    #[inline]
    pub fn space(&self) -> &Arc<NetworkSpace> {
        &self.space
    }

    /// The grid over snapped positions.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The snapped position of a live object. `None` for unknown ids;
    /// callers pairing this with a bucket scan must treat a miss as a
    /// desync (skip and count), exactly like the raw grids.
    #[inline]
    pub fn net_pos(&self, id: ObjectId) -> Option<NetPos> {
        self.pos.get(id.index()).copied().flatten()
    }

    /// The objects snapped onto edge `edge`, in no particular order. A
    /// desynced object stays listed, as it stays in its grid bucket:
    /// readers check liveness against [`NetView::grid`].
    #[inline]
    pub(crate) fn objects_on(&self, edge: u32) -> &[ObjectId] {
        &self.on_edge[edge as usize]
    }

    /// Record `np` as `id`'s position: a move along the same edge touches
    /// only the table, an edge change is one unlink plus one link.
    fn set_pos(&mut self, id: ObjectId, np: NetPos) {
        let i = id.index();
        if self.pos.len() <= i {
            self.pos.resize(i + 1, None);
            self.slot.resize(i + 1, 0);
        }
        match self.pos[i] {
            Some(old) if old.edge == np.edge => {}
            old => {
                if let Some(old) = old {
                    self.unlink(id, old.edge);
                }
                let list = &mut self.on_edge[np.edge as usize];
                self.slot[i] = list.len() as u32;
                list.push(id);
            }
        }
        self.pos[i] = Some(np);
    }

    fn unlink(&mut self, id: ObjectId, edge: u32) {
        let at = self.slot[id.index()] as usize;
        let list = &mut self.on_edge[edge as usize];
        list.swap_remove(at);
        if let Some(&moved) = list.get(at) {
            self.slot[moved.index()] = at as u32;
        }
    }

    /// Mirror a store insert: snap and index the new object.
    pub fn insert(&mut self, id: ObjectId, raw: Point) {
        let np = self.space.snap(raw);
        self.grid.insert(id, np.point);
        self.set_pos(id, np);
    }

    /// Mirror a store position update.
    pub fn apply(&mut self, id: ObjectId, raw: Point) {
        let np = self.space.snap(raw);
        self.grid.update(id, np.point);
        self.set_pos(id, np);
    }

    /// Mirror a store remove.
    pub fn remove(&mut self, id: ObjectId) {
        self.grid.remove(id);
        if let Some(old) = self.pos.get_mut(id.index()).and_then(Option::take) {
            self.unlink(id, old.edge);
        }
    }

    /// Mirror the store's desync fault injection (position slot cleared,
    /// bucket left stale) so network searches face the same corruption
    /// the Euclidean ones do.
    #[doc(hidden)]
    pub fn debug_force_desync(&mut self, id: ObjectId) -> bool {
        self.grid.debug_force_desync(id)
    }

    /// The candidate set of a network RkNN query at `sq`, written to
    /// `scratch.cands` ascending and deduplicated: a superset of the
    /// answer, by the pruned expansion of the module docs or — budget
    /// spent, or the graph disconnected — every live object passing
    /// `candidate`. `blocker` is the colour test of the objects that
    /// block; `q_id` and desynced objects are neither.
    pub(crate) fn rknn_candidates(
        &self,
        sq: &NetPos,
        q_id: Option<ObjectId>,
        k: usize,
        candidate: impl Fn(ObjectId) -> bool,
        blocker: impl Fn(ObjectId) -> bool,
        scratch: &mut NetScratch,
    ) -> Expansion {
        let cap = POP_BUDGET_PER_OBJECT * self.grid.len();
        let mut ex = Expander {
            view: self,
            q_id,
            k,
            candidate,
            blocker,
            left: cap,
        };
        scratch.cands.clear();
        let pruned = self.space.connected && ex.expand(sq, scratch).is_ok();
        if pruned {
            scratch.cands.sort_unstable();
            scratch.cands.dedup();
        } else {
            scratch.cands.clear();
            scratch.cands.extend(
                self.grid
                    .iter()
                    .map(|(id, _)| id)
                    .filter(|&id| Some(id) != q_id && (ex.candidate)(id)),
            );
        }
        Expansion {
            pops: cap - ex.left,
            exhaustive: !pruned,
        }
    }
}

/// One candidate expansion's inputs and remaining pop budget.
struct Expander<'v, C, B> {
    view: &'v NetView,
    q_id: Option<ObjectId>,
    k: usize,
    candidate: C,
    blocker: B,
    left: usize,
}

impl<C: Fn(ObjectId) -> bool, B: Fn(ObjectId) -> bool> Expander<'_, C, B> {
    /// Neither `q`'s own object nor desynced.
    fn live(&self, id: ObjectId) -> bool {
        Some(id) != self.q_id && self.view.grid.position(id).is_some()
    }

    /// Append edge `edge`'s live candidate-colour objects to `cands`.
    fn collect(&self, edge: u32, cands: &mut Vec<ObjectId>) {
        cands.extend(
            self.view
                .objects_on(edge)
                .iter()
                .copied()
                .filter(|&id| (self.candidate)(id) && self.live(id)),
        );
    }

    /// The pruned Dijkstra from `q` (module docs), appending candidates
    /// to `scratch.cands` with repeats.
    fn expand(&mut self, sq: &NetPos, scratch: &mut NetScratch) -> Result<(), Spent> {
        let ns = self.view.space.as_ref();
        let NetScratch {
            outer,
            inner,
            found,
            cands,
            ..
        } = scratch;
        outer.reset(ns.num_nodes());
        let qe = ns.edges[sq.edge as usize];
        outer.relax(qe.a, sq.d_a);
        outer.relax(qe.b, sq.d_b);
        self.collect(sq.edge, cands);
        while let Some(HeapItem { cost, node }) = outer.pop(&mut self.left)? {
            if self.range_check(node, cost - ns.slack, inner, found)? {
                // Pruned; the blockers themselves escape the lemma.
                cands.extend(found.iter().copied().filter(|&id| (self.candidate)(id)));
                continue;
            }
            for &(e, m) in ns.incident(node as usize) {
                self.collect(e, cands);
                outer.relax(m, cost + ns.edges[e as usize].len);
            }
        }
        Ok(())
    }

    /// Whether `k` live blocker-colour objects lie closer than `radius`
    /// to node `n` along some path, collecting them in `found`.
    fn range_check(
        &mut self,
        n: u32,
        radius: f64,
        inner: &mut Sssp,
        found: &mut Vec<ObjectId>,
    ) -> Result<bool, Spent> {
        found.clear();
        if self.k == 0 {
            return Ok(true);
        }
        let ns = self.view.space.as_ref();
        inner.reset(ns.num_nodes());
        if radius > 0.0 {
            inner.relax(n, 0.0);
        }
        while let Some(HeapItem { cost, node }) = inner.pop(&mut self.left)? {
            for &(e, m) in ns.incident(node as usize) {
                let edge = &ns.edges[e as usize];
                for &id in self.view.objects_on(e) {
                    let Some(np) = self.view.pos[id.index()] else {
                        continue;
                    };
                    let off = if edge.a == node { np.d_a } else { np.d_b };
                    if cost + off < radius
                        && !found.contains(&id)
                        && (self.blocker)(id)
                        && self.live(id)
                    {
                        found.push(id);
                        if found.len() == self.k {
                            return Ok(true);
                        }
                    }
                }
                if cost + edge.len < radius {
                    inner.relax(m, cost + edge.len);
                }
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igern_mobgen::RoadClass;

    /// A 2×1 ladder: nodes 0-1-2 along the bottom, 3-4-5 along the top.
    fn ladder() -> RoadNetwork {
        let nodes = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
            Point::new(20.0, 10.0),
        ];
        let segs = [
            (0, 1, RoadClass::Main),
            (1, 2, RoadClass::Main),
            (3, 4, RoadClass::Main),
            (4, 5, RoadClass::Main),
            (0, 3, RoadClass::Side),
            (1, 4, RoadClass::Side),
            (2, 5, RoadClass::Side),
        ];
        RoadNetwork::new(nodes, &segs, Aabb::from_coords(0.0, 0.0, 20.0, 10.0))
    }

    #[test]
    fn snap_projects_to_nearest_edge() {
        let ns = NetworkSpace::from_network(&ladder());
        // Near the middle of edge 0 (nodes 0–1).
        let np = ns.snap(Point::new(5.0, 1.0));
        assert_eq!(np.edge, 0);
        assert!((np.point.y - 0.0).abs() < 1e-12);
        assert!((np.d_a - 5.0).abs() < 1e-12);
        assert!((np.d_b - 5.0).abs() < 1e-12);
        // A node shared by several edges snaps to the lowest edge id.
        let at_node1 = ns.snap(Point::new(10.0, 0.0));
        assert_eq!(at_node1.edge, 0);
        assert!((at_node1.d_b - 0.0).abs() < 1e-12);
    }

    #[test]
    fn snap_matches_brute_force_everywhere() {
        let net = ladder();
        let ns = NetworkSpace::from_network(&net);
        let mut state = 11u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..500 {
            let p = Point::new(rnd() * 20.0, rnd() * 10.0);
            let np = ns.snap(p);
            let brute = (0..net.num_edges() as u32)
                .map(|e| (ns.edge_segment(e).dist(p), e))
                .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
                .unwrap();
            assert_eq!(np.edge, brute.1, "snap picked a non-nearest edge at {p:?}");
        }
    }

    #[test]
    fn dist_same_edge_and_round_trip() {
        let ns = NetworkSpace::from_network(&ladder());
        let mut s = NetScratch::default();
        let p = ns.snap(Point::new(2.0, 0.0));
        let q = ns.snap(Point::new(7.0, 0.0));
        assert!((ns.dist(&mut s, &p, &q) - 5.0).abs() < 1e-12);
        // Across the ladder: down-rung + along + nothing = 10 + 10 = 20
        // from (0,10) region to (0,0)… check a known route: (5,10) to
        // (5,0) goes via a rung: 5 + 10 + 5 = 20.
        let a = ns.snap(Point::new(5.0, 10.0));
        let b = ns.snap(Point::new(5.0, 0.0));
        assert!((ns.dist(&mut s, &a, &b) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn dist_is_lower_bounded_by_euclidean() {
        let ns = NetworkSpace::from_network(&ladder());
        let mut s = NetScratch::default();
        let mut state = 5u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..1000 {
            let p = ns.snap(Point::new(rnd() * 20.0, rnd() * 10.0));
            let q = ns.snap(Point::new(rnd() * 20.0, rnd() * 10.0));
            let d_net = ns.dist(&mut s, &p, &q);
            let d_euc = p.point.dist(q.point);
            assert!(
                net_lb(d_euc) <= d_net,
                "admissibility violated: euc {d_euc} net {d_net}"
            );
        }
    }

    #[test]
    fn disconnected_components_are_infinite() {
        let nodes = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(9.0, 9.0),
            Point::new(10.0, 9.0),
        ];
        let segs = [(0, 1, RoadClass::Main), (2, 3, RoadClass::Main)];
        let net = RoadNetwork::new(nodes, &segs, Aabb::from_coords(0.0, 0.0, 10.0, 10.0));
        let ns = NetworkSpace::from_network(&net);
        let mut s = NetScratch::default();
        let p = ns.snap(Point::new(0.5, 0.0));
        let q = ns.snap(Point::new(9.5, 9.0));
        assert_eq!(ns.dist(&mut s, &p, &q), f64::INFINITY);
        assert_eq!(ns.dist(&mut s, &p, &p), 0.0);
    }

    #[test]
    fn memoization_is_stable_and_reused() {
        let ns = NetworkSpace::from_network(&ladder());
        let mut s = NetScratch::default();
        let p = ns.snap(Point::new(2.0, 0.0));
        let q = ns.snap(Point::new(17.0, 10.0));
        let d1 = ns.dist(&mut s, &p, &q);
        let warm = s.memoized();
        let d2 = ns.dist(&mut s, &p, &q);
        assert_eq!(
            d1.to_bits(),
            d2.to_bits(),
            "memoized result must be bit-stable"
        );
        assert_eq!(s.memoized(), warm, "no new expansions on a warm repeat");
        // A fresh scratch agrees bit-for-bit too.
        let mut fresh = NetScratch::default();
        assert_eq!(ns.dist(&mut fresh, &p, &q).to_bits(), d1.to_bits());
    }

    #[test]
    fn netview_tracks_store_mutations() {
        let ns = Arc::new(NetworkSpace::from_network(&ladder()));
        let mut v = NetView::new(ns, Aabb::from_coords(0.0, 0.0, 20.0, 10.0), 4);
        v.insert(ObjectId(3), Point::new(5.0, 1.0));
        let np = v.net_pos(ObjectId(3)).unwrap();
        assert_eq!(np.edge, 0);
        assert_eq!(v.grid().position(ObjectId(3)), Some(np.point));
        v.apply(ObjectId(3), Point::new(5.0, 9.0));
        assert_eq!(v.net_pos(ObjectId(3)).unwrap().edge, 2);
        v.remove(ObjectId(3));
        assert_eq!(v.net_pos(ObjectId(3)), None);
        assert!(v.grid().is_empty());
    }

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        }
    }

    #[test]
    fn edge_index_follows_churn() {
        let ns = Arc::new(NetworkSpace::from_network(&ladder()));
        let mut v = NetView::new(Arc::clone(&ns), Aabb::from_coords(0.0, 0.0, 20.0, 10.0), 4);
        let mut rnd = lcg(3);
        let mut live = [false; 30];
        for step in 0..3000 {
            let id = ObjectId((rnd() * 30.0) as u32);
            let p = Point::new(rnd() * 20.0, rnd() * 10.0);
            let was = live[id.index()];
            live[id.index()] = !was || rnd() < 0.8;
            match (was, live[id.index()]) {
                (false, _) => v.insert(id, p),
                (true, true) => v.apply(id, p),
                (true, false) => v.remove(id),
            }
            if step % 100 == 0 {
                for e in 0..ns.num_edges() as u32 {
                    let mut got = v.objects_on(e).to_vec();
                    got.sort_unstable();
                    let want: Vec<ObjectId> = (0..30)
                        .map(ObjectId)
                        .filter(|&id| v.net_pos(id).map(|p| p.edge) == Some(e))
                        .collect();
                    assert_eq!(got, want, "edge {e} at step {step}");
                }
            }
        }
    }

    /// A seeded synthetic map with `n` objects at random raw positions;
    /// even ids are the A colour.
    fn populated(seed: u64, side: usize, n: u32) -> (NetView, Vec<(ObjectId, Point)>) {
        let net = igern_mobgen::build_synthetic_network(&igern_mobgen::SyntheticNetworkConfig {
            k: side,
            seed,
            ..Default::default()
        });
        let ns = Arc::new(NetworkSpace::from_network(&net));
        let mut v = NetView::new(Arc::clone(&ns), *ns.space(), 8);
        let mut rnd = lcg(seed ^ 0x5eed);
        let objs: Vec<(ObjectId, Point)> = (0..n)
            .map(|i| (ObjectId(i), Point::new(rnd() * 1000.0, rnd() * 1000.0)))
            .collect();
        for &(id, p) in &objs {
            v.insert(id, p);
        }
        (v, objs)
    }

    #[test]
    fn candidates_cover_the_oracle_answer() {
        let is_a = |id: ObjectId| id.0.is_multiple_of(2);
        let mut pruned = 0;
        for seed in 0..5u64 {
            let (v, objs) = populated(seed, 5 + seed as usize % 3, 90);
            let ns = v.space().as_ref();
            let (a, b): (Vec<_>, Vec<_>) = objs.iter().partition(|&&(id, _)| is_a(id));
            let (mut s, mut oracle) = (NetScratch::default(), NetScratch::default());
            for &(q_id, q) in objs.iter().step_by(22) {
                let sq = ns.snap(q);
                for k in [1, 2, 4] {
                    for bi in [false, true] {
                        let ex = v.rknn_candidates(
                            &sq,
                            Some(q_id),
                            k,
                            |id| !bi || !is_a(id),
                            |id| !bi || is_a(id),
                            &mut s,
                        );
                        pruned += usize::from(!ex.exhaustive);
                        let want = if bi {
                            crate::naive::bi_rknn_net(ns, &mut oracle, &a, &b, q, Some(q_id), k)
                        } else {
                            crate::naive::mono_rknn_net(ns, &mut oracle, &objs, q, Some(q_id), k)
                        };
                        for id in want {
                            assert!(
                                s.cands.binary_search(&id).is_ok(),
                                "seed {seed} q {q_id} k {k} bi {bi}: answer {id} not a candidate"
                            );
                        }
                    }
                }
            }
        }
        assert!(pruned >= 100, "only {pruned} of 150 expansions pruned");
    }

    #[test]
    fn range_check_matches_a_brute_force_count() {
        let (mut v, objs) = populated(5, 7, 80);
        assert!(
            v.debug_force_desync(ObjectId(3)),
            "a dead object never counts"
        );
        let ns = Arc::clone(v.space());
        let (mut s, mut memo) = (NetScratch::default(), NetScratch::default());
        let mut rnd = lcg(99);
        let q_id = Some(ObjectId(0));
        for _ in 0..300 {
            let n = ((rnd() * ns.num_nodes() as f64) as u32).min(ns.num_nodes() as u32 - 1);
            let radius = rnd() * 400.0 - 20.0;
            let k = 1 + (rnd() * 6.0) as usize;
            let d = ns.node_dists(&mut memo, n as usize);
            let brute: Vec<ObjectId> = objs
                .iter()
                .map(|&(id, _)| id)
                .filter(|&id| Some(id) != q_id && v.grid().position(id).is_some())
                .filter(|&id| {
                    let p = v.net_pos(id).expect("live");
                    let e = ns.edges[p.edge as usize];
                    (d[e.a as usize] + p.d_a).min(d[e.b as usize] + p.d_b) < radius
                })
                .collect();
            let mut ex = Expander {
                view: &v,
                q_id,
                k,
                candidate: |_| true,
                blocker: |_| true,
                left: usize::MAX,
            };
            let NetScratch { inner, found, .. } = &mut s;
            let full = ex.range_check(n, radius, inner, found).expect("unbounded");
            assert_eq!(full, brute.len() >= k, "node {n} radius {radius} k {k}");
            assert_eq!(found.len(), brute.len().min(k));
            assert!(found.iter().all(|id| brute.contains(id)));
        }
    }
}
