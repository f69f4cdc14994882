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
//!   distances come from single-source Dijkstra expansions weighted by
//!   *edge length* (not travel time). The evaluation lane's
//!   [`NetScratch`] keeps a fixed number of them resident, the cheapest
//!   to rebuild evicted first, each settled only as far as a lookup has
//!   needed and resumed by the next; a label is read only once it is
//!   final, so it is the float a full expansion would give.
//!   [`NetworkSpace::dist_below`] answers `dist < bound` without
//!   settling anything farther than `bound`.
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
/// all mutable state (cached Dijkstra states, heaps) lives in [`NetScratch`].
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

    /// Settle the cheapest live entry of `st`'s heap: relax its
    /// neighbours by edge length.
    fn settle(&self, st: &mut SourceState, HeapItem { cost, node }: HeapItem) {
        st.sssp.heap.pop();
        st.settled += 1;
        for &(e, v) in self.incident(node as usize) {
            st.sssp.relax(v, cost + self.edges[e as usize].len);
        }
    }

    /// Resume `st` until the route `dp + label(dst) + dq` is decided:
    /// `Some(label)` once `dst`'s label is final, or `None` once every
    /// unsettled node is so far that the route cannot come in under
    /// `stop`.
    ///
    /// A label no greater than the cheapest live heap entry is final:
    /// every later offer is that entry's cost or more, and `relax` only
    /// takes strictly smaller ones. So the label is the one a full run
    /// would leave, bit for bit. Otherwise the final label is at least
    /// that entry's cost `c`, and float addition of nonnegative terms is
    /// monotone, so `dp + c + dq ≥ stop` rules the route out exactly.
    fn resolve(&self, st: &mut SourceState, dst: u32, dp: f64, dq: f64, stop: f64) -> Option<f64> {
        loop {
            let label = st.sssp.dist[dst as usize];
            let Some(top) = st.sssp.live_top() else {
                return Some(label);
            };
            if label <= top.cost {
                return Some(label);
            }
            if dp + top.cost + dq >= stop {
                return None;
            }
            self.settle(st, top);
        }
    }

    /// Single-source network distances from node `n`, settled to the end
    /// in the scratch's cache (test and oracle seam; [`NetworkSpace::dist`]
    /// is the evaluation entry).
    pub fn node_dists<'a>(&self, scratch: &'a mut NetScratch, n: usize) -> &'a [f64] {
        let st = scratch.cache.state(self.nodes.len(), n as u32);
        while let Some(top) = st.sssp.live_top() {
            self.settle(st, top);
        }
        &st.sssp.dist[..self.nodes.len()]
    }

    /// The minimum of the direct same-edge walk (when applicable) and the
    /// four endpoint routes, over the routes that can beat `cap`: exactly
    /// [`NetworkSpace::dist`] when that is below `cap`, else some value
    /// `≥ cap`. A route is only resolved against the better of `cap` and
    /// the best so far, which drops exactly the routes that could not
    /// lower the result.
    fn dist_capped(&self, scratch: &mut NetScratch, p: &NetPos, q: &NetPos, cap: f64) -> f64 {
        let pe = self.edges[p.edge as usize];
        let qe = self.edges[q.edge as usize];
        let mut best = if p.edge == q.edge {
            (p.d_a - q.d_a).abs()
        } else {
            f64::INFINITY
        };
        for (dp, src) in [(p.d_a, pe.a), (p.d_b, pe.b)] {
            let st = scratch.cache.state(self.nodes.len(), src);
            for (dq, dst) in [(q.d_a, qe.a), (q.d_b, qe.b)] {
                if let Some(label) = self.resolve(st, dst, dp, dq, best.min(cap)) {
                    let d = dp + label + dq;
                    if d < best {
                        best = d;
                    }
                }
            }
        }
        best
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
    /// floats. Which sources happen to be resident in the scratch's cache
    /// never changes a result, only what it costs.
    pub fn dist(&self, scratch: &mut NetScratch, p: &NetPos, q: &NetPos) -> f64 {
        self.dist_capped(scratch, p, q, f64::INFINITY)
    }

    /// Whether `dist(p, q) < bound`, settling no node farther than
    /// `bound` from `p`'s endpoints: the same answer as comparing
    /// [`NetworkSpace::dist`], for what a search of radius `bound` costs.
    pub fn dist_below(&self, scratch: &mut NetScratch, p: &NetPos, q: &NetPos, bound: f64) -> bool {
        self.dist_capped(scratch, p, q, bound) < bound
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

    /// The cheapest live heap entry, left in the heap; stale entries
    /// above it are dropped, as `pop` would drop them.
    fn live_top(&mut self) -> Option<HeapItem> {
        while let Some(&top) = self.heap.peek() {
            if top.cost <= self.dist[top.node as usize] {
                return Some(top);
            }
            self.heap.pop();
        }
        None
    }
}

/// The candidate expansion ran out of heap pops.
#[derive(Debug)]
struct Spent;

/// Single-source states one [`NetScratch`] keeps resident. Full maps of
/// the whole working set cost `V` floats per touched node (quadratic on
/// `roadnet`); 64 states were still twice as slow as the unbounded memo
/// on sparse maps, where the exhaustive fallback touches every object's
/// nodes each tick. DESIGN §18 has the sweep.
pub(crate) const DIST_CACHE_STATES: usize = 256;

/// `DistCache::slot_of` entry of a node with no resident state.
const NO_SLOT: u32 = u32::MAX;

/// One resumable single-source Dijkstra of the [`DistCache`].
#[derive(Debug, Default)]
struct SourceState {
    src: u32,
    /// The cache's `floor` at the last lookup: the state's eviction
    /// priority is this plus the nodes it has labelled.
    credit: u64,
    sssp: Sssp,
    /// Nodes this slot has settled, over every source it has held.
    settled: u64,
}

/// A fixed-capacity cache of resumable single-source Dijkstra states,
/// found by source node. A state settles only as far as the lookups on
/// it have needed; eviction resets a state by its touched list and
/// reuses its buffers, so a warm cache stops allocating.
///
/// Eviction is GreedyDual (Young 1994) with a state's labelled-node count
/// as its rebuild cost: the state with the least `credit + labelled` goes,
/// and `floor` rises to that value, so every lookup refreshes a state's
/// credit to the current floor. Cheap states age out first and expensive
/// ones (a query's, expanded toward every candidate) survive a sweep of
/// more sources than the cache holds, where least-recently-used evicts
/// each state just before it is needed again.
#[derive(Debug, Default)]
struct DistCache {
    states: Vec<SourceState>,
    /// `slot_of[n]`: the index in `states` of source `n`, or [`NO_SLOT`].
    slot_of: Vec<u32>,
    /// The priority of the last evicted state; never decreases.
    floor: u64,
}

impl DistCache {
    /// The state rooted at `src` on a graph of `nodes` nodes, made
    /// resident if it is not: a new slot while the cache fills, the
    /// lowest-priority one after.
    fn state(&mut self, nodes: usize, src: u32) -> &mut SourceState {
        if self.slot_of.len() < nodes {
            self.slot_of.resize(nodes, NO_SLOT);
        }
        let mut slot = self.slot_of[src as usize];
        if slot == NO_SLOT {
            if self.states.len() < DIST_CACHE_STATES {
                self.states.push(SourceState::default());
                slot = (self.states.len() - 1) as u32;
            } else {
                let (victim, priority) = self
                    .states
                    .iter()
                    .map(|st| st.credit + st.sssp.touched.len() as u64)
                    .enumerate()
                    .min_by_key(|&(_, priority)| priority)
                    .expect("the cache is full");
                self.floor = priority;
                self.slot_of[self.states[victim].src as usize] = NO_SLOT;
                slot = victim as u32;
            }
            self.slot_of[src as usize] = slot;
            let st = &mut self.states[slot as usize];
            st.src = src;
            st.sssp.reset(nodes);
            st.sssp.relax(src, 0.0);
        }
        let st = &mut self.states[slot as usize];
        st.credit = self.floor;
        st
    }
}

/// Per-lane mutable state for network-distance evaluation: the
/// fixed-capacity cache of resumable single-source Dijkstra states that
/// [`NetworkSpace::dist`] reads, and the two reusable Dijkstra states
/// plus buffers of the candidate expansion. Lives inside `EvalScratch`;
/// once the cache is full and its buffers have grown to the working
/// set, network ticks are allocation-free.
#[derive(Debug, Default)]
pub struct NetScratch {
    cache: DistCache,
    /// Top-k staging for the network kNN monitor.
    pub(crate) knn: Vec<(f64, ObjectId)>,
    /// The candidate expansion's outward search from `q`.
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
    /// Number of single-source states resident in the distance cache
    /// (at most 256, the fixed capacity).
    pub fn resident_states(&self) -> usize {
        self.cache.states.len()
    }

    /// Heap bytes the distance cache holds: every state's labels,
    /// touched list and heap, and the node-to-slot index.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let states: usize = self
            .cache
            .states
            .iter()
            .map(|st| {
                let s = &st.sssp;
                s.dist.capacity() * size_of::<f64>()
                    + s.touched.capacity() * size_of::<u32>()
                    + s.heap.capacity() * size_of::<HeapItem>()
            })
            .sum();
        states
            + self.cache.states.capacity() * size_of::<SourceState>()
            + self.cache.slot_of.capacity() * size_of::<u32>()
    }

    /// Nodes the distance cache has settled since the scratch was made.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn settled(&self) -> u64 {
        self.cache.states.iter().map(|st| st.settled).sum()
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
    fn results_are_bit_stable_across_eviction_and_reexpansion() {
        let net = igern_mobgen::build_synthetic_network(&igern_mobgen::SyntheticNetworkConfig {
            k: 48,
            seed: 7,
            ..Default::default()
        });
        let ns = NetworkSpace::from_network(&net);
        let mut rnd = lcg(41);
        let mut pt = || ns.snap(Point::new(rnd() * 1000.0, rnd() * 1000.0));
        let (p, q) = (pt(), pt());
        let mut s = NetScratch::default();
        let d1 = ns.dist(&mut s, &p, &q);
        assert_eq!(s.resident_states(), 2, "one state per endpoint of p's edge");
        // Fill the cache past capacity so p's states are evicted, then
        // ask again: they are rebuilt from scratch, and agree bit for bit.
        for _ in 0..DIST_CACHE_STATES {
            let (a, b) = (pt(), pt());
            ns.dist(&mut s, &a, &b);
        }
        assert_eq!(s.resident_states(), DIST_CACHE_STATES);
        assert_eq!(ns.dist(&mut s, &p, &q).to_bits(), d1.to_bits());
        assert_eq!(ns.dist(&mut s, &p, &q).to_bits(), d1.to_bits());
        // A fresh scratch agrees bit-for-bit too.
        let mut fresh = NetScratch::default();
        assert_eq!(ns.dist(&mut fresh, &p, &q).to_bits(), d1.to_bits());
    }

    /// Textbook lazy-deletion Dijkstra over `net` itself, sharing nothing
    /// with `Sssp`: every node's label from `src`.
    fn reference_dijkstra(net: &RoadNetwork, src: usize) -> Vec<f64> {
        use std::cmp::Reverse;
        let mut adj = vec![Vec::new(); net.num_nodes()];
        for e in 0..net.num_edges() {
            let edge = net.edge(e);
            adj[edge.a].push((edge.b, edge.len));
            adj[edge.b].push((edge.a, edge.len));
        }
        let mut dist = vec![f64::INFINITY; net.num_nodes()];
        let mut done = vec![false; net.num_nodes()];
        let mut heap = BinaryHeap::new();
        dist[src] = 0.0;
        // Nonnegative floats order like their bit patterns.
        heap.push(Reverse((0f64.to_bits(), src)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            if done[u] {
                continue;
            }
            done[u] = true;
            for &(v, len) in &adj[u] {
                let d = f64::from_bits(bits) + len;
                if d < dist[v] {
                    dist[v] = d;
                    heap.push(Reverse((d.to_bits(), v)));
                }
            }
        }
        dist
    }

    /// `dist` by definition: the same-edge walk and the four endpoint
    /// routes over [`reference_dijkstra`] labels (memoized per source in
    /// `maps`).
    fn reference_dist(
        net: &RoadNetwork,
        maps: &mut std::collections::HashMap<u32, Vec<f64>>,
        p: &NetPos,
        q: &NetPos,
    ) -> (f64, [f64; 4]) {
        let (pe, qe) = (net.edge(p.edge as usize), net.edge(q.edge as usize));
        let mut routes = [0.0; 4];
        for (i, (dp, src)) in [(p.d_a, pe.a), (p.d_b, pe.b)].into_iter().enumerate() {
            let map = maps
                .entry(src as u32)
                .or_insert_with(|| reference_dijkstra(net, src));
            for (j, (dq, dst)) in [(q.d_a, qe.a), (q.d_b, qe.b)].into_iter().enumerate() {
                routes[2 * i + j] = dp + map[dst] + dq;
            }
        }
        let direct = if p.edge == q.edge {
            (p.d_a - q.d_a).abs()
        } else {
            f64::INFINITY
        };
        (routes.iter().copied().fold(direct, f64::min), routes)
    }

    /// Holds `dist` and `dist_below` to the reference bit for bit on the
    /// pair: at the distance itself and at each route sum (ties, where
    /// `<` must say no), just above and below them, and at a random bound
    /// that often leaves a state mid-expansion for a later call to resume.
    fn check_pair(
        net: &RoadNetwork,
        ns: &NetworkSpace,
        s: &mut NetScratch,
        maps: &mut std::collections::HashMap<u32, Vec<f64>>,
        p: &NetPos,
        q: &NetPos,
        rnd: &mut impl FnMut() -> f64,
    ) {
        let (want, routes) = reference_dist(net, maps, p, q);
        let mut bounds = vec![want, rnd() * 2.0 * want.min(2000.0), 0.0, f64::INFINITY];
        for b in routes.into_iter().chain([want]).filter(|b| b.is_finite()) {
            bounds.extend([b, b.next_up(), b.next_down()]);
        }
        for bound in bounds {
            assert_eq!(
                ns.dist_below(s, p, q, bound),
                want < bound,
                "dist_below({p:?}, {q:?}, {bound}) against {want}"
            );
        }
        assert_eq!(ns.dist(s, p, q).to_bits(), want.to_bits(), "{p:?} {q:?}");
    }

    #[test]
    fn distances_match_a_textbook_dijkstra_bit_for_bit() {
        let grid = igern_mobgen::build_synthetic_network(&igern_mobgen::SyntheticNetworkConfig {
            k: 48,
            seed: 7,
            ..Default::default()
        });
        let split = RoadNetwork::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.5),
                Point::new(9.0, 9.0),
                Point::new(10.0, 9.0),
            ],
            &[
                (0, 1, RoadClass::Main),
                (1, 2, RoadClass::Side),
                (3, 4, RoadClass::Main),
            ],
            Aabb::from_coords(0.0, 0.0, 10.0, 10.0),
        );
        let mut infinite = 0;
        for (net, pairs) in [(grid, 1_500), (ladder(), 400), (split, 200)] {
            let ns = NetworkSpace::from_network(&net);
            let space = *ns.space();
            let mut rnd = lcg(net.num_nodes() as u64);
            let pt = |rnd: &mut dyn FnMut() -> f64| {
                let x = space.min.x + rnd() * (space.max.x - space.min.x);
                ns.snap(Point::new(
                    x,
                    space.min.y + rnd() * (space.max.y - space.min.y),
                ))
            };
            let mut s = NetScratch::default();
            let mut maps = std::collections::HashMap::new();
            // Old pairs come back between new ones: on the 48 × 48 map the
            // ~3,000 sources overflow the cache, so they return evicted,
            // or resident and half-expanded.
            let mut seen: Vec<(NetPos, NetPos)> = Vec::new();
            for _ in 0..pairs {
                let (p, q) = if !seen.is_empty() && rnd() < 0.3 {
                    seen[(rnd() * seen.len() as f64) as usize % seen.len()]
                } else {
                    (pt(&mut rnd), pt(&mut rnd))
                };
                check_pair(&net, &ns, &mut s, &mut maps, &p, &q, &mut rnd);
                infinite += usize::from(ns.dist(&mut s, &p, &q) == f64::INFINITY);
                seen.push((p, q));
            }
            if net.num_nodes() > 1_000 {
                assert!(maps.len() > 4 * DIST_CACHE_STATES, "{} sources", maps.len());
            }
        }
        assert!(
            infinite > 20,
            "only {infinite} pairs across the split graph"
        );
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
