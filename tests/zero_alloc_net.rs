//! The steady-state network-mode tick does not touch the allocator.
//!
//! The companion of `zero_alloc.rs` for road-network distance (DESIGN.md
//! §18): after warm-up, a one-worker [`TickRunner::step`] over a 48 × 48
//! synthetic road map, with monochromatic, bichromatic and kNN network
//! queries, performs zero allocations per tick. The lane's distance cache
//! holds a fixed number of resumable Dijkstra states and an evicted state
//! hands its buffers to the next source. A slot's heap and touched list
//! only grow, to the largest expansion any source has needed in it, so
//! growth stops once every slot has held a large one: on this map after
//! ~70 ticks, hence the long warm-up. Movers slide along
//! their own edge, so the store's per-edge object lists never change
//! length and every allocation the counter could see would be the
//! evaluation's. Counting is per thread, and this is the only `#[test]` in
//! the file, as in `zero_alloc.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use igern::core::processor::Algorithm;
use igern::core::{DistanceMode, NetworkSpace, ObjectKind, SpatialStore};
use igern::engine::{Placement, TickRunner};
use igern::geom::Point;
use igern::grid::ObjectId;
use igern::mobgen::rng::Rng64;
use igern::mobgen::{build_synthetic_network, SyntheticNetworkConfig};

thread_local! {
    /// Allocations, reallocations and zeroed allocations made by this
    /// thread. Const-initialised and drop-free, so reading it from inside
    /// the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local integer.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const OBJECTS: usize = 2_000;
const MOVERS: usize = 400;
const GRID_N: usize = 64;
const WARMUP_TICKS: usize = 120;
const MEASURED_TICKS: usize = 40;

/// The network queries, each anchored at its own object: mono, bi and
/// kNN, at k = 1 and k = 4.
const QUERIES: [Algorithm; 6] = [
    Algorithm::IgernMono,
    Algorithm::IgernBi,
    Algorithm::Knn(1),
    Algorithm::IgernMonoK(4),
    Algorithm::IgernBiK(4),
    Algorithm::Knn(4),
];

/// Runs the queries over `OBJECTS` objects on the map (even ids kind A),
/// the last `MOVERS` of them sliding along their edges, and returns the
/// allocations of each measured tick.
fn allocations_per_tick() -> Vec<u64> {
    let net = build_synthetic_network(&SyntheticNetworkConfig {
        k: 48,
        seed: 7,
        ..Default::default()
    });
    let ns = Arc::new(NetworkSpace::from_network(&net));
    let space = *net.space();
    let mut rng = Rng64::seed_from_u64(0x0e7_a110c);
    let pts: Vec<Point> = (0..OBJECTS)
        .map(|_| {
            Point::new(
                space.min.x + rng.f64() * (space.max.x - space.min.x),
                space.min.y + rng.f64() * (space.max.y - space.min.y),
            )
        })
        .collect();
    let kinds = (0..OBJECTS)
        .map(|i| {
            if i % 2 == 0 {
                ObjectKind::A
            } else {
                ObjectKind::B
            }
        })
        .collect();
    let mut store = SpatialStore::new(space, GRID_N, kinds);
    store.load(&pts);
    store.set_network(Arc::clone(&ns));

    let mut p = TickRunner::new(store, 1, Placement::RoundRobin);
    p.set_history_capacity(Some(4));
    // Anchors spread over the id range (even ids, so bi queries are kind A).
    for (i, algo) in QUERIES.into_iter().enumerate() {
        let anchor = ObjectId((i * OBJECTS / QUERIES.len()) as u32 & !1);
        p.add_query_in(anchor, algo, DistanceMode::Network).unwrap();
    }
    p.evaluate_all();

    // Each mover's edge, from its snapped start; moves pick interior points
    // of that segment, which snap back onto it. Pre-built, so the counter
    // sees only the runner.
    let first_mover = OBJECTS - MOVERS;
    let segs: Vec<_> = pts[first_mover..]
        .iter()
        .map(|&pt| ns.edge_segment(ns.snap(pt).edge))
        .collect();
    let stream: Vec<Vec<(ObjectId, Point)>> = (0..WARMUP_TICKS + MEASURED_TICKS)
        .map(|_| {
            let mut ups = Vec::new();
            for (m, seg) in segs.iter().enumerate() {
                if rng.gen_bool(0.6) {
                    let t = 0.05 + 0.9 * rng.f64();
                    let to = Point::new(
                        seg.a.x + t * (seg.b.x - seg.a.x),
                        seg.a.y + t * (seg.b.y - seg.a.y),
                    );
                    ups.push((ObjectId((first_mover + m) as u32), to));
                }
            }
            ups
        })
        .collect();

    for ups in &stream[..WARMUP_TICKS] {
        p.step(ups);
    }
    let mut per_tick = Vec::with_capacity(MEASURED_TICKS);
    for ups in &stream[WARMUP_TICKS..] {
        let before = ALLOCS.with(Cell::get);
        p.step(ups);
        per_tick.push(ALLOCS.with(Cell::get) - before);
    }
    for q in 0..QUERIES.len() {
        let last = p.history(q).latest().expect("query evaluated");
        assert!(!last.skipped, "network query {q} skipped a moving tick");
    }
    per_tick
}

#[test]
fn steady_state_network_ticks_do_not_allocate() {
    let per_tick = allocations_per_tick();
    assert!(
        per_tick.iter().all(|&n| n == 0),
        "steady-state network ticks must not touch the allocator; \
         allocations per measured tick: {per_tick:?}"
    );
}
