//! The steady-state routed tick loop does not touch the allocator.
//!
//! A counting `#[global_allocator]` turns the data-oriented hot path's
//! claim (DESIGN.md §14) into an assertion: after warm-up, a one-worker
//! [`TickRunner::step`] with dirty-region routing on and bounded
//! histories performs zero allocations per tick (spawning a thread would
//! allocate on the caller, so this also holds the one-worker round to
//! running inline). The counter is per thread, so libtest's own threads cannot
//! disturb it; this is the only `#[test]` in the file so nothing else
//! runs on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use igern::core::processor::Algorithm;
use igern::core::types::ObjectKind;
use igern::core::SpatialStore;
use igern::engine::{Placement, TickRunner};
use igern::geom::{Aabb, Point};
use igern::grid::ObjectId;
use igern::mobgen::rng::Rng64;

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

const SIDE: f64 = 400.0;
const CORNER: f64 = 40.0;
const GRID_N: usize = 40;
const LATTICE: usize = 40;
const OBJECTS: usize = 20_000;
const QUERIES: usize = LATTICE * LATTICE;
const MOVERS: usize = 300;
const WARMUP_TICKS: usize = 10;
const MEASURED_TICKS: usize = 20;

/// Whether lattice anchor `i` runs at order 3: the four on the diagonal of
/// the movers' corner, so the order-k redraw's row buffer and the probe
/// frontier at `k > 1` sit under the counting allocator too.
fn is_order_3(i: usize) -> bool {
    let (ix, iy) = (i % LATTICE, i / LATTICE);
    ix == iy && ix < 4
}

/// A 40×40 lattice of `IgernMono` anchors (four corner ones at order 3)
/// over uniform filler, with the movers confined to one corner: most
/// queries skip every tick and the corner ones evaluate. Returns the
/// allocations of each measured tick and how many queries — and how many
/// order-3 ones — evaluated on the last one.
fn allocations_per_tick() -> (Vec<u64>, usize, usize) {
    let mut rng = Rng64::seed_from_u64(0x1a26_e5ee);
    let mut pts: Vec<Point> = Vec::with_capacity(OBJECTS);
    let spacing = SIDE / LATTICE as f64;
    for iy in 0..LATTICE {
        for ix in 0..LATTICE {
            pts.push(Point::new(
                (ix as f64 + 0.5) * spacing,
                (iy as f64 + 0.5) * spacing,
            ));
        }
    }
    for _ in 0..OBJECTS - QUERIES - MOVERS {
        pts.push(Point::new(rng.f64() * SIDE, rng.f64() * SIDE));
    }
    for _ in 0..MOVERS {
        pts.push(Point::new(rng.f64() * CORNER, rng.f64() * CORNER));
    }
    let mut store = SpatialStore::new(
        Aabb::from_coords(0.0, 0.0, SIDE, SIDE),
        GRID_N,
        vec![ObjectKind::A; pts.len()],
    );
    store.load(&pts);

    let mut p = TickRunner::new(store, 1, Placement::RoundRobin);
    // Bounded histories become rings: pushes stop allocating once full.
    p.set_history_capacity(Some(4));
    for i in 0..QUERIES {
        let algo = if is_order_3(i) {
            Algorithm::IgernMonoK(3)
        } else {
            Algorithm::IgernMono
        };
        p.add_query(ObjectId(i as u32), algo).unwrap();
    }
    p.evaluate_all();

    // The whole stream is pre-built so the counter sees only the
    // runner, never the workload generator.
    let first_mover = (OBJECTS - MOVERS) as u32;
    let stream: Vec<Vec<(ObjectId, Point)>> = (0..WARMUP_TICKS + MEASURED_TICKS)
        .map(|_| {
            let mut ups = Vec::new();
            for m in 0..MOVERS as u32 {
                if rng.gen_bool(0.6) {
                    let to = Point::new(rng.f64() * CORNER, rng.f64() * CORNER);
                    ups.push((ObjectId(first_mover + m), to));
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
    let evaluated = |q: &usize| p.history(*q).latest().is_some_and(|s| !s.skipped);
    (
        per_tick,
        (0..QUERIES).filter(evaluated).count(),
        (0..QUERIES)
            .filter(|&q| is_order_3(q))
            .filter(evaluated)
            .count(),
    )
}

#[test]
fn steady_state_routed_ticks_do_not_allocate() {
    let (per_tick, evaluated, evaluated_k3) = allocations_per_tick();
    assert!(
        evaluated > 0 && evaluated < QUERIES / 10,
        "{evaluated} of {QUERIES} queries evaluated; the corner geometry should \
         evaluate a few and skip the rest"
    );
    assert!(
        evaluated_k3 > 0,
        "no order-3 anchor evaluated on the last tick"
    );
    assert!(
        per_tick.iter().all(|&n| n == 0),
        "steady-state routed ticks must not touch the allocator; \
         allocations per measured tick: {per_tick:?}"
    );
}
