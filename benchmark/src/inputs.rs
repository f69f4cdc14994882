//! Seeded inputs of the three offline workloads. The program under test
//! receives only what this file generates; the same seed gives the same
//! inputs. (`serve` generates its rounds in `serve.rs`, from the same
//! [`Rng`].)

use igern_mobgen::{
    build_synthetic_network, Movement, ObjKind, RoadNetwork, SyntheticNetworkConfig, Workload,
    WorkloadConfig,
};

use crate::stats::Rng;
use crate::sut::{Aabb, Algorithm, DistanceMode, ObjectId, ObjectKind, Point};

/// Ticks the Brinkhoff mover is advanced before the initial load: it is
/// not stationary from tick 0. IgernMono cost climbs ~2.5× over the first
/// ~60 ticks as objects leave their uniform start; after 120 ticks
/// `city`'s second half still did 3–8 % more work than its first, after
/// 300 it does within 1 %.
pub const MOVER_WARMUP_TICKS: usize = 300;

pub const SIDE: f64 = 1000.0;
pub const GRID: usize = 64;

pub fn space() -> Aabb {
    Aabb::from_coords(0.0, 0.0, SIDE, SIDE)
}

/// One standing query: anchor object, algorithm, distance mode.
pub type QuerySpec = (ObjectId, Algorithm, DistanceMode);

/// What an offline workload loads before the first tick.
pub struct World {
    pub kinds: Vec<ObjectKind>,
    /// Positions at load time, indexed by object id.
    pub positions: Vec<Point>,
    pub queries: Vec<QuerySpec>,
    /// The road map network-mode queries route over (`roadnet` only).
    pub road: Option<RoadNetwork>,
}

/// The per-tick update generator.
pub enum Source {
    Mover(Box<Workload>),
    Corner {
        rng: Rng,
        first_mover: u32,
        movers: u32,
    },
}

impl Source {
    /// Generate the next tick's updates into `out` (cleared first).
    pub fn next_tick(&mut self, out: &mut Vec<(ObjectId, Point)>) {
        out.clear();
        match self {
            Source::Mover(w) => {
                out.extend(w.advance().iter().map(|u| (ObjectId(u.id), u.pos)));
            }
            Source::Corner {
                rng,
                first_mover,
                movers,
            } => {
                for m in 0..*movers {
                    if rng.f64() < CORNER_MOVE_SHARE {
                        out.push((ObjectId(*first_mover + m), corner_point(rng)));
                    }
                }
            }
        }
    }
}

fn kinds_of(w: &Workload) -> Vec<ObjectKind> {
    w.kinds()
        .iter()
        .map(|k| match k {
            ObjKind::A => ObjectKind::A,
            ObjKind::B => ObjectKind::B,
        })
        .collect()
}

fn from_mover(cfg: &WorkloadConfig) -> (Workload, Vec<ObjectKind>, Vec<Point>) {
    let mut w = Workload::from_config(cfg);
    for _ in 0..MOVER_WARMUP_TICKS {
        w.advance();
    }
    let positions = (0..w.len() as u32).map(|i| w.mover().position(i)).collect();
    let kinds = kinds_of(&w);
    (w, kinds, positions)
}

/// `city`: the paper's setup. `div` divides the populations (`--quick`).
///
/// Queries sit on kind-A objects spread evenly over the id range; the
/// algorithm mix repeats every 112 anchors (50 IgernMono, 50 IgernBi,
/// 10 Knn(8), 1 IgernMonoK(4), 1 IgernBiK(4)), which at 1,344 anchors
/// is the 600/600/120/12/12 split.
pub fn city(seed: u64, div: usize) -> (World, Source) {
    let cfg = WorkloadConfig::network_bi(100_000 / div, seed);
    let (w, kinds, positions) = from_mover(&cfg);
    let anchors = w.pick_queries(ObjKind::A, 1_344 / div);
    let queries = anchors
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let algo = match i % 112 {
                0..=49 => Algorithm::IgernMono,
                50..=99 => Algorithm::IgernBi,
                100..=109 => Algorithm::Knn(8),
                110 => Algorithm::IgernMonoK(4),
                _ => Algorithm::IgernBiK(4),
            };
            (ObjectId(id), algo, DistanceMode::Euclidean)
        })
        .collect();
    let world = World {
        kinds,
        positions,
        queries,
        road: None,
    };
    (world, Source::Mover(Box::new(w)))
}

/// `roadnet`: 5k objects on a 48×48-intersection map, 24 network-mode
/// queries (10 IgernMono, 10 IgernBi, 4 Knn(4), interleaved).
pub fn roadnet(seed: u64, div: usize) -> (World, Source) {
    let net_cfg = SyntheticNetworkConfig {
        k: if div == 1 { 48 } else { 16 },
        seed,
        ..Default::default()
    };
    let cfg = WorkloadConfig {
        movement: Movement::Network(net_cfg.clone()),
        ..WorkloadConfig::network_bi(5_000 / div, seed)
    };
    let (w, kinds, positions) = from_mover(&cfg);
    let anchors = w.pick_queries(ObjKind::A, if div == 1 { 24 } else { 12 });
    let queries = anchors
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let algo = match i % 12 {
                0..=4 => Algorithm::IgernMono,
                5..=9 => Algorithm::IgernBi,
                _ => Algorithm::Knn(4),
            };
            (ObjectId(id), algo, DistanceMode::Network)
        })
        .collect();
    let world = World {
        kinds,
        positions,
        queries,
        // The mover owns its copy; the builder is deterministic, so this
        // is the same map.
        road: Some(build_synthetic_network(&net_cfg)),
    };
    (world, Source::Mover(Box::new(w)))
}

const CORNER: f64 = 100.0;
const CORNER_MOVE_SHARE: f64 = 0.6;
/// Corner anchors take every 49th id, so a corner cell's bucket holds ids
/// scattered over the whole position table (a cache miss per object for
/// per-query evaluation, one gather per group for the shared scan).
const CORNER_STRIDE: usize = 49;

fn corner_point(rng: &mut Rng) -> Point {
    Point::new(rng.f64() * CORNER, rng.f64() * CORNER)
}

/// `hotspot`: 100k kind-A objects; 8,100 quiet lattice anchors outside
/// the 100×100 corner, 2,000 anchors and 1,000 movers inside it.
pub fn hotspot(seed: u64, div: usize) -> (World, Source) {
    let n = 100_000 / div;
    let movers = 1_000 / div;
    let corner_anchors = 2_000 / div;
    let lattice_side = if div == 1 { 90 } else { 28 };
    let statics = n - movers;
    assert!(corner_anchors * CORNER_STRIDE <= statics);

    let mut rng = Rng::new(seed ^ 0x0407_5907);
    let mut positions: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.f64() * SIDE, rng.f64() * SIDE))
        .collect();
    let mut queries: Vec<QuerySpec> = Vec::new();
    let mono = |id: usize| {
        (
            ObjectId(id as u32),
            Algorithm::IgernMono,
            DistanceMode::Euclidean,
        )
    };

    for i in 0..corner_anchors {
        positions[i * CORNER_STRIDE] = corner_point(&mut rng);
        queries.push(mono(i * CORNER_STRIDE));
    }
    // The lattice covers [100, 1000]² — everything but the two strips
    // that share a row or column with the corner.
    let step = (SIDE - CORNER) / lattice_side as f64;
    let mut lattice = (0..lattice_side * lattice_side).map(|i| {
        let (ix, iy) = (i % lattice_side, i / lattice_side);
        Point::new(
            CORNER + (ix as f64 + 0.5) * step,
            CORNER + (iy as f64 + 0.5) * step,
        )
    });
    for id in (0..statics).filter(|id| id % CORNER_STRIDE != 0) {
        match lattice.next() {
            Some(p) => {
                positions[id] = p;
                queries.push(mono(id));
            }
            None => break,
        }
    }
    for p in &mut positions[statics..] {
        *p = corner_point(&mut rng);
    }
    let world = World {
        kinds: vec![ObjectKind::A; n],
        positions,
        queries,
        road: None,
    };
    let source = Source::Corner {
        rng,
        first_mover: statics as u32,
        movers: movers as u32,
    };
    (world, source)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for make in [city, hotspot, roadnet] {
            let ((wa, mut a), (wb, mut b)) = (make(3, 10), make(3, 10));
            assert_eq!(wa.positions, wb.positions);
            assert_eq!(wa.queries, wb.queries);
            let (mut ua, mut ub) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                a.next_tick(&mut ua);
                b.next_tick(&mut ub);
                assert_eq!(ua, ub);
                assert!(!ua.is_empty());
            }
        }
    }

    #[test]
    fn hotspot_has_the_documented_split() {
        let (h, _) = hotspot(7, 1);
        assert_eq!(h.positions.len(), 100_000);
        assert_eq!(h.queries.len(), 10_100);
        let in_corner = |p: Point| p.x < CORNER && p.y < CORNER;
        let corner_queries = h
            .queries
            .iter()
            .filter(|q| in_corner(h.positions[q.0.index()]))
            .count();
        assert_eq!(corner_queries, 2_000);
    }

    #[test]
    fn city_has_the_documented_mix() {
        let (c, _) = city(7, 1);
        let count = |a: Algorithm| c.queries.iter().filter(|q| q.1 == a).count();
        assert_eq!(count(Algorithm::IgernMono), 600);
        assert_eq!(count(Algorithm::IgernBi), 600);
        assert_eq!(count(Algorithm::Knn(8)), 120);
        assert_eq!(count(Algorithm::IgernMonoK(4)), 12);
        assert_eq!(count(Algorithm::IgernBiK(4)), 12);
    }
}
