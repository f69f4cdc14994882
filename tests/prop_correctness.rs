//! Randomized property tests: the Theorems of Section 5, checked on
//! generated workloads against the brute-force oracles, plus the
//! geometric invariants every algorithm leans on. Each property runs
//! over many seeded random cases via the in-repo [`common::Lcg`].

mod common;

use common::Lcg;
use igern::core::baselines::{tpl_snapshot, voronoi_snapshot, Crnn};
use igern::core::naive;
use igern::core::prune::PruneGranularity;
use igern::core::{BiIgern, EvalScratch, MonoIgern};
use igern::geom::{Aabb, Circle, ConvexPolygon, HalfPlane, Point, VoronoiCell};
use igern::grid::{nearest, Grid, ObjectId, OpCounters};
use igern_bench::rtree::{tpl_snapshot_rtree, RTree};

const SPACE: f64 = 100.0;
const CASES: usize = 64;
const EXACT: PruneGranularity = PruneGranularity::Exact;

fn space() -> Aabb {
    Aabb::from_coords(0.0, 0.0, SPACE, SPACE)
}

/// A population of 1..=60 points.
fn population(rng: &mut Lcg) -> Vec<Point> {
    let n = 1 + rng.usize(60);
    rng.points(n, SPACE)
}

fn grid_of(points: &[Point], n: usize) -> Grid {
    let mut g = Grid::new(space(), n);
    for (i, &p) in points.iter().enumerate() {
        g.insert(ObjectId(i as u32), p);
    }
    g
}

/// Theorems 1–2: the monochromatic initial step is accurate and
/// complete, at both pruning granularities and orders 1–3.
#[test]
fn mono_initial_matches_oracle() {
    let mut rng = Lcg::new(0xc0de_0001);
    for case in 0..CASES {
        let points = population(&mut rng);
        let q = rng.point(SPACE);
        let grid_n = 2 + rng.usize(22);
        let g = grid_of(&points, grid_n);
        let objs: Vec<(ObjectId, Point)> = g.iter().collect();
        let mut ops = OpCounters::new();
        let mut scratch = EvalScratch::default();
        for k in 1..=3 {
            let want = naive::mono_rknn(&objs, q, None, k);
            for gran in [PruneGranularity::Exact, PruneGranularity::Cell] {
                let m = MonoIgern::initial(&g, q, None, k, gran, &mut ops, &mut scratch);
                assert_eq!(m.rnn(), want.as_slice(), "case {case} k {k} ({gran:?})");
            }
        }
    }
}

/// Theorems 1–2 under movement: the incremental step stays exact
/// across a random sequence of object and query jumps.
#[test]
fn mono_incremental_matches_oracle() {
    let mut rng = Lcg::new(0xc0de_0002);
    for case in 0..CASES {
        let points = population(&mut rng);
        let q0 = rng.point(SPACE);
        let moves: Vec<(usize, Point)> = (0..rng.usize(41))
            .map(|_| (rng.usize(60), rng.point(SPACE)))
            .collect();
        let n_q_moves = rng.usize(9);
        let q_moves = rng.points(n_q_moves, SPACE);
        let mut g = grid_of(&points, 8);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut m = MonoIgern::initial(&g, q0, None, 1, EXACT, &mut ops, &mut scratch);
        let mut q = q0;
        let mut q_iter = q_moves.into_iter();
        for (chunk, (idx, to)) in moves.into_iter().enumerate() {
            let id = ObjectId((idx % points.len()) as u32);
            g.update(id, to);
            if chunk % 5 == 4 {
                if let Some(nq) = q_iter.next() {
                    q = nq;
                }
            }
            m.incremental(&g, q, &mut ops, &mut scratch);
            let objs: Vec<(ObjectId, Point)> = g.iter().collect();
            let want = naive::mono_rnn(&objs, q, None);
            assert_eq!(m.rnn(), want.as_slice(), "case {case}");
            assert!(m.rnn().len() <= 6, "case {case}");
        }
    }
}

/// CRNN and TPL agree with the oracle on arbitrary snapshots.
#[test]
fn crnn_and_tpl_match_oracle() {
    let mut rng = Lcg::new(0xc0de_0003);
    for case in 0..CASES {
        let points = population(&mut rng);
        let q = rng.point(SPACE);
        let g = grid_of(&points, 8);
        let objs: Vec<(ObjectId, Point)> = g.iter().collect();
        let want = naive::mono_rnn(&objs, q, None);
        let mut ops = OpCounters::new();
        let c = Crnn::initial(&g, q, None, &mut ops);
        assert_eq!(c.rnn(), want.as_slice(), "case {case}");
        let t = tpl_snapshot(&g, q, None, &mut ops);
        assert_eq!(t.rnn, want, "case {case}");
    }
}

/// Theorems 3–4: the bichromatic initial step is accurate and
/// complete — at both pruning granularities and orders 1–3 — and agrees
/// with the Voronoi rebuild.
#[test]
fn bi_initial_matches_oracle() {
    let mut rng = Lcg::new(0xc0de_0004);
    for case in 0..CASES {
        let n_a_pts = rng.usize(30);
        let a_pts = rng.points(n_a_pts, SPACE);
        let n_b_pts = rng.usize(40);
        let b_pts = rng.points(n_b_pts, SPACE);
        let q = rng.point(SPACE);
        let ga = grid_of(&a_pts, 8);
        let mut gb = Grid::new(space(), 8);
        for (i, &p) in b_pts.iter().enumerate() {
            gb.insert(ObjectId(1000 + i as u32), p);
        }
        let a: Vec<(ObjectId, Point)> = ga.iter().collect();
        let b: Vec<(ObjectId, Point)> = gb.iter().collect();
        let want = naive::bi_rnn(&a, &b, q, None);
        let mut ops = OpCounters::new();
        let mut scratch = EvalScratch::default();
        for k in 1..=3 {
            let want = naive::bi_rknn(&a, &b, q, None, k);
            for gran in [PruneGranularity::Exact, PruneGranularity::Cell] {
                let m = BiIgern::initial(&ga, &gb, q, None, k, gran, &mut ops, &mut scratch);
                assert_eq!(m.rnn(), want.as_slice(), "case {case} k {k} ({gran:?})");
            }
        }
        let v = voronoi_snapshot(&ga, &gb, q, None, &mut ops);
        assert_eq!(v.rnn, want, "case {case}");
    }
}

/// The bichromatic incremental step stays exact under movement.
#[test]
fn bi_incremental_matches_oracle() {
    let mut rng = Lcg::new(0xc0de_0005);
    for case in 0..CASES {
        let n_a_pts = 1 + rng.usize(19);
        let a_pts = rng.points(n_a_pts, SPACE);
        let n_b_pts = 1 + rng.usize(29);
        let b_pts = rng.points(n_b_pts, SPACE);
        let q = rng.point(SPACE);
        let moves: Vec<(bool, usize, Point)> = (0..rng.usize(31))
            .map(|_| (rng.bool(0.5), rng.usize(30), rng.point(SPACE)))
            .collect();
        let mut ga = grid_of(&a_pts, 8);
        let mut gb = Grid::new(space(), 8);
        for (i, &p) in b_pts.iter().enumerate() {
            gb.insert(ObjectId(1000 + i as u32), p);
        }
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let mut m = BiIgern::initial(&ga, &gb, q, None, 1, EXACT, &mut ops, &mut scratch);
        for (is_a, idx, to) in moves {
            if is_a {
                ga.update(ObjectId((idx % a_pts.len()) as u32), to);
            } else {
                gb.update(ObjectId(1000 + (idx % b_pts.len()) as u32), to);
            }
            m.incremental(&ga, &gb, q, &mut ops, &mut scratch);
            let a: Vec<(ObjectId, Point)> = ga.iter().collect();
            let b: Vec<(ObjectId, Point)> = gb.iter().collect();
            let want = naive::bi_rnn(&a, &b, q, None);
            assert_eq!(m.rnn(), want.as_slice(), "case {case}");
        }
    }
}

/// The RkNN monitors agree with the k-oracles on snapshots and under
/// movement, for several k.
#[test]
fn krnn_matches_oracle() {
    let mut rng = Lcg::new(0xc0de_0006);
    for case in 0..CASES {
        let points = population(&mut rng);
        let q = rng.point(SPACE);
        let k = 1 + rng.usize(5);
        let moves: Vec<(usize, Point)> = (0..rng.usize(16))
            .map(|_| (rng.usize(60), rng.point(SPACE)))
            .collect();
        let mut g = grid_of(&points, 8);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let objs: Vec<(ObjectId, Point)> = g.iter().collect();
        let want = naive::mono_rknn(&objs, q, None, k);
        let mut m = MonoIgern::initial(&g, q, None, k, EXACT, &mut ops, &mut scratch);
        assert_eq!(m.rnn(), want.as_slice(), "case {case}");
        assert!(m.num_monitored() <= 6 * k, "case {case}");
        for (idx, to) in moves {
            g.update(ObjectId((idx % points.len()) as u32), to);
            m.incremental(&g, q, &mut ops, &mut scratch);
            let objs: Vec<(ObjectId, Point)> = g.iter().collect();
            let want = naive::mono_rknn(&objs, q, None, k);
            assert_eq!(m.rnn(), want.as_slice(), "case {case}");
        }
    }
}

/// Bichromatic RkNN agrees with the k-oracle.
#[test]
fn bi_krnn_matches_oracle() {
    let mut rng = Lcg::new(0xc0de_0007);
    for case in 0..CASES {
        let n_a_pts = rng.usize(20);
        let a_pts = rng.points(n_a_pts, SPACE);
        let n_b_pts = rng.usize(30);
        let b_pts = rng.points(n_b_pts, SPACE);
        let q = rng.point(SPACE);
        let k = 1 + rng.usize(4);
        let ga = grid_of(&a_pts, 8);
        let mut gb = Grid::new(space(), 8);
        for (i, &p) in b_pts.iter().enumerate() {
            gb.insert(ObjectId(1000 + i as u32), p);
        }
        let a: Vec<(ObjectId, Point)> = ga.iter().collect();
        let b: Vec<(ObjectId, Point)> = gb.iter().collect();
        let want = naive::bi_rknn(&a, &b, q, None, k);
        let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
        let m = BiIgern::initial(&ga, &gb, q, None, k, EXACT, &mut ops, &mut scratch);
        assert_eq!(m.rnn(), want.as_slice(), "case {case}");
    }
}

/// The R-tree substrate agrees with the grid on NN, and native TPL
/// over it matches the oracle.
#[test]
fn rtree_agrees_with_grid_and_oracle() {
    let mut rng = Lcg::new(0xc0de_0008);
    for case in 0..CASES {
        let points = population(&mut rng);
        let q = rng.point(SPACE);
        let g = grid_of(&points, 8);
        let mut t = RTree::new();
        for (i, &p) in points.iter().enumerate() {
            t.insert(ObjectId(i as u32), p).unwrap();
        }
        t.check_invariants();
        let mut ops = OpCounters::new();
        let via_grid = nearest(&g, q, None, &mut ops).map(|n| n.dist_sq);
        let via_tree = igern_bench::rtree::nearest(&t, q, None, &mut ops).map(|n| n.dist_sq);
        assert_eq!(via_grid, via_tree, "case {case}");
        let objs: Vec<(ObjectId, Point)> = g.iter().collect();
        let want = naive::mono_rnn(&objs, q, None);
        let got = tpl_snapshot_rtree(&t, q, None, &mut ops);
        assert_eq!(got.rnn, want, "case {case}");
    }
}

/// Grid NN equals the linear scan on arbitrary data.
#[test]
fn grid_nn_matches_linear_scan() {
    let mut rng = Lcg::new(0xc0de_0009);
    for case in 0..CASES {
        let points = population(&mut rng);
        let q = rng.point(SPACE);
        let grid_n = 1 + rng.usize(31);
        let g = grid_of(&points, grid_n);
        let mut ops = OpCounters::new();
        let got = nearest(&g, q, None, &mut ops).map(|n| n.dist_sq);
        let want = points
            .iter()
            .map(|p| q.dist_sq(*p))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(got, Some(want), "case {case}");
    }
}

/// Bisector membership is exactly the distance predicate.
#[test]
fn bisector_is_the_distance_predicate() {
    let mut rng = Lcg::new(0xc0de_000a);
    for case in 0..CASES {
        let a = rng.point(SPACE);
        let b = rng.point(SPACE);
        let p = rng.point(SPACE);
        if a.dist_sq(b) <= 1e-9 {
            continue;
        }
        let h = HalfPlane::bisector(a, b).unwrap();
        let closer_to_a = p.dist_sq(a) < p.dist_sq(b);
        let farther_from_a = p.dist_sq(a) > p.dist_sq(b);
        // Within tolerance of the boundary either answer is acceptable.
        if (p.dist_sq(a) - p.dist_sq(b)).abs() > 1e-6 {
            if closer_to_a {
                assert!(h.contains(p), "case {case}");
            }
            if farther_from_a {
                assert!(!h.contains(p), "case {case}");
            }
        }
    }
}

/// Convex clipping never grows area and keeps contained points.
#[test]
fn clipping_shrinks_and_preserves_membership() {
    let mut rng = Lcg::new(0xc0de_000b);
    for case in 0..CASES {
        let n_sites = rng.usize(10);
        let sites = rng.points(n_sites, SPACE);
        let q = rng.point(SPACE);
        let probe = rng.point(SPACE);
        let mut poly = ConvexPolygon::from_aabb(&space());
        let mut prev_area = poly.area();
        for s in &sites {
            if let Some(h) = HalfPlane::bisector(q, *s) {
                poly.clip(&h);
                let area = poly.area();
                assert!(
                    area <= prev_area + 1e-6,
                    "case {case}: clip grew the polygon"
                );
                prev_area = area;
            }
        }
        // Membership: probe is in the clipped polygon iff it is on q's
        // side of every bisector (modulo boundary tolerance).
        let strictly_inside = sites
            .iter()
            .all(|s| probe.dist_sq(q) + 1e-6 < probe.dist_sq(*s));
        let strictly_outside = sites
            .iter()
            .any(|s| probe.dist_sq(*s) + 1e-6 < probe.dist_sq(q));
        if strictly_inside {
            assert!(poly.contains(probe), "case {case}");
        }
        if strictly_outside && !poly.is_empty() {
            assert!(!poly.contains(probe), "case {case}");
        }
    }
}

/// The incremental Voronoi cell agrees with the nearest-site predicate.
#[test]
fn voronoi_cell_membership() {
    let mut rng = Lcg::new(0xc0de_000c);
    for case in 0..CASES {
        let n_sites = 1 + rng.usize(14);
        let sites = rng.points(n_sites, SPACE);
        let center = rng.point(SPACE);
        let probe = rng.point(SPACE);
        let mut cell = VoronoiCell::new(center, &space());
        for s in &sites {
            cell.add_site(*s);
        }
        let d_c = probe.dist_sq(center);
        let d_best = sites
            .iter()
            .map(|s| probe.dist_sq(*s))
            .fold(f64::INFINITY, f64::min);
        if (d_c - d_best).abs() > 1e-6 {
            assert_eq!(cell.contains(probe), d_c < d_best, "case {case}");
        }
    }
}

/// Circle/AABB relations are consistent with dense point sampling.
#[test]
fn circle_aabb_relation_consistent() {
    let mut rng = Lcg::new(0xc0de_000d);
    for case in 0..CASES {
        let c = rng.point(SPACE);
        let r = rng.range_f64(0.1, 30.0);
        let bx = rng.point(SPACE);
        let w = rng.range_f64(0.1, 20.0);
        let h = rng.range_f64(0.1, 20.0);
        let circle = Circle::new(c, r);
        let bb = Aabb::from_coords(bx.x, bx.y, bx.x + w, bx.y + h);
        // Sample the box; any sampled point inside the circle implies
        // intersection must be reported.
        let mut any_in = false;
        for i in 0..=4 {
            for j in 0..=4 {
                let p = Point::new(bb.min.x + w * i as f64 / 4.0, bb.min.y + h * j as f64 / 4.0);
                if circle.contains(p) {
                    any_in = true;
                }
            }
        }
        if any_in {
            assert!(circle.intersects_aabb(&bb), "case {case}");
        }
        if circle.contains_aabb(&bb) {
            assert!(circle.intersects_aabb(&bb), "case {case}");
            assert!(circle.contains(bb.corners()[0]), "case {case}");
        }
    }
}
