//! Randomized property tests over the supporting data structures: the
//! R-tree under churn, the cell bitset, order-k cleaning, and trace
//! round-trips. Each property is checked over many seeded random cases
//! (the in-repo [`common::Lcg`] replaces the former proptest dependency).

mod common;

use common::Lcg;
use igern::core::prune::{clean_dominated_k, recompute_alive_k};
use igern::geom::{Aabb, Point};
use igern::grid::{CellSet, Grid, ObjectId, OpCounters};
use igern::mobgen::RecordedTrace;
use igern_bench::rtree::RTree;

const SPACE: f64 = 100.0;

/// A churn script: insert / remove / move operations.
#[derive(Debug, Clone)]
enum Op {
    Insert(Point),
    Remove(usize),
    Move(usize, Point),
}

fn random_script(rng: &mut Lcg) -> Vec<Op> {
    let len = 1 + rng.usize(119);
    (0..len)
        .map(|_| match rng.usize(3) {
            0 => Op::Insert(rng.point(SPACE)),
            1 => Op::Remove(rng.usize(usize::MAX - 1)),
            _ => Op::Move(rng.usize(usize::MAX - 1), rng.point(SPACE)),
        })
        .collect()
}

/// The R-tree stays structurally valid and query-equivalent to a mirror
/// map under arbitrary churn.
#[test]
fn rtree_churn_preserves_invariants() {
    let mut rng = Lcg::new(0x5eed_0001);
    for case in 0..48 {
        let script = random_script(&mut rng);
        let probe = rng.point(SPACE);
        let mut tree = RTree::new();
        let mut mirror: Vec<Option<Point>> = Vec::new();
        for op in script {
            match op {
                Op::Insert(p) => {
                    mirror.push(Some(p));
                    tree.insert(ObjectId(mirror.len() as u32 - 1), p).unwrap();
                }
                Op::Remove(i) => {
                    let live: Vec<usize> = mirror
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.is_some())
                        .map(|(i, _)| i)
                        .collect();
                    if !live.is_empty() {
                        let victim = live[i % live.len()];
                        mirror[victim] = None;
                        assert!(tree.remove(ObjectId(victim as u32)).is_some());
                    }
                }
                Op::Move(i, p) => {
                    let live: Vec<usize> = mirror
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.is_some())
                        .map(|(i, _)| i)
                        .collect();
                    if !live.is_empty() {
                        let target = live[i % live.len()];
                        mirror[target] = Some(p);
                        tree.update(ObjectId(target as u32), p).unwrap();
                    }
                }
            }
        }
        tree.check_invariants();
        let live_count = mirror.iter().flatten().count();
        assert_eq!(tree.len(), live_count, "case {case}");
        // NN equivalence with the mirror.
        let mut ops_ctr = OpCounters::new();
        let got = igern_bench::rtree::nearest(&tree, probe, None, &mut ops_ctr).map(|n| n.dist_sq);
        let want = mirror
            .iter()
            .flatten()
            .map(|p| probe.dist_sq(*p))
            .fold(f64::INFINITY, f64::min);
        if live_count == 0 {
            assert!(got.is_none(), "case {case}");
        } else {
            assert_eq!(got, Some(want), "case {case}");
        }
    }
}

/// CellSet behaves like a reference BTreeSet under arbitrary flips.
#[test]
fn cellset_matches_reference() {
    let mut rng = Lcg::new(0x5eed_0002);
    for case in 0..48 {
        let cap = 1 + rng.usize(299);
        let mut set = CellSet::new(cap);
        let mut reference = std::collections::BTreeSet::new();
        for _ in 0..rng.usize(200) {
            let i = rng.usize(cap);
            if rng.bool(0.5) {
                assert_eq!(set.insert(i), reference.insert(i), "case {case}");
            } else {
                assert_eq!(set.remove(i), reference.remove(&i), "case {case}");
            }
        }
        assert_eq!(set.count(), reference.len(), "case {case}");
        let got: Vec<usize> = set.iter().collect();
        let want: Vec<usize> = reference.into_iter().collect();
        assert_eq!(got, want, "case {case}");
    }
}

/// Order-k cleaning: every kept item has fewer than k kept dominators;
/// every dropped item had at least k kept dominators; k ≥ len keeps
/// everything.
#[test]
fn clean_dominated_k_postconditions() {
    let mut rng = Lcg::new(0x5eed_0003);
    for case in 0..48 {
        let n_items = rng.usize(25);
        let items = rng.points(n_items, SPACE);
        let q = rng.point(SPACE);
        let k = 1 + rng.usize(4);
        let mut tagged: Vec<(Point, usize)> = items.iter().copied().zip(0..).collect();
        clean_dominated_k(&mut tagged, q, k);
        let kept: Vec<Point> = tagged.iter().map(|&(p, _)| p).collect();
        // Post-condition on the kept set: fewer than k *nearer* kept
        // dominators (the sequential rule's guarantee — farther kept items
        // may still dominate a kept one when k ≥ 2, and that is fine: the
        // nearer item's bisector is the one bounding the region).
        for &p in &kept {
            let d_q = p.dist_sq(q);
            let nearer_dominators = kept
                .iter()
                .filter(|&&other| other != p && other.dist_sq(q) <= d_q && p.dist_sq(other) < d_q)
                .count();
            assert!(
                nearer_dominators < k,
                "case {case}: kept item with {nearer_dominators} nearer kept dominators"
            );
        }
        // Dropped items must be k-dominated by the kept set.
        let kept_tags: Vec<usize> = tagged.iter().map(|&(_, t)| t).collect();
        for (i, &p) in items.iter().enumerate() {
            if kept_tags.contains(&i) {
                continue;
            }
            let dominators = kept
                .iter()
                .filter(|&&other| p.dist_sq(other) < p.dist_sq(q))
                .count();
            assert!(
                dominators >= k,
                "case {case}: dropped item with only {dominators} dominators"
            );
        }
        // Large k keeps everything.
        let mut all: Vec<(Point, usize)> = items.iter().copied().zip(0..).collect();
        clean_dominated_k(&mut all, q, items.len() + 1);
        assert_eq!(all.len(), items.len(), "case {case}");
    }
}

/// The order-k alive region covers every point with fewer than k closer
/// sites.
#[test]
fn order_k_region_is_complete() {
    let mut rng = Lcg::new(0x5eed_0004);
    for case in 0..48 {
        let n_sites = rng.usize(10);
        let sites = rng.points(n_sites, SPACE);
        let q = rng.point(SPACE);
        let k = 1 + rng.usize(3);
        let probes = rng.points(20, SPACE);
        let grid = Grid::new(Aabb::from_coords(0.0, 0.0, SPACE, SPACE), 12);
        let alive = recompute_alive_k(&grid, q, &sites, k);
        for p in probes {
            let d_q = p.dist_sq(q);
            let closer = sites.iter().filter(|s| p.dist_sq(**s) < d_q).count();
            if closer < k {
                assert!(
                    alive.contains(grid.cell_of_point(p)),
                    "case {case}: under-k probe {p} landed in a dead cell"
                );
            }
        }
    }
}

/// Trace save/load round-trips arbitrary update streams exactly.
#[test]
fn trace_roundtrip() {
    let mut rng = Lcg::new(0x5eed_0005);
    for case in 0..48 {
        let n_initial = 1 + rng.usize(19);
        let initial = rng.points(n_initial, SPACE);
        let n = initial.len() as u32;
        let ticks: Vec<Vec<igern::mobgen::Update>> = (0..rng.usize(6))
            .map(|_| {
                (0..rng.usize(10))
                    .map(|_| igern::mobgen::Update {
                        id: rng.usize(n as usize) as u32,
                        pos: rng.point(SPACE),
                    })
                    .collect()
            })
            .collect();
        let trace =
            RecordedTrace::from_parts(Aabb::from_coords(0.0, 0.0, SPACE, SPACE), initial, ticks);
        let mut buf = Vec::new();
        trace.save(&mut buf).unwrap();
        let loaded = RecordedTrace::load(std::io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(loaded, trace, "case {case}");
    }
}
