//! Best-first search over the R-tree: NN, k-NN, circular range, and the
//! emptiness test (Hjaltason & Samet's incremental-distance browsing).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use igern_geom::{Circle, Point};
use igern_grid::{Neighbor, ObjectId, OpCounters};

use super::tree::{Node, RTree};

/// Min-heap item: either a subtree (by bbox mindist) or a data entry.
enum HeapItem<'t> {
    Node(f64, &'t Node),
    Entry(f64, ObjectId, Point),
}

impl HeapItem<'_> {
    fn key(&self) -> f64 {
        match self {
            HeapItem::Node(d, _) | HeapItem::Entry(d, _, _) => *d,
        }
    }
}

impl PartialEq for HeapItem<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeapItem<'_> {}
impl Ord for HeapItem<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().total_cmp(&self.key()) // reversed: min-heap
    }
}
impl PartialOrd for HeapItem<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Expand a node into the heap.
fn push_node<'t>(
    heap: &mut BinaryHeap<HeapItem<'t>>,
    node: &'t Node,
    q: Point,
    ops: &mut OpCounters,
) {
    ops.cells_visited += 1; // node visits share the grid's cell counter
    match node {
        Node::Leaf(es) => {
            for e in es {
                ops.objects_visited += 1;
                heap.push(HeapItem::Entry(q.dist_sq(e.pos), e.id, e.pos));
            }
        }
        Node::Internal(cs) => {
            for c in cs {
                heap.push(HeapItem::Node(c.bbox.mindist_sq(q), &c.node));
            }
        }
    }
}

/// Nearest neighbor of `q`, optionally excluding one object.
pub fn nearest(
    tree: &RTree,
    q: Point,
    exclude: Option<ObjectId>,
    ops: &mut OpCounters,
) -> Option<Neighbor> {
    k_nearest(tree, q, 1, exclude, ops).into_iter().next()
}

/// The `k` nearest neighbors of `q`, ascending.
pub fn k_nearest(
    tree: &RTree,
    q: Point,
    k: usize,
    exclude: Option<ObjectId>,
    ops: &mut OpCounters,
) -> Vec<Neighbor> {
    if k == 0 || tree.is_empty() {
        return Vec::new();
    }
    let mut heap = BinaryHeap::new();
    push_node(&mut heap, &tree.root, q, ops);
    let mut out = Vec::with_capacity(k);
    while let Some(item) = heap.pop() {
        match item {
            HeapItem::Node(_, n) => push_node(&mut heap, n, q, ops),
            HeapItem::Entry(d, id, pos) => {
                if Some(id) == exclude {
                    continue;
                }
                out.push(Neighbor {
                    id,
                    pos,
                    dist_sq: d,
                });
                if out.len() == k {
                    break;
                }
            }
        }
    }
    out
}

/// All objects inside the closed disk, in arbitrary order.
pub fn objects_in_circle(
    tree: &RTree,
    circle: &Circle,
    ops: &mut OpCounters,
) -> Vec<(ObjectId, Point)> {
    let r_sq = circle.radius * circle.radius;
    let mut out = Vec::new();
    let mut stack = vec![&tree.root];
    while let Some(node) = stack.pop() {
        ops.cells_visited += 1;
        match node {
            Node::Leaf(es) => {
                for e in es {
                    ops.objects_visited += 1;
                    if circle.center.dist_sq(e.pos) <= r_sq {
                        out.push((e.id, e.pos));
                    }
                }
            }
            Node::Internal(cs) => {
                for c in cs {
                    if c.bbox.mindist_sq(circle.center) <= r_sq {
                        stack.push(&c.node);
                    }
                }
            }
        }
    }
    out
}

/// Whether any object not in `exclude` lies strictly closer than
/// `sqrt(dist_sq)` to `center` (early-exit emptiness test).
pub fn exists_closer_than(
    tree: &RTree,
    center: Point,
    dist_sq: f64,
    exclude: &[ObjectId],
    ops: &mut OpCounters,
) -> bool {
    let mut stack = vec![&tree.root];
    while let Some(node) = stack.pop() {
        ops.cells_visited += 1;
        match node {
            Node::Leaf(es) => {
                for e in es {
                    if exclude.contains(&e.id) {
                        continue;
                    }
                    ops.objects_visited += 1;
                    if center.dist_sq(e.pos) < dist_sq {
                        return true;
                    }
                }
            }
            Node::Internal(cs) => {
                for c in cs {
                    if c.bbox.mindist_sq(center) < dist_sq {
                        stack.push(&c.node);
                    }
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(points: &[(f64, f64)]) -> RTree {
        let mut t = RTree::new();
        for (i, &(x, y)) in points.iter().enumerate() {
            t.insert(ObjectId(i as u32), Point::new(x, y)).unwrap();
        }
        t
    }

    fn scatter(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let x = ((state >> 33) % 1000) as f64;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let y = ((state >> 33) % 1000) as f64;
                (x, y)
            })
            .collect()
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let pts = scatter(400, 9);
        let t = tree_with(&pts);
        let mut ops = OpCounters::new();
        for qi in 0..30 {
            let q = Point::new((qi * 37 % 1000) as f64, (qi * 73 % 1000) as f64);
            let got = nearest(&t, q, None, &mut ops).unwrap();
            let want = pts
                .iter()
                .map(|&(x, y)| q.dist_sq(Point::new(x, y)))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(got.dist_sq, want, "query {q}");
        }
    }

    #[test]
    fn k_nearest_sorted_and_exact() {
        let pts = scatter(300, 4);
        let t = tree_with(&pts);
        let q = Point::new(500.0, 500.0);
        let mut ops = OpCounters::new();
        for k in [1usize, 7, 50, 400] {
            let got = k_nearest(&t, q, k, None, &mut ops);
            assert_eq!(got.len(), k.min(300));
            assert!(got.windows(2).all(|w| w[0].dist_sq <= w[1].dist_sq));
            let mut all: Vec<f64> = pts
                .iter()
                .map(|&(x, y)| q.dist_sq(Point::new(x, y)))
                .collect();
            all.sort_by(f64::total_cmp);
            for (i, n) in got.iter().enumerate() {
                assert_eq!(n.dist_sq, all[i], "k={k} rank {i}");
            }
        }
    }

    #[test]
    fn exclusion_and_empty_tree() {
        let t = tree_with(&[(5.0, 5.0), (6.0, 5.0)]);
        let mut ops = OpCounters::new();
        let n = nearest(&t, Point::new(5.0, 5.0), Some(ObjectId(0)), &mut ops).unwrap();
        assert_eq!(n.id, ObjectId(1));
        let empty = RTree::new();
        assert!(nearest(&empty, Point::new(1.0, 1.0), None, &mut ops).is_none());
        assert!(!exists_closer_than(
            &empty,
            Point::new(1.0, 1.0),
            1e9,
            &[],
            &mut ops
        ));
    }

    #[test]
    fn circle_range_matches_filter() {
        let pts = scatter(300, 77);
        let t = tree_with(&pts);
        let c = Circle::new(Point::new(400.0, 600.0), 150.0);
        let mut ops = OpCounters::new();
        let mut got: Vec<u32> = objects_in_circle(&t, &c, &mut ops)
            .into_iter()
            .map(|(id, _)| id.0)
            .collect();
        got.sort_unstable();
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|&(_, &(x, y))| c.contains(Point::new(x, y)))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn emptiness_test_is_strict() {
        let t = tree_with(&[(5.0, 5.0)]);
        let mut ops = OpCounters::new();
        let c = Point::new(6.0, 5.0);
        assert!(!exists_closer_than(&t, c, 1.0, &[], &mut ops));
        assert!(exists_closer_than(&t, c, 1.0 + 1e-9, &[], &mut ops));
        assert!(!exists_closer_than(&t, c, 1e9, &[ObjectId(0)], &mut ops));
    }

    #[test]
    fn queries_survive_churn() {
        let mut t = RTree::new();
        let pts = scatter(200, 3);
        for (i, &(x, y)) in pts.iter().enumerate() {
            t.insert(ObjectId(i as u32), Point::new(x, y)).unwrap();
        }
        // Move half the points, remove a quarter.
        for i in (0..200u32).step_by(2) {
            let (x, y) = pts[(i as usize + 100) % 200];
            t.update(ObjectId(i), Point::new(x, y)).unwrap();
        }
        for i in (0..200u32).step_by(4) {
            t.remove(ObjectId(i));
        }
        t.check_invariants();
        let q = Point::new(321.0, 654.0);
        let mut ops = OpCounters::new();
        let got = nearest(&t, q, None, &mut ops).unwrap();
        let want = t
            .iter()
            .map(|(_, p)| q.dist_sq(p))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(got.dist_sq, want);
    }
}
