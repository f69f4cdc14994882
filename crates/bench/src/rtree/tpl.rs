//! Native TPL over the R-tree (Tao, Papadias, Lian; VLDB 2004): the
//! filter step repeatedly takes the nearest *unpruned* object, where a
//! whole subtree is pruned as soon as its bounding box lies entirely
//! beyond the perpendicular bisector of any already-found candidate —
//! branch-and-bound exactly as in the original algorithm. The refinement
//! step verifies each candidate with an emptiness test.

use igern_geom::{HalfPlane, Point, RegionSide};
use igern_grid::{ObjectId, OpCounters};

use super::query::exists_closer_than;
use super::tree::{Node, RTree};

/// Result of one snapshot evaluation (mirror of the grid-based
/// `igern_core::baselines::TplAnswer`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtreeTplAnswer {
    /// Verified reverse nearest neighbors, sorted by id.
    pub rnn: Vec<ObjectId>,
    /// Filter-step candidates.
    pub candidates: Vec<ObjectId>,
}

/// One snapshot TPL evaluation on the R-tree.
pub fn tpl_snapshot_rtree(
    tree: &RTree,
    q: Point,
    q_id: Option<ObjectId>,
    ops: &mut OpCounters,
) -> RtreeTplAnswer {
    let mut cand: Vec<(ObjectId, Point)> = Vec::new();
    let mut bisectors: Vec<HalfPlane> = Vec::new();
    loop {
        ops.nn_c += 1;
        let found = nearest_unpruned(tree, q, q_id, &cand, &bisectors, ops);
        let Some((id, pos)) = found else { break };
        if let Some(h) = HalfPlane::bisector(q, pos) {
            bisectors.push(h);
        }
        cand.push((id, pos));
    }
    let mut rnn: Vec<ObjectId> = cand
        .iter()
        .filter(|&&(id, pos)| {
            ops.verifications += 1;
            let exclude = match q_id {
                Some(qid) => vec![id, qid],
                None => vec![id],
            };
            !exists_closer_than(tree, pos, pos.dist_sq(q), &exclude, ops)
        })
        .map(|&(id, _)| id)
        .collect();
    rnn.sort_unstable();
    RtreeTplAnswer {
        rnn,
        candidates: cand.into_iter().map(|(id, _)| id).collect(),
    }
}

/// Best-first search for the nearest object not yet a candidate and not
/// pruned by any bisector; subtrees fully beyond a bisector are skipped
/// without descending.
fn nearest_unpruned(
    tree: &RTree,
    q: Point,
    q_id: Option<ObjectId>,
    cand: &[(ObjectId, Point)],
    bisectors: &[HalfPlane],
    ops: &mut OpCounters,
) -> Option<(ObjectId, Point)> {
    // Depth-first branch-and-bound with a best-so-far pruning radius; the
    // tree is shallow, so this beats heap overhead for the small answer
    // sets TPL produces.
    let mut best: Option<(f64, ObjectId, Point)> = None;
    fn walk(
        node: &Node,
        q: Point,
        q_id: Option<ObjectId>,
        cand: &[(ObjectId, Point)],
        bisectors: &[HalfPlane],
        best: &mut Option<(f64, ObjectId, Point)>,
        ops: &mut OpCounters,
    ) {
        ops.cells_visited += 1;
        match node {
            Node::Leaf(es) => {
                for e in es {
                    if Some(e.id) == q_id || cand.iter().any(|&(c, _)| c == e.id) {
                        continue;
                    }
                    ops.objects_visited += 1;
                    let d = q.dist_sq(e.pos);
                    if best.map(|(bd, _, _)| d >= bd).unwrap_or(false) {
                        continue;
                    }
                    // Object-level bisector pruning.
                    if bisectors.iter().any(|h| !h.contains(e.pos)) {
                        continue;
                    }
                    *best = Some((d, e.id, e.pos));
                }
            }
            Node::Internal(cs) => {
                // Visit children in mindist order for tighter bounds.
                let mut order: Vec<(f64, usize)> = cs
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (c.bbox.mindist_sq(q), i))
                    .collect();
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                for (md, i) in order {
                    if best.map(|(bd, _, _)| md >= bd).unwrap_or(false) {
                        break;
                    }
                    let c = &cs[i];
                    // Subtree-level bisector pruning: fully beyond any
                    // candidate bisector ⇒ nothing inside can be an RNN
                    // or a further candidate.
                    if bisectors
                        .iter()
                        .any(|h| h.classify(&c.bbox) == RegionSide::Outside)
                    {
                        continue;
                    }
                    walk(&c.node, q, q_id, cand, bisectors, best, ops);
                }
            }
        }
    }
    walk(&tree.root, q, q_id, cand, bisectors, &mut best, ops);
    best.map(|(_, id, pos)| (id, pos))
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

    /// O(n²) oracle (duplicated from igern-core to avoid a dependency
    /// cycle; the formulas are three lines).
    fn oracle(points: &[(f64, f64)], q: Point, q_id: Option<ObjectId>) -> Vec<ObjectId> {
        let objs: Vec<(ObjectId, Point)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (ObjectId(i as u32), Point::new(x, y)))
            .collect();
        let mut out = Vec::new();
        for &(id, pos) in &objs {
            if Some(id) == q_id {
                continue;
            }
            let d_q = pos.dist_sq(q);
            let blocked = objs
                .iter()
                .any(|&(oid, op)| oid != id && Some(oid) != q_id && pos.dist_sq(op) < d_q);
            if !blocked {
                out.push(id);
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn matches_oracle_on_pseudorandom_data() {
        let mut state = 21u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 1000) as f64
        };
        for round in 0..25 {
            let pts: Vec<(f64, f64)> = (0..80).map(|_| (rnd(), rnd())).collect();
            let t = tree_with(&pts);
            let q = Point::new(rnd(), rnd());
            let mut ops = OpCounters::new();
            let got = tpl_snapshot_rtree(&t, q, None, &mut ops);
            assert_eq!(got.rnn, oracle(&pts, q, None), "round {round}");
            assert!(got.candidates.len() <= 6, "TPL filter bound");
        }
    }

    #[test]
    fn empty_tree_and_query_exclusion() {
        let t = RTree::new();
        let mut ops = OpCounters::new();
        let got = tpl_snapshot_rtree(&t, Point::new(1.0, 1.0), None, &mut ops);
        assert!(got.rnn.is_empty());
        let t2 = tree_with(&[(5.0, 5.0), (4.0, 5.0)]);
        let got2 = tpl_snapshot_rtree(&t2, Point::new(5.0, 5.0), Some(ObjectId(0)), &mut ops);
        assert_eq!(got2.rnn, vec![ObjectId(1)]);
    }

    #[test]
    fn subtree_pruning_reduces_visits() {
        // A big cluster far behind the nearest candidate must be skipped
        // at subtree level.
        let mut pts = vec![(500.0, 500.0), (510.0, 500.0)];
        for i in 0..200 {
            pts.push((900.0 + (i % 20) as f64, 900.0 + (i / 20) as f64));
        }
        let t = tree_with(&pts);
        let mut ops = OpCounters::new();
        let got = tpl_snapshot_rtree(&t, Point::new(495.0, 500.0), None, &mut ops);
        assert_eq!(got.rnn, vec![ObjectId(0)]);
        assert!(
            (ops.objects_visited as usize) < pts.len(),
            "bisector pruning must skip the far cluster ({} visits)",
            ops.objects_visited
        );
    }
}
