//! The R-tree structure: insertion with least-enlargement descent and
//! quadratic split, deletion with condense-and-reinsert, and updates.

use igern_geom::{Aabb, Point};
use igern_grid::ObjectId;

/// Maximum entries per node before splitting.
pub(crate) const MAX_ENTRIES: usize = 16;
/// Minimum entries per node (underflow threshold), ⌈M·0.4⌉.
pub(crate) const MIN_ENTRIES: usize = 6;

/// Rejected [`RTree`] mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RTreeError {
    /// [`RTree::insert`] was given an id that is already stored.
    DuplicateObject(ObjectId),
    /// [`RTree::update`] was given an id that is not stored.
    UnknownObject(ObjectId),
}

impl std::fmt::Display for RTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RTreeError::DuplicateObject(id) => write!(f, "object {id} already in tree"),
            RTreeError::UnknownObject(id) => write!(f, "object {id} not in tree"),
        }
    }
}

impl std::error::Error for RTreeError {}

/// A leaf data entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    pub id: ObjectId,
    pub pos: Point,
}

/// Tree node.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf(Vec<Entry>),
    Internal(Vec<Child>),
}

/// An internal-node slot: child subtree plus its bounding box.
#[derive(Debug, Clone)]
pub(crate) struct Child {
    pub bbox: Aabb,
    pub node: Box<Node>,
}

impl Node {
    fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Internal(cs) => cs.len(),
        }
    }

    /// Tight bounding box of the node's contents (`None` when empty).
    pub(crate) fn bbox(&self) -> Option<Aabb> {
        match self {
            Node::Leaf(es) => bbox_of_points(es.iter().map(|e| e.pos)),
            Node::Internal(cs) => bbox_of_boxes(cs.iter().map(|c| c.bbox)),
        }
    }
}

fn bbox_of_points(mut points: impl Iterator<Item = Point>) -> Option<Aabb> {
    let first = points.next()?;
    let mut min = first;
    let mut max = first;
    for p in points {
        min.x = min.x.min(p.x);
        min.y = min.y.min(p.y);
        max.x = max.x.max(p.x);
        max.y = max.y.max(p.y);
    }
    Some(Aabb::new(min, max))
}

fn bbox_of_boxes(mut boxes: impl Iterator<Item = Aabb>) -> Option<Aabb> {
    let first = boxes.next()?;
    let mut out = first;
    for b in boxes {
        out.min.x = out.min.x.min(b.min.x);
        out.min.y = out.min.y.min(b.min.y);
        out.max.x = out.max.x.max(b.max.x);
        out.max.y = out.max.y.max(b.max.y);
    }
    Some(out)
}

/// Union of a box and a point.
fn extend(b: &Aabb, p: Point) -> Aabb {
    Aabb::from_coords(
        b.min.x.min(p.x),
        b.min.y.min(p.y),
        b.max.x.max(p.x),
        b.max.y.max(p.y),
    )
}

/// Union of two boxes.
fn union(a: &Aabb, b: &Aabb) -> Aabb {
    Aabb::from_coords(
        a.min.x.min(b.min.x),
        a.min.y.min(b.min.y),
        a.max.x.max(b.max.x),
        a.max.y.max(b.max.y),
    )
}

/// A dynamic point R-tree over `(ObjectId, Point)` entries.
///
/// Positions are also tracked in a dense side table (ids are expected to
/// be small integers, as produced by the workload generators), so
/// [`RTree::update`] and [`RTree::position`] need no search.
#[derive(Debug, Clone)]
pub struct RTree {
    pub(crate) root: Node,
    positions: Vec<Option<Point>>,
    len: usize,
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RTree {
    /// An empty tree.
    pub fn new() -> Self {
        RTree {
            root: Node::Leaf(Vec::new()),
            positions: Vec::new(),
            len: 0,
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of `id`, if stored.
    pub fn position(&self, id: ObjectId) -> Option<Point> {
        self.positions.get(id.index()).and_then(|p| *p)
    }

    /// Insert a new point; rejects an `id` that is already stored.
    pub fn insert(&mut self, id: ObjectId, pos: Point) -> Result<(), RTreeError> {
        if self.positions.len() <= id.index() {
            self.positions.resize(id.index() + 1, None);
        }
        if self.positions[id.index()].is_some() {
            return Err(RTreeError::DuplicateObject(id));
        }
        self.positions[id.index()] = Some(pos);
        self.len += 1;
        if let Some((a, b)) = insert_rec(&mut self.root, Entry { id, pos }) {
            // Root split: grow the tree by one level.
            self.root = Node::Internal(vec![a, b]);
        }
        Ok(())
    }

    /// Remove a point, returning its last position.
    pub fn remove(&mut self, id: ObjectId) -> Option<Point> {
        let pos = self.positions.get_mut(id.index())?.take()?;
        self.len -= 1;
        let mut orphans = Vec::new();
        let removed = remove_rec(&mut self.root, id, pos, &mut orphans);
        debug_assert!(removed, "position table desynced from tree");
        // Shrink a root with a single internal child.
        loop {
            let replace = match &mut self.root {
                Node::Internal(cs) if cs.len() == 1 => {
                    Some(std::mem::replace(&mut *cs[0].node, Node::Leaf(Vec::new())))
                }
                _ => None,
            };
            match replace {
                Some(n) => self.root = n,
                None => break,
            }
        }
        // Reinsert entries orphaned by condensation.
        for e in orphans {
            if let Some((a, b)) = insert_rec(&mut self.root, e) {
                self.root = Node::Internal(vec![a, b]);
            }
        }
        Some(pos)
    }

    /// Move a point (delete + insert); rejects an `id` that is not
    /// stored.
    pub fn update(&mut self, id: ObjectId, pos: Point) -> Result<(), RTreeError> {
        self.remove(id).ok_or(RTreeError::UnknownObject(id))?;
        // The slot was just vacated, so the re-insert cannot collide.
        self.insert(id, pos)
    }

    /// Iterate over all `(id, position)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (ObjectId(i as u32), p)))
    }

    /// Structural invariant checks for tests: bbox tightness, fanout
    /// bounds, and uniform leaf depth. Returns the tree height.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> usize {
        fn walk(node: &Node, is_root: bool) -> usize {
            match node {
                Node::Leaf(es) => {
                    assert!(es.len() <= MAX_ENTRIES, "leaf overflow");
                    1
                }
                Node::Internal(cs) => {
                    assert!(cs.len() <= MAX_ENTRIES, "internal overflow");
                    assert!(
                        is_root || cs.len() >= MIN_ENTRIES,
                        "internal underflow ({})",
                        cs.len()
                    );
                    assert!(!cs.is_empty(), "empty internal node");
                    let mut depth = None;
                    for c in cs {
                        let tight = c.node.bbox().expect("child must be non-empty");
                        assert!(
                            (tight.min.x - c.bbox.min.x).abs() < 1e-9
                                && (tight.max.x - c.bbox.max.x).abs() < 1e-9
                                && (tight.min.y - c.bbox.min.y).abs() < 1e-9
                                && (tight.max.y - c.bbox.max.y).abs() < 1e-9,
                            "stale child bbox"
                        );
                        let d = walk(&c.node, false);
                        match depth {
                            None => depth = Some(d),
                            Some(prev) => assert_eq!(prev, d, "unbalanced tree"),
                        }
                    }
                    depth.unwrap() + 1
                }
            }
        }
        walk(&self.root, true)
    }
}

/// Recursive insert; returns two replacement children when the node split.
fn insert_rec(node: &mut Node, entry: Entry) -> Option<(Child, Child)> {
    match node {
        Node::Leaf(es) => {
            es.push(entry);
            if es.len() <= MAX_ENTRIES {
                return None;
            }
            // Quadratic split of leaf entries.
            let items = std::mem::take(es);
            let (l, r) = quadratic_split(items, |e| Aabb::new(e.pos, e.pos));
            Some((
                Child {
                    bbox: bbox_of_points(l.iter().map(|e| e.pos)).unwrap(),
                    node: Box::new(Node::Leaf(l)),
                },
                Child {
                    bbox: bbox_of_points(r.iter().map(|e| e.pos)).unwrap(),
                    node: Box::new(Node::Leaf(r)),
                },
            ))
        }
        Node::Internal(cs) => {
            // Choose the child needing least enlargement (ties: smaller area).
            let mut best = 0;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for (i, c) in cs.iter().enumerate() {
                let grown = extend(&c.bbox, entry.pos);
                let key = (grown.area() - c.bbox.area(), c.bbox.area());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            cs[best].bbox = extend(&cs[best].bbox, entry.pos);
            if let Some((a, b)) = insert_rec(&mut cs[best].node, entry) {
                cs.swap_remove(best);
                cs.push(a);
                cs.push(b);
                if cs.len() > MAX_ENTRIES {
                    let items = std::mem::take(cs);
                    let (l, r) = quadratic_split(items, |c| c.bbox);
                    return Some((
                        Child {
                            bbox: bbox_of_boxes(l.iter().map(|c| c.bbox)).unwrap(),
                            node: Box::new(Node::Internal(l)),
                        },
                        Child {
                            bbox: bbox_of_boxes(r.iter().map(|c| c.bbox)).unwrap(),
                            node: Box::new(Node::Internal(r)),
                        },
                    ));
                }
            }
            None
        }
    }
}

/// Guttman's quadratic split: pick the pair wasting the most area as
/// seeds, then assign each remaining item to the group whose bbox grows
/// least (forcing assignment when a group must absorb the rest to reach
/// the minimum).
fn quadratic_split<T, F: Fn(&T) -> Aabb>(items: Vec<T>, bbox: F) -> (Vec<T>, Vec<T>) {
    debug_assert!(items.len() >= 2);
    // Seed selection.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let u = union(&bbox(&items[i]), &bbox(&items[j]));
            let waste = u.area() - bbox(&items[i]).area() - bbox(&items[j]).area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut left: Vec<T> = Vec::new();
    let mut right: Vec<T> = Vec::new();
    let mut lbox = bbox(&items[s1]);
    let mut rbox = bbox(&items[s2]);
    let mut rest: Vec<T> = Vec::new();
    for (i, item) in items.into_iter().enumerate() {
        if i == s1 {
            left.push(item);
        } else if i == s2 {
            right.push(item);
        } else {
            rest.push(item);
        }
    }
    let mut pending = rest;
    while let Some(item) = pending.pop() {
        // Force assignment when a group needs every remaining item
        // (current one included) to reach the minimum fill.
        let remaining_incl = pending.len() + 1;
        if MIN_ENTRIES.saturating_sub(left.len()) >= remaining_incl {
            lbox = union(&lbox, &bbox(&item));
            left.push(item);
            continue;
        }
        if MIN_ENTRIES.saturating_sub(right.len()) >= remaining_incl {
            rbox = union(&rbox, &bbox(&item));
            right.push(item);
            continue;
        }
        // Otherwise: least enlargement, ties to the smaller group.
        let lg = union(&lbox, &bbox(&item)).area() - lbox.area();
        let rg = union(&rbox, &bbox(&item)).area() - rbox.area();
        if lg < rg || (lg == rg && left.len() <= right.len()) {
            lbox = union(&lbox, &bbox(&item));
            left.push(item);
        } else {
            rbox = union(&rbox, &bbox(&item));
            right.push(item);
        }
    }
    (left, right)
}

/// Recursive removal; pushes entries of condensed (underflowed) subtrees
/// into `orphans`. Returns whether the entry was found.
fn remove_rec(node: &mut Node, id: ObjectId, pos: Point, orphans: &mut Vec<Entry>) -> bool {
    match node {
        Node::Leaf(es) => {
            if let Some(at) = es.iter().position(|e| e.id == id) {
                es.swap_remove(at);
                true
            } else {
                false
            }
        }
        Node::Internal(cs) => {
            for i in 0..cs.len() {
                if !cs[i].bbox.contains(pos) {
                    continue;
                }
                if remove_rec(&mut cs[i].node, id, pos, orphans) {
                    if cs[i].node.len() < MIN_ENTRIES && !cs[i].node.is_leaf() {
                        // Condense: dissolve the underflowed internal child.
                        let child = cs.swap_remove(i);
                        collect_entries(*child.node, orphans);
                    } else if cs[i].node.len() == 0 {
                        cs.swap_remove(i);
                    } else {
                        cs[i].bbox = cs[i].node.bbox().expect("non-empty");
                    }
                    return true;
                }
            }
            false
        }
    }
}

/// Flatten a subtree into leaf entries.
fn collect_entries(node: Node, out: &mut Vec<Entry>) {
    match node {
        Node::Leaf(es) => out.extend(es),
        Node::Internal(cs) => {
            for c in cs {
                collect_entries(*c.node, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(i: u64) -> Point {
        // Deterministic scatter.
        let x = ((i.wrapping_mul(2654435761)) % 1000) as f64;
        let y = ((i.wrapping_mul(40503)) % 1000) as f64;
        Point::new(x, y)
    }

    #[test]
    fn insert_lookup_len() {
        let mut t = RTree::new();
        for i in 0..100u32 {
            t.insert(ObjectId(i), pt(i as u64)).unwrap();
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.position(ObjectId(7)), Some(pt(7)));
        assert_eq!(t.position(ObjectId(100)), None);
        t.check_invariants();
    }

    #[test]
    fn split_produces_balanced_tree() {
        let mut t = RTree::new();
        for i in 0..500u32 {
            t.insert(ObjectId(i), pt(i as u64)).unwrap();
        }
        let height = t.check_invariants();
        assert!(height >= 2, "500 points must split the root");
        assert_eq!(t.iter().count(), 500);
    }

    #[test]
    fn remove_roundtrip() {
        let mut t = RTree::new();
        for i in 0..200u32 {
            t.insert(ObjectId(i), pt(i as u64)).unwrap();
        }
        for i in (0..200u32).step_by(2) {
            assert_eq!(t.remove(ObjectId(i)), Some(pt(i as u64)));
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.remove(ObjectId(0)), None);
        t.check_invariants();
        // Remaining odd ids are all present.
        for i in (1..200u32).step_by(2) {
            assert_eq!(t.position(ObjectId(i)), Some(pt(i as u64)));
        }
    }

    #[test]
    fn remove_everything_leaves_empty_tree() {
        let mut t = RTree::new();
        for i in 0..150u32 {
            t.insert(ObjectId(i), pt(i as u64)).unwrap();
        }
        for i in 0..150u32 {
            assert!(t.remove(ObjectId(i)).is_some(), "remove {i}");
        }
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        t.check_invariants();
    }

    #[test]
    fn update_moves_points() {
        let mut t = RTree::new();
        for i in 0..64u32 {
            t.insert(ObjectId(i), pt(i as u64)).unwrap();
        }
        t.update(ObjectId(5), Point::new(999.0, 999.0)).unwrap();
        assert_eq!(t.position(ObjectId(5)), Some(Point::new(999.0, 999.0)));
        assert_eq!(t.len(), 64);
        t.check_invariants();
    }

    #[test]
    fn double_insert_is_rejected() {
        let mut t = RTree::new();
        t.insert(ObjectId(0), Point::new(1.0, 1.0)).unwrap();
        assert_eq!(
            t.insert(ObjectId(0), Point::new(2.0, 2.0)),
            Err(RTreeError::DuplicateObject(ObjectId(0)))
        );
        // The rejected insert left the tree untouched.
        assert_eq!(t.len(), 1);
        assert_eq!(t.position(ObjectId(0)), Some(Point::new(1.0, 1.0)));
    }

    #[test]
    fn update_of_missing_object_is_rejected() {
        let mut t = RTree::new();
        t.insert(ObjectId(0), Point::new(1.0, 1.0)).unwrap();
        assert_eq!(
            t.update(ObjectId(9), Point::new(2.0, 2.0)),
            Err(RTreeError::UnknownObject(ObjectId(9)))
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_positions_are_fine() {
        let mut t = RTree::new();
        for i in 0..40u32 {
            t.insert(ObjectId(i), Point::new(5.0, 5.0)).unwrap();
        }
        assert_eq!(t.len(), 40);
        t.check_invariants();
        for i in 0..40u32 {
            assert!(t.remove(ObjectId(i)).is_some());
        }
        assert!(t.is_empty());
    }

    #[test]
    fn churn_preserves_invariants() {
        let mut t = RTree::new();
        let mut live = Vec::new();
        let mut state = 12345u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut next_id = 0u32;
        for round in 0..2000 {
            let coin = rnd() % 3;
            if coin != 0 || live.is_empty() {
                let id = ObjectId(next_id);
                next_id += 1;
                t.insert(id, pt(rnd())).unwrap();
                live.push(id);
            } else {
                let at = (rnd() as usize) % live.len();
                let id = live.swap_remove(at);
                assert!(t.remove(id).is_some(), "round {round}");
            }
            if round % 250 == 0 {
                t.check_invariants();
                assert_eq!(t.len(), live.len());
            }
        }
        t.check_invariants();
    }
}
