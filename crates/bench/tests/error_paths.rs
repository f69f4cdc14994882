//! Error-path tests for the R-tree's fallible mutations: rejected
//! operations must return the typed error, leave the tree byte-for-byte
//! functional, and never corrupt the structural invariants.

use igern_bench::rtree::{nearest, RTree, RTreeError};
use igern_geom::Point;
use igern_grid::{ObjectId, OpCounters};

/// Deterministic pseudo-random point from an index (splitmix-style
/// mixing; no RNG dependency needed for these paths).
fn point(i: u64) -> Point {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let x = (z & 0xffff) as f64 / 65.536;
    let y = ((z >> 16) & 0xffff) as f64 / 65.536;
    Point::new(x, y)
}

fn populated(n: u64) -> RTree {
    let mut t = RTree::new();
    for i in 0..n {
        t.insert(ObjectId(i as u32), point(i)).unwrap();
    }
    t
}

#[test]
fn duplicate_insert_is_rejected_and_harmless() {
    let mut t = populated(50);
    let before_len = t.len();
    let before_pos = t.position(ObjectId(7)).unwrap();

    let err = t.insert(ObjectId(7), Point::new(-1.0, -1.0)).unwrap_err();
    assert_eq!(err, RTreeError::DuplicateObject(ObjectId(7)));
    assert!(err.to_string().contains("already in tree"), "{err}");

    // Nothing moved: same length, same position, invariants intact.
    assert_eq!(t.len(), before_len);
    assert_eq!(t.position(ObjectId(7)), Some(before_pos));
    t.check_invariants();

    // The tree stays fully usable after the rejection.
    t.insert(ObjectId(100), Point::new(500.0, 500.0)).unwrap();
    assert_eq!(t.len(), before_len + 1);
    let mut ops = OpCounters::new();
    let hit = nearest(&t, Point::new(500.0, 500.0), None, &mut ops).unwrap();
    assert_eq!(hit.id, ObjectId(100));
}

#[test]
fn update_of_unknown_ids_is_rejected() {
    let mut t = populated(10);

    // Never-seen id, beyond the position table.
    let err = t.update(ObjectId(999), Point::ORIGIN).unwrap_err();
    assert_eq!(err, RTreeError::UnknownObject(ObjectId(999)));
    assert!(err.to_string().contains("not in tree"), "{err}");

    // An id inside the table range but already removed is just as
    // unknown.
    assert!(t.remove(ObjectId(3)).is_some());
    let err = t.update(ObjectId(3), Point::ORIGIN).unwrap_err();
    assert_eq!(err, RTreeError::UnknownObject(ObjectId(3)));

    assert_eq!(t.len(), 9);
    t.check_invariants();

    // Re-inserting the removed id is legal again (the slot was freed).
    t.insert(ObjectId(3), Point::new(1.0, 2.0)).unwrap();
    t.update(ObjectId(3), Point::new(2.0, 1.0)).unwrap();
    assert_eq!(t.position(ObjectId(3)), Some(Point::new(2.0, 1.0)));
}

#[test]
fn remove_of_missing_ids_returns_none() {
    let mut t = populated(5);
    assert_eq!(t.remove(ObjectId(42)), None);
    assert_eq!(t.remove(ObjectId(2)), Some(point(2)));
    // Double remove: the second call finds nothing.
    assert_eq!(t.remove(ObjectId(2)), None);
    assert_eq!(t.len(), 4);
    t.check_invariants();
}

#[test]
fn empty_tree_rejects_everything_gracefully() {
    let mut t = RTree::new();
    assert!(t.is_empty());
    assert_eq!(t.remove(ObjectId(0)), None);
    assert_eq!(
        t.update(ObjectId(0), Point::ORIGIN),
        Err(RTreeError::UnknownObject(ObjectId(0)))
    );
    assert_eq!(t.position(ObjectId(0)), None);
    let mut ops = OpCounters::new();
    assert!(nearest(&t, Point::ORIGIN, None, &mut ops).is_none());
    // Draining a tree to empty and erroring on it keeps it reusable.
    t.insert(ObjectId(0), Point::ORIGIN).unwrap();
    t.remove(ObjectId(0)).unwrap();
    t.insert(ObjectId(0), Point::new(3.0, 4.0)).unwrap();
    assert_eq!(t.len(), 1);
}

#[test]
fn rejected_operations_during_heavy_churn_never_corrupt_the_tree() {
    // Interleave valid churn with systematic invalid calls; the typed
    // errors must be the only observable difference from a clean run.
    let mut t = RTree::new();
    let mut live = std::collections::BTreeSet::new();
    for round in 0u64..400 {
        let id = ObjectId((round % 97) as u32);
        match round % 5 {
            0 | 1 => {
                let r = t.insert(id, point(round));
                assert_eq!(r.is_err(), !live.insert(id), "round {round}");
            }
            2 => {
                let r = t.update(id, point(round + 1000));
                assert_eq!(r.is_err(), !live.contains(&id), "round {round}");
            }
            3 => {
                let r = t.remove(id);
                assert_eq!(r.is_none(), !live.remove(&id), "round {round}");
            }
            _ => {
                // A guaranteed-invalid pair on every pass.
                assert!(t.update(ObjectId(5000), Point::ORIGIN).is_err());
                if let Some(&any) = live.iter().next() {
                    assert!(t.insert(any, Point::ORIGIN).is_err());
                }
            }
        }
        assert_eq!(t.len(), live.len(), "round {round}");
    }
    t.check_invariants();
    // The survivors answer queries exactly.
    let mut ops = OpCounters::new();
    for &id in &live {
        let p = t.position(id).unwrap();
        assert_eq!(nearest(&t, p, None, &mut ops).unwrap().id, id);
    }
}
