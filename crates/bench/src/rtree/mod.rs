//! A point R-tree (Guttman, with quadratic split) — the index family the
//! original TPL algorithm (Tao et al., VLDB 2004) was designed for.
//!
//! The grid of `igern-grid` is the paper's index; this module exists for
//! the substrate ablation (DESIGN.md A5): it hosts moving points under
//! insert/delete/update, answers the same NN / k-NN / range / emptiness
//! queries, and implements the *native* TPL snapshot RNN algorithm —
//! branch-and-bound over the tree with perpendicular-bisector pruning of
//! whole subtrees — so TPL can be compared on its home index.
//!
//! Operation counts are charged to the same [`igern_grid::OpCounters`]
//! used by the grid searches (`cells_visited` counts visited tree nodes).
//!
//! # Example
//!
//! ```
//! use igern_geom::Point;
//! use igern_grid::{ObjectId, OpCounters};
//! use igern_bench::rtree::{nearest, RTree};
//!
//! let mut tree = RTree::new();
//! for i in 0..100u32 {
//!     tree.insert(ObjectId(i), Point::new(i as f64, (i * 7 % 100) as f64))?;
//! }
//! tree.update(ObjectId(3), Point::new(50.5, 50.5))?;
//! let mut ops = OpCounters::new();
//! let n = nearest(&tree, Point::new(50.4, 50.4), None, &mut ops).unwrap();
//! assert_eq!(n.id, ObjectId(3));
//! # Ok::<(), igern_bench::rtree::RTreeError>(())
//! ```

pub mod query;
pub mod tpl;
pub mod tree;

pub use query::{exists_closer_than, k_nearest, nearest, objects_in_circle};
pub use tpl::tpl_snapshot_rtree;
pub use tree::{RTree, RTreeError};
