//! The N×N grid index of moving objects and the shared nearest-neighbor
//! search substrate.
//!
//! The paper (Section 3) maintains "a grid data structure G of N×N equal
//! size cells \[where\] each cell keeps track of the set of objects that lie
//! within the cell boundary". Every algorithm in the reproduction — IGERN,
//! CRNN, TPL, and the repetitive-Voronoi baseline — runs on top of this
//! index and of the NN-search routines in [`nn`], mirroring the paper's
//! experimental setup ("to ensure consistency and fairness among different
//! approaches, we use \[the same\] underlying nearest neighbor search for
//! all approaches").
//!
//! Three NN variants are provided, matching the cost model of Section 6:
//!
//! * **unconstrained NN** (`NN`): best-first ring expansion over the whole
//!   grid;
//! * **constrained NN** (`NN_c`): restricted to a caller-supplied cell set
//!   (IGERN's *alive cells*) or cell predicate (CRNN's pie regions);
//! * **bounded NN** (`NN_b`): restricted to a bounded region, i.e. with a
//!   distance cut-off.
//!
//! # Example
//!
//! ```
//! use igern_geom::{Aabb, Point};
//! use igern_grid::{nearest, Grid, ObjectId, OpCounters};
//!
//! let mut grid = Grid::new(Aabb::from_coords(0.0, 0.0, 10.0, 10.0), 8);
//! grid.insert(ObjectId(0), Point::new(2.0, 2.0));
//! grid.insert(ObjectId(1), Point::new(8.0, 8.0));
//! grid.update(ObjectId(0), Point::new(6.0, 6.0)); // object moves
//!
//! let mut ops = OpCounters::new();
//! let n = nearest(&grid, Point::new(7.0, 7.0), None, &mut ops).unwrap();
//! assert_eq!(n.id, ObjectId(0));
//! assert!(grid.cell_changes() >= 1); // the move crossed a cell boundary
//! ```

#![forbid(unsafe_code)]

pub mod bitvec;
pub mod cellset;
pub mod feed;
pub mod grid;
pub mod nn;
pub mod object;
pub mod range;
pub mod stats;
pub mod visit;

pub use bitvec::BitVec;
pub use cellset::CellSet;
pub use feed::{CellFeed, FeedEntry, FeedScan};
pub use grid::{CellId, Grid};
pub use nn::{
    count_closer_than, exists_closer_than, k_nearest, k_nearest_into, nearest, nearest_in_set,
    nearest_undominated_in_cells, nearest_where, CellOrderScratch, NearestIter, Neighbor,
};
pub use object::ObjectId;
pub use stats::OpCounters;
