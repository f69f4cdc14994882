//! Planar geometry substrate for the IGERN reproduction.
//!
//! Everything in this crate is exact 2-D Euclidean geometry on `f64`
//! coordinates: points, axis-aligned boxes, perpendicular-bisector
//! half-planes, convex polygons with half-plane clipping, the 60° pie
//! sectors used by the CRNN baseline, and Voronoi-cell construction by
//! incremental clipping.
//!
//! The crate is dependency-free and deliberately small: each concept the
//! paper relies on ("bisector", "alive region", "pie region", "Voronoi
//! cell") maps to one module here.

#![forbid(unsafe_code)]

pub mod aabb;
pub mod circle;
pub mod halfplane;
pub mod point;
pub mod polygon;
pub mod sector;
pub mod segment;
pub mod voronoi;

pub use aabb::Aabb;
pub use circle::Circle;
pub use halfplane::{HalfPlane, RegionSide};
pub use point::Point;
pub use polygon::ConvexPolygon;
pub use sector::{sector_of, Sector, SECTOR_COUNT};
pub use segment::Segment;
pub use voronoi::VoronoiCell;

/// Tolerance used for geometric predicates that must be robust to
/// floating-point rounding (point-on-line tests, clipping).
pub const EPS: f64 = 1e-9;
