//! IGERN — facade crate re-exporting the whole workspace.
//!
//! This workspace reproduces *Continuous Evaluation of Monochromatic and
//! Bichromatic Reverse Nearest Neighbors* (Kang, Mokbel, Shekhar, Xia,
//! Zhang; ICDE 2007).
//!
//! * [`core`] — the IGERN algorithms, the CRNN / TPL / repetitive-Voronoi
//!   baselines, the per-query evaluation step, and the Section-6 cost model.
//! * [`engine`] — the tick loop: `TickRunner` applies each tick's updates
//!   and re-evaluates the standing queries, one shard inline or several
//!   on scoped threads, with answers independent of the worker count.
//! * [`grid`] — the N×N grid index and the shared nearest-neighbor search
//!   substrate (unconstrained / constrained / bounded).
//! * [`mobgen`] — Brinkhoff-style network-based moving-object generation.
//! * [`geom`] — points, bisector half-planes, convex clipping, pie sectors,
//!   Voronoi cells.
//! * [`server`] — the TCP serving layer: streaming update ingestion, query
//!   subscriptions, per-tick answer-delta push.

#![forbid(unsafe_code)]

pub use igern_core as core;
pub use igern_engine as engine;
pub use igern_geom as geom;
pub use igern_grid as grid;
pub use igern_mobgen as mobgen;
pub use igern_server as server;
