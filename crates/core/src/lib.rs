//! IGERN — *Incremental and General Evaluation of continuous Reverse
//! Nearest neighbor queries* (Kang, Mokbel, Shekhar, Xia, Zhang;
//! ICDE 2007) — and the baselines it is evaluated against.
//!
//! # The algorithms
//!
//! * [`mono::MonoIgern`] — continuous monochromatic RNN (Algorithms 1–2):
//!   one bounded *alive region* plus a small candidate set `RNNcand` is
//!   monitored instead of the whole space.
//! * [`bi::BiIgern`] — continuous bichromatic RNN (Algorithms 3–4), the
//!   first continuous algorithm for that case: the monitored set `NN_A`
//!   bounds a region outside which no B-object can be an answer.
//!
//!   Both take the query order `k` — the reverse k-NN generalization of
//!   the journal version — and at `k = 1` are the algorithms as
//!   published. They are two Phase-II verifiers over one shared Phase I:
//!   the crate-private `region` module holds the alive region, the sites
//!   whose bisectors draw it, and the refresh / tighten / clean steps of
//!   Algorithms 1–4 once, for both colours.
//! * [`baselines::Crnn`] — the six-pie continuous monochromatic monitor of
//!   Xia & Zhang (ICDE'06), the state of the art the paper compares to.
//! * [`baselines::tpl_snapshot`] — the snapshot TPL algorithm of Tao et
//!   al. (VLDB'04), re-evaluated from scratch every timestamp.
//! * [`baselines::voronoi_snapshot`] — repetitive construction of the
//!   query's Voronoi cell, the bichromatic comparison point.
//! * [`naive`] — O(n·m) brute-force oracles used to verify all of the
//!   above in tests.
//!
//! # Infrastructure
//!
//! * [`store::SpatialStore`] — the shared grid index over the update
//!   stream (one grid for monochromatic data, twin grids for the two
//!   bichromatic types).
//! * [`monitor`] — the [`ContinuousMonitor`] trait: one interface — one
//!   `evaluate` step — over every evaluation strategy, each publishing
//!   the *watch set* of grid cells used for dirty-region update routing.
//! * [`processor`] — [`processor::Algorithm`], the evaluation strategies
//!   a standing query can be registered with.
//! * [`eval`] — the per-query evaluation step ([`eval::evaluate_query`]):
//!   skip the query when its watched cells saw no update, otherwise run
//!   its monitor and record a per-tick sample. `igern-engine`'s
//!   `TickRunner` walks the registered queries through it every tick. It
//!   is the only evaluation path: every query runs its own monitor over
//!   the grid kernels of `igern_grid::nn`.
//! * [`history`] — the bounded per-query sample log (ring buffer plus an
//!   exact running aggregate).
//! * [`costmodel`] — the analytical cost model of Section 6.
//! * [`metrics`] — per-tick samples and experiment aggregation.
//! * [`obs`] — the observability layer: a dependency-free
//!   [`obs::MetricsRegistry`] (counters, gauges, histograms) with
//!   Prometheus-text and JSON exporters, instrumenting every engine.
//! * [`knn_monitor`] — the companion continuous k-NN facility (the other
//!   standing-query type of the processors the paper situates itself
//!   among).
//! * [`render`] — ASCII visualization of regions and occupancy.
//!
//! # Example
//!
//! ```
//! use igern_core::{prune::PruneGranularity, EvalScratch, MonoIgern};
//! use igern_geom::{Aabb, Point};
//! use igern_grid::{Grid, ObjectId, OpCounters};
//!
//! // Three objects on a 16×16 grid; monitor the RNNs of a query point.
//! let mut grid = Grid::new(Aabb::from_coords(0.0, 0.0, 100.0, 100.0), 16);
//! grid.insert(ObjectId(0), Point::new(40.0, 50.0));
//! grid.insert(ObjectId(1), Point::new(65.0, 50.0));
//! grid.insert(ObjectId(2), Point::new(10.0, 10.0));
//!
//! let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
//! let q = Point::new(50.0, 50.0);
//! let exact = PruneGranularity::Exact;
//! let mut monitor = MonoIgern::initial(&grid, q, None, 1, exact, &mut ops, &mut scratch);
//! assert_eq!(monitor.rnn(), &[ObjectId(0), ObjectId(1)]);
//!
//! // Object 1 steps between the query and object 0: object 0 is now
//! // closer to object 1 than to the query and drops out of the answer.
//! grid.update(ObjectId(1), Point::new(45.0, 50.0));
//! monitor.incremental(&grid, q, &mut ops, &mut scratch);
//! assert_eq!(monitor.rnn(), &[ObjectId(1)]);
//! ```

#![forbid(unsafe_code)]

pub mod baselines;
pub mod bi;
pub mod costmodel;
pub mod eval;
pub mod history;
pub mod hooks;
pub mod knn_monitor;
pub mod metrics;
pub mod monitor;
pub mod mono;
pub mod naive;
pub mod net_monitor;
pub mod netspace;
pub mod obs;
pub mod processor;
pub mod prune;
mod region;
pub mod render;
pub mod scratch;
pub mod store;
pub mod types;

pub use bi::BiIgern;
pub use eval::{can_skip, evaluate_query, QuerySlot};
pub use history::History;
pub use hooks::{SharedSimHooks, SimHooks};
pub use knn_monitor::KnnMonitor;
pub use monitor::ContinuousMonitor;
pub use mono::MonoIgern;
pub use net_monitor::{NetKnnMonitor, NetRknnMonitor};
pub use netspace::{net_lb, NetPos, NetScratch, NetView, NetworkSpace};
pub use scratch::EvalScratch;
pub use store::SpatialStore;
pub use types::{DistanceMode, ObjectKind};
