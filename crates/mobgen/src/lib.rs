//! Moving-object workload generation.
//!
//! The paper evaluates on trajectories from Brinkhoff's *Network-Based
//! Generator of Moving Objects* fed with the road map of Hennepin County,
//! MN. Neither the Java generator nor the map is redistributable here, so
//! this crate rebuilds the same generative model from scratch
//! (see DESIGN.md §3 for the substitution argument):
//!
//! * [`network`] — a road-network graph with per-edge road classes;
//! * [`synthetic`] — a seeded synthetic road-network builder (perturbed
//!   street grid with highways and pruned side streets);
//! * [`route`] — Dijkstra shortest paths and an all-pairs next-hop table;
//! * [`brinkhoff`] — objects that travel along shortest network paths at
//!   road-class speeds, re-routing on arrival;
//! * [`uniform`] — non-network movers (random waypoint) for ablations;
//! * [`workload`] — object/type/query assembly for the experiments;
//! * [`schedule`] — pre-materialized, replayable motion schedules with
//!   population churn for the `igern-sim` fault-injection harness;
//! * [`scenario`] — named city-scale presets (taxi dispatch, geofenced
//!   influence, hotspot commuter churn) composing the above;
//! * [`trace`] — record/replay of update streams so that competing
//!   algorithms consume byte-identical inputs.
//!
//! # Example
//!
//! ```
//! use igern_mobgen::{Mover, Workload, WorkloadConfig};
//!
//! // 100 objects driving a seeded synthetic road network.
//! let mut world = Workload::from_config(&WorkloadConfig::network_mono(100, 42));
//! let before = world.mover().position(0);
//! let updates = world.advance(); // one tick: every object reports
//! assert_eq!(updates.len(), 100);
//! assert_ne!(world.mover().position(0), before);
//! ```

#![forbid(unsafe_code)]

pub mod brinkhoff;
pub mod hotspot;
pub mod network;
pub mod rng;
pub mod route;
pub mod scenario;
pub mod schedule;
pub mod synthetic;
pub mod trace;
pub mod uniform;
pub mod workload;

pub use brinkhoff::NetworkMover;
pub use hotspot::{HotspotConfig, HotspotMover};
pub use network::{EdgeId, NetworkLoadError, NodeId, RoadClass, RoadNetwork};
pub use route::RoutingTable;
pub use scenario::{ChurnProfile, QueryPlan, Scenario};
pub use schedule::{MotionEvent, MotionSchedule, ScheduleConfig};
pub use synthetic::{build_synthetic_network, SyntheticNetworkConfig};
pub use trace::RecordedTrace;
pub use uniform::RandomWaypointMover;
pub use workload::{Movement, Mover, ObjKind, Update, Workload, WorkloadConfig};
