//! Network-based moving objects (after Brinkhoff, GeoInformatica 2002).
//!
//! Each object lives on the road network: it spawns at a random node,
//! picks a random destination, travels the time-shortest path at the
//! speed of each traversed road class, and re-routes to a fresh
//! destination on arrival. One tick of simulated time advances every
//! object by one time unit of travel.

use crate::rng::Rng64;
use igern_geom::{Aabb, Point};

use crate::network::{NodeId, RoadNetwork};
use crate::route::RoutingTable;
use crate::workload::{Mover, Update};

/// 40 bytes: node ids are `u32`, and the current edge is looked up once
/// per hop rather than twice per tick.
#[derive(Debug, Clone)]
struct ObjState {
    /// Node most recently departed from.
    at: u32,
    /// Node currently headed to (adjacent to `at`), or `at` when parked.
    to: u32,
    /// Final destination of the current trip.
    dest: u32,
    /// The edge from `at` to `to` (meaningless while parked).
    edge: u32,
    /// Distance already covered on the current edge.
    progress: f64,
    pos: Point,
}

/// The edge a hop from `at` to `to` travels (`u32::MAX` when parked).
fn hop_edge(net: &RoadNetwork, at: NodeId, to: NodeId) -> u32 {
    if at == to {
        return u32::MAX;
    }
    net.edge_id_between(at, to).expect("next hop not adjacent") as u32
}

/// Objects moving along shortest paths of a road network.
pub struct NetworkMover {
    net: RoadNetwork,
    table: RoutingTable,
    objs: Vec<ObjState>,
    rng: Rng64,
    buf: Vec<Update>,
}

impl NetworkMover {
    /// Spawn `n` objects on `net`, seeded deterministically.
    ///
    /// # Panics
    /// Panics when the network is not connected (every trip must be
    /// routable).
    pub fn new(net: RoadNetwork, n: usize, seed: u64) -> Self {
        assert!(net.is_connected(), "network movement requires connectivity");
        let table = RoutingTable::build(&net);
        let mut rng = Rng64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut objs = Vec::with_capacity(n);
        for _ in 0..n {
            let at = rng.gen_range(0..net.num_nodes());
            let dest = pick_destination(&mut rng, net.num_nodes(), at);
            let to = table.next_hop(at, dest).unwrap_or(at);
            let edge = hop_edge(&net, at, to);
            // Spawn dispersed along the first edge rather than piled on
            // the node itself: co-located objects are degenerate for RNN
            // queries (nothing can dominate a distance-zero neighbor) and
            // do not occur in steady-state traffic.
            let (progress, pos) = if to != at {
                let f = rng.gen_range(0.0..1.0);
                (
                    net.edge(edge as usize).len * f,
                    net.node(at).lerp(net.node(to), f),
                )
            } else {
                (0.0, net.node(at))
            };
            objs.push(ObjState {
                at: at as u32,
                to: to as u32,
                dest: dest as u32,
                edge,
                progress,
                pos,
            });
        }
        NetworkMover {
            net,
            table,
            objs,
            rng,
            buf: Vec::with_capacity(n),
        }
    }

    /// The network objects travel on.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// Advance one object by one time unit; returns its new position.
    fn step_object(
        net: &RoadNetwork,
        table: &RoutingTable,
        rng: &mut Rng64,
        o: &mut ObjState,
    ) -> Point {
        let mut time_left = 1.0;
        // A tick never crosses more than a handful of edges; bound the
        // loop defensively anyway.
        for _ in 0..64 {
            if o.at == o.to {
                // Parked (degenerate single-node network); stay put.
                break;
            }
            let edge = net.edge(o.edge as usize);
            let speed = edge.class.speed();
            let remaining = edge.len - o.progress;
            let needed = remaining / speed;
            if needed > time_left {
                o.progress += speed * time_left;
                break;
            }
            // Reach node `to` and continue the trip.
            time_left -= needed;
            let at = o.to as NodeId;
            let mut dest = o.dest as NodeId;
            o.progress = 0.0;
            if at == dest {
                dest = pick_destination(rng, net.num_nodes(), at);
            }
            let to = table.next_hop(at, dest).unwrap_or(at);
            o.edge = hop_edge(net, at, to);
            (o.at, o.to, o.dest) = (at as u32, to as u32, dest as u32);
        }
        o.pos = if o.at == o.to {
            net.node(o.at as NodeId)
        } else {
            let t = o.progress / net.edge(o.edge as usize).len;
            net.node(o.at as NodeId).lerp(net.node(o.to as NodeId), t)
        };
        o.pos
    }
}

/// A fresh trip destination different from `at` (when possible).
fn pick_destination(rng: &mut Rng64, num_nodes: usize, at: NodeId) -> NodeId {
    if num_nodes <= 1 {
        return at;
    }
    loop {
        let d = rng.gen_range(0..num_nodes);
        if d != at {
            return d;
        }
    }
}

impl Mover for NetworkMover {
    fn len(&self) -> usize {
        self.objs.len()
    }

    fn space(&self) -> Aabb {
        *self.net.space()
    }

    fn position(&self, id: u32) -> Point {
        self.objs[id as usize].pos
    }

    fn advance(&mut self) -> &[Update] {
        self.buf.clear();
        for (i, o) in self.objs.iter_mut().enumerate() {
            let pos = Self::step_object(&self.net, &self.table, &mut self.rng, o);
            self.buf.push(Update { id: i as u32, pos });
        }
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{build_synthetic_network, SyntheticNetworkConfig};

    fn small_net() -> RoadNetwork {
        build_synthetic_network(&SyntheticNetworkConfig {
            k: 6,
            prune_fraction: 0.0,
            seed: 11,
            ..Default::default()
        })
    }

    #[test]
    fn objects_spawn_on_the_network() {
        let net = small_net();
        let m = NetworkMover::new(net, 25, 5);
        for i in 0..25 {
            let p = m.position(i);
            let on_edge = (0..m.network().num_edges()).any(|e| {
                let edge = m.network().edge(e);
                let a = m.network().node(edge.a);
                let b = m.network().node(edge.b);
                let ab = b - a;
                let t = ((p - a).dot(ab) / ab.norm_sq()).clamp(0.0, 1.0);
                a.lerp(b, t).dist(p) < 1e-6
            });
            assert!(on_edge, "object {i} at {p} not on the network");
        }
    }

    #[test]
    fn spawns_are_dispersed() {
        // No two of 40 objects should be exactly co-located at T0.
        let net = small_net();
        let m = NetworkMover::new(net, 40, 5);
        let mut collisions = 0;
        for i in 0..40u32 {
            for j in (i + 1)..40u32 {
                if m.position(i).dist(m.position(j)) < 1e-12 {
                    collisions += 1;
                }
            }
        }
        assert_eq!(collisions, 0, "{collisions} co-located spawn pairs");
    }

    #[test]
    fn movement_is_bounded_by_max_speed() {
        let net = small_net();
        let mut m = NetworkMover::new(net, 40, 5);
        let before: Vec<Point> = (0..40).map(|i| m.position(i)).collect();
        m.advance();
        for i in 0..40u32 {
            let moved = before[i as usize].dist(m.position(i));
            // Straight-line displacement cannot exceed network distance
            // traveled, which is at most one tick at highway speed.
            assert!(
                moved <= crate::network::RoadClass::Highway.speed() + 1e-9,
                "object {i} jumped {moved}"
            );
        }
    }

    #[test]
    fn objects_actually_move() {
        let net = small_net();
        let mut m = NetworkMover::new(net, 30, 5);
        let before: Vec<Point> = (0..30).map(|i| m.position(i)).collect();
        m.advance();
        let moved = (0..30u32)
            .filter(|&i| before[i as usize].dist(m.position(i)) > 1e-9)
            .count();
        assert!(moved >= 25, "only {moved}/30 objects moved");
    }

    #[test]
    fn positions_stay_near_the_network() {
        let net = small_net();
        let mut m = NetworkMover::new(net, 20, 9);
        for _ in 0..30 {
            m.advance();
        }
        // Every position must sit on some edge segment of the network.
        for i in 0..20u32 {
            let p = m.position(i);
            let on_edge = (0..m.network().num_edges()).any(|e| {
                let edge = m.network().edge(e);
                let a = m.network().node(edge.a);
                let b = m.network().node(edge.b);
                // Distance from p to segment ab.
                let ab = b - a;
                let t = ((p - a).dot(ab) / ab.norm_sq()).clamp(0.0, 1.0);
                let proj = a.lerp(b, t);
                proj.dist(p) < 1e-6
            });
            assert!(on_edge, "object {i} at {p} is off-network");
        }
    }

    #[test]
    fn deterministic_streams_for_equal_seeds() {
        let mk = || NetworkMover::new(small_net(), 15, 77);
        let mut a = mk();
        let mut b = mk();
        for _ in 0..10 {
            let ua = a.advance().to_vec();
            let ub = b.advance().to_vec();
            assert_eq!(ua, ub);
        }
    }

    #[test]
    fn advance_reports_every_object() {
        let mut m = NetworkMover::new(small_net(), 12, 3);
        let ups = m.advance();
        assert_eq!(ups.len(), 12);
        let mut ids: Vec<u32> = ups.iter().map(|u| u.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }
}
