//! The canonical mirror: a brute-force model of the whole system.
//!
//! The mirror tracks the ground-truth population and query set, decides
//! which scheduled events are valid (invalid ones become no-ops on
//! *every* backend identically — the property that keeps shrunk
//! schedules executable), and computes the expected answer of every
//! query per tick via the `igern_core::naive` oracles.

use std::collections::BTreeMap;
use std::sync::Arc;

use igern_core::naive;
use igern_core::processor::Algorithm;
use igern_core::types::ObjectKind;
use igern_core::{NetScratch, NetworkSpace};
use igern_geom::{Aabb, Point};
use igern_grid::ObjectId;

use crate::events::{sim_network, Plan, SimEvent};

/// Ground truth for one run. All state transitions are pure and
/// deterministic; backends only ever see events the mirror admitted.
pub struct Mirror {
    space: Aabb,
    /// Live objects by id.
    live: BTreeMap<u32, (ObjectKind, Point)>,
    /// Ids whose grid state was corrupted by [`SimEvent::ForceDesync`].
    /// A desynced object behaves like a removed one (the store's search
    /// layer skips its stale bucket entry) but its id is poisoned: the
    /// mirror never re-admits it.
    desynced: std::collections::BTreeSet<u32>,
    /// Live queries: id → (anchor, algorithm).
    queries: BTreeMap<u32, (u32, Algorithm)>,
    /// Pinned object (never removable or desyncable): the victim
    /// client's standing anchor, or — on server plans without one —
    /// the workload client's tick-barrier anchor (see
    /// [`crate::events::Plan::pinned_anchor`]).
    pinned: Option<u32>,
    /// Whether [`SimEvent::KillRestart`] is admissible: the plan runs a
    /// served backend AND that backend keeps a write-ahead log.
    durable_server: bool,
    /// Network-distance plans carry the road graph and a Dijkstra
    /// scratch; answers come from the `naive::*_net` oracles instead of
    /// the Euclidean ones.
    net: Option<(Arc<NetworkSpace>, NetScratch)>,
}

impl Mirror {
    /// A mirror over the plan's initial population.
    pub fn new(plan: &Plan) -> Self {
        Mirror {
            space: plan.space,
            live: plan
                .initial
                .iter()
                .map(|&(id, kind, x, y)| (id, (kind, Point::new(x, y))))
                .collect(),
            desynced: Default::default(),
            queries: BTreeMap::new(),
            pinned: plan.pinned_anchor(),
            durable_server: plan.server && plan.durable,
            net: plan.network.then(|| {
                let ns = NetworkSpace::from_network(&sim_network(plan.seed, plan.space));
                (Arc::new(ns), NetScratch::default())
            }),
        }
    }

    /// The road graph of a network-distance plan (shared with the
    /// backends so everyone routes over the same edges).
    pub fn network(&self) -> Option<&Arc<NetworkSpace>> {
        self.net.as_ref().map(|(ns, _)| ns)
    }

    /// Whether `event` is valid in the current state. Invalid events
    /// must be dropped by the executor before any backend sees them:
    /// the backends would diverge on them (panic offline, ERROR frames
    /// on the wire).
    pub fn admits(&self, event: &SimEvent) -> bool {
        match *event {
            SimEvent::Move { id, x, y } => {
                self.live.contains_key(&id) && self.space.contains(Point::new(x, y))
            }
            SimEvent::Insert { id, x, y, .. } => {
                !self.live.contains_key(&id)
                    && !self.desynced.contains(&id)
                    && self.space.contains(Point::new(x, y))
            }
            SimEvent::Remove { id } => {
                self.live.contains_key(&id)
                    && self.pinned != Some(id)
                    && !self.queries.values().any(|&(a, _)| a == id)
            }
            SimEvent::AddQuery { q, anchor, algo } => {
                if self.queries.contains_key(&q) {
                    return false;
                }
                let Some(&(kind, _)) = self.live.get(&anchor) else {
                    return false;
                };
                if algo.is_bichromatic() && kind != ObjectKind::A {
                    return false;
                }
                !matches!(
                    algo,
                    Algorithm::IgernMonoK(0) | Algorithm::IgernBiK(0) | Algorithm::Knn(0)
                )
            }
            SimEvent::RemoveQuery { q } => self.queries.contains_key(&q),
            SimEvent::ForceDesync { id } => {
                self.live.contains_key(&id)
                    && self.pinned != Some(id)
                    && !self.queries.values().any(|&(a, _)| a == id)
            }
            SimEvent::StallWorker { .. }
            | SimEvent::ClientStall { .. }
            | SimEvent::FrameFault { .. } => true,
            // A crash only makes sense against a server that can come
            // back: without a WAL the restarted backend would be empty.
            SimEvent::KillRestart => self.durable_server,
        }
    }

    /// Apply an admitted event. Call only after [`Mirror::admits`].
    pub fn apply(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::Move { id, x, y } => {
                self.live.get_mut(&id).expect("admitted").1 = Point::new(x, y);
            }
            SimEvent::Insert { id, kind, x, y } => {
                self.live.insert(id, (kind, Point::new(x, y)));
            }
            SimEvent::Remove { id } => {
                self.live.remove(&id);
            }
            SimEvent::AddQuery { q, anchor, algo } => {
                self.queries.insert(q, (anchor, algo));
            }
            SimEvent::RemoveQuery { q } => {
                self.queries.remove(&q);
            }
            SimEvent::ForceDesync { id } => {
                self.live.remove(&id);
                self.desynced.insert(id);
            }
            SimEvent::StallWorker { .. }
            | SimEvent::ClientStall { .. }
            | SimEvent::FrameFault { .. }
            | SimEvent::KillRestart => {}
        }
    }

    /// Live query ids, ascending.
    pub fn query_ids(&self) -> Vec<u32> {
        self.queries.keys().copied().collect()
    }

    /// Number of live objects.
    pub fn population(&self) -> usize {
        self.live.len()
    }

    /// The expected answer of query `q` under the current population,
    /// sorted by object id — computed by the brute-force definitions in
    /// [`igern_core::naive`] (and a direct k-NN scan for
    /// [`Algorithm::Knn`]).
    pub fn expected_answer(&mut self, q: u32) -> Vec<u32> {
        let &(anchor, algo) = self.queries.get(&q).expect("live query");
        let qpos = self.live.get(&anchor).expect("anchor live").1;
        let qid = Some(ObjectId(anchor));
        let all: Vec<(ObjectId, Point)> = self
            .live
            .iter()
            .map(|(&id, &(_, p))| (ObjectId(id), p))
            .collect();
        let of_kind = |want: ObjectKind| -> Vec<(ObjectId, Point)> {
            self.live
                .iter()
                .filter(|(_, &(k, _))| k == want)
                .map(|(&id, &(_, p))| (ObjectId(id), p))
                .collect()
        };
        let ids = match &mut self.net {
            Some((ns, scratch)) => match algo {
                Algorithm::IgernMono | Algorithm::Crnn | Algorithm::TplRepeat => {
                    naive::mono_rnn_net(ns, scratch, &all, qpos, qid)
                }
                Algorithm::IgernBi | Algorithm::VoronoiRepeat => naive::bi_rnn_net(
                    ns,
                    scratch,
                    &of_kind(ObjectKind::A),
                    &of_kind(ObjectKind::B),
                    qpos,
                    qid,
                ),
                Algorithm::IgernMonoK(k) => naive::mono_rknn_net(ns, scratch, &all, qpos, qid, k),
                Algorithm::IgernBiK(k) => naive::bi_rknn_net(
                    ns,
                    scratch,
                    &of_kind(ObjectKind::A),
                    &of_kind(ObjectKind::B),
                    qpos,
                    qid,
                    k,
                ),
                Algorithm::Knn(k) => naive::knn_net(ns, scratch, &all, qpos, qid, k),
            },
            None => match algo {
                Algorithm::IgernMono | Algorithm::Crnn | Algorithm::TplRepeat => {
                    naive::mono_rnn(&all, qpos, qid)
                }
                Algorithm::IgernBi | Algorithm::VoronoiRepeat => {
                    naive::bi_rnn(&of_kind(ObjectKind::A), &of_kind(ObjectKind::B), qpos, qid)
                }
                Algorithm::IgernMonoK(k) => naive::mono_rknn(&all, qpos, qid, k),
                Algorithm::IgernBiK(k) => naive::bi_rknn(
                    &of_kind(ObjectKind::A),
                    &of_kind(ObjectKind::B),
                    qpos,
                    qid,
                    k,
                ),
                Algorithm::Knn(k) => knn_oracle(&all, qpos, ObjectId(anchor), k),
            },
        };
        ids.into_iter().map(|o| o.0).collect()
    }
}

/// Brute-force k-NN: the `k` objects nearest to `q` (the anchor itself
/// excluded), sorted by id. Distance ties break by id, matching no
/// monitor in particular — ties are measure-zero under the generator's
/// continuous positions.
fn knn_oracle(all: &[(ObjectId, Point)], q: Point, anchor: ObjectId, k: usize) -> Vec<ObjectId> {
    let mut others: Vec<(f64, ObjectId)> = all
        .iter()
        .filter(|&&(id, _)| id != anchor)
        .map(|&(id, p)| (p.dist_sq(q), id))
        .collect();
    others.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut ids: Vec<ObjectId> = others.into_iter().take(k).map(|(_, id)| id).collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Plan, ScheduledEvent};

    fn plan() -> Plan {
        Plan {
            seed: 0,
            space: Aabb::from_coords(0.0, 0.0, 10.0, 10.0),
            grid: 4,
            workers: 1,
            ticks: 1,
            server: false,
            durable: false,
            network: false,
            victim_anchor: Some(3),
            initial: vec![
                (0, ObjectKind::A, 1.0, 1.0),
                (1, ObjectKind::A, 2.0, 1.0),
                (2, ObjectKind::B, 5.0, 5.0),
                (3, ObjectKind::B, 9.0, 9.0),
            ],
            events: Vec::<ScheduledEvent>::new(),
        }
    }

    #[test]
    fn invalid_events_are_rejected() {
        let mut m = Mirror::new(&plan());
        assert!(!m.admits(&SimEvent::Move {
            id: 9,
            x: 1.0,
            y: 1.0
        }));
        assert!(!m.admits(&SimEvent::Move {
            id: 0,
            x: 99.0,
            y: 1.0
        }));
        assert!(!m.admits(&SimEvent::Insert {
            id: 0,
            kind: ObjectKind::A,
            x: 1.0,
            y: 1.0
        }));
        // The victim anchor is pinned.
        assert!(!m.admits(&SimEvent::Remove { id: 3 }));
        assert!(!m.admits(&SimEvent::ForceDesync { id: 3 }));
        // Bichromatic query on a kind-B anchor.
        assert!(!m.admits(&SimEvent::AddQuery {
            q: 0,
            anchor: 2,
            algo: Algorithm::IgernBi
        }));
        assert!(!m.admits(&SimEvent::AddQuery {
            q: 0,
            anchor: 0,
            algo: Algorithm::Knn(0)
        }));

        let add = SimEvent::AddQuery {
            q: 0,
            anchor: 0,
            algo: Algorithm::IgernMono,
        };
        assert!(m.admits(&add));
        m.apply(&add);
        // Its anchor is now unremovable and undesyncable; the query id
        // is taken.
        assert!(!m.admits(&SimEvent::Remove { id: 0 }));
        assert!(!m.admits(&SimEvent::ForceDesync { id: 0 }));
        assert!(!m.admits(&add));

        // Desynced ids are poisoned for good.
        let de = SimEvent::ForceDesync { id: 2 };
        assert!(m.admits(&de));
        m.apply(&de);
        assert!(!m.admits(&SimEvent::Insert {
            id: 2,
            kind: ObjectKind::B,
            x: 1.0,
            y: 1.0
        }));
        assert!(!m.admits(&SimEvent::Move {
            id: 2,
            x: 1.0,
            y: 1.0
        }));
    }

    #[test]
    fn oracle_answers_match_naive_by_hand() {
        let mut m = Mirror::new(&plan());
        for (q, algo) in [
            (0, Algorithm::IgernMono),
            (1, Algorithm::IgernBi),
            (2, Algorithm::Knn(2)),
        ] {
            m.apply(&SimEvent::AddQuery { q, anchor: 0, algo });
        }
        // Mono RNN of (1,1): object 1 is nearest to it and vice versa.
        assert_eq!(m.expected_answer(0), vec![1]);
        // Bi RNN: B-objects whose nearest A is the query. Object 2 at
        // (5,5) is nearer to object 1 (2,1) than to q (1,1): blocked.
        // Object 3 at (9,9) likewise. Answer empty.
        assert_eq!(m.expected_answer(1), Vec::<u32>::new());
        // 2-NN of (1,1): objects 1 and 2.
        assert_eq!(m.expected_answer(2), vec![1, 2]);
    }
}
