//! The tick thread: single owner of the engine and all subscription
//! state.
//!
//! Every mutation flows through one bounded channel in arrival order
//! and is applied to the store immediately (the dirty-cell journal
//! accumulates until the tick's `step(&[])` drains it, so skip routing
//! stays sound — see `TickRunner::apply_update`). Ticks fire on a timer
//! (`tick_ms > 0`) or on explicit `STEP` frames (manual mode, the
//! deterministic test path). Each tick diffs every subscription's
//! answer against the previous tick and pushes only the delta; the
//! first push after subscribe — and after a slow-consumer coalesce —
//! is a full snapshot instead.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use igern_core::processor::Algorithm;
use igern_core::types::{DistanceMode, ObjectKind};
use igern_engine::{EngineError, TickRunner};
use igern_geom::Point;
use igern_grid::ObjectId;
use igern_wal::{
    answer_digest, prune_snapshots, remove_all_segments, SnapshotData, SubEntry, WalWriter,
};

use crate::proto::{ErrorCode, Frame};
use crate::rio::{PushOutcome, RConn};
use crate::{ServerConfig, ServerMetrics, TickMode};

/// Connection-id sentinel for *orphan* subscriptions restored by WAL
/// recovery: they keep evaluating every tick but belong to no live
/// connection (the acceptor allocates real ids from 1). A client
/// re-subscribing with the same `(anchor, algo)` claims the orphan
/// instead of registering a second identical query.
const ORPHAN_CONN: u64 = 0;

/// Per-subscription samples the runner retains. The server never reads
/// raw samples back, and unbounded retention grows by one `TickSample`
/// per subscription per tick for the life of the process.
/// `History::stats` still folds every sample. (Recovered subscriptions
/// were registered under `igern_wal::recover`'s own equal bound.)
const HISTORY_SAMPLES: usize = 8;

/// One item of the ingest queue, in arrival order.
pub(crate) enum Ingest {
    /// A new accepted connection, from its I/O event loop.
    NewConn(Arc<RConn>),
    /// `UPSERT_OBJECT`.
    Upsert {
        conn: u64,
        id: u32,
        kind: ObjectKind,
        x: f64,
        y: f64,
    },
    /// `REMOVE_OBJECT`.
    Remove { conn: u64, id: u32 },
    /// `SUBSCRIBE_QUERY`; `sid` was allocated by the I/O side, but the
    /// SUBSCRIBED ack is emitted here at dequeue — before validation —
    /// so an acked client is guaranteed part of the next tick and the
    /// ack always precedes any ERROR or deltas for the subscription.
    Subscribe {
        conn: u64,
        sid: u32,
        token: u32,
        anchor: u32,
        algo: Algorithm,
        mode: DistanceMode,
    },
    /// `UNSUBSCRIBE`.
    Unsubscribe { conn: u64, sid: u32 },
    /// `STEP` — tick right now (whatever the tick mode).
    Step,
    /// A client sent `SHUTDOWN`, or the local handle asked for it.
    ShutdownRequested,
    /// The connection's receive side finished; tear it down.
    Closed(u64),
    /// Test hook ([`crate::Server::debug_desync_sub`]): drop a sid from
    /// the sub table without touching its connection's sub list,
    /// forcing the index desync the tick loop degrades around.
    DebugDropSub(u32),
}

/// Tick-thread record of one live subscription.
struct Sub {
    conn: u64,
    /// Engine query slot.
    qid: usize,
    anchor: ObjectId,
    /// Query algorithm (orphan-claim matching and WAL snapshots).
    algo: Algorithm,
    /// Distance mode (part of the query identity alongside `algo`).
    mode: DistanceMode,
    /// Answer pushed at the previous tick (sorted by id).
    prev: Vec<ObjectId>,
    /// Next push must be a full snapshot (fresh subscription, or the
    /// delta chain was broken by a coalesce).
    needs_snapshot: bool,
}

struct ConnState {
    conn: Arc<RConn>,
    /// Subscriptions owned by this connection, in sid order.
    subs: Vec<u32>,
}

pub(crate) struct TickThread {
    runner: TickRunner,
    cfg: ServerConfig,
    metrics: ServerMetrics,
    shutdown: Arc<AtomicBool>,
    /// Set by [`crate::Server::crash`]: exit without the final tick,
    /// WAL flush, or clean snapshot (simulated `kill -9`).
    crashed: Arc<AtomicBool>,
    conns: BTreeMap<u64, ConnState>,
    subs: BTreeMap<u32, Sub>,
    /// Mutations applied since the last tick (batch-size metric).
    pending_mutations: u64,
    /// Durability sink (None without `--wal-dir`).
    wal: Option<WalWriter>,
    /// Logical-tick offset: the runner restarts at 0 after recovery,
    /// so every wire-visible tick is `tick_base + runner.tick()`.
    tick_base: u64,
    /// Subscription-id allocator, shared with the I/O event loops;
    /// snapshotted so recovery never reuses a sid.
    next_sid: Arc<AtomicU32>,
}

fn now_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Durable-mode state handed to the tick thread at start: the log
/// writer plus whatever recovery restored.
pub(crate) struct DurableState {
    pub wal: WalWriter,
    /// Subscriptions restored by recovery; they become orphans.
    pub recovered_subs: Vec<igern_wal::RecoveredSub>,
    /// Logical tick the recovered runner stands at minus its internal
    /// tick counter (wire ticks continue across the restart).
    pub tick_base: u64,
}

impl TickThread {
    pub fn new(
        mut runner: TickRunner,
        cfg: ServerConfig,
        metrics: ServerMetrics,
        shutdown: Arc<AtomicBool>,
        crashed: Arc<AtomicBool>,
        durable: Option<DurableState>,
        next_sid: Arc<AtomicU32>,
    ) -> Self {
        runner.set_history_capacity(Some(HISTORY_SAMPLES));
        let (wal, tick_base, subs) = match durable {
            None => (None, 0, BTreeMap::new()),
            Some(d) => {
                let mut subs = BTreeMap::new();
                for r in d.recovered_subs {
                    subs.insert(
                        r.sid,
                        Sub {
                            conn: ORPHAN_CONN,
                            qid: r.qid,
                            anchor: r.anchor,
                            algo: r.algo,
                            mode: r.mode,
                            prev: Vec::new(),
                            needs_snapshot: true,
                        },
                    );
                }
                (Some(d.wal), d.tick_base, subs)
            }
        };
        let t = TickThread {
            runner,
            cfg,
            metrics,
            shutdown,
            crashed,
            conns: BTreeMap::new(),
            subs,
            pending_mutations: 0,
            wal,
            tick_base,
            next_sid,
        };
        t.metrics.subscriptions_active.set(t.subs.len() as f64);
        t
    }

    /// Main loop: drain the ingest queue, tick on schedule (or on
    /// `STEP`), and on shutdown run one final tick so every applied
    /// mutation is evaluated and pushed before connections close.
    pub fn run(mut self, rx: Receiver<Ingest>) {
        // A durable server snapshots its boot state before serving: the
        // store it was handed (a trace preload, a recovered state) never
        // went through the logged ingest path, so a crash before the
        // first periodic snapshot would otherwise replay the log onto an
        // empty store and silently drop the preloaded population.
        if self.wal.is_some() {
            let tick = self.tick_base + self.runner.tick();
            self.write_wal_snapshot(tick);
        }
        let mut next_deadline = match self.cfg.tick_mode {
            TickMode::Manual => None,
            TickMode::Every(period) => Some(Instant::now() + period),
        };
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                break; // local handle asked to stop
            }
            // Manual mode still polls so a local shutdown() that found
            // the ingest queue full is noticed via the flag above.
            let wait = match next_deadline {
                None => Duration::from_millis(100),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        self.tick();
                        if let TickMode::Every(period) = self.cfg.tick_mode {
                            next_deadline = Some(now + period);
                        }
                        continue;
                    }
                    deadline - now
                }
            };
            let item = match rx.recv_timeout(wait) {
                Ok(item) => item,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            match item {
                Ingest::NewConn(conn) => {
                    self.metrics.ingest_dequeued_total.inc();
                    self.conns.insert(
                        conn.id,
                        ConnState {
                            conn,
                            subs: Vec::new(),
                        },
                    );
                    self.metrics.connections_active.set(self.conns.len() as f64);
                }
                Ingest::Closed(id) => {
                    self.metrics.ingest_dequeued_total.inc();
                    self.drop_conn(id);
                }
                Ingest::Step => {
                    self.metrics.ingest_dequeued_total.inc();
                    self.tick();
                    if let TickMode::Every(period) = self.cfg.tick_mode {
                        next_deadline = Some(Instant::now() + period);
                    }
                }
                Ingest::ShutdownRequested => {
                    self.metrics.ingest_dequeued_total.inc();
                    break;
                }
                Ingest::DebugDropSub(sid) => {
                    self.metrics.ingest_dequeued_total.inc();
                    // Deliberately skips the connection's sub list and
                    // the engine slot: the next tick must hit the
                    // dangling sid and degrade instead of panicking.
                    self.subs.remove(&sid);
                }
                other => {
                    self.metrics.ingest_dequeued_total.inc();
                    self.apply(other);
                }
            }
        }
        // Graceful shutdown: evaluate and push whatever was ingested,
        // then flush and close every connection.
        self.shutdown.store(true, Ordering::Release);
        if self.crashed.load(Ordering::Acquire) {
            // Simulated `kill -9`: no final tick, no flush, no clean
            // snapshot — the next boot must recover from whatever
            // already reached the log.
            for cs in self.conns.values() {
                cs.conn.close_after_flush();
            }
            return;
        }
        self.tick();
        if self.wal.is_some() {
            // Satellite durability guarantee: a graceful exit leaves a
            // snapshot covering the whole log and zero segments to
            // replay, so restart cost is one snapshot load.
            if let Some(w) = self.wal.as_mut() {
                let _ = w.sync();
            }
            let tick = self.tick_base + self.runner.tick();
            self.write_wal_snapshot(tick);
            if let Some(opts) = &self.cfg.wal {
                let _ = remove_all_segments(&opts.dir);
            }
        }
        for cs in self.conns.values() {
            cs.conn.close_after_flush();
        }
    }

    /// Append one admitted mutation to the log (no-op without WAL).
    fn wal_append(&mut self, frame: &Frame) {
        if let Some(w) = self.wal.as_mut() {
            match w.append(frame) {
                Ok(_) => self.metrics.wal_records_total.inc(),
                Err(e) => {
                    // Durability degrades; availability does not. The
                    // error is counted and the server keeps serving.
                    self.metrics.wal_errors_total.inc();
                    eprintln!("wal: append failed: {e}");
                }
            }
        }
    }

    /// Write a compacted snapshot at `tick`, then reclaim covered
    /// segments and prune stale snapshots (no-op without WAL).
    fn write_wal_snapshot(&mut self, tick: u64) {
        let Some(w) = self.wal.as_mut() else { return };
        let covered_seq = w.next_seq();
        let store = self.runner.store();
        let data = SnapshotData {
            tick,
            covered_seq,
            next_sid: self.next_sid.load(Ordering::Relaxed),
            space: *store.space(),
            grid: store.all().cells_per_side(),
            objects: store
                .all()
                .iter()
                .map(|(id, p)| (id.0, store.kind(id), p.x, p.y))
                .collect(),
            subs: self
                .subs
                .iter()
                .map(|(&sid, s)| SubEntry {
                    sid,
                    anchor: s.anchor.0,
                    algo: s.algo,
                    mode: s.mode,
                    answer_digest: answer_digest(self.runner.answer(s.qid)),
                })
                .collect(),
        };
        // A snapshot needs the durability config for its directory; a
        // writer without one (snapshot requested with durability off)
        // is a counted no-op, not a tick-thread panic.
        let Some(opts) = self.cfg.wal.as_ref() else {
            self.metrics.wal_snapshots_skipped_total.inc();
            return;
        };
        let dir = opts.dir.clone();
        match igern_wal::write_snapshot(&dir, &data) {
            Ok(_) => {
                self.metrics.wal_snapshots_total.inc();
                // Keep the fallback snapshot recovery would use if the
                // newest one is damaged, drop anything older.
                let _ = w.reclaim_covered(covered_seq);
                let _ = prune_snapshots(&dir, 2);
            }
            Err(e) => {
                self.metrics.wal_errors_total.inc();
                eprintln!("wal: snapshot failed: {e}");
            }
        }
    }

    /// Apply one mutating command immediately, in arrival order.
    fn apply(&mut self, item: Ingest) {
        match item {
            Ingest::Upsert {
                conn,
                id,
                kind,
                x,
                y,
            } => {
                let pos = Point::new(x, y);
                if !self.cfg.space.contains(pos) {
                    self.reject(
                        conn,
                        ErrorCode::OutOfBounds,
                        &format!("object {id} position ({x}, {y}) outside the data space"),
                    );
                    return;
                }
                let oid = ObjectId(id);
                if self.runner.store().position(oid).is_some() {
                    if self.runner.store().kind(oid) != kind {
                        self.reject(
                            conn,
                            ErrorCode::KindMismatch,
                            &format!("object {id} already exists with a different kind"),
                        );
                        return;
                    }
                    self.runner.apply_update(oid, pos);
                } else {
                    self.runner.insert_object(oid, kind, pos);
                }
                self.pending_mutations += 1;
                self.wal_append(&Frame::UpsertObject { id, kind, x, y });
            }
            Ingest::Remove { conn, id } => {
                let oid = ObjectId(id);
                if self.subs.values().any(|s| s.anchor == oid) {
                    self.reject(
                        conn,
                        ErrorCode::AnchorInUse,
                        &format!("object {id} anchors a live subscription"),
                    );
                    return;
                }
                if self.runner.remove_object(oid).is_none() {
                    self.reject(conn, ErrorCode::UnknownObject, &format!("no object {id}"));
                    return;
                }
                self.pending_mutations += 1;
                self.wal_append(&Frame::RemoveObject { id });
            }
            Ingest::Subscribe {
                conn,
                sid,
                token,
                anchor,
                algo,
                mode,
            } => {
                // Ack first: the subscription is now owned by this
                // thread, so SUBSCRIBED lands before any ERROR below
                // and before the tick's deltas.
                if let Some(cs) = self.conns.get(&conn) {
                    cs.conn.push_control(
                        Frame::Subscribed { token, sid },
                        self.cfg.outbound_queue_frames,
                        &self.metrics,
                    );
                }
                // A recovered orphan with the same query identity is
                // claimed instead of registering a duplicate: the
                // existing engine slot (and its answer) transfers to
                // the new sid, logged as an unsubscribe + subscribe.
                let claim = self
                    .subs
                    .iter()
                    .find(|(_, s)| {
                        s.conn == ORPHAN_CONN
                            && s.anchor == ObjectId(anchor)
                            && s.algo == algo
                            && s.mode == mode
                    })
                    .map(|(&old_sid, _)| old_sid);
                if let Some(old_sid) = claim {
                    if let Some(mut sub) = self.subs.remove(&old_sid) {
                        sub.conn = conn;
                        sub.needs_snapshot = true;
                        sub.prev = Vec::new();
                        self.subs.insert(sid, sub);
                        if let Some(cs) = self.conns.get_mut(&conn) {
                            cs.subs.push(sid);
                        }
                        self.wal_append(&Frame::Unsubscribe { sid: old_sid });
                        self.wal_append(&Frame::Subscribe {
                            token: sid,
                            anchor,
                            algo,
                            mode,
                        });
                        self.metrics
                            .subscriptions_active
                            .set(self.subs.len() as f64);
                        return;
                    }
                    // The claim scan and the removal disagree (index
                    // desync): count it and fall through to a fresh
                    // registration instead of panicking.
                    self.metrics.sub_desync_total.inc();
                }
                match self.runner.add_query_in(ObjectId(anchor), algo, mode) {
                    Ok(qid) => {
                        self.subs.insert(
                            sid,
                            Sub {
                                conn,
                                qid,
                                anchor: ObjectId(anchor),
                                algo,
                                mode,
                                prev: Vec::new(),
                                needs_snapshot: true,
                            },
                        );
                        if let Some(cs) = self.conns.get_mut(&conn) {
                            cs.subs.push(sid);
                        }
                        // Logged with the assigned sid in the token
                        // field, so replay restores the same sid.
                        self.wal_append(&Frame::Subscribe {
                            token: sid,
                            anchor,
                            algo,
                            mode,
                        });
                        self.metrics
                            .subscriptions_active
                            .set(self.subs.len() as f64);
                    }
                    Err(e) => {
                        let code = match e {
                            EngineError::UnknownObject(_) => ErrorCode::UnknownObject,
                            EngineError::NotKindA(_) => ErrorCode::NotKindA,
                            EngineError::ZeroK => ErrorCode::ZeroK,
                            EngineError::NoNetwork => ErrorCode::NoNetwork,
                        };
                        self.reject(conn, code, &format!("subscription {sid} rejected: {e}"));
                    }
                }
            }
            Ingest::Unsubscribe { conn, sid } => {
                let owned = self.subs.get(&sid).is_some_and(|s| s.conn == conn);
                if !owned {
                    self.reject(
                        conn,
                        ErrorCode::UnknownSubscription,
                        &format!("subscription {sid} is not owned by this connection"),
                    );
                    return;
                }
                let Some(sub) = self.subs.remove(&sid) else {
                    // Ownership check and removal disagree (index
                    // desync): drop the stale sid from the connection
                    // and keep serving.
                    self.metrics.sub_desync_total.inc();
                    if let Some(cs) = self.conns.get_mut(&conn) {
                        cs.subs.retain(|&s| s != sid);
                    }
                    self.metrics
                        .subscriptions_active
                        .set(self.subs.len() as f64);
                    return;
                };
                self.runner.remove_query(sub.qid);
                self.wal_append(&Frame::Unsubscribe { sid });
                if let Some(cs) = self.conns.get_mut(&conn) {
                    cs.subs.retain(|&s| s != sid);
                    cs.conn.push_control(
                        Frame::Unsubscribed { sid },
                        self.cfg.outbound_queue_frames,
                        &self.metrics,
                    );
                }
                self.metrics
                    .subscriptions_active
                    .set(self.subs.len() as f64);
            }
            _ => unreachable!("non-mutating items handled in run()"),
        }
    }

    /// Push an `ERROR` frame at the offending connection. Semantic
    /// rejections keep the connection alive.
    fn reject(&self, conn: u64, code: ErrorCode, message: &str) {
        self.metrics.protocol_errors_total.inc();
        if let Some(cs) = self.conns.get(&conn) {
            cs.conn.push_control(
                Frame::Error {
                    code,
                    message: message.to_string(),
                },
                self.cfg.outbound_queue_frames,
                &self.metrics,
            );
        }
    }

    /// Tear down a closed connection: every subscription it owned is
    /// removed from the engine. Queued frames (a final ERROR, say) are
    /// flushed first — `kill()` here would race the flush and eat them.
    fn drop_conn(&mut self, id: u64) {
        if let Some(cs) = self.conns.remove(&id) {
            for sid in cs.subs {
                if let Some(sub) = self.subs.remove(&sid) {
                    self.runner.remove_query(sub.qid);
                    // A dead connection's queries are gone for good:
                    // log the removal or recovery would resurrect them.
                    self.wal_append(&Frame::Unsubscribe { sid });
                }
            }
            cs.conn.close_after_flush();
        }
        self.metrics.connections_active.set(self.conns.len() as f64);
        self.metrics
            .subscriptions_active
            .set(self.subs.len() as f64);
    }

    /// One tick: evaluate the accumulated batch, diff every
    /// subscription, push deltas (or snapshots where the chain broke),
    /// and close with a `TICK_END` per subscribed connection.
    fn tick(&mut self) {
        let t0 = Instant::now();
        // Simulation injection point: the runner fires `on_tick` /
        // desyncs itself inside `step`; `on_server_tick` covers the
        // serving layer (e.g. stalling the tick thread while the event
        // loops keep ingesting).
        if let Some(h) = &self.cfg.sim_hooks {
            h.on_server_tick(self.runner.tick() + 1);
        }
        self.runner.step(&[]);
        self.metrics
            .batch_size
            .observe(self.pending_mutations as f64);
        self.pending_mutations = 0;
        // Wire-visible tick numbers continue across recovery: the
        // rebuilt runner counts from zero again, `tick_base` bridges.
        let tick = self.tick_base + self.runner.tick();
        let stamp_nanos = now_nanos();
        // Durability barrier: the tick boundary (and, per fsync
        // policy, everything before it) is on disk before any client
        // sees this tick's deltas — a crash after a push can never
        // lose state a client already observed.
        if let Some(w) = self.wal.as_mut() {
            match w.tick_boundary(tick, stamp_nanos) {
                Ok(_) => self.metrics.wal_records_total.inc(),
                Err(e) => {
                    self.metrics.wal_errors_total.inc();
                    eprintln!("wal: tick boundary append failed: {e}");
                }
            }
        }
        let snapshot_every = self.cfg.wal.as_ref().map_or(0, |o| o.snapshot_every);
        if self.wal.is_some() && snapshot_every > 0 && tick.is_multiple_of(snapshot_every) {
            self.write_wal_snapshot(tick);
        }
        let mut dead = Vec::new();
        for (&conn_id, cs) in &mut self.conns {
            if cs.subs.is_empty() {
                continue;
            }
            if cs.conn.is_dead() {
                dead.push(conn_id);
                continue;
            }
            let mut batch = Vec::new();
            // Sids the sub table no longer knows (index desync): the
            // stale entries are dropped below and the tick completes.
            let mut stale: Vec<u32> = Vec::new();
            for &sid in &cs.subs {
                let Some(sub) = self.subs.get_mut(&sid) else {
                    self.metrics.sub_desync_total.inc();
                    stale.push(sid);
                    continue;
                };
                let answer = self.runner.answer(sub.qid);
                if sub.needs_snapshot {
                    batch.push(Frame::TickDelta {
                        tick,
                        stamp_nanos,
                        sid,
                        snapshot: true,
                        adds: answer.iter().map(|o| o.0).collect(),
                        removes: Vec::new(),
                    });
                } else {
                    let (adds, removes) = diff_sorted(&sub.prev, answer);
                    if !adds.is_empty() || !removes.is_empty() {
                        batch.push(Frame::TickDelta {
                            tick,
                            stamp_nanos,
                            sid,
                            snapshot: false,
                            adds,
                            removes,
                        });
                    }
                }
                sub.needs_snapshot = false;
                sub.prev = answer.to_vec();
            }
            if !stale.is_empty() {
                cs.subs.retain(|s| !stale.contains(s));
            }
            batch.push(Frame::TickEnd { tick, stamp_nanos });
            match cs.conn.push_tick_batch(
                batch,
                self.cfg.outbound_queue_frames,
                self.cfg.slow_consumer,
                &self.metrics,
            ) {
                PushOutcome::Delivered => {}
                PushOutcome::Dead => dead.push(conn_id),
                PushOutcome::NeedSnapshot => {
                    // The queue shed all tick traffic, including any of
                    // this tick's frames: restart the conversation with
                    // full snapshots for every sub on the connection.
                    let snap: Vec<Frame> = cs
                        .subs
                        .iter()
                        .filter_map(|&sid| {
                            // The delta loop above already purged stale
                            // sids this tick; a race is still counted
                            // and skipped rather than panicking.
                            let Some(sub) = self.subs.get_mut(&sid) else {
                                self.metrics.sub_desync_total.inc();
                                return None;
                            };
                            sub.needs_snapshot = false;
                            Some(Frame::TickDelta {
                                tick,
                                stamp_nanos,
                                sid,
                                snapshot: true,
                                adds: sub.prev.iter().map(|o| o.0).collect(),
                                removes: Vec::new(),
                            })
                        })
                        .chain(std::iter::once(Frame::TickEnd { tick, stamp_nanos }))
                        .collect();
                    if cs.conn.push_forced(snap, &self.metrics) == PushOutcome::Dead {
                        dead.push(conn_id);
                    }
                }
            }
        }
        for id in dead {
            self.drop_conn(id);
        }
        self.metrics
            .tick_push_seconds
            .observe_duration(t0.elapsed());
        self.metrics.ingest_queue_depth.set(
            (self.metrics.ingest_enqueued_total.get() as f64)
                - (self.metrics.ingest_dequeued_total.get() as f64),
        );
    }
}

/// Sorted-merge diff: `(adds, removes)` turning `prev` into `cur`.
fn diff_sorted(prev: &[ObjectId], cur: &[ObjectId]) -> (Vec<u32>, Vec<u32>) {
    let (mut adds, mut removes) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < prev.len() || j < cur.len() {
        match (prev.get(i), cur.get(j)) {
            (Some(p), Some(c)) if p == c => {
                i += 1;
                j += 1;
            }
            (Some(p), Some(c)) if p < c => {
                removes.push(p.0);
                i += 1;
            }
            (Some(_), Some(c)) => {
                adds.push(c.0);
                j += 1;
            }
            (Some(p), None) => {
                removes.push(p.0);
                i += 1;
            }
            (None, Some(c)) => {
                adds.push(c.0);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    (adds, removes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ObjectId> {
        v.iter().map(|&i| ObjectId(i)).collect()
    }

    #[test]
    fn sorted_diff_covers_all_shapes() {
        assert_eq!(diff_sorted(&[], &[]), (vec![], vec![]));
        assert_eq!(diff_sorted(&[], &ids(&[1, 2])), (vec![1, 2], vec![]));
        assert_eq!(diff_sorted(&ids(&[1, 2]), &[]), (vec![], vec![1, 2]));
        assert_eq!(
            diff_sorted(&ids(&[1, 3, 5]), &ids(&[1, 4, 5, 9])),
            (vec![4, 9], vec![3])
        );
        assert_eq!(diff_sorted(&ids(&[7]), &ids(&[7])), (vec![], vec![]));
    }

    #[test]
    fn subscription_history_stops_growing_at_the_bound() {
        let cfg = ServerConfig::default();
        let mut store = igern_core::SpatialStore::new(cfg.space, cfg.grid, Vec::new());
        for i in 0..4u32 {
            let p = Point::new(0.2 + 0.2 * i as f64, 0.5);
            store.insert(ObjectId(i), ObjectKind::A, p);
        }
        let runner = TickRunner::new(store, cfg.workers, cfg.placement);
        let metrics = ServerMetrics::register(&igern_core::obs::MetricsRegistry::new());
        let mut t = TickThread::new(
            runner,
            cfg,
            metrics,
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
            None,
            Arc::new(AtomicU32::new(2)),
        );
        t.apply(Ingest::Subscribe {
            conn: 1,
            sid: 1,
            token: 1,
            anchor: 0,
            algo: Algorithm::IgernMono,
            mode: DistanceMode::Euclidean,
        });
        let qid = t.subs[&1].qid;
        for tick in 1..=3 * HISTORY_SAMPLES {
            t.tick();
            assert_eq!(t.runner.history(qid).len(), tick.min(HISTORY_SAMPLES));
        }
        assert_eq!(t.runner.history(qid).stats().len(), 3 * HISTORY_SAMPLES);
    }
}
