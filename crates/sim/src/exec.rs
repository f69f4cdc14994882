//! Plan execution: drive every backend through the same schedule and
//! check each tick against the brute-force mirror.
//!
//! Three backends run in lockstep:
//!
//! * **serial** — a [`TickRunner`] with 1 worker (its one shard runs
//!   inline);
//! * **sharded** — the same [`TickRunner`] with `plan.workers` workers
//!   (shards on scoped threads);
//! * **server** (optional) — a full `igern-server` instance on the
//!   in-memory transport, driven through the wire protocol by a clean
//!   *workload* client `W`, with a second *victim* client `F` whose
//!   connection absorbs the frame faults and slow-consumer stalls.
//!
//! Every tick, each live query's answer from every backend is compared
//! against [`Mirror::expected_answer`]; the first divergence (or panic)
//! stops the run with a [`SimFailure`] naming the tick, query, and
//! backend. `W` is held to full correctness even while `F`'s connection
//! is being corrupted — faults on one connection must never leak into
//! another subscriber's answers.
//!
//! On durable plans the server additionally keeps a write-ahead log in
//! a throwaway directory, and [`SimEvent::KillRestart`] events
//! crash-kill it mid-run: a replacement server boots from the log,
//! reconnecting clients claim their recovered queries back, and every
//! answer from the very next tick is held to the same oracle —
//! recovery must be exact, not approximate.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use igern_core::hooks::SimHooks;
use igern_core::obs::MetricsRegistry;
use igern_core::processor::Algorithm;
use igern_core::types::DistanceMode;
use igern_core::{NetworkSpace, SpatialStore};
use igern_engine::{Placement, TickRunner};
use igern_geom::Point;
use igern_grid::ObjectId;
use igern_server::{
    memory_listener, Client, ClientError, Listener, MemConnector, Server, ServerConfig,
    SlowConsumerPolicy, Stream, TickMode,
};

use crate::events::{FrameFault, Plan, SimEvent};
use crate::oracle::Mirror;

/// Why an execution stopped early.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// Tick (1-based) the failure surfaced on.
    pub tick: u64,
    /// Offending query, when the failure is an answer mismatch.
    pub query: Option<u32>,
    /// Failure class: `"mismatch"`, `"cross-backend"`, `"panic"`,
    /// `"server-io"`, or `"recovery"` (a crash-restarted server came
    /// back lossy or empty).
    pub kind: &'static str,
    /// Human-readable specifics (backend, expected vs got, ...).
    pub detail: String,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tick {}: {}: {}", self.tick, self.kind, self.detail)?;
        if let Some(q) = self.query {
            write!(f, " (query {q})")?;
        }
        Ok(())
    }
}

/// Deterministic run summary. Two executions of the same plan on the
/// same build must produce identical reports (the CLI's determinism
/// check relies on it), except `victim_alive`, which depends on fault
/// timing against a real connection teardown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Ticks executed.
    pub ticks: u64,
    /// FNV-1a digest folded over every (tick, query, answer) triple.
    pub digest: u64,
    /// Deterministic event counters.
    pub counters: SimCounters,
    /// Whether the victim client's connection survived the run
    /// (`None` without a server backend). Excluded from determinism
    /// comparisons.
    pub victim_alive: Option<bool>,
}

/// Counters over the *admitted* schedule (see [`Mirror::admits`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimCounters {
    pub events_applied: u64,
    pub events_skipped: u64,
    pub moves: u64,
    pub inserts: u64,
    pub removes: u64,
    pub desyncs: u64,
    pub worker_stalls: u64,
    pub frame_faults: u64,
    pub client_stalls: u64,
    pub queries_added: u64,
    pub queries_removed: u64,
    pub kill_restarts: u64,
    pub answer_checks: u64,
    pub final_population: u64,
}

/// Test seam: force a wrong answer for `query` at `tick` on the serial
/// backend, so the failure-detection → shrink → replay pipeline can be
/// exercised against a healthy build.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Corruption {
    pub tick: u64,
    pub query: u32,
}

/// Scripted engine faults shared by every backend via
/// [`igern_core::hooks::SimHooks`]: per-tick desync victims and
/// per-(tick, worker) stalls. Populated tick-by-tick by the executor
/// *before* the corresponding `step`, so all backends observe the same
/// injection at the same logical point.
#[derive(Default)]
struct ScriptedFaults {
    desyncs: Mutex<HashMap<u64, Vec<ObjectId>>>,
    stalls: Mutex<HashSet<(u64, u32)>>,
}

impl ScriptedFaults {
    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl SimHooks for ScriptedFaults {
    fn desync_targets(&self, tick: u64) -> Vec<ObjectId> {
        Self::lock(&self.desyncs)
            .get(&tick)
            .cloned()
            .unwrap_or_default()
    }

    fn on_worker_shard(&self, worker: usize, tick: u64) {
        if Self::lock(&self.stalls).contains(&(tick, worker as u32)) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn build_store(plan: &Plan, net: Option<&Arc<NetworkSpace>>) -> SpatialStore {
    let n = plan.initial.len();
    let mut kinds = vec![igern_core::ObjectKind::A; n];
    let mut positions = vec![Point::ORIGIN; n];
    for &(id, kind, x, y) in &plan.initial {
        kinds[id as usize] = kind;
        positions[id as usize] = Point::new(x, y);
    }
    let mut store = SpatialStore::new(plan.space, plan.grid, kinds);
    if let Some(ns) = net {
        store.set_network(Arc::clone(ns));
    }
    store.load(&positions);
    store
}

/// The distance mode every checked query of `plan` runs under.
fn plan_mode(plan: &Plan) -> DistanceMode {
    if plan.network {
        DistanceMode::Network
    } else {
        DistanceMode::Euclidean
    }
}

/// An offline tick backend (the runner at 1 or at `plan.workers`
/// workers) plus its query-id map.
struct Offline {
    name: &'static str,
    runner: TickRunner,
    mode: DistanceMode,
    qmap: HashMap<u32, usize>,
}

impl Offline {
    fn apply(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::Move { id, x, y } => {
                self.runner.apply_update(ObjectId(id), Point::new(x, y));
            }
            SimEvent::Insert { id, kind, x, y } => {
                self.runner
                    .insert_object(ObjectId(id), kind, Point::new(x, y));
            }
            SimEvent::Remove { id } => {
                self.runner.remove_object(ObjectId(id));
            }
            SimEvent::AddQuery { q, anchor, algo } => {
                let qid = self
                    .runner
                    .add_query_in(ObjectId(anchor), algo, self.mode)
                    .expect("mirror admitted the query");
                self.qmap.insert(q, qid);
            }
            SimEvent::RemoveQuery { q } => {
                let qid = self.qmap.remove(&q).expect("mirror admitted the removal");
                self.runner.remove_query(qid);
            }
            _ => {}
        }
    }

    fn answer(&self, q: u32) -> Vec<u32> {
        self.runner
            .answer(self.qmap[&q])
            .iter()
            .map(|o| o.0)
            .collect()
    }
}

/// A throwaway WAL directory for one durable execution, removed on
/// drop so failed runs don't leak state into later ones.
struct TempWalDir(PathBuf);

impl Drop for TempWalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

static SIM_WAL_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_wal_dir() -> std::io::Result<TempWalDir> {
    let seq = SIM_WAL_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("igern-sim-wal-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(TempWalDir(dir))
}

/// The wire-protocol backend: a served engine behind two clients.
struct Served {
    server: Server,
    hooks: Arc<ScriptedFaults>,
    /// Write-ahead-log directory on durable plans; [`Served::kill_restart`]
    /// reboots the server from it.
    wal_dir: Option<PathBuf>,
    /// Clean workload client: sends every mutation, is oracle-checked.
    w: Client,
    /// Fault victim: owns one subscription, absorbs the frame faults;
    /// only its liveness is tracked.
    f: Option<Client>,
    f_stalled_ticks: u32,
    /// Whether `w` holds the standing tick-barrier subscription (see
    /// [`Plan::pinned_anchor`]); without it the server never pushes
    /// `TICK_END` to `w` and the executor falls back to a `PING`
    /// round-trip (only possible on degenerate hand-written plans with
    /// an empty initial population — no queries can exist there, so
    /// answer reads never race the tick).
    has_barrier: bool,
    sid_of: HashMap<u32, u32>,
    /// Live queries by plan id — what a restarted server's fresh
    /// workload client must re-subscribe (in ascending id order, so
    /// recovered orphan queries are claimed deterministically).
    query_of: HashMap<u32, (u32, Algorithm)>,
    /// Registered kind per id — the upsert frame re-states the kind on
    /// every move, and a mismatch is a semantic error.
    kind_of: HashMap<u32, igern_core::ObjectKind>,
    /// Road graph of a network-distance plan; restart stores re-attach
    /// it so WAL recovery can re-register network subscriptions.
    net: Option<Arc<NetworkSpace>>,
    tap_script: Arc<Mutex<VecDeque<FrameFault>>>,
}

fn io_fail(tick: u64, e: &dyn std::fmt::Display) -> SimFailure {
    SimFailure {
        tick,
        query: None,
        kind: "server-io",
        detail: format!("server backend setup: {e}"),
    }
}

fn server_cfg(plan: &Plan, hooks: Arc<ScriptedFaults>, wal_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        space: plan.space,
        grid: plan.grid,
        workers: plan.workers,
        placement: Placement::RoundRobin,
        tick_mode: TickMode::Manual,
        slow_consumer: SlowConsumerPolicy::Coalesce,
        outbound_queue_frames: 64,
        sim_hooks: Some(hooks),
        wal: wal_dir.map(|dir| {
            let mut opts = igern_wal::WalOptions::new(dir);
            // Snapshots every few ticks so recovery exercises both the
            // snapshot load and a segment tail replay; no fsync — the
            // kill is an in-process crash, not a power cut.
            opts.snapshot_every = 16;
            opts.fsync = igern_wal::FsyncPolicy::Never;
            opts
        }),
        ..ServerConfig::default()
    }
}

/// Connect the workload client and open its tick-barrier subscription.
fn connect_w(
    tick: u64,
    connector: &MemConnector,
    plan: &Plan,
) -> Result<(Client, bool), SimFailure> {
    let fail = |e: &dyn std::fmt::Display| io_fail(tick, e);
    let mut w = Client::from_stream(Stream::Mem(connector.connect().map_err(|e| fail(&e))?))
        .map_err(|e| fail(&e))?;
    w.set_read_timeout(Duration::from_millis(1))
        .map_err(|e| fail(&e))?;
    // The server pushes TICK_END only to subscribed connections, so
    // W opens a standing subscription on the pinned anchor purely
    // to receive that frame — it is the per-tick barrier proving
    // every delta of the tick has been delivered and folded.
    let has_barrier = match plan.pinned_anchor() {
        Some(anchor) => {
            w.subscribe(anchor, Algorithm::IgernMono)
                .map_err(|e| fail(&e))?;
            true
        }
        None => false,
    };
    Ok((w, has_barrier))
}

/// Connect the fault-victim client through a write tap scripted by
/// `tap_script`, subscribed at the plan's victim anchor.
fn connect_f(
    tick: u64,
    connector: &MemConnector,
    plan: &Plan,
    tap_script: &Arc<Mutex<VecDeque<FrameFault>>>,
) -> Result<Option<Client>, SimFailure> {
    let fail = |e: &dyn std::fmt::Display| io_fail(tick, e);
    let Some(anchor) = plan.victim_anchor else {
        return Ok(None);
    };
    let script = Arc::clone(tap_script);
    let mut held: Option<Vec<u8>> = None;
    let tap = Box::new(move |bytes: &[u8]| {
        let fault = script
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front();
        let mut out: Vec<Vec<u8>> = Vec::new();
        match fault {
            None => out.push(bytes.to_vec()),
            Some(FrameFault::Drop) => {}
            Some(FrameFault::Duplicate) => {
                out.push(bytes.to_vec());
                out.push(bytes.to_vec());
            }
            Some(FrameFault::Truncate) => {
                out.push(bytes[..bytes.len() / 2].to_vec());
            }
            Some(FrameFault::Reorder) if held.is_none() => {
                held = Some(bytes.to_vec());
            }
            Some(FrameFault::Reorder) => out.push(bytes.to_vec()),
        }
        // A held-back frame rides out right after the next
        // delivered one.
        if !out.is_empty() {
            if let Some(h) = held.take() {
                out.push(h);
            }
        }
        out
    });
    let stream = connector
        .connect_with_tap(Some(tap))
        .map_err(|e| fail(&e))?;
    let mut f = Client::from_stream(Stream::Mem(stream)).map_err(|e| fail(&e))?;
    f.set_read_timeout(Duration::from_millis(1))
        .map_err(|e| fail(&e))?;
    f.subscribe(anchor, Algorithm::IgernMono)
        .map_err(|e| fail(&e))?;
    Ok(Some(f))
}

impl Served {
    fn start(
        plan: &Plan,
        hooks: Arc<ScriptedFaults>,
        wal_dir: Option<&Path>,
        net: Option<&Arc<NetworkSpace>>,
    ) -> Result<Served, SimFailure> {
        let (listener, connector) = memory_listener();
        let cfg = server_cfg(plan, Arc::clone(&hooks), wal_dir);
        let server = Server::start_on(
            Listener::Mem(listener),
            build_store(plan, net),
            cfg,
            MetricsRegistry::new(),
        )
        .map_err(|e| io_fail(0, &e))?;

        let (w, has_barrier) = connect_w(0, &connector, plan)?;
        let tap_script: Arc<Mutex<VecDeque<FrameFault>>> = Arc::default();
        let f = connect_f(0, &connector, plan, &tap_script)?;

        Ok(Served {
            server,
            hooks,
            wal_dir: wal_dir.map(Path::to_path_buf),
            w,
            f,
            f_stalled_ticks: 0,
            has_barrier,
            sid_of: HashMap::new(),
            query_of: HashMap::new(),
            kind_of: plan.initial.iter().map(|&(id, k, _, _)| (id, k)).collect(),
            net: net.map(Arc::clone),
            tap_script,
        })
    }

    /// Crash-kill the server (no final tick, no clean snapshot) and
    /// boot a replacement over the same WAL directory. The recovered
    /// engine re-evaluates its standing queries as headless orphans;
    /// reconnecting clients claim them back by re-subscribing the same
    /// `(anchor, algorithm)` pairs. Every answer after this point is
    /// still held to the mirror — recovery must be exact.
    fn kill_restart(&mut self, plan: &Plan, tick: u64) -> Result<(), SimFailure> {
        let fail = |e: &dyn std::fmt::Display| io_fail(tick, e);
        let dir = self
            .wal_dir
            .clone()
            .expect("mirror admits KillRestart only on durable plans");
        self.server.crash();

        let (listener, connector) = memory_listener();
        let cfg = server_cfg(plan, Arc::clone(&self.hooks), Some(&dir));
        let mut store = SpatialStore::new(plan.space, plan.grid, Vec::new());
        if let Some(ns) = &self.net {
            // Recovery re-registers network subscriptions; the fresh
            // store must carry the road graph before the server boots.
            store.set_network(Arc::clone(ns));
        }
        let server = Server::start_on(Listener::Mem(listener), store, cfg, MetricsRegistry::new())
            .map_err(|e| fail(&e))?;
        let recovered = server.recovery().ok_or_else(|| SimFailure {
            tick,
            query: None,
            kind: "recovery",
            detail: "restarted server recovered nothing from its WAL".into(),
        })?;
        if !recovered.report.clean() {
            return Err(SimFailure {
                tick,
                query: None,
                kind: "recovery",
                detail: format!(
                    "in-process crash must lose nothing, yet recovery skipped \
                     {} records and dropped a {}-byte torn tail",
                    recovered.report.skipped_records, recovered.report.torn_tail_bytes
                ),
            });
        }

        let (mut w, has_barrier) = connect_w(tick, &connector, plan)?;
        let mut sid_of = HashMap::new();
        let mut queries: Vec<(u32, (u32, Algorithm))> =
            self.query_of.iter().map(|(&q, &v)| (q, v)).collect();
        queries.sort_unstable_by_key(|&(q, _)| q);
        let mode = plan_mode(plan);
        for (q, (anchor, algo)) in queries {
            let sid = w.subscribe_in(anchor, algo, mode).map_err(|e| fail(&e))?;
            sid_of.insert(q, sid);
        }
        // The victim reconnects (through a fresh tap over the same
        // fault script) only if its previous connection was still
        // alive; a dead victim stays dead, like any real client.
        let f = if self.f.is_some() {
            connect_f(tick, &connector, plan, &self.tap_script)?
        } else {
            None
        };

        self.server = server;
        self.w = w;
        self.f = f;
        self.has_barrier = has_barrier;
        self.sid_of = sid_of;
        Ok(())
    }

    fn apply(&mut self, tick: u64, event: &SimEvent) -> Result<(), SimFailure> {
        let fail = |e: ClientError| SimFailure {
            tick,
            query: None,
            kind: "server-io",
            detail: format!("workload client: {e}"),
        };
        match *event {
            SimEvent::Move { id, x, y } => {
                let kind = self.kind_of[&id];
                self.w.upsert(id, kind, x, y)
            }
            SimEvent::Insert { id, kind, x, y } => {
                self.kind_of.insert(id, kind);
                self.w.upsert(id, kind, x, y)
            }
            SimEvent::Remove { id } => self.w.remove_object(id),
            SimEvent::AddQuery { q, anchor, algo } => {
                let mode = if self.net.is_some() {
                    DistanceMode::Network
                } else {
                    DistanceMode::Euclidean
                };
                return self
                    .w
                    .subscribe_in(anchor, algo, mode)
                    .map(|sid| {
                        self.sid_of.insert(q, sid);
                        self.query_of.insert(q, (anchor, algo));
                    })
                    .map_err(fail);
            }
            SimEvent::RemoveQuery { q } => {
                let sid = self.sid_of.remove(&q).expect("mirror admitted the removal");
                self.query_of.remove(&q);
                self.w.unsubscribe(sid)
            }
            SimEvent::ClientStall { ticks } => {
                self.f_stalled_ticks = self.f_stalled_ticks.max(ticks);
                Ok(())
            }
            SimEvent::FrameFault { fault } => {
                self.tap_script
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push_back(fault);
                Ok(())
            }
            SimEvent::ForceDesync { .. } | SimEvent::StallWorker { .. } => Ok(()),
            // Crashes are applied by the executor on the tick boundary
            // (see `run_tick`), never through the per-event path.
            SimEvent::KillRestart => unreachable!("handled on the tick boundary"),
        }
        .map_err(fail)
    }

    /// Drive one tick: `STEP`, then wait for this tick's `TICK_END` on
    /// the workload connection. The tick thread pushes every delta of
    /// the tick before `TICK_END` on the same FIFO outbound queue, so
    /// once it arrives W's answer state is exactly the post-tick state.
    /// (A `PING` is *not* a valid barrier here: the I/O event loop
    /// answers it directly, racing the tick thread.)
    fn step(&mut self, tick: u64) -> Result<(), SimFailure> {
        let fail = |e: ClientError| SimFailure {
            tick,
            query: None,
            kind: "server-io",
            detail: format!("workload client: {e}"),
        };
        self.w.step().map_err(fail)?;
        if self.has_barrier {
            self.w
                .wait_tick_end(tick, Duration::from_secs(10))
                .map_err(fail)?;
        } else {
            self.w.ping(tick).map_err(fail)?;
        }

        // Victim liveness: drain its connection unless it is scripted
        // to stall; a teardown (from truncation garbage or a
        // slow-consumer disconnect) parks it as dead without failing
        // the run.
        if self.f_stalled_ticks > 0 {
            self.f_stalled_ticks -= 1;
        } else if let Some(f) = self.f.as_mut() {
            loop {
                match f.poll_event(Duration::ZERO) {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => {
                        self.f = None;
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    fn answer(&self, q: u32) -> Vec<u32> {
        self.w.answer(self.sid_of[&q])
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Execute a plan against every backend, checking each tick. See the
/// module docs for the lockstep layout.
pub fn execute(plan: &Plan, corruption: Option<&Corruption>) -> Result<SimReport, SimFailure> {
    let hooks = Arc::new(ScriptedFaults::default());
    let mirror = Mirror::new(plan);
    // One road graph, shared by every backend and the mirror: all of
    // them must route over the same edges for answers to agree.
    let net = mirror.network().cloned();
    let mode = plan_mode(plan);

    let mut serial = Offline {
        name: "serial",
        runner: TickRunner::new(build_store(plan, net.as_ref()), 1, Placement::RoundRobin),
        mode,
        qmap: HashMap::new(),
    };
    serial
        .runner
        .set_sim_hooks(Some(Arc::clone(&hooks) as Arc<dyn SimHooks>));
    let mut sharded = Offline {
        name: "sharded",
        runner: TickRunner::new(
            build_store(plan, net.as_ref()),
            plan.workers.max(2),
            Placement::RoundRobin,
        ),
        mode,
        qmap: HashMap::new(),
    };
    sharded
        .runner
        .set_sim_hooks(Some(Arc::clone(&hooks) as Arc<dyn SimHooks>));
    // Durable plans run the served backend over a throwaway WAL
    // directory so KillRestart faults have a log to come back from.
    let wal_dir = if plan.server && plan.durable {
        Some(temp_wal_dir().map_err(|e| io_fail(0, &e))?)
    } else {
        None
    };
    let mut served = if plan.server {
        Some(Served::start(
            plan,
            Arc::clone(&hooks),
            wal_dir.as_ref().map(|d| d.0.as_path()),
            net.as_ref(),
        )?)
    } else {
        None
    };

    let mut mirror = mirror;
    let mut counters = SimCounters::default();
    let mut digest = Fnv::new();

    for t in 1..=plan.ticks {
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_tick(
                plan,
                t,
                &hooks,
                &mut mirror,
                &mut counters,
                &mut digest,
                &mut serial,
                &mut sharded,
                served.as_mut(),
                corruption,
            )
        }));
        match step {
            Ok(Ok(())) => {}
            Ok(Err(failure)) => return Err(failure),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                return Err(SimFailure {
                    tick: t,
                    query: None,
                    kind: "panic",
                    detail: msg,
                });
            }
        }
    }

    counters.final_population = mirror.population() as u64;
    Ok(SimReport {
        ticks: plan.ticks,
        digest: digest.0,
        counters,
        victim_alive: served.as_ref().map(|s| s.f.is_some()),
    })
}

#[allow(clippy::too_many_arguments)]
fn run_tick(
    plan: &Plan,
    t: u64,
    hooks: &ScriptedFaults,
    mirror: &mut Mirror,
    counters: &mut SimCounters,
    digest: &mut Fnv,
    serial: &mut Offline,
    sharded: &mut Offline,
    mut served: Option<&mut Served>,
    corruption: Option<&Corruption>,
) -> Result<(), SimFailure> {
    // 0. Crash faults land on the tick boundary, before any of this
    // tick's mutations are sent: everything up to tick t-1 sits behind
    // a TICK_END barrier (and therefore in the log), so nothing can be
    // lost in the ingest queue when the plug is pulled.
    for event in plan.events_at(t) {
        if *event == SimEvent::KillRestart && mirror.admits(event) {
            counters.events_applied += 1;
            counters.kill_restarts += 1;
            if let Some(s) = served.as_deref_mut() {
                s.kill_restart(plan, t)?;
            }
        }
    }

    // 1. Admit and apply this tick's events everywhere.
    for event in plan.events_at(t) {
        if !mirror.admits(event) {
            counters.events_skipped += 1;
            continue;
        }
        if *event == SimEvent::KillRestart {
            continue; // applied above, on the boundary
        }
        counters.events_applied += 1;
        match event {
            SimEvent::Move { .. } => counters.moves += 1,
            SimEvent::Insert { .. } => counters.inserts += 1,
            SimEvent::Remove { .. } => counters.removes += 1,
            SimEvent::AddQuery { .. } => counters.queries_added += 1,
            SimEvent::RemoveQuery { .. } => counters.queries_removed += 1,
            SimEvent::ForceDesync { id } => {
                counters.desyncs += 1;
                ScriptedFaults::lock(&hooks.desyncs)
                    .entry(t)
                    .or_default()
                    .push(ObjectId(*id));
            }
            SimEvent::StallWorker { worker } => {
                counters.worker_stalls += 1;
                ScriptedFaults::lock(&hooks.stalls).insert((t, *worker));
            }
            SimEvent::ClientStall { .. } => counters.client_stalls += 1,
            SimEvent::FrameFault { .. } => counters.frame_faults += 1,
            SimEvent::KillRestart => unreachable!("skipped above"),
        }
        mirror.apply(event);
        serial.apply(event);
        sharded.apply(event);
        if let Some(s) = served.as_deref_mut() {
            s.apply(t, event)?;
        }
    }

    // 2. Tick every backend (desyncs/stalls fire inside, via hooks).
    serial.runner.step(&[]);
    sharded.runner.step(&[]);
    if let Some(s) = served.as_deref_mut() {
        s.step(t)?;
    }

    // 3. Compare every live query on every backend to the oracle.
    for q in mirror.query_ids() {
        let expected = mirror.expected_answer(q);
        counters.answer_checks += 1;
        digest.u64(t);
        digest.u32(q);
        digest.u64(expected.len() as u64);
        for &id in &expected {
            digest.u32(id);
        }

        let mut got_serial = serial.answer(q);
        if let Some(c) = corruption {
            if c.tick == t && c.query == q {
                got_serial.push(u32::MAX);
            }
        }
        for (name, got) in [
            (serial.name, &got_serial),
            (sharded.name, &sharded.answer(q)),
        ] {
            if *got != expected {
                return Err(mismatch(t, q, name, &expected, got));
            }
        }
        if let Some(s) = served.as_deref() {
            let got = s.answer(q);
            if got != expected {
                return Err(mismatch(t, q, "server", &expected, &got));
            }
        }
    }
    Ok(())
}

fn mismatch(tick: u64, q: u32, backend: &str, expected: &[u32], got: &[u32]) -> SimFailure {
    SimFailure {
        tick,
        query: Some(q),
        kind: "mismatch",
        detail: format!("{backend} answer {got:?}, oracle says {expected:?}"),
    }
}
