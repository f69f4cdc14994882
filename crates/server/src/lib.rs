//! igern-server — the network serving layer.
//!
//! A dependency-free TCP server over `std::net` that exposes the IGERN
//! continuous-evaluation pipeline to remote clients:
//!
//! * **streaming ingestion** — clients push `UPSERT_OBJECT` /
//!   `REMOVE_OBJECT` frames; mutations land in one bounded ingest queue
//!   (arrival order preserved, a full queue pauses the sender's reads =
//!   backpressure) and are
//!   applied to the [`SpatialStore`]
//!   immediately, so the dirty-cell journal keeps skip routing sound;
//! * **query subscriptions** — `SUBSCRIBE_QUERY` registers any of the
//!   eight [`Algorithm`](igern_core::processor::Algorithm) variants
//!   against the server's [`TickRunner`] — answers are bit-identical to
//!   an offline run over the same update sequence;
//! * **answer-delta push** — each tick the server diffs every
//!   subscription's answer against the previous tick and pushes only
//!   the adds/removes; the first push after subscribe (and after a
//!   slow-consumer coalesce) is a full snapshot.
//!
//! See `DESIGN.md` §12 for the frame table and threading model. The
//! in-process [`Client`] speaks the same protocol and is what the
//! equivalence tests, `igern wal drive` and the benchmark drive.
//!
//! [`TickRunner`]: igern_engine::TickRunner

#![forbid(unsafe_code)]

use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use igern_core::hooks::SharedSimHooks;
use igern_core::obs::{
    Counter, Gauge, Histogram, MetricsRegistry, COUNT_BUCKETS, LATENCY_BUCKETS_S,
};
use igern_core::SpatialStore;
use igern_engine::{Placement, TickRunner};
use igern_geom::Aabb;

pub mod client;
/// The wire codec, re-exported from [`igern_proto`] (extracted so the
/// WAL crate can encode log records with the same frames without
/// depending on the server).
pub mod proto {
    pub use igern_proto::*;
}
mod rio;
mod tick;
pub mod transport;

pub use client::{Client, ClientError, Event};
pub use proto::{ErrorCode, Frame, ProtoError, PROTOCOL_VERSION};
pub use rio::ReactorMetrics;
pub use transport::{
    memory_listener, memory_listener_with_capacity, Listener, MemConnector, MemStream, Stream,
};

pub(crate) use tick::Ingest;

use tick::TickThread;

/// What to do when a connection's outbound queue overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlowConsumerPolicy {
    /// Kill the connection (default: a consumer that cannot keep up
    /// should not silently see stale data).
    #[default]
    Disconnect,
    /// Drop queued tick traffic and restart the conversation with full
    /// answer snapshots; acks, errors, and pongs are never dropped.
    Coalesce,
}

impl SlowConsumerPolicy {
    /// Parse a CLI-style name (`disconnect` | `coalesce`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "disconnect" => Some(SlowConsumerPolicy::Disconnect),
            "coalesce" => Some(SlowConsumerPolicy::Coalesce),
            _ => None,
        }
    }
}

/// When ticks fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickMode {
    /// Only on client `STEP` frames (deterministic tests).
    Manual,
    /// On a fixed period; `STEP` still forces an immediate tick.
    Every(Duration),
}

/// Server construction parameters.
#[derive(Clone)]
pub struct ServerConfig {
    /// Data space all object positions must fall inside.
    pub space: Aabb,
    /// Grid resolution (`n × n` cells), as in the offline pipeline.
    pub grid: usize,
    /// Evaluation workers: the runner's shard count (1 = every query
    /// evaluated inline on the tick thread).
    pub workers: usize,
    /// Query→shard placement for the sharded backend.
    pub placement: Placement,
    /// Tick cadence.
    pub tick_mode: TickMode,
    /// Bound of the shared ingest queue (frames).
    pub ingest_queue_frames: usize,
    /// Bound of each connection's outbound queue (frames).
    pub outbound_queue_frames: usize,
    /// Overflow policy for slow consumers.
    pub slow_consumer: SlowConsumerPolicy,
    /// I/O event-loop threads; `0` = auto (`min(4, cpus)`).
    pub io_threads: usize,
    /// Graceful-shutdown drain deadline: after the final tick, loops
    /// keep flushing outbound queues at most this long before cutting
    /// slow consumers off.
    pub shutdown_drain: Duration,
    /// `SO_SNDBUF` for accepted TCP sockets, `None` = OS default. The
    /// partial-write tests shrink this to force short writes through
    /// the connection state machines; the kernel clamps to its minimum.
    pub tcp_send_buffer: Option<u32>,
    /// Simulation fault-injection hooks, forwarded to the tick runner
    /// and fired by the tick thread (see [`igern_core::hooks::SimHooks`]).
    /// `None` in production.
    pub sim_hooks: Option<SharedSimHooks>,
    /// Durability: with `Some`, the server recovers state from the
    /// directory on boot, write-ahead-logs every admitted mutation,
    /// and snapshots periodically (see [`igern_wal`]).
    pub wal: Option<igern_wal::WalOptions>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("space", &self.space)
            .field("grid", &self.grid)
            .field("workers", &self.workers)
            .field("placement", &self.placement)
            .field("tick_mode", &self.tick_mode)
            .field("ingest_queue_frames", &self.ingest_queue_frames)
            .field("outbound_queue_frames", &self.outbound_queue_frames)
            .field("slow_consumer", &self.slow_consumer)
            .field("io_threads", &self.io_threads)
            .field("shutdown_drain", &self.shutdown_drain)
            .field("tcp_send_buffer", &self.tcp_send_buffer)
            .field("sim_hooks", &self.sim_hooks.as_ref().map(|_| "<installed>"))
            .field("wal", &self.wal)
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            space: Aabb::from_coords(0.0, 0.0, 1.0, 1.0),
            grid: 16,
            workers: 1,
            placement: Placement::RoundRobin,
            tick_mode: TickMode::Manual,
            ingest_queue_frames: 4096,
            outbound_queue_frames: 1024,
            slow_consumer: SlowConsumerPolicy::Disconnect,
            io_threads: 0,
            shutdown_drain: Duration::from_secs(2),
            tcp_send_buffer: None,
            sim_hooks: None,
            wal: None,
        }
    }
}

/// All server instruments, registered under the `igern_server` prefix
/// in a shared [`MetricsRegistry`].
#[derive(Clone)]
pub struct ServerMetrics {
    pub connections_total: Counter,
    pub connections_active: Gauge,
    pub subscriptions_active: Gauge,
    pub ingest_enqueued_total: Counter,
    pub ingest_dequeued_total: Counter,
    pub ingest_queue_depth: Gauge,
    /// Mutations applied per tick.
    pub batch_size: Histogram,
    /// Seconds from tick start (engine step) to every delta queued.
    pub tick_push_seconds: Histogram,
    pub slow_consumer_total: Counter,
    pub protocol_errors_total: Counter,
    /// Outbound-queue mutex poison recoveries (a thread panicked while
    /// holding the lock; the queue stays usable — see `rio.rs`).
    pub lock_poisoned_total: Counter,
    /// Unknown-frame-type payloads skipped for forward compatibility.
    pub frames_skipped_total: Counter,
    /// WAL records appended (mutations + tick boundaries).
    pub wal_records_total: Counter,
    /// WAL append/snapshot failures (durability degraded, serving
    /// continues).
    pub wal_errors_total: Counter,
    /// Compacted snapshots written.
    pub wal_snapshots_total: Counter,
    /// Snapshots requested while durability is off (guarded no-op
    /// instead of a tick-thread panic).
    pub wal_snapshots_skipped_total: Counter,
    /// Subscription-index desyncs survived: a sid listed by a
    /// connection was missing from the tick thread's sub table; the
    /// stale entry is dropped and the tick completes.
    pub sub_desync_total: Counter,
    /// Per-frame-type counters, resolved once at registration so the
    /// per-frame hot path never touches the registry lock.
    frames_in: Vec<(&'static str, Counter)>,
    frames_out: Vec<(&'static str, Counter)>,
}

impl ServerMetrics {
    /// Register every instrument in `registry` under `igern_server`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        let p = "igern_server";
        let by_type = |dir: &str| -> Vec<(&'static str, Counter)> {
            proto::FRAME_TYPE_NAMES
                .iter()
                .map(|&ty| {
                    let c = registry
                        .counter_labeled(&format!("{p}_frames_{dir}_total"), &[("type", ty)]);
                    (ty, c)
                })
                .collect()
        };
        ServerMetrics {
            connections_total: registry.counter(&format!("{p}_connections_total")),
            connections_active: registry.gauge(&format!("{p}_connections_active")),
            subscriptions_active: registry.gauge(&format!("{p}_subscriptions_active")),
            ingest_enqueued_total: registry.counter(&format!("{p}_ingest_enqueued_total")),
            ingest_dequeued_total: registry.counter(&format!("{p}_ingest_dequeued_total")),
            ingest_queue_depth: registry.gauge(&format!("{p}_ingest_queue_depth")),
            batch_size: registry.histogram(&format!("{p}_tick_batch_size"), &COUNT_BUCKETS),
            tick_push_seconds: registry
                .histogram(&format!("{p}_tick_push_seconds"), &LATENCY_BUCKETS_S),
            slow_consumer_total: registry.counter(&format!("{p}_slow_consumer_events_total")),
            protocol_errors_total: registry.counter(&format!("{p}_protocol_errors_total")),
            lock_poisoned_total: registry.counter(&format!("{p}_lock_poisoned_total")),
            frames_skipped_total: registry.counter(&format!("{p}_frames_skipped_total")),
            wal_records_total: registry.counter(&format!("{p}_wal_records_total")),
            wal_errors_total: registry.counter(&format!("{p}_wal_errors_total")),
            wal_snapshots_total: registry.counter(&format!("{p}_wal_snapshots_total")),
            wal_snapshots_skipped_total: registry
                .counter(&format!("{p}_wal_snapshots_skipped_total")),
            sub_desync_total: registry.counter(&format!("{p}_sub_desync_total")),
            frames_in: by_type("in"),
            frames_out: by_type("out"),
        }
    }

    /// Count one received frame of wire type `ty`.
    pub fn frame_in(&self, ty: &str) {
        if let Some((_, c)) = self.frames_in.iter().find(|(n, _)| *n == ty) {
            c.inc();
        }
    }

    /// Count one sent frame of wire type `ty`.
    pub fn frame_out(&self, ty: &str) {
        if let Some((_, c)) = self.frames_out.iter().find(|(n, _)| *n == ty) {
            c.inc();
        }
    }
}

/// What WAL recovery restored at boot (`None` when the durability
/// directory was fresh or durability is off).
#[derive(Debug, Clone)]
pub struct RecoveryInfo {
    /// Logical tick the server resumed at.
    pub tick: u64,
    /// Objects restored into the store.
    pub objects: usize,
    /// Standing queries restored (as claimable orphans).
    pub subs: usize,
    /// [`igern_wal::state_digest`] of the recovered answers — compare
    /// against the pre-crash digest of an equivalent offline runner.
    pub digest: u64,
    /// What recovery skipped and tolerated.
    pub report: igern_wal::RecoveryReport,
}

/// A running server: the tick thread that owns the engine, plus a
/// fixed pool of I/O event-loop threads (the acceptor runs on loop 0).
pub struct Server {
    addr: std::net::SocketAddr,
    ingest: SyncSender<Ingest>,
    shutdown: Arc<AtomicBool>,
    crashed: Arc<AtomicBool>,
    recovery: Option<RecoveryInfo>,
    registry: MetricsRegistry,
    metrics: ServerMetrics,
    pool: rio::ReactorPool,
    ticker: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` and start serving `store` under `cfg`. Engine
    /// metrics attach under `igern_pipeline`, server metrics under
    /// `igern_server`, all in the returned server's registry.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        store: SpatialStore,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let registry = MetricsRegistry::new();
        Self::start_with_registry(addr, store, cfg, registry)
    }

    /// As [`Server::start`], registering instruments in `registry`.
    pub fn start_with_registry<A: ToSocketAddrs>(
        addr: A,
        store: SpatialStore,
        cfg: ServerConfig,
        registry: MetricsRegistry,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Self::start_on(Listener::Tcp(listener), store, cfg, registry)
    }

    /// Serve on an already-bound [`Listener`] — the transport-generic
    /// entry point. The simulation harness passes the in-process memory
    /// listener here to run the whole server (event loops, tick
    /// thread) without any ports.
    pub fn start_on(
        listener: Listener,
        store: SpatialStore,
        cfg: ServerConfig,
        registry: MetricsRegistry,
    ) -> std::io::Result<Server> {
        let local = listener.local_addr()?;
        let metrics = ServerMetrics::register(&registry);

        // With durability on, recovered state replaces the passed
        // store unless the directory is fresh (no snapshot, no
        // records) — a fresh directory starts from `store` as usual.
        // The store's road network (if any) travels into recovery so
        // restored network-mode subscriptions keep evaluating.
        let network = store.network().cloned();
        let mut runner = TickRunner::new(store, cfg.workers, cfg.placement);
        let mut recovery = None;
        let mut durable = None;
        let mut first_sid = 1u32;
        if let Some(opts) = &cfg.wal {
            let rec = igern_wal::recover(
                &opts.dir,
                cfg.workers,
                cfg.placement,
                cfg.space,
                cfg.grid,
                network,
            )?;
            let fresh = rec.report.snapshot.is_none() && rec.next_seq == 0;
            let tick_base = rec.tick - rec.runner.tick();
            if !fresh {
                recovery = Some(RecoveryInfo {
                    tick: rec.tick,
                    objects: rec.runner.store().len(),
                    subs: rec.subs.len(),
                    digest: rec.digest,
                    report: rec.report.clone(),
                });
                runner = rec.runner;
                first_sid = rec.next_sid;
            }
            durable = Some(tick::DurableState {
                wal: igern_wal::WalWriter::open(opts)?,
                recovered_subs: if fresh { Vec::new() } else { rec.subs },
                tick_base: if fresh { 0 } else { tick_base },
            });
        }
        runner.attach_metrics(&registry, "igern_pipeline");
        runner.set_sim_hooks(cfg.sim_hooks.clone());

        let shutdown = Arc::new(AtomicBool::new(false));
        let crashed = Arc::new(AtomicBool::new(false));
        let next_sid = Arc::new(AtomicU32::new(first_sid));
        let (tx, rx) = sync_channel::<Ingest>(cfg.ingest_queue_frames);

        let ticker = {
            let t = TickThread::new(
                runner,
                cfg.clone(),
                metrics.clone(),
                Arc::clone(&shutdown),
                Arc::clone(&crashed),
                durable,
                Arc::clone(&next_sid),
            );
            std::thread::Builder::new()
                .name("igern-tick".into())
                .spawn(move || t.run(rx))
                .expect("spawn tick thread")
        };

        let pool = rio::start_pool(
            listener,
            tx.clone(),
            next_sid,
            Arc::clone(&shutdown),
            cfg.clone(),
            metrics.clone(),
            &registry,
        )?;

        Ok(Server {
            addr: local,
            ingest: tx,
            shutdown,
            crashed,
            recovery,
            registry,
            metrics,
            pool,
            ticker: Some(ticker),
        })
    }

    /// What WAL recovery restored at boot, if anything.
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.recovery.as_ref()
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The registry holding server + pipeline instruments.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The server's own instruments.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Test hook: drop `sid` from the tick thread's subscription table
    /// while leaving it on its connection's sub list — the index desync
    /// the tick loop must survive (counted in
    /// `igern_server_sub_desync_total`). Never called in production.
    #[doc(hidden)]
    pub fn debug_desync_sub(&self, sid: u32) {
        let _ = self.ingest.try_send(Ingest::DebugDropSub(sid));
    }

    /// Ask the server to stop: in-flight ingested mutations are
    /// evaluated in one final tick and pushed before connections close.
    pub fn shutdown(&self) {
        // Queue the request; if the queue is full or the tick thread is
        // already gone, fall back to the flag (the event loops watch
        // it, and the tick loop exits when every sender is gone).
        let _ = self.ingest.try_send(Ingest::ShutdownRequested);
        self.shutdown.store(true, Ordering::Release);
        // Loops only observe the flag when awake: stop accepting now.
        self.pool.wake_all();
    }

    /// Block until the server has fully stopped (all threads joined).
    pub fn wait(&mut self) {
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        self.shutdown.store(true, Ordering::Release);
        // The final tick has queued its pushes; drain them under the
        // bounded deadline, then join the loops.
        self.pool.begin_drain();
        self.pool.join();
    }

    /// [`shutdown`](Server::shutdown) then [`wait`](Server::wait).
    pub fn stop(&mut self) {
        self.shutdown();
        self.wait();
    }

    /// Tear down abruptly, simulating `kill -9` for crash-recovery
    /// testing: no final tick, no WAL flush beyond what `write(2)`
    /// already delivered, no clean snapshot. The next boot over the
    /// same WAL directory must *recover*, not resume.
    pub fn crash(&mut self) {
        self.crashed.store(true, Ordering::Release);
        self.shutdown();
        self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
