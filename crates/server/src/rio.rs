//! The server's I/O runtime: connection state machines on a small fixed
//! pool of event-loop threads.
//!
//! `io_threads` event loops (default `min(4, cpus)`) each run an
//! [`igern_reactor::Reactor`] over non-blocking streams, so the thread
//! count stays constant however many sockets are accepted:
//!
//! * **reads** — the resumable [`FrameReader`] is driven incrementally
//!   on readiness; `WouldBlock` parks the state machine until the next
//!   readable event. The loop enforces the `HELLO` handshake, answers
//!   `PING` inline, maps every mutating frame — in arrival order — to
//!   an [`Ingest`] item, and turns a protocol violation into one
//!   `ERROR` frame plus a connection close, never a panic.
//! * **ingest backpressure** — the ingest queue is bounded and an
//!   event loop must not block on it. A frame that does not fit is
//!   *parked* on its connection, read interest is dropped, and
//!   delivery is retried on a short reactor timer — per-connection
//!   arrival order is preserved because a parked connection reads
//!   nothing further.
//! * **writes** — each connection owns a queue of encoded frames with a
//!   byte offset into the head frame; flushes run until `WouldBlock`,
//!   short writes resume on the next writable event (`EPOLLOUT` is
//!   registered only while the queue is non-empty). The slow-consumer
//!   policies are enforced as frame-count watermarks at enqueue time:
//!   `disconnect`/`coalesce` at `outbound_queue_frames`, hard kill at
//!   4× for control traffic.
//! * **tick fan-out** — the tick thread enqueues frames under each
//!   connection's mutex and schedules the connection on its loop's
//!   pending-flush list (deduplicated per connection), then wakes the
//!   loop. The [`Waker`](igern_reactor::Waker) coalesces, so a tick
//!   fanning out to hundreds of connections on one loop costs one
//!   `write(2)`, not hundreds.
//! * **shutdown** — graceful shutdown drains in-flight outbound queues
//!   with a bounded deadline (`shutdown_drain`); a consumer that cannot
//!   drain in time is cut off at the deadline.
//!
//! The in-process memory transport has no fd: those connections
//! register as external readiness sources, with the transport's notify
//! hooks (`crates/server/src/transport.rs`) flipping ready bits.

use std::collections::VecDeque;
use std::io::Write;
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use igern_core::obs::{
    Counter, Gauge, Histogram, MetricsRegistry, COUNT_BUCKETS, LATENCY_BUCKETS_S,
};
use igern_reactor::{Backend, ExternalHandle, Interest, Mode, Reactor, Token};

use crate::proto::{ErrorCode, Frame, FrameError, FrameReader, ReadOutcome, PROTOCOL_VERSION};
use crate::transport::{Listener, ReadyNotify, Stream};
use crate::{Ingest, ServerConfig, ServerMetrics, SlowConsumerPolicy};

/// Reserved token for the acceptor (loop 0 only). Connection tokens are
/// slab slots counting from 0; `u64::MAX` is reserved by the reactor.
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// How soon a parked ingest delivery is retried.
const PARK_RETRY: Duration = Duration::from_millis(1);

/// Event-loop instruments, registered under `igern_server_reactor_*`
/// in the shared registry.
#[derive(Clone)]
pub struct ReactorMetrics {
    /// Readiness events delivered per event-loop wakeup.
    pub events_per_wakeup: Histogram,
    /// Ready-queue depth observed at the last dispatch.
    pub ready_queue_depth: Gauge,
    /// Outbound flushes resumed after a short write.
    pub short_write_resumptions_total: Counter,
    /// Soft `RLIMIT_NOFILE` read at startup (0 if unreadable).
    pub fd_limit: Gauge,
}

impl ReactorMetrics {
    /// Register every instrument in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        let p = "igern_server_reactor";
        ReactorMetrics {
            events_per_wakeup: registry
                .histogram(&format!("{p}_events_per_wakeup"), &COUNT_BUCKETS),
            ready_queue_depth: registry.gauge(&format!("{p}_ready_queue_depth")),
            short_write_resumptions_total: registry
                .counter(&format!("{p}_short_write_resumptions_total")),
            fd_limit: registry.gauge(&format!("{p}_fd_limit")),
        }
    }
}

/// One encoded outbound frame awaiting flush.
struct OutFrame {
    bytes: Vec<u8>,
    /// Sheddable under the coalesce policy (tick deltas / tick ends).
    tick: bool,
    /// Wire type, counted in `frames_out` once fully flushed.
    ty: &'static str,
}

/// Outbound queue: frames plus the byte offset already written into
/// the head frame (short-write resumption state).
struct OutState {
    frames: VecDeque<OutFrame>,
    head_off: usize,
}

/// Result of pushing a tick batch into a connection's outbound queue.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushOutcome {
    /// The batch is queued.
    Delivered,
    /// Coalesce policy fired: queued tick traffic was dropped and the
    /// batch was NOT queued — re-push full snapshots with
    /// [`RConn::push_forced`].
    NeedSnapshot,
    /// The connection is dead (or the disconnect policy just killed it).
    Dead,
}

/// Connection state shared between its event loop and the tick thread.
pub(crate) struct RConn {
    pub id: u64,
    /// Slab slot (== token) on the owning loop.
    slot: usize,
    out: Mutex<OutState>,
    dead: AtomicBool,
    closing: AtomicBool,
    /// Already on the owning loop's pending-flush list (dedup so a
    /// tick enqueuing many batches schedules each connection once).
    queued: AtomicBool,
    /// Write/shutdown handle (the loop's reader owns another clone).
    stream: Stream,
    home: Arc<LoopShared>,
}

impl RConn {
    /// Lock the outbound queue, recovering from poison instead of
    /// propagating it: the queue is consistent at every lock boundary,
    /// so one panicking thread must cost at most its own connection.
    /// Recoveries are counted in `ServerMetrics::lock_poisoned_total`.
    fn lock_out(&self, metrics: &ServerMetrics) -> MutexGuard<'_, OutState> {
        self.out.lock().unwrap_or_else(|e: PoisonError<_>| {
            metrics.lock_poisoned_total.inc();
            e.into_inner()
        })
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn is_closing(&self) -> bool {
        self.closing.load(Ordering::Acquire)
    }

    /// Kill now: both stream directions shut down, queued frames are
    /// discarded by the loop when it next visits the connection.
    pub fn kill(self: &Arc<Self>) {
        self.dead.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
        self.schedule();
    }

    /// Graceful close: the loop flushes the queue, then half-closes.
    pub fn close_after_flush(self: &Arc<Self>) {
        self.closing.store(true, Ordering::Release);
        self.schedule();
    }

    /// Put this connection on its loop's pending-flush list (dedup'd)
    /// and wake the loop. The waker batches: any number of schedules
    /// between two loop iterations cost at most one syscall.
    fn schedule(self: &Arc<Self>) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            self.home
                .flush
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::clone(self));
        }
        self.home.waker.wake();
    }

    /// Queue a control frame (ack, error, pong) — never shed by
    /// coalescing. Control traffic is bounded by the peer's own request
    /// rate, but a peer that floods requests while never reading replies
    /// is killed past `4 × cap`, regardless of policy.
    pub fn push_control(self: &Arc<Self>, frame: Frame, cap: usize, metrics: &ServerMetrics) {
        let mut q = self.lock_out(metrics);
        if self.is_dead() {
            return;
        }
        if q.frames.len() >= cap.saturating_mul(4) {
            drop(q);
            metrics.slow_consumer_total.inc();
            self.kill();
            return;
        }
        q.frames.push_back(OutFrame {
            bytes: frame.encode(),
            tick: frame.is_tick_traffic(),
            ty: frame.type_name(),
        });
        drop(q);
        self.schedule();
    }

    /// Queue one tick's push batch; the slow-consumer policy fires
    /// when the queue watermark would be crossed.
    pub fn push_tick_batch(
        self: &Arc<Self>,
        batch: Vec<Frame>,
        cap: usize,
        policy: SlowConsumerPolicy,
        metrics: &ServerMetrics,
    ) -> PushOutcome {
        let mut q = self.lock_out(metrics);
        if self.is_dead() {
            return PushOutcome::Dead;
        }
        if q.frames.len() + batch.len() > cap {
            metrics.slow_consumer_total.inc();
            match policy {
                SlowConsumerPolicy::Disconnect => {
                    drop(q);
                    self.kill();
                    return PushOutcome::Dead;
                }
                SlowConsumerPolicy::Coalesce => {
                    // Shed queued tick traffic — except a partially
                    // written head frame, whose prefix is already on
                    // the wire and must complete or the byte stream
                    // corrupts. Acks/errors/pongs always survive.
                    let keep_head = q.head_off > 0;
                    let mut idx = 0;
                    q.frames.retain(|f| {
                        let keep = (idx == 0 && keep_head) || !f.tick;
                        idx += 1;
                        keep
                    });
                    return PushOutcome::NeedSnapshot;
                }
            }
        }
        for frame in batch {
            q.frames.push_back(OutFrame {
                bytes: frame.encode(),
                tick: frame.is_tick_traffic(),
                ty: frame.type_name(),
            });
        }
        drop(q);
        self.schedule();
        PushOutcome::Delivered
    }

    /// Queue a snapshot batch after a coalesce, bypassing the cap (the
    /// queue holds no tick traffic then, so the overshoot is bounded by
    /// one tick's frames).
    pub fn push_forced(
        self: &Arc<Self>,
        batch: Vec<Frame>,
        metrics: &ServerMetrics,
    ) -> PushOutcome {
        let mut q = self.lock_out(metrics);
        if self.is_dead() {
            return PushOutcome::Dead;
        }
        for frame in batch {
            q.frames.push_back(OutFrame {
                bytes: frame.encode(),
                tick: frame.is_tick_traffic(),
                ty: frame.type_name(),
            });
        }
        drop(q);
        self.schedule();
        PushOutcome::Delivered
    }
}

/// Cross-thread face of one event loop: its waker plus the two queues
/// other threads feed it.
struct LoopShared {
    waker: igern_reactor::Waker,
    /// Accepted connections handed over by the acceptor (loop 0).
    inject: Mutex<Vec<(u64, Stream)>>,
    /// Connections with freshly queued outbound frames (dedup'd via
    /// [`RConn::queued`]).
    flush: Mutex<Vec<Arc<RConn>>>,
}

/// Handle the [`Server`](crate::Server) keeps on the loop pool.
pub(crate) struct ReactorPool {
    loops: Vec<Arc<LoopShared>>,
    threads: Vec<JoinHandle<()>>,
    drain: Arc<AtomicBool>,
}

impl ReactorPool {
    /// Wake every loop (shutdown flag changes, etc.).
    pub fn wake_all(&self) {
        for l in &self.loops {
            l.waker.wake();
        }
    }

    /// Enter drain mode: loops flush remaining outbound queues under
    /// the `shutdown_drain` deadline, then exit. Called after the tick
    /// thread has run its final tick and requested graceful closes.
    pub fn begin_drain(&self) {
        self.drain.store(true, Ordering::Release);
        self.wake_all();
    }

    /// Join every loop thread (bounded by the drain deadline).
    pub fn join(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Resolve the loop-thread count: explicit, or `min(4, cpus)`.
pub(crate) fn resolve_io_threads(cfg_threads: usize) -> usize {
    if cfg_threads > 0 {
        return cfg_threads;
    }
    std::thread::available_parallelism()
        .map(|p| p.get().min(4))
        .unwrap_or(1)
}

/// Spawn the loop pool serving `listener`. The reactors are created
/// here (so their wakers exist before any cross-thread traffic) and
/// moved into their threads.
#[allow(clippy::too_many_arguments)]
pub(crate) fn start_pool(
    listener: Listener,
    ingest: SyncSender<Ingest>,
    next_sid: Arc<AtomicU32>,
    shutdown: Arc<AtomicBool>,
    cfg: ServerConfig,
    metrics: ServerMetrics,
    registry: &MetricsRegistry,
) -> std::io::Result<ReactorPool> {
    let n = resolve_io_threads(cfg.io_threads);
    let rmetrics = ReactorMetrics::register(registry);
    let fd_soft = igern_reactor::fd_limit().map_or(0, |(soft, _)| soft);
    rmetrics.fd_limit.set(fd_soft as f64);

    // Backend override for tests/CI (`IGERN_REACTOR_BACKEND=poll`
    // exercises the portable fallback on Linux).
    let backend = std::env::var("IGERN_REACTOR_BACKEND")
        .ok()
        .and_then(|s| Backend::parse(&s))
        .unwrap_or_else(Backend::default_for_host);

    let mut reactors = Vec::with_capacity(n);
    let mut loops = Vec::with_capacity(n);
    for _ in 0..n {
        let r = Reactor::with_backend(backend)?;
        loops.push(Arc::new(LoopShared {
            waker: r.waker(),
            inject: Mutex::new(Vec::new()),
            flush: Mutex::new(Vec::new()),
        }));
        reactors.push(r);
    }
    let drain = Arc::new(AtomicBool::new(false));
    let next_conn = Arc::new(AtomicU64::new(1));

    let mut listener = Some(listener);
    let mut threads = Vec::with_capacity(n);
    for (i, reactor) in reactors.into_iter().enumerate() {
        let lp = IoLoop {
            index: i,
            reactor,
            listener: if i == 0 { listener.take() } else { None },
            listener_ext: None,
            next_conn: Arc::clone(&next_conn),
            loops: loops.clone(),
            ingest: ingest.clone(),
            next_sid: Arc::clone(&next_sid),
            shutdown: Arc::clone(&shutdown),
            drain: Arc::clone(&drain),
            cfg: cfg.clone(),
            metrics: metrics.clone(),
            rmetrics: rmetrics.clone(),
            dispatch_seconds: registry.histogram_labeled(
                "igern_server_reactor_dispatch_seconds",
                &[("loop", &i.to_string())],
                &LATENCY_BUCKETS_S,
            ),
            fd_soft,
            fd_warned: false,
            entries: Vec::new(),
            free: Vec::new(),
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("igern-io-{i}"))
                .spawn(move || lp.run())
                .expect("spawn io loop thread"),
        );
    }
    Ok(ReactorPool {
        loops,
        threads,
        drain,
    })
}

/// Per-connection state owned by its event loop.
struct ConnEntry {
    conn: Arc<RConn>,
    /// Incremental frame decoder over a non-blocking stream clone.
    reader: FrameReader<Stream>,
    /// Kernel-pollable fd (TCP); `None` for the memory transport.
    fd: Option<i32>,
    /// External readiness source (memory transport); kept so the
    /// handle outlives the notify closures.
    #[allow(dead_code)]
    external: Option<ExternalHandle>,
    /// Memory transport: re-installed when toggling write interest.
    notify_read: Option<ReadyNotify>,
    notify_write: Option<ReadyNotify>,
    /// Write-notify currently installed (memory transport's EPOLLOUT).
    write_notify_on: bool,
    /// Interest currently registered for `fd`.
    cur_interest: Interest,
    /// HELLO handshake completed.
    greeted: bool,
    /// Ingest item that did not fit the bounded queue; blocks further
    /// reads until delivered (arrival order).
    parked: Option<Ingest>,
    /// No more reads: EOF, I/O error, or protocol close.
    read_done: bool,
    /// `Ingest::Closed` delivered (exactly-once contract).
    announced_closed: bool,
}

struct IoLoop {
    index: usize,
    reactor: Reactor,
    listener: Option<Listener>,
    /// Keeps the memory listener's accept-notify source alive.
    #[allow(dead_code)]
    listener_ext: Option<ExternalHandle>,
    next_conn: Arc<AtomicU64>,
    loops: Vec<Arc<LoopShared>>,
    ingest: SyncSender<Ingest>,
    next_sid: Arc<AtomicU32>,
    shutdown: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    cfg: ServerConfig,
    metrics: ServerMetrics,
    rmetrics: ReactorMetrics,
    dispatch_seconds: Histogram,
    fd_soft: u64,
    fd_warned: bool,
    entries: Vec<Option<ConnEntry>>,
    free: Vec<usize>,
}

impl IoLoop {
    fn shared(&self) -> &Arc<LoopShared> {
        &self.loops[self.index]
    }

    fn run(mut self) {
        if let Some(listener) = &self.listener {
            match listener.raw_fd() {
                Some(fd) => {
                    if self
                        .reactor
                        .register(fd, Token(LISTENER_TOKEN), Interest::READABLE, Mode::Level)
                        .is_err()
                    {
                        eprintln!("reactor: listener registration failed; not accepting");
                    }
                }
                None => {
                    let ext = self.reactor.external(Token(LISTENER_TOKEN));
                    let cb = ext.clone();
                    listener.set_accept_notify(Some(Arc::new(move || cb.set_ready(true, false))));
                    self.listener_ext = Some(ext);
                }
            }
        }
        let mut events = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let timeout = if self.drain.load(Ordering::Acquire) {
                let dl =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + self.cfg.shutdown_drain);
                let now = Instant::now();
                if now >= dl || self.all_flushed() {
                    self.teardown_all();
                    return;
                }
                Some((dl - now).min(Duration::from_millis(50)))
            } else {
                // Wakes drive the loop; the cap only bounds how stale a
                // missed flag read can get.
                Some(Duration::from_millis(100))
            };
            events.clear();
            let woken = match self.reactor.poll(&mut events, timeout) {
                Ok(o) => o.woken,
                Err(_) => false,
            };
            let t0 = Instant::now();
            if !events.is_empty() || woken {
                self.rmetrics.events_per_wakeup.observe(events.len() as f64);
            }
            self.rmetrics.ready_queue_depth.set(events.len() as f64);
            self.drain_inject();
            self.drain_flush();
            for &ev in &events {
                if ev.token.0 == LISTENER_TOKEN {
                    self.accept_ready();
                    continue;
                }
                let slot = ev.token.0 as usize;
                if ev.timer {
                    self.visit_parked(slot);
                    continue;
                }
                if ev.writable {
                    self.flush_slot(slot);
                }
                if ev.readable {
                    self.visit_parked(slot);
                }
            }
            self.dispatch_seconds.observe_duration(t0.elapsed());
        }
    }

    // ------------------------------------------------------------ accept

    fn accept_ready(&mut self) {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let stream = match self.listener.as_ref().map(|l| l.accept()) {
                Some(Ok(s)) => s,
                Some(Err(e)) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                // Transient accept failure (e.g. the peer already reset):
                // the pending slot was consumed, try the next one.
                Some(Err(_)) => continue,
                None => return,
            };
            let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
            self.metrics.connections_total.inc();
            self.warn_near_fd_limit();
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            if let (Some(bytes), Some(fd)) = (self.cfg.tcp_send_buffer, stream.raw_fd()) {
                let _ = igern_reactor::sys::set_send_buffer(fd, bytes as std::ffi::c_int);
            }
            let target = (id as usize) % self.loops.len();
            if target == self.index {
                self.install(id, stream);
            } else {
                self.loops[target]
                    .inject
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((id, stream));
                self.loops[target].waker.wake();
            }
        }
    }

    fn warn_near_fd_limit(&mut self) {
        if self.fd_warned || self.fd_soft == 0 {
            return;
        }
        // Active-connection gauge is maintained by the tick thread;
        // headroom covers the listener, wakeup fds, and WAL files.
        let active = self.metrics.connections_active.get();
        if active + 64.0 >= 0.9 * self.fd_soft as f64 {
            self.fd_warned = true;
            eprintln!(
                "reactor: {} active connections approaching RLIMIT_NOFILE soft limit {} — \
                 raise `ulimit -n` or expect accept failures",
                active as u64, self.fd_soft
            );
        }
    }

    fn drain_inject(&mut self) {
        loop {
            let batch: Vec<(u64, Stream)> = {
                let mut q = self
                    .shared()
                    .inject
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                std::mem::take(&mut *q)
            };
            if batch.is_empty() {
                return;
            }
            for (id, stream) in batch {
                self.install(id, stream);
            }
        }
    }

    /// Create the connection state machine for an accepted stream and
    /// register it with the reactor. `Ingest::NewConn` is parked first,
    /// so no frame from this connection can reach the tick thread
    /// before the connection itself does.
    fn install(&mut self, id: u64, stream: Stream) {
        let (write_half, read_half) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(w), Ok(r)) => (w, r),
            _ => return, // fd duplication failed; drop the connection
        };
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.entries.push(None);
                self.entries.len() - 1
            }
        };
        let token = Token(slot as u64);
        // Register the READ half's fd: it lives in the entry's
        // FrameReader for the whole connection, so the kernel
        // registration never outlives its fd. (Clones share one open
        // file description; registering the short-lived original's fd
        // would leave poll(2) watching a closed descriptor.)
        let reg_fd = read_half.raw_fd();
        let conn = Arc::new(RConn {
            id,
            slot,
            out: Mutex::new(OutState {
                frames: VecDeque::new(),
                head_off: 0,
            }),
            dead: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            queued: AtomicBool::new(false),
            stream: write_half,
            home: Arc::clone(self.shared()),
        });
        let mut entry = ConnEntry {
            conn: Arc::clone(&conn),
            reader: FrameReader::new(read_half),
            fd: None,
            external: None,
            notify_read: None,
            notify_write: None,
            write_notify_on: false,
            cur_interest: Interest::NONE,
            greeted: false,
            parked: Some(Ingest::NewConn(conn)),
            read_done: false,
            announced_closed: false,
        };
        match reg_fd {
            Some(fd) => {
                // Registered with no read interest while NewConn is
                // parked; interest is restored once it is delivered.
                if self
                    .reactor
                    .register(fd, token, Interest::NONE, Mode::Level)
                    .is_err()
                {
                    self.free.push(slot);
                    return; // entry (and both stream halves) drop here
                }
                entry.fd = Some(fd);
            }
            None => {
                let ext = self.reactor.external(token);
                let rd = ext.clone();
                let read_cb: ReadyNotify = Arc::new(move || rd.set_ready(true, false));
                let wr = ext.clone();
                let write_cb: ReadyNotify = Arc::new(move || wr.set_ready(false, true));
                // Readable notify installed now (fires immediately if
                // the client already sent bytes); writable notify is
                // installed on demand, mirroring EPOLLOUT toggling.
                stream.set_notify(Some(Arc::clone(&read_cb)), None);
                entry.notify_read = Some(read_cb);
                entry.notify_write = Some(write_cb);
                entry.external = Some(ext);
            }
        }
        self.entries[slot] = Some(entry);
        // Deliver the parked NewConn (or arm the retry timer).
        self.visit_parked(slot);
    }

    // ----------------------------------------------------- reading side

    /// Entry point for readable/timer events: deliver any parked ingest
    /// item first, then continue reading.
    fn visit_parked(&mut self, slot: usize) {
        loop {
            let Some(entry) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if entry.conn.is_dead() {
                self.cleanup_slot(slot);
                return;
            }
            let Some(item) = entry.parked.take() else {
                self.read_slot(slot);
                return;
            };
            let was_closed = matches!(item, Ingest::Closed(_));
            match self.ingest.try_send(item) {
                Ok(()) => {
                    self.metrics.ingest_enqueued_total.inc();
                    let Some(entry) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                        return;
                    };
                    if was_closed {
                        entry.announced_closed = true;
                        self.update_interest(slot);
                        return;
                    }
                    self.update_interest(slot);
                    // Fall through: there may be more buffered input.
                }
                Err(TrySendError::Full(item)) => {
                    entry.parked = Some(item);
                    self.reactor
                        .set_timer(Token(slot as u64), Instant::now() + PARK_RETRY);
                    self.update_interest(slot);
                    return;
                }
                Err(TrySendError::Disconnected(_)) => {
                    // Tick thread gone (shutdown): nothing more to say.
                    entry.read_done = true;
                    entry.announced_closed = true;
                    self.update_interest(slot);
                    return;
                }
            }
        }
    }

    /// Drive the frame reader until it goes idle, parking on ingest
    /// backpressure.
    fn read_slot(&mut self, slot: usize) {
        loop {
            let Some(entry) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if entry.conn.is_dead() {
                self.cleanup_slot(slot);
                return;
            }
            if entry.read_done || entry.parked.is_some() {
                return;
            }
            match entry.reader.poll() {
                Ok(ReadOutcome::Idle) => return,
                Ok(ReadOutcome::Eof) | Err(FrameError::Io(_)) => {
                    self.finish_read(slot);
                    return;
                }
                Ok(ReadOutcome::Skipped(_)) => {
                    self.metrics.frames_skipped_total.inc();
                }
                Err(FrameError::Proto(e)) => {
                    self.metrics.protocol_errors_total.inc();
                    let msg = e.to_string();
                    let conn = Arc::clone(&entry.conn);
                    self.push_error(&conn, ErrorCode::Malformed, &msg);
                    conn.close_after_flush();
                    self.finish_read(slot);
                    return;
                }
                Ok(ReadOutcome::Frame(frame)) => {
                    if !self.handle_frame(slot, frame) {
                        return;
                    }
                }
            }
        }
    }

    fn push_error(&self, conn: &Arc<RConn>, code: ErrorCode, message: &str) {
        conn.push_control(
            Frame::Error {
                code,
                message: message.to_string(),
            },
            self.cfg.outbound_queue_frames,
            &self.metrics,
        );
    }

    /// Handle one decoded frame. Returns `false` when reading must stop
    /// (parked, protocol close, or the ingest channel is gone).
    fn handle_frame(&mut self, slot: usize, frame: Frame) -> bool {
        self.metrics.frame_in(frame.type_name());
        let entry = self.entries[slot]
            .as_mut()
            .expect("entry checked by caller");
        let conn = Arc::clone(&entry.conn);
        if !entry.greeted {
            match frame {
                Frame::Hello { version } if crate::proto::version_accepted(version) => {
                    entry.greeted = true;
                    // Echo the client's (accepted) version: the
                    // conversation proceeds at the older side's level.
                    conn.push_control(
                        Frame::HelloAck { version },
                        self.cfg.outbound_queue_frames,
                        &self.metrics,
                    );
                    return true;
                }
                Frame::Hello { version } => {
                    self.metrics.protocol_errors_total.inc();
                    self.push_error(
                        &conn,
                        ErrorCode::VersionMismatch,
                        &format!(
                            "server speaks versions {}..={PROTOCOL_VERSION}, client sent {version}",
                            crate::proto::MIN_PROTOCOL_VERSION
                        ),
                    );
                }
                _ => {
                    self.metrics.protocol_errors_total.inc();
                    self.push_error(&conn, ErrorCode::ExpectedHello, "first frame must be HELLO");
                }
            }
            conn.close_after_flush();
            self.finish_read(slot);
            return false;
        }
        let item = match frame {
            Frame::Ping { nonce } => {
                conn.push_control(
                    Frame::Pong { nonce },
                    self.cfg.outbound_queue_frames,
                    &self.metrics,
                );
                return true;
            }
            Frame::UpsertObject { id, kind, x, y } => Ingest::Upsert {
                conn: conn.id,
                id,
                kind,
                x,
                y,
            },
            Frame::RemoveObject { id } => Ingest::Remove { conn: conn.id, id },
            Frame::Subscribe {
                token,
                anchor,
                algo,
                mode,
            } => {
                // The sid is allocated here, but the SUBSCRIBED ack is
                // emitted by the tick thread at dequeue: a client that
                // has seen the ack is guaranteed part of the next tick
                // even under ingest backpressure, and the ack always
                // precedes any ERROR or deltas for the subscription.
                let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
                Ingest::Subscribe {
                    conn: conn.id,
                    sid,
                    token,
                    anchor,
                    algo,
                    mode,
                }
            }
            Frame::Unsubscribe { sid } => Ingest::Unsubscribe { conn: conn.id, sid },
            Frame::Step => Ingest::Step,
            Frame::Shutdown => Ingest::ShutdownRequested,
            _ => {
                self.metrics.protocol_errors_total.inc();
                self.push_error(
                    &conn,
                    ErrorCode::Malformed,
                    &format!("unexpected {} frame from client", frame.type_name()),
                );
                conn.close_after_flush();
                self.finish_read(slot);
                return false;
            }
        };
        match self.ingest.try_send(item) {
            Ok(()) => {
                self.metrics.ingest_enqueued_total.inc();
                true
            }
            Err(TrySendError::Full(item)) => {
                // Backpressure: park the item, pause reads, retry soon.
                let entry = self.entries[slot].as_mut().expect("entry exists");
                entry.parked = Some(item);
                self.reactor
                    .set_timer(Token(slot as u64), Instant::now() + PARK_RETRY);
                self.update_interest(slot);
                false
            }
            Err(TrySendError::Disconnected(_)) => {
                let entry = self.entries[slot].as_mut().expect("entry exists");
                entry.read_done = true;
                entry.announced_closed = true;
                self.update_interest(slot);
                false
            }
        }
    }

    /// The receive side is finished (EOF / error / protocol close):
    /// announce `Ingest::Closed` exactly once (parking it under
    /// backpressure) and request a graceful flush.
    fn finish_read(&mut self, slot: usize) {
        let Some(entry) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        entry.read_done = true;
        let conn = Arc::clone(&entry.conn);
        if !entry.announced_closed && entry.parked.is_none() {
            match self.ingest.try_send(Ingest::Closed(conn.id)) {
                Ok(()) => {
                    self.metrics.ingest_enqueued_total.inc();
                    self.entries[slot]
                        .as_mut()
                        .expect("entry exists")
                        .announced_closed = true;
                }
                Err(TrySendError::Full(item)) => {
                    let entry = self.entries[slot].as_mut().expect("entry exists");
                    entry.parked = Some(item);
                    self.reactor
                        .set_timer(Token(slot as u64), Instant::now() + PARK_RETRY);
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.entries[slot]
                        .as_mut()
                        .expect("entry exists")
                        .announced_closed = true;
                }
            }
        }
        if !conn.is_dead() {
            conn.close_after_flush();
        }
        self.update_interest(slot);
    }

    // ----------------------------------------------------- writing side

    fn drain_flush(&mut self) {
        loop {
            let batch: Vec<Arc<RConn>> = {
                let mut q = self
                    .shared()
                    .flush
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                std::mem::take(&mut *q)
            };
            if batch.is_empty() {
                return;
            }
            for rc in batch {
                // Clear the dedup flag first: schedules racing this
                // flush re-queue the connection rather than being lost.
                rc.queued.store(false, Ordering::Release);
                let slot = rc.slot;
                let current = self
                    .entries
                    .get(slot)
                    .and_then(Option::as_ref)
                    .is_some_and(|e| Arc::ptr_eq(&e.conn, &rc));
                if current {
                    self.flush_slot(slot);
                }
            }
        }
    }

    /// Flush the connection's outbound queue until empty or
    /// `WouldBlock`, resuming any partially written head frame.
    fn flush_slot(&mut self, slot: usize) {
        let Some(entry) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let conn = Arc::clone(&entry.conn);
        if conn.is_dead() {
            self.cleanup_slot(slot);
            return;
        }
        let mut killed = false;
        let mut blocked = false;
        {
            let mut q = conn.lock_out(&self.metrics);
            while let Some(head) = q.frames.front() {
                let (head_len, head_ty) = (head.bytes.len(), head.ty);
                let off = q.head_off;
                // Nonblocking write: returns immediately, so holding
                // the queue mutex across it is a bounded critical
                // section (the tick thread contends only briefly).
                match (&conn.stream).write(&head.bytes[off..]) {
                    Ok(n) => {
                        if off > 0 {
                            // This write continued a frame whose prefix
                            // left in an earlier, short write.
                            self.rmetrics.short_write_resumptions_total.inc();
                        }
                        q.head_off += n;
                        if q.head_off >= head_len {
                            self.metrics.frame_out(head_ty);
                            q.frames.pop_front();
                            q.head_off = 0;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        blocked = true;
                        break;
                    }
                    Err(_) => {
                        killed = true;
                        break;
                    }
                }
            }
        }
        if killed {
            conn.kill();
            self.cleanup_slot(slot);
            return;
        }
        if blocked {
            self.set_want_write(slot, true);
            return;
        }
        self.set_want_write(slot, false);
        // Queue fully drained: complete a graceful close.
        if conn.is_closing() {
            let _ = conn.stream.shutdown(Shutdown::Write);
            if self.entries[slot]
                .as_ref()
                .is_some_and(|e| e.read_done && e.announced_closed)
            {
                // Nothing left in either direction.
                self.cleanup_slot(slot);
            }
        }
    }

    // ------------------------------------------------- interest plumbing

    /// Reconcile kernel/transport readiness interest with the state
    /// machine: read interest only while reading is allowed, write
    /// interest only while the queue is blocked on the peer.
    fn set_want_write(&mut self, slot: usize, want: bool) {
        let Some(entry) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if entry.fd.is_none() {
            // Memory transport: the writable notify is install-on-demand
            // (it fires immediately if space is already available).
            if want != entry.write_notify_on {
                entry.write_notify_on = want;
                let read_cb = entry.notify_read.clone();
                let write_cb = if want {
                    entry.notify_write.clone()
                } else {
                    None
                };
                // Reinstall via the write handle; notify slots live on
                // the shared pipes, any clone reaches them.
                entry.conn.stream.set_notify(read_cb, write_cb);
            }
            return;
        }
        self.reconcile_interest(slot, Some(want));
    }

    fn update_interest(&mut self, slot: usize) {
        self.reconcile_interest(slot, None);
    }

    fn reconcile_interest(&mut self, slot: usize, want_write: Option<bool>) {
        let Some(entry) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let Some(fd) = entry.fd else { return };
        let reading = !entry.read_done && entry.parked.is_none() && !entry.conn.is_dead();
        let writing = want_write.unwrap_or(entry.cur_interest.writable());
        let desired = match (reading, writing) {
            (true, true) => Interest::BOTH,
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            (false, false) => Interest::NONE,
        };
        if desired != entry.cur_interest
            && self
                .reactor
                .reregister(fd, Token(slot as u64), desired, Mode::Level)
                .is_ok()
        {
            entry.cur_interest = desired;
        }
    }

    // ----------------------------------------------------------- teardown

    /// Remove a dead connection once its close is announced; until
    /// then keep the entry so the parked `Ingest::Closed` retries.
    fn cleanup_slot(&mut self, slot: usize) {
        let Some(entry) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if !entry.announced_closed {
            entry.read_done = true;
            let id = entry.conn.id;
            let parked_closed = matches!(entry.parked, Some(Ingest::Closed(_)));
            if !parked_closed {
                match self.ingest.try_send(Ingest::Closed(id)) {
                    Ok(()) => {
                        self.metrics.ingest_enqueued_total.inc();
                        self.entries[slot]
                            .as_mut()
                            .expect("entry exists")
                            .announced_closed = true;
                    }
                    Err(TrySendError::Full(item)) => {
                        let entry = self.entries[slot].as_mut().expect("entry exists");
                        // Replace whatever was parked: the connection is
                        // dead, only the close announcement matters now.
                        entry.parked = Some(item);
                        self.reactor
                            .set_timer(Token(slot as u64), Instant::now() + PARK_RETRY);
                        return;
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        self.entries[slot]
                            .as_mut()
                            .expect("entry exists")
                            .announced_closed = true;
                    }
                }
            } else {
                return; // already parked; the timer will deliver it
            }
        }
        let entry = self.entries[slot].take().expect("entry exists");
        self.free.push(slot);
        self.reactor.cancel_timer(Token(slot as u64));
        if let Some(fd) = entry.fd {
            let _ = self.reactor.deregister(fd);
        } else {
            entry.conn.stream.set_notify(None, None);
        }
        let _ = entry.conn.stream.shutdown(Shutdown::Both);
    }

    /// Every outbound queue is empty (or its connection is dead).
    fn all_flushed(&self) -> bool {
        self.entries
            .iter()
            .flatten()
            .all(|e| e.conn.is_dead() || e.conn.lock_out(&self.metrics).frames.is_empty())
    }

    /// Drop everything: deadline reached or queues drained.
    fn teardown_all(&mut self) {
        for slot in 0..self.entries.len() {
            if let Some(entry) = self.entries[slot].take() {
                let _ = entry.conn.stream.shutdown(Shutdown::Both);
                entry.conn.dead.store(true, Ordering::Release);
                if let Some(fd) = entry.fd {
                    let _ = self.reactor.deregister(fd);
                } else {
                    entry.conn.stream.set_notify(None, None);
                }
            }
        }
        if let Some(l) = &self.listener {
            l.set_accept_notify(None);
        }
    }
}
