//! Transport abstraction: real TCP sockets or an in-process duplex pipe.
//!
//! The server core (event loops, tick thread, client) is written
//! against [`Stream`] / [`Listener`], concrete enums over `TcpStream` /
//! `TcpListener` and the in-memory [`MemStream`] / [`MemListener`]. The
//! memory transport exists for the deterministic simulation harness
//! (`igern-sim`): it lets a whole server — event loops, tick thread —
//! run against clients in the same process with no ports, while
//! preserving the socket semantics the server relies on:
//!
//! * **bounded buffering** — each direction is a capacity-limited byte
//!   queue, so a stalled consumer eventually blocks the producer and the
//!   slow-consumer machinery fires exactly as it would on TCP;
//! * **timeouts** — reads past the read timeout fail with `WouldBlock`
//!   (what [`FrameReader`](crate::proto::FrameReader) treats as
//!   [`Idle`](crate::proto::ReadOutcome::Idle));
//! * **half-close** — `shutdown(Write)` lets the peer drain buffered
//!   bytes and then observe EOF, which is how graceful close works on
//!   sockets.
//!
//! The memory pipe additionally supports a **write tap** — a scripted
//! transformation of each written chunk — which is how the simulation
//! harness injects dropped, duplicated, truncated, and reordered frames
//! between the server and a victim client without touching protocol
//! code. The server offers one whole encoded frame per write and the
//! nonblocking pipe admits it whole or not at all, so per-chunk taps
//! are per-frame taps.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Transformation applied to each chunk written into a [`MemStream`]
/// before it is buffered: the returned chunks are delivered instead
/// (empty = drop, two copies = duplicate, a held-back chunk emitted
/// later = reorder). Called on the writer's thread, in write order.
pub type WriteTap = Box<dyn FnMut(&[u8]) -> Vec<Vec<u8>> + Send>;

/// Readiness callback installed on a memory pipe or accept queue so an
/// event loop can be prodded without polling. Called **after** the pipe
/// mutex is released (so the callback may itself take locks), possibly
/// spuriously, from whichever thread caused the transition.
pub type ReadyNotify = Arc<dyn Fn() + Send + Sync>;

/// Default per-direction buffer capacity of a memory pipe (bytes).
pub const MEM_PIPE_CAPACITY: usize = 1 << 16;

/// One direction of a duplex memory pipe: a bounded byte queue with
/// blocking reads/writes, a read timeout, and close flags for each end.
struct Pipe {
    inner: Mutex<PipeState>,
    /// Signalled when bytes (or EOF) become available to the reader.
    readable: Condvar,
    /// Signalled when space (or reader close) becomes visible to the
    /// writer.
    writable: Condvar,
    capacity: usize,
}

struct PipeState {
    buf: VecDeque<u8>,
    /// The writing end is gone: drained reads return EOF.
    tx_closed: bool,
    /// The reading end is gone: writes fail with `BrokenPipe`.
    rx_closed: bool,
    /// Scripted fault injection on this direction's writes.
    tap: Option<WriteTap>,
    /// Fired (post-unlock) whenever bytes or EOF become readable.
    notify_readable: Option<ReadyNotify>,
    /// Fired (post-unlock) whenever space or reader-close becomes
    /// visible to the writer.
    notify_writable: Option<ReadyNotify>,
}

/// Clone the readable-notify iff any bytes were buffered (`off > 0`).
fn wrote(st: &PipeState, off: usize) -> Option<ReadyNotify> {
    if off > 0 {
        st.notify_readable.clone()
    } else {
        None
    }
}

impl Pipe {
    fn new(capacity: usize) -> Self {
        Pipe {
            inner: Mutex::new(PipeState {
                buf: VecDeque::new(),
                tx_closed: false,
                rx_closed: false,
                tap: None,
                notify_readable: None,
                notify_writable: None,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
        }
    }

    fn close_tx(&self) {
        let (cb_r, cb_w) = {
            let mut st = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.tx_closed = true;
            (st.notify_readable.clone(), st.notify_writable.clone())
        };
        self.readable.notify_all();
        self.writable.notify_all();
        if let Some(cb) = cb_r {
            cb(); // EOF is observed through the read path
        }
        if let Some(cb) = cb_w {
            cb(); // writes now fail fast — let the flusher find out
        }
    }

    fn close_rx(&self) {
        let (cb_r, cb_w) = {
            let mut st = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.rx_closed = true;
            (st.notify_readable.clone(), st.notify_writable.clone())
        };
        self.readable.notify_all();
        self.writable.notify_all();
        if let Some(cb) = cb_r {
            cb();
        }
        if let Some(cb) = cb_w {
            cb();
        }
    }

    /// Install the readable-side callback; fires immediately if the
    /// pipe is already readable so no prior transition is missed.
    fn set_notify_readable(&self, cb: Option<ReadyNotify>) {
        let fire = {
            let mut st = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let ready = !st.buf.is_empty() || st.tx_closed || st.rx_closed;
            st.notify_readable = cb.clone();
            ready
        };
        if fire {
            if let Some(cb) = cb {
                cb();
            }
        }
    }

    /// Install the writable-side callback; fires immediately if the
    /// pipe already has space (or is closed).
    fn set_notify_writable(&self, cb: Option<ReadyNotify>) {
        let fire = {
            let mut st = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let ready = st.buf.len() < self.capacity || st.tx_closed || st.rx_closed;
            st.notify_writable = cb.clone();
            ready
        };
        if fire {
            if let Some(cb) = cb {
                cb();
            }
        }
    }

    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if !st.buf.is_empty() {
                let n = buf.len().min(st.buf.len());
                for b in buf.iter_mut().take(n) {
                    *b = st.buf.pop_front().expect("len checked");
                }
                self.writable.notify_all();
                let cb = st.notify_writable.clone();
                drop(st);
                if let Some(cb) = cb {
                    cb();
                }
                return Ok(n);
            }
            if st.tx_closed || st.rx_closed {
                return Ok(0); // EOF (rx_closed = our own shutdown(Read))
            }
            st = match timeout {
                None => self
                    .readable
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
                Some(d) => {
                    let (guard, res) = self
                        .readable
                        .wait_timeout(st, d)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if res.timed_out() && guard.buf.is_empty() && !guard.tx_closed {
                        return Err(io::ErrorKind::WouldBlock.into());
                    }
                    guard
                }
            };
        }
    }

    /// Buffer one whole chunk, blocking for space as needed. Called with
    /// post-tap chunks, so partial progress never splits a tap result.
    fn write_chunk(&self, chunk: &[u8]) -> io::Result<()> {
        let (res, cb) = self.write_chunk_inner(chunk);
        // Fire even on error paths: a failed write may still have
        // buffered a prefix the reader-side loop must hear about.
        if let Some(cb) = cb {
            cb();
        }
        res
    }

    fn write_chunk_inner(&self, chunk: &[u8]) -> (io::Result<()>, Option<ReadyNotify>) {
        let mut st = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut off = 0;
        while off < chunk.len() {
            if st.rx_closed {
                let cb = wrote(&st, off);
                return (Err(io::ErrorKind::BrokenPipe.into()), cb);
            }
            if st.tx_closed {
                let cb = wrote(&st, off);
                return (Err(io::ErrorKind::NotConnected.into()), cb);
            }
            let space = self.capacity.saturating_sub(st.buf.len());
            if space == 0 {
                st = self
                    .writable
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            let n = space.min(chunk.len() - off);
            st.buf.extend(&chunk[off..off + n]);
            off += n;
            self.readable.notify_all();
        }
        let cb = wrote(&st, off);
        (Ok(()), cb)
    }

    /// Nonblocking chunk write with **all-or-nothing admission**: the
    /// whole (post-tap) chunk is accepted iff the buffer is below
    /// capacity, overshooting by at most one chunk. This keeps write
    /// taps per-frame — a retried frame is never re-tapped — and
    /// guarantees progress for frames larger than the pipe capacity.
    fn write_nonblocking(&self, buf: &[u8]) -> io::Result<usize> {
        let cb = {
            let mut st = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if st.rx_closed {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            if st.tx_closed {
                return Err(io::ErrorKind::NotConnected.into());
            }
            if st.buf.len() >= self.capacity {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let tapped = st.tap.as_mut().map(|t| t(buf));
            match tapped {
                None => st.buf.extend(buf),
                Some(chunks) => {
                    for c in chunks {
                        st.buf.extend(c.iter());
                    }
                }
            }
            self.readable.notify_all();
            st.notify_readable.clone()
        };
        if let Some(cb) = cb {
            cb();
        }
        Ok(buf.len())
    }

    /// Nonblocking read: `WouldBlock` instead of waiting.
    fn read_nonblocking(&self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let (n, cb) = {
            let mut st = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if st.buf.is_empty() {
                if st.tx_closed || st.rx_closed {
                    return Ok(0);
                }
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(st.buf.len());
            for b in buf.iter_mut().take(n) {
                *b = st.buf.pop_front().expect("len checked");
            }
            self.writable.notify_all();
            (n, st.notify_writable.clone())
        };
        if let Some(cb) = cb {
            cb();
        }
        Ok(n)
    }

    /// Run the tap (if any) over `buf` and buffer the resulting chunks.
    fn write(&self, buf: &[u8]) -> io::Result<usize> {
        let tapped: Option<Vec<Vec<u8>>> = {
            let mut st = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if st.rx_closed {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            st.tap.as_mut().map(|t| t(buf))
        };
        match tapped {
            None => self.write_chunk(buf)?,
            Some(chunks) => {
                for c in chunks {
                    self.write_chunk(&c)?;
                }
            }
        }
        // The caller's whole buffer is accounted for even when the tap
        // rewrote it: `write_all` must not retry tapped bytes.
        Ok(buf.len())
    }

    fn set_tap(&self, tap: Option<WriteTap>) {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .tap = tap;
    }
}

/// Socket-wide state of one endpoint of a memory duplex pipe. All
/// clones of a [`MemStream`] share this (like `TcpStream::try_clone`
/// sharing one socket); when the last clone drops, both directions are
/// closed, mirroring OS socket teardown.
struct MemEndpoint {
    /// Pipe this endpoint reads from.
    rx: Arc<Pipe>,
    /// Pipe this endpoint writes into.
    tx: Arc<Pipe>,
    read_timeout: Mutex<Option<Duration>>,
    /// Reads/writes return `WouldBlock` instead of waiting (shared
    /// across clones, like `TcpStream::set_nonblocking`).
    nonblocking: std::sync::atomic::AtomicBool,
}

impl Drop for MemEndpoint {
    fn drop(&mut self) {
        self.tx.close_tx();
        self.rx.close_rx();
    }
}

/// One endpoint of an in-process duplex byte pipe with TCP-like
/// semantics (see the module docs). Clones share the endpoint.
#[derive(Clone)]
pub struct MemStream(Arc<MemEndpoint>);

impl MemStream {
    /// Per-endpoint read timeout, as on a socket (shared across clones).
    pub fn set_read_timeout(&self, d: Option<Duration>) {
        *self
            .0
            .read_timeout
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = d;
    }

    /// Shut down one or both directions, as on a socket.
    pub fn shutdown(&self, how: Shutdown) {
        if matches!(how, Shutdown::Write | Shutdown::Both) {
            self.0.tx.close_tx();
        }
        if matches!(how, Shutdown::Read | Shutdown::Both) {
            self.0.rx.close_rx();
        }
    }

    /// Install (or clear) a fault-injection tap on this endpoint's
    /// writes. The peer's reads observe the tap's output.
    pub fn set_write_tap(&self, tap: Option<WriteTap>) {
        self.0.tx.set_tap(tap);
    }

    /// Nonblocking mode, as on a socket: reads/writes fail with
    /// `WouldBlock` instead of waiting. Shared across clones.
    pub fn set_nonblocking(&self, on: bool) {
        self.0
            .nonblocking
            .store(on, std::sync::atomic::Ordering::Release);
    }

    /// Install readiness callbacks for an event loop: `on_readable`
    /// fires when this endpoint has bytes/EOF to read, `on_writable`
    /// when its outbound pipe has space (or is closed). Either fires
    /// immediately if the condition already holds, so no transition
    /// before installation is lost. Pass `None` to uninstall.
    pub fn set_notify(&self, on_readable: Option<ReadyNotify>, on_writable: Option<ReadyNotify>) {
        self.0.rx.set_notify_readable(on_readable);
        self.0.tx.set_notify_writable(on_writable);
    }

    fn read_timeout(&self) -> Option<Duration> {
        *self
            .0
            .read_timeout
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Read for &MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self
            .0
            .nonblocking
            .load(std::sync::atomic::Ordering::Acquire)
        {
            return self.0.rx.read_nonblocking(buf);
        }
        let t = self.read_timeout();
        self.0.rx.read(buf, t)
    }
}

impl Write for &MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self
            .0
            .nonblocking
            .load(std::sync::atomic::Ordering::Acquire)
        {
            return self.0.tx.write_nonblocking(buf);
        }
        self.0.tx.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A connected pair of memory endpoints with the given per-direction
/// buffer capacity.
pub fn memory_pair_with_capacity(capacity: usize) -> (MemStream, MemStream) {
    let a2b = Arc::new(Pipe::new(capacity));
    let b2a = Arc::new(Pipe::new(capacity));
    let a = MemStream(Arc::new(MemEndpoint {
        rx: Arc::clone(&b2a),
        tx: Arc::clone(&a2b),
        read_timeout: Mutex::new(None),
        nonblocking: std::sync::atomic::AtomicBool::new(false),
    }));
    let b = MemStream(Arc::new(MemEndpoint {
        rx: a2b,
        tx: b2a,
        read_timeout: Mutex::new(None),
        nonblocking: std::sync::atomic::AtomicBool::new(false),
    }));
    (a, b)
}

/// [`memory_pair_with_capacity`] at [`MEM_PIPE_CAPACITY`].
pub fn memory_pair() -> (MemStream, MemStream) {
    memory_pair_with_capacity(MEM_PIPE_CAPACITY)
}

/// Either transport's stream, behind one concrete type so connection
/// state needs no generics.
pub enum Stream {
    /// A real socket.
    Tcp(TcpStream),
    /// An in-process pipe endpoint.
    Mem(MemStream),
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stream::Tcp(s) => f.debug_tuple("Tcp").field(s).finish(),
            Stream::Mem(_) => f.write_str("Mem"),
        }
    }
}

impl Stream {
    /// A second handle to the same underlying stream (for split read
    /// and write halves).
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Mem(s) => Stream::Mem(s.clone()),
        })
    }

    /// Shut down one or both directions.
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(how),
            Stream::Mem(s) => {
                s.shutdown(how);
                Ok(())
            }
        }
    }

    /// Socket read timeout (`None` = block forever).
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Mem(s) => {
                s.set_read_timeout(d);
                Ok(())
            }
        }
    }

    /// `TCP_NODELAY` on sockets; a no-op on the memory pipe (which
    /// never batches).
    pub fn set_nodelay(&self, on: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nodelay(on),
            Stream::Mem(_) => Ok(()),
        }
    }

    /// Nonblocking mode for both transports (reads/writes return
    /// `WouldBlock` instead of waiting).
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(on),
            Stream::Mem(s) => {
                s.set_nonblocking(on);
                Ok(())
            }
        }
    }

    /// The OS fd for kernel-pollable streams; `None` for the memory
    /// transport (which registers as an external readiness source).
    #[cfg(unix)]
    pub fn raw_fd(&self) -> Option<i32> {
        use std::os::unix::io::AsRawFd;
        match self {
            Stream::Tcp(s) => Some(s.as_raw_fd()),
            Stream::Mem(_) => None,
        }
    }

    /// See the unix variant; no kernel-pollable fds elsewhere.
    #[cfg(not(unix))]
    pub fn raw_fd(&self) -> Option<i32> {
        None
    }

    /// Readiness callbacks for event-loop integration; a no-op on TCP
    /// (whose readiness comes from the kernel poller).
    pub fn set_notify(&self, on_readable: Option<ReadyNotify>, on_writable: Option<ReadyNotify>) {
        if let Stream::Mem(s) = self {
            s.set_notify(on_readable, on_writable);
        }
    }
}

impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).read(buf),
            Stream::Mem(s) => {
                let mut r = s;
                r.read(buf)
            }
        }
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => (&*s).write(buf),
            Stream::Mem(s) => {
                let mut w = s;
                w.write(buf)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => (&*s).flush(),
            Stream::Mem(_) => Ok(()),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        (&*self).flush()
    }
}

/// Accept queue shared by a [`MemListener`] and its [`MemConnector`]s.
struct MemAcceptQueue {
    pending: Mutex<Vec<MemStream>>,
    closed: Mutex<bool>,
    /// Fired (post-unlock) when a connection is queued.
    notify: Mutex<Option<ReadyNotify>>,
}

/// In-process listener: accepts connections made through a
/// [`MemConnector`]. Nonblocking, like the server's TCP listener.
pub struct MemListener {
    queue: Arc<MemAcceptQueue>,
}

impl Drop for MemListener {
    fn drop(&mut self) {
        *self
            .queue
            .closed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
    }
}

/// Client-side handle for connecting to a [`MemListener`]. Cloneable;
/// each `connect` creates a fresh duplex pipe.
#[derive(Clone)]
pub struct MemConnector {
    queue: Arc<MemAcceptQueue>,
    capacity: usize,
}

impl MemConnector {
    /// Connect, handing the listener the server-side endpoint.
    pub fn connect(&self) -> io::Result<MemStream> {
        self.connect_with_tap(None)
    }

    /// Connect, installing `tap` on the **server-side** endpoint's
    /// writes — i.e. on the server→client direction — before the server
    /// ever sees the stream. This is the simulation harness's frame
    /// fault-injection point.
    pub fn connect_with_tap(&self, tap: Option<WriteTap>) -> io::Result<MemStream> {
        if *self
            .queue
            .closed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            return Err(io::ErrorKind::ConnectionRefused.into());
        }
        let (client, server) = memory_pair_with_capacity(self.capacity);
        server.set_write_tap(tap);
        self.queue
            .pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(server);
        let cb = self
            .queue
            .notify
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        if let Some(cb) = cb {
            cb();
        }
        Ok(client)
    }
}

/// A connected in-process listener/connector pair with the given
/// per-direction pipe capacity.
pub fn memory_listener_with_capacity(capacity: usize) -> (MemListener, MemConnector) {
    let queue = Arc::new(MemAcceptQueue {
        pending: Mutex::new(Vec::new()),
        closed: Mutex::new(false),
        notify: Mutex::new(None),
    });
    (
        MemListener {
            queue: Arc::clone(&queue),
        },
        MemConnector { queue, capacity },
    )
}

/// [`memory_listener_with_capacity`] at [`MEM_PIPE_CAPACITY`].
pub fn memory_listener() -> (MemListener, MemConnector) {
    memory_listener_with_capacity(MEM_PIPE_CAPACITY)
}

/// Either transport's listener. The acceptor drains it on readiness, so
/// both arms are nonblocking (`WouldBlock` when no connection is pending).
pub enum Listener {
    /// A nonblocking TCP listener.
    Tcp(TcpListener),
    /// An in-process accept queue.
    Mem(MemListener),
}

impl Listener {
    /// Accept one pending connection, `WouldBlock` if none is queued.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Mem(l) => {
                let mut pending = l
                    .queue
                    .pending
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if pending.is_empty() {
                    Err(io::ErrorKind::WouldBlock.into())
                } else {
                    // FIFO: connections are served in connect order.
                    Ok(Stream::Mem(pending.remove(0)))
                }
            }
        }
    }

    /// The bound address; memory listeners report the TCP unspecified
    /// address (there is no port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr(),
            Listener::Mem(_) => Ok(SocketAddr::from(([127, 0, 0, 1], 0))),
        }
    }

    /// The OS fd for TCP listeners; `None` for memory listeners (the
    /// event loop uses [`Listener::set_accept_notify`] instead).
    #[cfg(unix)]
    pub fn raw_fd(&self) -> Option<i32> {
        use std::os::unix::io::AsRawFd;
        match self {
            Listener::Tcp(l) => Some(l.as_raw_fd()),
            Listener::Mem(_) => None,
        }
    }

    /// See the unix variant; no kernel-pollable fds elsewhere.
    #[cfg(not(unix))]
    pub fn raw_fd(&self) -> Option<i32> {
        None
    }

    /// Install a callback fired whenever a memory connection is queued
    /// for accept; fires immediately if one is already waiting. A no-op
    /// on TCP listeners (readiness comes from the kernel poller).
    pub fn set_accept_notify(&self, cb: Option<ReadyNotify>) {
        if let Listener::Mem(l) = self {
            let fire = {
                let mut slot = l
                    .queue
                    .notify
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                *slot = cb.clone();
                !l.queue
                    .pending
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .is_empty()
            };
            if fire {
                if let Some(cb) = cb {
                    cb();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_pipe_moves_bytes_both_ways() {
        let (a, b) = memory_pair();
        (&a).write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        (&b).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        (&b).write_all(b"pong").unwrap();
        (&a).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn read_timeout_is_wouldblock_and_eof_after_writer_close() {
        let (a, b) = memory_pair();
        b.set_read_timeout(Some(Duration::from_millis(5)));
        let mut buf = [0u8; 1];
        let err = (&b).read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        (&a).write_all(b"x").unwrap();
        a.shutdown(Shutdown::Write);
        assert_eq!((&b).read(&mut buf).unwrap(), 1); // buffered byte first
        assert_eq!((&b).read(&mut buf).unwrap(), 0); // then EOF
    }

    #[test]
    fn write_into_a_full_pipe_completes_once_drained() {
        let (a, b) = memory_pair_with_capacity(4);
        (&a).write_all(b"1234").unwrap();
        let writer = std::thread::spawn(move || (&a).write_all(b"5"));
        let mut buf = [0u8; 4];
        (&b).read_exact(&mut buf).unwrap();
        writer.join().unwrap().unwrap();
        assert_eq!((&b).read(&mut buf).unwrap(), 1);
        assert_eq!(buf[0], b'5');
    }

    #[test]
    fn dropped_peer_breaks_writes() {
        let (a, b) = memory_pair();
        drop(b);
        let err = (&a).write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn write_tap_transforms_the_byte_stream() {
        let (a, b) = memory_pair();
        // Drop every chunk containing 'd', duplicate the rest.
        a.set_write_tap(Some(Box::new(|chunk: &[u8]| {
            if chunk.contains(&b'd') {
                vec![]
            } else {
                vec![chunk.to_vec(), chunk.to_vec()]
            }
        })));
        (&a).write_all(b"keep").unwrap();
        (&a).write_all(b"drop").unwrap();
        a.shutdown(Shutdown::Write);
        let mut out = Vec::new();
        (&b).read_to_end(&mut out).unwrap();
        assert_eq!(out, b"keepkeep");
    }

    #[test]
    fn nonblocking_mem_stream_wouldblocks_and_overshoots_once() {
        let (a, b) = memory_pair_with_capacity(4);
        a.set_nonblocking(true);
        b.set_nonblocking(true);
        let mut buf = [0u8; 16];
        assert_eq!(
            (&b).read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        // All-or-nothing admission: a chunk larger than capacity is
        // accepted whole while the buffer is below capacity...
        assert_eq!((&a).write(b"123456").unwrap(), 6);
        // ...and further writes WouldBlock until the reader drains.
        assert_eq!(
            (&a).write(b"7").unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!((&b).read(&mut buf).unwrap(), 6);
        assert_eq!((&a).write(b"7").unwrap(), 1);
        // EOF still reads as Ok(0).
        a.shutdown(Shutdown::Write);
        assert_eq!((&b).read(&mut buf).unwrap(), 1);
        assert_eq!((&b).read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn notify_fires_on_data_space_and_close() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (a, b) = memory_pair_with_capacity(4);
        let reads = Arc::new(AtomicUsize::new(0));
        let writes = Arc::new(AtomicUsize::new(0));
        let (r, w) = (Arc::clone(&reads), Arc::clone(&writes));
        // Installing on an empty, spacious pipe: writable fires
        // immediately (space available), readable does not.
        b.set_notify(
            Some(Arc::new(move || {
                r.fetch_add(1, Ordering::SeqCst);
            })),
            Some(Arc::new(move || {
                w.fetch_add(1, Ordering::SeqCst);
            })),
        );
        assert_eq!(reads.load(Ordering::SeqCst), 0);
        assert_eq!(writes.load(Ordering::SeqCst), 1);

        (&a).write_all(b"hi").unwrap();
        assert_eq!(reads.load(Ordering::SeqCst), 1);
        // Peer close fires readable (EOF) again.
        a.shutdown(Shutdown::Write);
        assert!(reads.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn accept_notify_fires_on_connect_and_backlog() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (listener, connector) = memory_listener();
        let listener = Listener::Mem(listener);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        listener.set_accept_notify(Some(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        })));
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        let _c = connector.connect().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // Re-install with a backlog pending: fires immediately.
        let h = Arc::clone(&hits);
        listener.set_accept_notify(Some(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        })));
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn listener_hands_over_connections_in_order() {
        let (listener, connector) = memory_listener();
        assert_eq!(
            Listener::Mem(listener)
                .local_addr()
                .unwrap()
                .ip()
                .to_string(),
            "127.0.0.1"
        );
        let (listener, connector2) = memory_listener();
        let listener = Listener::Mem(listener);
        assert!(matches!(
            listener.accept().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        ));
        let c1 = connector2.connect().unwrap();
        let _c2 = connector2.connect().unwrap();
        let s1 = listener.accept().unwrap();
        (&c1).write_all(b"a").unwrap();
        let mut buf = [0u8; 1];
        let mut r = &s1;
        r.read_exact(&mut buf).unwrap();
        assert_eq!(buf[0], b'a');
        drop(connector);
    }
}
