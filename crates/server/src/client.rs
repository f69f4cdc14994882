//! A blocking protocol client.
//!
//! [`Client`] speaks the igern-server wire protocol over one
//! `TcpStream` and maintains the materialised answer of every
//! subscription by applying pushed snapshots and deltas — after any
//! [`Event::TickEnd`], [`Client::answer`] equals the server-side
//! `TickRunner::answer` for that tick, bit for bit. The equivalence
//! tests, `igern wal drive` and the benchmark all drive this type.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use igern_core::processor::Algorithm;
use igern_core::types::{DistanceMode, ObjectKind};

use crate::proto::{
    ErrorCode, Frame, FrameError, FrameReader, ProtoError, ReadOutcome, PROTOCOL_VERSION,
};
use crate::transport::Stream;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent bytes that do not decode.
    Proto(ProtoError),
    /// The server rejected the `HELLO` handshake.
    Handshake(String),
    /// A blocking wait ran out of time.
    TimedOut,
    /// The server closed the connection.
    Closed,
    /// The server answered a command wait with an `ERROR` frame (a
    /// semantic rejection; the connection stays usable).
    Server { code: ErrorCode, message: String },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Handshake(m) => write!(f, "handshake rejected: {m}"),
            ClientError::TimedOut => write!(f, "timed out waiting for the server"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Proto(e) => ClientError::Proto(e),
        }
    }
}

/// One server push, after the client applied it to its local state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Handshake accepted (only seen during [`Client::connect`]).
    HelloAck { version: u16 },
    /// Subscription acknowledged.
    Subscribed { token: u32, sid: u32 },
    /// Unsubscribe acknowledged; the local answer was dropped.
    Unsubscribed { sid: u32 },
    /// An answer change (already folded into [`Client::answer`]).
    Delta {
        tick: u64,
        stamp_nanos: u64,
        sid: u32,
        snapshot: bool,
        adds: Vec<u32>,
        removes: Vec<u32>,
    },
    /// All of a tick's deltas for this connection have been delivered.
    TickEnd { tick: u64, stamp_nanos: u64 },
    /// Ping reply.
    Pong { nonce: u64 },
    /// A server-side rejection; semantic errors leave the connection
    /// usable.
    Error { code: ErrorCode, message: String },
}

/// Blocking client over one connection. Not thread-safe; clone the
/// answers out if another thread needs them.
pub struct Client {
    stream: Stream,
    reader: FrameReader<Stream>,
    next_token: u32,
    answers: BTreeMap<u32, BTreeSet<u32>>,
    last_tick_end: Option<(u64, u64)>,
}

impl Client {
    /// Connect over TCP and complete the `HELLO` handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(Stream::Tcp(stream))
    }

    /// Speak the protocol over an already-connected [`Stream`] (TCP or
    /// the in-process memory transport) and complete the `HELLO`
    /// handshake.
    pub fn from_stream(stream: Stream) -> Result<Client, ClientError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(25)))?;
        let reader = FrameReader::new(stream.try_clone()?);
        let mut c = Client {
            stream,
            reader,
            next_token: 1,
            answers: BTreeMap::new(),
            last_tick_end: None,
        };
        c.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match c.wait_event(Duration::from_secs(10))? {
            Event::Error { message, .. } => Err(ClientError::Handshake(message)),
            _ => Ok(c), // HelloAck (the only other pre-subscribe frame)
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        self.stream.write_all(&frame.encode())?;
        Ok(())
    }

    /// Insert or move an object.
    pub fn upsert(&mut self, id: u32, kind: ObjectKind, x: f64, y: f64) -> Result<(), ClientError> {
        self.send(&Frame::UpsertObject { id, kind, x, y })
    }

    /// Remove an object.
    pub fn remove_object(&mut self, id: u32) -> Result<(), ClientError> {
        self.send(&Frame::RemoveObject { id })
    }

    /// Subscribe a continuous query anchored at `anchor`; blocks for
    /// the `SUBSCRIBED` ack and returns the subscription id.
    ///
    /// A semantically invalid subscription (unknown anchor, wrong kind,
    /// `k == 0`) is still acknowledged — the rejection arrives
    /// afterwards as an [`Event::Error`] and the sid never produces
    /// deltas.
    ///
    /// # Errors
    /// [`ClientError::Server`] when the server pushes an `ERROR` frame
    /// while the ack is awaited (e.g. the connection is being rejected),
    /// instead of spinning until a generic [`ClientError::TimedOut`].
    pub fn subscribe(&mut self, anchor: u32, algo: Algorithm) -> Result<u32, ClientError> {
        self.subscribe_in(anchor, algo, DistanceMode::Euclidean)
    }

    /// [`Client::subscribe`] with an explicit distance mode (protocol
    /// v2; Euclidean encodes identically to v1).
    ///
    /// # Errors
    /// As [`Client::subscribe`].
    pub fn subscribe_in(
        &mut self,
        anchor: u32,
        algo: Algorithm,
        mode: DistanceMode,
    ) -> Result<u32, ClientError> {
        let token = self.next_token;
        self.next_token += 1;
        self.send(&Frame::Subscribe {
            token,
            anchor,
            algo,
            mode,
        })?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let remain = deadline
                .checked_duration_since(Instant::now())
                .ok_or(ClientError::TimedOut)?;
            match self.wait_event(remain)? {
                Event::Subscribed { token: t, sid } if t == token => {
                    self.answers.entry(sid).or_default();
                    return Ok(sid);
                }
                Event::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                _ => continue,
            }
        }
    }

    /// Drop a subscription (fire-and-forget; the `UNSUBSCRIBED` ack
    /// arrives as an event).
    pub fn unsubscribe(&mut self, sid: u32) -> Result<(), ClientError> {
        self.send(&Frame::Unsubscribe { sid })
    }

    /// Force an immediate tick (the manual-mode driver).
    pub fn step(&mut self) -> Result<(), ClientError> {
        self.send(&Frame::Step)
    }

    /// Round-trip a `PING`; returns when the matching `PONG` arrives.
    ///
    /// # Errors
    /// [`ClientError::Server`] when an `ERROR` frame arrives while the
    /// `PONG` is awaited (the failure, not a generic timeout).
    pub fn ping(&mut self, nonce: u64) -> Result<(), ClientError> {
        self.send(&Frame::Ping { nonce })?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let remain = deadline
                .checked_duration_since(Instant::now())
                .ok_or(ClientError::TimedOut)?;
            match self.wait_event(remain)? {
                Event::Pong { nonce: n } if n == nonce => return Ok(()),
                Event::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                _ => continue,
            }
        }
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.send(&Frame::Shutdown)
    }

    /// Current materialised answer of `sid`, sorted by object id.
    pub fn answer(&self, sid: u32) -> Vec<u32> {
        self.answers
            .get(&sid)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// `(tick, stamp_nanos)` of the last `TICK_END` seen.
    pub fn last_tick_end(&self) -> Option<(u64, u64)> {
        self.last_tick_end
    }

    /// Read the next pushed frame, folding answer deltas into the local
    /// state; `Ok(None)` when `timeout` elapses with no frame.
    pub fn poll_event(&mut self, timeout: Duration) -> Result<Option<Event>, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.reader.poll() {
                Ok(ReadOutcome::Frame(frame)) => return Ok(Some(self.apply(frame))),
                // Forward compatibility: skip frame types newer than
                // this client.
                Ok(ReadOutcome::Skipped(_)) => {}
                Ok(ReadOutcome::Idle) => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
                Ok(ReadOutcome::Eof) => return Err(ClientError::Closed),
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// As [`poll_event`](Client::poll_event) but a missing frame is an
    /// error.
    pub fn wait_event(&mut self, timeout: Duration) -> Result<Event, ClientError> {
        self.poll_event(timeout)?.ok_or(ClientError::TimedOut)
    }

    /// Consume events until the `TICK_END` of a tick `>= min_tick`;
    /// returns its `(tick, stamp_nanos)`.
    pub fn wait_tick_end(
        &mut self,
        min_tick: u64,
        timeout: Duration,
    ) -> Result<(u64, u64), ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remain = deadline
                .checked_duration_since(Instant::now())
                .ok_or(ClientError::TimedOut)?;
            if let Event::TickEnd { tick, stamp_nanos } = self.wait_event(remain)? {
                if tick >= min_tick {
                    return Ok((tick, stamp_nanos));
                }
            }
        }
    }

    fn apply(&mut self, frame: Frame) -> Event {
        match frame {
            Frame::HelloAck { version } => Event::HelloAck { version },
            Frame::Subscribed { token, sid } => Event::Subscribed { token, sid },
            Frame::Unsubscribed { sid } => {
                self.answers.remove(&sid);
                Event::Unsubscribed { sid }
            }
            Frame::TickDelta {
                tick,
                stamp_nanos,
                sid,
                snapshot,
                adds,
                removes,
            } => {
                let entry = self.answers.entry(sid).or_default();
                if snapshot {
                    entry.clear();
                }
                for id in &removes {
                    entry.remove(id);
                }
                entry.extend(adds.iter().copied());
                Event::Delta {
                    tick,
                    stamp_nanos,
                    sid,
                    snapshot,
                    adds,
                    removes,
                }
            }
            Frame::TickEnd { tick, stamp_nanos } => {
                self.last_tick_end = Some((tick, stamp_nanos));
                Event::TickEnd { tick, stamp_nanos }
            }
            Frame::Pong { nonce } => Event::Pong { nonce },
            Frame::Error { code, message } => Event::Error { code, message },
            // Client→server frame types can only appear here if the
            // server is broken; surface them as an error event instead
            // of panicking.
            other => Event::Error {
                code: ErrorCode::Malformed,
                message: format!("unexpected {} frame from server", other.type_name()),
            },
        }
    }

    /// Send raw bytes on the wire — test hook for malformed-frame
    /// injection.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Tune how long an empty [`poll_event`](Client::poll_event) blocks
    /// on the socket (default 25ms). Throughput-sensitive drivers that
    /// interleave sends with opportunistic drains want this near zero.
    pub fn set_read_timeout(&mut self, d: Duration) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(Some(d))?;
        Ok(())
    }
}
