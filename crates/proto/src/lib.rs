//! The IGERN wire protocol: length-prefixed binary frames.
//!
//! Every frame is `[u32 len][u8 type][body]`, all integers and floats
//! little-endian; `len` counts the type byte plus the body, and is
//! capped at [`MAX_FRAME_LEN`] so a hostile length prefix cannot make
//! the server allocate unbounded memory. The frame set (DESIGN.md §12
//! has the full table):
//!
//! * client → server: `HELLO`, `UPSERT_OBJECT`, `REMOVE_OBJECT`,
//!   `SUBSCRIBE_QUERY`, `UNSUBSCRIBE`, `PING`, `STEP`, `SHUTDOWN`
//! * server → client: `HELLO_ACK`, `SUBSCRIBED`, `UNSUBSCRIBED`,
//!   `TICK_DELTA`, `TICK_END`, `PONG`, `ERROR`
//!
//! Decoding is strict: unknown frame types, truncated bodies, trailing
//! bytes, bad enum discriminants, and oversized lengths are all
//! [`ProtoError`]s — the server answers them with an `ERROR` frame and
//! closes the offending connection, never a panic.

#![forbid(unsafe_code)]

use std::io::{self, Read};

use igern_core::processor::Algorithm;
use igern_core::types::{DistanceMode, ObjectKind};

/// Protocol version spoken by this build. Version 2 added the optional
/// distance-mode byte on `SUBSCRIBE_QUERY`; servers accept any version
/// in [`MIN_PROTOCOL_VERSION`]`..=`[`PROTOCOL_VERSION`] (see
/// [`version_accepted`]) because a v1 client's frames are a strict
/// subset of v2.
pub const PROTOCOL_VERSION: u16 = 2;

/// Oldest client protocol version still accepted in `HELLO`.
pub const MIN_PROTOCOL_VERSION: u16 = 1;

/// Whether a client `HELLO` version is one this build speaks.
pub fn version_accepted(v: u16) -> bool {
    (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&v)
}

/// Upper bound on `len` (type byte + body). Frames claiming more are
/// rejected before any allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// A decoding (or framing) error. These are protocol violations by the
/// peer, distinct from transport-level [`io::Error`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended before the frame's fields did.
    Truncated,
    /// Bytes were left over after the last field.
    TrailingBytes(usize),
    /// Unknown frame type byte.
    UnknownType(u8),
    /// A field held an invalid enum discriminant (`field`, `value`).
    BadEnum(&'static str, u8),
    /// The length prefix exceeded [`MAX_FRAME_LEN`] (or was zero).
    BadLength(u32),
    /// An `ERROR` frame's message was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame body truncated"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            ProtoError::BadEnum(field, v) => write!(f, "bad {field} discriminant {v}"),
            ProtoError::BadLength(n) => write!(f, "bad frame length {n}"),
            ProtoError::BadUtf8 => write!(f, "error message is not utf-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Error codes carried by `ERROR` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// `HELLO` version differed from [`PROTOCOL_VERSION`].
    VersionMismatch = 1,
    /// The frame could not be decoded; the connection is closed.
    Malformed = 2,
    /// The first frame was not `HELLO`; the connection is closed.
    ExpectedHello = 3,
    /// An operation referenced an object id not in the store.
    UnknownObject = 4,
    /// A bichromatic subscription anchored at a non-A object.
    NotKindA = 5,
    /// A k-variant subscription with `k == 0`.
    ZeroK = 6,
    /// `UNSUBSCRIBE` for a subscription this connection does not own.
    UnknownSubscription = 7,
    /// `REMOVE_OBJECT` for an object anchoring a live subscription.
    AnchorInUse = 8,
    /// `UPSERT_OBJECT` tried to change an existing object's kind.
    KindMismatch = 9,
    /// `UPSERT_OBJECT` position outside the server's data space.
    OutOfBounds = 10,
    /// A network-distance subscription on a server with no road network.
    NoNetwork = 11,
}

impl ErrorCode {
    fn from_wire(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            1 => ErrorCode::VersionMismatch,
            2 => ErrorCode::Malformed,
            3 => ErrorCode::ExpectedHello,
            4 => ErrorCode::UnknownObject,
            5 => ErrorCode::NotKindA,
            6 => ErrorCode::ZeroK,
            7 => ErrorCode::UnknownSubscription,
            8 => ErrorCode::AnchorInUse,
            9 => ErrorCode::KindMismatch,
            10 => ErrorCode::OutOfBounds,
            11 => ErrorCode::NoNetwork,
            other => return Err(ProtoError::BadEnum("error code", other)),
        })
    }
}

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake: must be the first client frame.
    Hello { version: u16 },
    /// Insert a new object or move an existing one (kind must match).
    UpsertObject {
        id: u32,
        kind: ObjectKind,
        x: f64,
        y: f64,
    },
    /// Remove an object from the store.
    RemoveObject { id: u32 },
    /// Register a continuous query anchored at `anchor`. `token` is a
    /// client-chosen correlation id echoed in `SUBSCRIBED`. The
    /// distance-mode byte is a v2 extension: it is encoded only when
    /// `mode` is [`DistanceMode::Network`], so Euclidean subscriptions
    /// stay byte-identical to protocol v1 and v1 decoders keep working.
    Subscribe {
        token: u32,
        anchor: u32,
        algo: Algorithm,
        mode: DistanceMode,
    },
    /// Drop subscription `sid`.
    Unsubscribe { sid: u32 },
    /// Liveness probe, answered inline with `PONG`.
    Ping { nonce: u64 },
    /// Force a tick now (the only tick trigger when `--tick-ms 0`).
    Step,
    /// Ask the server to drain in-flight work and exit.
    Shutdown,
    /// Handshake reply.
    HelloAck { version: u16 },
    /// Subscription accepted; `sid` names it from now on.
    Subscribed { token: u32, sid: u32 },
    /// Subscription dropped.
    Unsubscribed { sid: u32 },
    /// Answer change for subscription `sid` at `tick`. With `snapshot`
    /// set, `adds` is the complete answer and the previous client-side
    /// state must be discarded (first push after subscribe, and after a
    /// slow-consumer coalesce). `stamp_nanos` is the server's wall
    /// clock (epoch nanos) when the tick's push began.
    TickDelta {
        tick: u64,
        stamp_nanos: u64,
        sid: u32,
        snapshot: bool,
        adds: Vec<u32>,
        removes: Vec<u32>,
    },
    /// End-of-tick marker, sent to every connection holding at least
    /// one subscription — the client-side sync point.
    TickEnd { tick: u64, stamp_nanos: u64 },
    /// `PING` reply.
    Pong { nonce: u64 },
    /// A rejected operation or protocol violation.
    Error { code: ErrorCode, message: String },
}

const T_HELLO: u8 = 1;
const T_UPSERT: u8 = 2;
const T_REMOVE: u8 = 3;
const T_SUBSCRIBE: u8 = 4;
const T_UNSUBSCRIBE: u8 = 5;
const T_PING: u8 = 6;
const T_STEP: u8 = 7;
const T_SHUTDOWN: u8 = 8;
const T_HELLO_ACK: u8 = 16;
const T_SUBSCRIBED: u8 = 17;
const T_UNSUBSCRIBED: u8 = 18;
const T_TICK_DELTA: u8 = 19;
const T_TICK_END: u8 = 20;
const T_PONG: u8 = 21;
const T_ERROR: u8 = 22;

/// Wire encoding of an [`Algorithm`]: `(code, k)`. Public because the
/// WAL snapshot codec stores standing queries in the same encoding.
pub fn algo_to_wire(algo: Algorithm) -> (u8, u16) {
    match algo {
        Algorithm::IgernMono => (0, 0),
        Algorithm::Crnn => (1, 0),
        Algorithm::TplRepeat => (2, 0),
        Algorithm::IgernBi => (3, 0),
        Algorithm::VoronoiRepeat => (4, 0),
        Algorithm::IgernMonoK(k) => (5, k as u16),
        Algorithm::IgernBiK(k) => (6, k as u16),
        Algorithm::Knn(k) => (7, k as u16),
    }
}

/// Wire encoding of a [`DistanceMode`]. Public because the WAL snapshot
/// codec stores standing queries in the same encoding.
pub fn mode_to_wire(mode: DistanceMode) -> u8 {
    match mode {
        DistanceMode::Euclidean => 0,
        DistanceMode::Network => 1,
    }
}

/// Inverse of [`mode_to_wire`].
pub fn mode_from_wire(v: u8) -> Result<DistanceMode, ProtoError> {
    Ok(match v {
        0 => DistanceMode::Euclidean,
        1 => DistanceMode::Network,
        other => return Err(ProtoError::BadEnum("distance mode", other)),
    })
}

/// Inverse of [`algo_to_wire`].
pub fn algo_from_wire(code: u8, k: u16) -> Result<Algorithm, ProtoError> {
    Ok(match code {
        0 => Algorithm::IgernMono,
        1 => Algorithm::Crnn,
        2 => Algorithm::TplRepeat,
        3 => Algorithm::IgernBi,
        4 => Algorithm::VoronoiRepeat,
        5 => Algorithm::IgernMonoK(k as usize),
        6 => Algorithm::IgernBiK(k as usize),
        7 => Algorithm::Knn(k as usize),
        other => return Err(ProtoError::BadEnum("algorithm", other)),
    })
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `u32` count followed by that many `u32` ids.
    fn id_list(&mut self) -> Result<Vec<u32>, ProtoError> {
        let n = self.u32()? as usize;
        // The count is bounded by what the length prefix admitted.
        if self.buf.len() - self.pos < n * 4 {
            return Err(ProtoError::Truncated);
        }
        (0..n).map(|_| self.u32()).collect()
    }
}

impl Frame {
    /// Whether the frame is per-tick push traffic — the only frames a
    /// slow-consumer coalesce may drop.
    pub fn is_tick_traffic(&self) -> bool {
        matches!(self, Frame::TickDelta { .. } | Frame::TickEnd { .. })
    }

    /// Short name of the frame type (metrics label).
    pub fn type_name(&self) -> &'static str {
        type_name_of(self.type_byte())
    }

    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => T_HELLO,
            Frame::UpsertObject { .. } => T_UPSERT,
            Frame::RemoveObject { .. } => T_REMOVE,
            Frame::Subscribe { .. } => T_SUBSCRIBE,
            Frame::Unsubscribe { .. } => T_UNSUBSCRIBE,
            Frame::Ping { .. } => T_PING,
            Frame::Step => T_STEP,
            Frame::Shutdown => T_SHUTDOWN,
            Frame::HelloAck { .. } => T_HELLO_ACK,
            Frame::Subscribed { .. } => T_SUBSCRIBED,
            Frame::Unsubscribed { .. } => T_UNSUBSCRIBED,
            Frame::TickDelta { .. } => T_TICK_DELTA,
            Frame::TickEnd { .. } => T_TICK_END,
            Frame::Pong { .. } => T_PONG,
            Frame::Error { .. } => T_ERROR,
        }
    }

    /// Encode as a complete `[len][type][body]` wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(32);
        body.push(self.type_byte());
        match self {
            Frame::Hello { version } | Frame::HelloAck { version } => {
                body.extend_from_slice(&version.to_le_bytes());
            }
            Frame::UpsertObject { id, kind, x, y } => {
                body.extend_from_slice(&id.to_le_bytes());
                body.push(match kind {
                    ObjectKind::A => 0,
                    ObjectKind::B => 1,
                });
                body.extend_from_slice(&x.to_le_bytes());
                body.extend_from_slice(&y.to_le_bytes());
            }
            Frame::RemoveObject { id } => body.extend_from_slice(&id.to_le_bytes()),
            Frame::Subscribe {
                token,
                anchor,
                algo,
                mode,
            } => {
                let (code, k) = algo_to_wire(*algo);
                body.extend_from_slice(&token.to_le_bytes());
                body.extend_from_slice(&anchor.to_le_bytes());
                body.push(code);
                body.extend_from_slice(&k.to_le_bytes());
                // v2 extension byte, omitted for Euclidean so the frame
                // stays byte-identical to protocol v1.
                if *mode != DistanceMode::Euclidean {
                    body.push(mode_to_wire(*mode));
                }
            }
            Frame::Unsubscribe { sid } | Frame::Unsubscribed { sid } => {
                body.extend_from_slice(&sid.to_le_bytes());
            }
            Frame::Ping { nonce } | Frame::Pong { nonce } => {
                body.extend_from_slice(&nonce.to_le_bytes());
            }
            Frame::Step | Frame::Shutdown => {}
            Frame::Subscribed { token, sid } => {
                body.extend_from_slice(&token.to_le_bytes());
                body.extend_from_slice(&sid.to_le_bytes());
            }
            Frame::TickDelta {
                tick,
                stamp_nanos,
                sid,
                snapshot,
                adds,
                removes,
            } => {
                body.extend_from_slice(&tick.to_le_bytes());
                body.extend_from_slice(&stamp_nanos.to_le_bytes());
                body.extend_from_slice(&sid.to_le_bytes());
                body.push(u8::from(*snapshot));
                for list in [adds, removes] {
                    body.extend_from_slice(&(list.len() as u32).to_le_bytes());
                    for id in list {
                        body.extend_from_slice(&id.to_le_bytes());
                    }
                }
            }
            Frame::TickEnd { tick, stamp_nanos } => {
                body.extend_from_slice(&tick.to_le_bytes());
                body.extend_from_slice(&stamp_nanos.to_le_bytes());
            }
            Frame::Error { code, message } => {
                body.push(*code as u8);
                let msg = &message.as_bytes()[..message.len().min(u16::MAX as usize)];
                body.extend_from_slice(&(msg.len() as u16).to_le_bytes());
                body.extend_from_slice(msg);
            }
        }
        debug_assert!(body.len() <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decode the `[type][body]` payload of one frame (the part the
    /// length prefix counts). Strict: every byte must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Frame, ProtoError> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let ty = c.u8()?;
        let frame = match ty {
            T_HELLO => Frame::Hello { version: c.u16()? },
            T_HELLO_ACK => Frame::HelloAck { version: c.u16()? },
            T_UPSERT => Frame::UpsertObject {
                id: c.u32()?,
                kind: match c.u8()? {
                    0 => ObjectKind::A,
                    1 => ObjectKind::B,
                    other => return Err(ProtoError::BadEnum("object kind", other)),
                },
                x: c.f64()?,
                y: c.f64()?,
            },
            T_REMOVE => Frame::RemoveObject { id: c.u32()? },
            T_SUBSCRIBE => {
                let token = c.u32()?;
                let anchor = c.u32()?;
                let code = c.u8()?;
                let k = c.u16()?;
                // Optional v2 trailing byte; absent means Euclidean.
                let mode = if c.pos < payload.len() {
                    mode_from_wire(c.u8()?)?
                } else {
                    DistanceMode::Euclidean
                };
                Frame::Subscribe {
                    token,
                    anchor,
                    algo: algo_from_wire(code, k)?,
                    mode,
                }
            }
            T_UNSUBSCRIBE => Frame::Unsubscribe { sid: c.u32()? },
            T_UNSUBSCRIBED => Frame::Unsubscribed { sid: c.u32()? },
            T_PING => Frame::Ping { nonce: c.u64()? },
            T_PONG => Frame::Pong { nonce: c.u64()? },
            T_STEP => Frame::Step,
            T_SHUTDOWN => Frame::Shutdown,
            T_SUBSCRIBED => Frame::Subscribed {
                token: c.u32()?,
                sid: c.u32()?,
            },
            T_TICK_DELTA => Frame::TickDelta {
                tick: c.u64()?,
                stamp_nanos: c.u64()?,
                sid: c.u32()?,
                snapshot: match c.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(ProtoError::BadEnum("snapshot flag", other)),
                },
                adds: c.id_list()?,
                removes: c.id_list()?,
            },
            T_TICK_END => Frame::TickEnd {
                tick: c.u64()?,
                stamp_nanos: c.u64()?,
            },
            T_ERROR => {
                let code = ErrorCode::from_wire(c.u8()?)?;
                let len = c.u16()? as usize;
                let bytes = c.take(len)?;
                Frame::Error {
                    code,
                    message: std::str::from_utf8(bytes)
                        .map_err(|_| ProtoError::BadUtf8)?
                        .to_string(),
                }
            }
            other => return Err(ProtoError::UnknownType(other)),
        };
        if c.pos != payload.len() {
            return Err(ProtoError::TrailingBytes(payload.len() - c.pos));
        }
        Ok(frame)
    }
}

/// Whether `t` is a frame type this build decodes. Unknown types inside
/// a valid envelope are skipped by [`FrameReader::poll`] for forward
/// compatibility.
fn is_known_type(t: u8) -> bool {
    matches!(t, T_HELLO..=T_SHUTDOWN | T_HELLO_ACK..=T_ERROR)
}

fn type_name_of(t: u8) -> &'static str {
    match t {
        T_HELLO => "hello",
        T_UPSERT => "upsert_object",
        T_REMOVE => "remove_object",
        T_SUBSCRIBE => "subscribe",
        T_UNSUBSCRIBE => "unsubscribe",
        T_PING => "ping",
        T_STEP => "step",
        T_SHUTDOWN => "shutdown",
        T_HELLO_ACK => "hello_ack",
        T_SUBSCRIBED => "subscribed",
        T_UNSUBSCRIBED => "unsubscribed",
        T_TICK_DELTA => "tick_delta",
        T_TICK_END => "tick_end",
        T_PONG => "pong",
        T_ERROR => "error",
        _ => "unknown",
    }
}

/// Every frame type name, for eager metrics registration.
pub const FRAME_TYPE_NAMES: [&str; 15] = [
    "hello",
    "upsert_object",
    "remove_object",
    "subscribe",
    "unsubscribe",
    "ping",
    "step",
    "shutdown",
    "hello_ack",
    "subscribed",
    "unsubscribed",
    "tick_delta",
    "tick_end",
    "pong",
    "error",
];

/// Outcome of one [`FrameReader::poll`].
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame arrived and decoded.
    Frame(Frame),
    /// The read timed out mid-stream; state is preserved — poll again.
    Idle,
    /// The peer closed the stream at a frame boundary.
    Eof,
    /// A well-framed payload of an unknown frame type was skipped
    /// (forward compatibility: a newer peer may emit frame types this
    /// build does not know; the length prefix delimits them, so they
    /// are consumed without desyncing the stream). Carries the unknown
    /// type byte.
    Skipped(u8),
}

/// A transport or protocol failure while reading frames.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (including EOF mid-frame).
    Io(io::Error),
    /// The peer violated the protocol; the stream is out of sync.
    Proto(ProtoError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::Proto(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Resumable frame reader over any [`Read`].
///
/// Designed for sockets with a read timeout: a timeout mid-frame
/// surfaces as [`ReadOutcome::Idle`] with all partial state preserved,
/// so the caller can check shutdown flags between polls without ever
/// losing stream sync.
pub struct FrameReader<R> {
    inner: R,
    /// Accumulates the 4 length bytes, then the payload.
    buf: Vec<u8>,
    /// Payload length once the prefix is complete.
    payload_len: Option<usize>,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            payload_len: None,
        }
    }

    /// The wrapped reader.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Advance the stream by at most one frame.
    pub fn poll(&mut self) -> Result<ReadOutcome, FrameError> {
        loop {
            let want = match self.payload_len {
                None => 4,
                Some(n) => 4 + n,
            };
            while self.buf.len() < want {
                let mut chunk = [0u8; 4096];
                let free = (want - self.buf.len()).min(chunk.len());
                match self.inner.read(&mut chunk[..free]) {
                    Ok(0) => {
                        return if self.buf.is_empty() {
                            Ok(ReadOutcome::Eof)
                        } else {
                            Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into()))
                        };
                    }
                    Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        return Ok(ReadOutcome::Idle);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(FrameError::Io(e)),
                }
            }
            if self.payload_len.is_none() {
                let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap());
                if len == 0 || len as usize > MAX_FRAME_LEN {
                    return Err(FrameError::Proto(ProtoError::BadLength(len)));
                }
                self.payload_len = Some(len as usize);
                continue;
            }
            // Forward compatibility: an unknown type byte in a
            // well-formed envelope is skipped, not a protocol error —
            // the prefix told us exactly how much to consume. Known
            // types still decode strictly (any other malformation kills
            // the connection).
            let ty = self.buf[4];
            if !is_known_type(ty) {
                self.buf.clear();
                self.payload_len = None;
                return Ok(ReadOutcome::Skipped(ty));
            }
            let frame = Frame::decode(&self.buf[4..]).map_err(FrameError::Proto)?;
            self.buf.clear();
            self.payload_len = None;
            return Ok(ReadOutcome::Frame(frame));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igern_mobgen::rng::Rng64;

    fn roundtrip(f: &Frame) {
        let wire = f.encode();
        let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
        assert_eq!(len, wire.len() - 4, "length prefix covers the payload");
        assert_eq!(&Frame::decode(&wire[4..]).unwrap(), f);
    }

    fn random_ids(rng: &mut Rng64, max: usize) -> Vec<u32> {
        (0..rng.gen_range(0..max + 1))
            .map(|_| rng.next_u64() as u32)
            .collect()
    }

    fn random_frame(rng: &mut Rng64) -> Frame {
        match rng.gen_range(0..15) {
            0 => Frame::Hello {
                version: rng.next_u64() as u16,
            },
            1 => Frame::UpsertObject {
                id: rng.next_u64() as u32,
                kind: if rng.gen_bool(0.5) {
                    ObjectKind::A
                } else {
                    ObjectKind::B
                },
                x: rng.f64() * 1e3 - 500.0,
                y: rng.f64() * 1e3 - 500.0,
            },
            2 => Frame::RemoveObject {
                id: rng.next_u64() as u32,
            },
            3 => Frame::Subscribe {
                token: rng.next_u64() as u32,
                anchor: rng.next_u64() as u32,
                algo: match rng.gen_range(0..8) {
                    0 => Algorithm::IgernMono,
                    1 => Algorithm::Crnn,
                    2 => Algorithm::TplRepeat,
                    3 => Algorithm::IgernBi,
                    4 => Algorithm::VoronoiRepeat,
                    5 => Algorithm::IgernMonoK(rng.gen_range(1..100)),
                    6 => Algorithm::IgernBiK(rng.gen_range(1..100)),
                    _ => Algorithm::Knn(rng.gen_range(1..100)),
                },
                mode: if rng.gen_bool(0.5) {
                    DistanceMode::Euclidean
                } else {
                    DistanceMode::Network
                },
            },
            4 => Frame::Unsubscribe {
                sid: rng.next_u64() as u32,
            },
            5 => Frame::Ping {
                nonce: rng.next_u64(),
            },
            6 => Frame::Step,
            7 => Frame::Shutdown,
            8 => Frame::HelloAck {
                version: rng.next_u64() as u16,
            },
            9 => Frame::Subscribed {
                token: rng.next_u64() as u32,
                sid: rng.next_u64() as u32,
            },
            10 => Frame::Unsubscribed {
                sid: rng.next_u64() as u32,
            },
            11 => Frame::TickDelta {
                tick: rng.next_u64(),
                stamp_nanos: rng.next_u64(),
                sid: rng.next_u64() as u32,
                snapshot: rng.gen_bool(0.5),
                adds: random_ids(rng, 40),
                removes: random_ids(rng, 40),
            },
            12 => Frame::TickEnd {
                tick: rng.next_u64(),
                stamp_nanos: rng.next_u64(),
            },
            13 => Frame::Pong {
                nonce: rng.next_u64(),
            },
            _ => Frame::Error {
                code: ErrorCode::from_wire(rng.gen_range(1..12) as u8).unwrap(),
                message: "x".repeat(rng.gen_range(0..64)),
            },
        }
    }

    #[test]
    fn fuzz_roundtrip_every_frame_type() {
        let mut rng = Rng64::seed_from_u64(0x5e4f);
        let mut seen = [false; 15];
        for _ in 0..2000 {
            let f = random_frame(&mut rng);
            seen[f.type_byte() as usize % 16 % 15] = true;
            roundtrip(&f);
        }
        // NaN positions survive the trip bit-for-bit too.
        let wire = Frame::UpsertObject {
            id: 1,
            kind: ObjectKind::A,
            x: f64::NAN,
            y: -0.0,
        }
        .encode();
        match Frame::decode(&wire[4..]).unwrap() {
            Frame::UpsertObject { x, y, .. } => {
                assert!(x.is_nan());
                assert_eq!(y.to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn fuzz_truncated_frames_are_rejected_not_panics() {
        let mut rng = Rng64::seed_from_u64(0xdead);
        for _ in 0..500 {
            let f = random_frame(&mut rng);
            let wire = f.encode();
            let payload = &wire[4..];
            let cut = rng.gen_range(0..payload.len());
            // Any strict prefix must fail to decode (never panic). One
            // deliberate exception: a network-mode SUBSCRIBE minus its
            // trailing mode byte IS a valid v1 Euclidean SUBSCRIBE —
            // that is the v1 compatibility contract, not a bug.
            match Frame::decode(&payload[..cut]) {
                Err(_) => {}
                Ok(decoded) => {
                    let Frame::Subscribe {
                        token,
                        anchor,
                        algo,
                        mode: DistanceMode::Network,
                    } = &f
                    else {
                        panic!("truncated {f:?} at {cut} decoded");
                    };
                    assert_eq!(cut, payload.len() - 1);
                    assert_eq!(
                        decoded,
                        Frame::Subscribe {
                            token: *token,
                            anchor: *anchor,
                            algo: *algo,
                            mode: DistanceMode::Euclidean,
                        }
                    );
                }
            }
            // Appended garbage is rejected. For SUBSCRIBE the garbage
            // byte lands where the optional v2 mode byte goes, so it
            // surfaces as a bad discriminant instead of trailing bytes.
            let mut extended = payload.to_vec();
            extended.push(0x7f);
            let expect = if matches!(
                f,
                Frame::Subscribe {
                    mode: DistanceMode::Euclidean,
                    ..
                }
            ) {
                ProtoError::BadEnum("distance mode", 0x7f)
            } else {
                ProtoError::TrailingBytes(1)
            };
            assert_eq!(Frame::decode(&extended), Err(expect), "{f:?}");
        }
    }

    #[test]
    fn euclidean_subscribe_is_byte_identical_to_protocol_v1() {
        // v1 layout: [len][type][token u32][anchor u32][code u8][k u16]
        let f = Frame::Subscribe {
            token: 7,
            anchor: 42,
            algo: Algorithm::IgernMonoK(3),
            mode: DistanceMode::Euclidean,
        };
        let wire = f.encode();
        assert_eq!(wire.len(), 4 + 1 + 4 + 4 + 1 + 2, "no v2 mode byte");
        // A v1 decoder (no mode byte expected) reads the same frame.
        assert_eq!(Frame::decode(&wire[4..]).unwrap(), f);
        // Network mode appends exactly one byte and round-trips.
        let n = Frame::Subscribe {
            token: 7,
            anchor: 42,
            algo: Algorithm::IgernMonoK(3),
            mode: DistanceMode::Network,
        };
        let nwire = n.encode();
        assert_eq!(nwire.len(), wire.len() + 1);
        assert_eq!(Frame::decode(&nwire[4..]).unwrap(), n);
        // A bad mode discriminant is rejected, not defaulted.
        let mut bad = nwire[4..].to_vec();
        *bad.last_mut().unwrap() = 9;
        assert_eq!(
            Frame::decode(&bad),
            Err(ProtoError::BadEnum("distance mode", 9))
        );
        // Both in-window versions are accepted, others rejected.
        assert!(version_accepted(1) && version_accepted(2));
        assert!(!version_accepted(0) && !version_accepted(3));
    }

    #[test]
    fn fuzz_garbage_bytes_never_panic_the_decoder() {
        let mut rng = Rng64::seed_from_u64(77);
        for _ in 0..2000 {
            let len = rng.gen_range(0..64);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = Frame::decode(&bytes); // must not panic
        }
        assert_eq!(Frame::decode(&[]), Err(ProtoError::Truncated));
        assert_eq!(Frame::decode(&[99]), Err(ProtoError::UnknownType(99)));
    }

    #[test]
    fn reader_rejects_oversized_and_zero_lengths() {
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        let mut r = FrameReader::new(&huge[..]);
        assert!(matches!(
            r.poll(),
            Err(FrameError::Proto(ProtoError::BadLength(_)))
        ));
        let zero = 0u32.to_le_bytes();
        let mut r = FrameReader::new(&zero[..]);
        assert!(matches!(
            r.poll(),
            Err(FrameError::Proto(ProtoError::BadLength(0)))
        ));
    }

    #[test]
    fn reader_streams_back_to_back_frames_and_eof() {
        let mut wire = Frame::Ping { nonce: 7 }.encode();
        wire.extend(Frame::Step.encode());
        wire.extend(
            Frame::TickDelta {
                tick: 3,
                stamp_nanos: 9,
                sid: 1,
                snapshot: true,
                adds: vec![1, 2, 3],
                removes: vec![],
            }
            .encode(),
        );
        let mut r = FrameReader::new(&wire[..]);
        assert!(matches!(
            r.poll().unwrap(),
            ReadOutcome::Frame(Frame::Ping { nonce: 7 })
        ));
        assert!(matches!(r.poll().unwrap(), ReadOutcome::Frame(Frame::Step)));
        match r.poll().unwrap() {
            ReadOutcome::Frame(Frame::TickDelta { adds, .. }) => assert_eq!(adds, vec![1, 2, 3]),
            other => panic!("wrong outcome {other:?}"),
        }
        assert!(matches!(r.poll().unwrap(), ReadOutcome::Eof));
        // EOF mid-frame is an io error, not a silent truncation.
        let cut = &Frame::Ping { nonce: 7 }.encode()[..6];
        let mut r = FrameReader::new(cut);
        assert!(matches!(r.poll(), Err(FrameError::Io(_))));
    }
}
