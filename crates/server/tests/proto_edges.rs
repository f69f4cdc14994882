//! Decode-edge tests for the wire protocol, driven through the public
//! [`igern_server::proto`] surface: length prefixes split across
//! reads, hostile length prefixes, forward-compatible skipping of
//! unknown frame types, and a seeded byte-mangling fuzz loop over
//! whole streams.

use std::io::{self, Read};

use igern_core::processor::Algorithm;
use igern_core::types::{DistanceMode, ObjectKind};
use igern_mobgen::rng::Rng64;
use igern_server::proto::{Frame, FrameError, FrameReader, ProtoError, ReadOutcome, MAX_FRAME_LEN};

/// A representative frame per wire shape, shared by the table-driven
/// tests below.
fn frame_table() -> Vec<Frame> {
    vec![
        Frame::Hello { version: 1 },
        Frame::HelloAck { version: 1 },
        Frame::UpsertObject {
            id: 7,
            kind: ObjectKind::B,
            x: -3.25,
            y: 1e9,
        },
        Frame::RemoveObject { id: 42 },
        Frame::Subscribe {
            token: 9,
            anchor: 3,
            algo: Algorithm::IgernBiK(5),
            mode: DistanceMode::Euclidean,
        },
        Frame::Unsubscribe { sid: 2 },
        Frame::Ping { nonce: u64::MAX },
        Frame::Step,
        Frame::Shutdown,
        Frame::Subscribed { token: 9, sid: 2 },
        Frame::Unsubscribed { sid: 2 },
        Frame::TickDelta {
            tick: 11,
            stamp_nanos: 17,
            sid: 2,
            snapshot: false,
            adds: vec![1, 2, 3],
            removes: vec![4],
        },
        Frame::TickEnd {
            tick: 11,
            stamp_nanos: 17,
        },
        Frame::Pong { nonce: 0 },
    ]
}

/// Hands out a byte script `chunk` bytes per read, returning `WouldBlock`
/// before every burst — a socket whose read timeout keeps firing
/// mid-frame.
struct Trickle {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
    blocked: bool,
}

impl Trickle {
    fn new(data: Vec<u8>, chunk: usize) -> Self {
        Trickle {
            data,
            pos: 0,
            chunk,
            blocked: false,
        }
    }
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        if !self.blocked {
            self.blocked = true;
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.blocked = false;
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Poll until something other than `Idle` comes out, counting the
/// idles along the way.
fn poll_through<R: Read>(r: &mut FrameReader<R>) -> (ReadOutcome, u32) {
    let mut idles = 0;
    loop {
        match r.poll().expect("stream is well-formed") {
            ReadOutcome::Idle => idles += 1,
            other => return (other, idles),
        }
    }
}

#[test]
fn length_prefix_split_across_reads_resumes_without_desync() {
    // Every frame shape, delivered one byte per read with a timeout
    // before each byte: the reader must surface Idle (not error, not a
    // partial frame) and keep all accumulated state, including a
    // length prefix split at every possible point.
    for frame in frame_table() {
        let wire = frame.encode();
        let wire_len = wire.len();
        let mut r = FrameReader::new(Trickle::new(wire, 1));
        let (out, idles) = poll_through(&mut r);
        match out {
            ReadOutcome::Frame(got) => assert_eq!(got, frame),
            other => panic!("{frame:?}: wrong outcome {other:?}"),
        }
        assert_eq!(
            idles as usize, wire_len,
            "{frame:?}: one WouldBlock per byte must surface as Idle"
        );
        assert!(matches!(poll_through(&mut r).0, ReadOutcome::Eof));
    }

    // Two frames back to back through a 3-byte trickle: the tail of
    // one read never bleeds into or truncates the next frame.
    let mut wire = Frame::Step.encode();
    wire.extend(Frame::Ping { nonce: 5 }.encode());
    let mut r = FrameReader::new(Trickle::new(wire, 3));
    assert!(matches!(
        poll_through(&mut r).0,
        ReadOutcome::Frame(Frame::Step)
    ));
    assert!(matches!(
        poll_through(&mut r).0,
        ReadOutcome::Frame(Frame::Ping { nonce: 5 })
    ));
    assert!(matches!(poll_through(&mut r).0, ReadOutcome::Eof));
}

#[test]
fn hostile_length_prefixes_are_rejected_at_the_boundary() {
    // Table of (length prefix, expected outcome). The cap is
    // inclusive: exactly MAX_FRAME_LEN is still a legal envelope.
    let over = (MAX_FRAME_LEN + 1) as u32;
    for (len, ok) in [
        (0u32, false),
        (over, false),
        (u32::MAX, false),
        (MAX_FRAME_LEN as u32, true),
    ] {
        let mut wire = len.to_le_bytes().to_vec();
        if ok {
            // Fill the payload with an unknown type so the envelope is
            // consumed without needing a valid body of that size.
            wire.resize(4 + len as usize, 0);
            wire[4] = 0xEE;
        }
        let mut r = FrameReader::new(&wire[..]);
        match r.poll() {
            Err(FrameError::Proto(ProtoError::BadLength(l))) => {
                assert!(!ok, "length {len} wrongly rejected");
                assert_eq!(l, len);
            }
            Ok(ReadOutcome::Skipped(0xEE)) => assert!(ok, "length {len} wrongly accepted"),
            other => panic!("length {len}: unexpected {other:?}"),
        }
    }
}

#[test]
fn unknown_frame_types_are_skipped_not_fatal() {
    // A newer peer interleaves frame types this build has never heard
    // of; the length prefix delimits them, so known traffic on either
    // side must decode untouched. Type bytes 9–15 and 23+ are outside
    // both the request and push ranges today.
    let mut wire = Frame::Ping { nonce: 1 }.encode();
    for (ty, body) in [(9u8, vec![]), (15, vec![1, 2, 3]), (0xEE, vec![0; 40])] {
        let mut unknown = vec![0u8; 4];
        unknown[0] = (1 + body.len()) as u8; // little-endian length
        unknown.push(ty);
        unknown.extend(body);
        wire.extend(unknown);
    }
    wire.extend(Frame::Step.encode());

    // Whole-buffer and byte-trickled delivery agree on the outcome
    // sequence.
    for chunk in [usize::MAX, 1] {
        let mut r = FrameReader::new(Trickle::new(wire.clone(), chunk));
        assert!(matches!(
            poll_through(&mut r).0,
            ReadOutcome::Frame(Frame::Ping { nonce: 1 })
        ));
        for want in [9u8, 15, 0xEE] {
            match poll_through(&mut r).0 {
                ReadOutcome::Skipped(ty) => assert_eq!(ty, want),
                other => panic!("expected Skipped({want}), got {other:?}"),
            }
        }
        assert!(matches!(
            poll_through(&mut r).0,
            ReadOutcome::Frame(Frame::Step)
        ));
        assert!(matches!(poll_through(&mut r).0, ReadOutcome::Eof));
    }

    // A genuinely malformed *known* type is still fatal: same envelope,
    // type byte 2 (UPSERT_OBJECT) with a truncated body.
    let mut r = FrameReader::new(&[3u8, 0, 0, 0, 2, 1, 2][..]);
    assert!(matches!(r.poll(), Err(FrameError::Proto(_))));
}

#[test]
fn fuzz_mangled_streams_never_desync_the_frames_before_the_damage() {
    let mut rng = Rng64::seed_from_u64(0x9e3d);
    let table = frame_table();
    for _ in 0..300 {
        // A stream of random known frames...
        let picks: Vec<&Frame> = (0..rng.gen_range(2..6))
            .map(|_| &table[rng.gen_range(0..table.len())])
            .collect();
        let mut wire = Vec::new();
        let mut starts = Vec::new();
        for f in &picks {
            starts.push(wire.len());
            wire.extend(f.encode());
        }
        // ...with one byte mangled somewhere.
        let at = rng.gen_range(0..wire.len());
        let delta = rng.gen_range(1..256) as u8;
        wire[at] ^= delta;

        // Every frame that ends at or before the damaged byte must
        // come out untouched (the reader never over-reads past the
        // frame it is assembling); from the damage on, anything
        // non-panicking goes — an error, a skip, EOF, or even a
        // differently-decoded frame.
        let mut r = FrameReader::new(Trickle::new(wire.clone(), rng.gen_range(1..9)));
        for (&start, f) in starts.iter().zip(&picks) {
            if start + f.encode().len() > at {
                break;
            }
            match poll_through(&mut r).0 {
                ReadOutcome::Frame(got) => assert_eq!(&got, *f),
                other => panic!("pre-damage frame became {other:?}"),
            }
        }
        // Drain the rest; nothing may panic and errors terminate.
        loop {
            match r.poll() {
                Ok(ReadOutcome::Eof) => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
    }
}
