//! Reactor I/O edge tests: frames trickled byte-by-byte over a real
//! TCP socket, forced short writes through a tiny in-memory pipe, a
//! pinned digest of the push stream for a fixed client script, a
//! 1k-connection subscribe/churn smoke test, and the graceful-shutdown
//! drain deadline for consumers that stop reading.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use igern_core::obs::MetricsRegistry;
use igern_core::processor::Algorithm;
use igern_core::types::DistanceMode;
use igern_core::types::ObjectKind;
use igern_core::SpatialStore;
use igern_geom::Aabb;
use igern_mobgen::rng::Rng64;
use igern_server::proto::{Frame, FrameReader, ReadOutcome};
use igern_server::{
    memory_listener, memory_listener_with_capacity, Client, Listener, MemConnector, Server,
    ServerConfig, SlowConsumerPolicy, Stream, PROTOCOL_VERSION,
};

fn base_cfg() -> ServerConfig {
    ServerConfig {
        space: Aabb::from_coords(0.0, 0.0, 100.0, 100.0),
        grid: 8,
        ..ServerConfig::default()
    }
}

fn boot_mem(cfg: ServerConfig) -> (Server, MemConnector) {
    let store = SpatialStore::new(cfg.space, cfg.grid, Vec::new());
    let (listener, connector) = memory_listener();
    let srv = Server::start_on(Listener::Mem(listener), store, cfg, MetricsRegistry::new())
        .expect("server boots");
    (srv, connector)
}

/// Pull the next decoded frame out of `r`, tolerating `Idle` (read
/// timeouts) up to `deadline`.
fn next_frame<R: Read>(r: &mut FrameReader<R>, deadline: Duration) -> Frame {
    let t0 = Instant::now();
    loop {
        match r.poll().expect("stream is well-formed") {
            ReadOutcome::Frame(f) => return f,
            ReadOutcome::Eof => panic!("unexpected EOF while waiting for a frame"),
            _ => {
                assert!(
                    t0.elapsed() < deadline,
                    "timed out waiting for a frame after {deadline:?}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// A wall-clock stamp is the one field allowed to differ between two
/// otherwise identical runs; zero it before comparing streams.
fn zero_stamp(f: Frame) -> Frame {
    match f {
        Frame::TickDelta {
            tick,
            sid,
            snapshot,
            adds,
            removes,
            ..
        } => Frame::TickDelta {
            tick,
            stamp_nanos: 0,
            sid,
            snapshot,
            adds,
            removes,
        },
        Frame::TickEnd { tick, .. } => Frame::TickEnd {
            tick,
            stamp_nanos: 0,
        },
        other => other,
    }
}

/// Frames dribbled into a TCP socket in tiny random bursts must
/// reassemble exactly: the reactor's resumable reader may see a length
/// prefix split anywhere and a readiness wakeup per byte.
#[test]
fn trickled_tcp_bytes_reassemble_without_desync() {
    let cfg = base_cfg();
    let store = SpatialStore::new(cfg.space, cfg.grid, Vec::new());
    let srv = Server::start(("127.0.0.1", 0), store, cfg).expect("server boots");
    let mut rng = Rng64::seed_from_u64(0x7121C);

    for round in 0u64..6 {
        let sock = TcpStream::connect(srv.local_addr()).unwrap();
        sock.set_nodelay(true).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();

        let mut script = Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode();
        for id in 1..=20u32 {
            script.extend(
                Frame::UpsertObject {
                    id,
                    kind: ObjectKind::A,
                    x: rng.f64() * 100.0,
                    y: rng.f64() * 100.0,
                }
                .encode(),
            );
        }
        script.extend(
            Frame::Subscribe {
                token: 7,
                anchor: 3,
                algo: Algorithm::IgernMono,
                mode: DistanceMode::Euclidean,
            }
            .encode(),
        );
        script.extend(Frame::Ping { nonce: round }.encode());
        script.extend(Frame::Step.encode());

        // Dribble the whole script in 1–3 byte bursts with occasional
        // pauses, so mid-frame wakeups are the common case.
        let mut w = sock.try_clone().unwrap();
        let mut pos = 0;
        while pos < script.len() {
            let n = rng.gen_range(1..4).min(script.len() - pos);
            w.write_all(&script[pos..pos + n]).unwrap();
            pos += n;
            if rng.next_u64().is_multiple_of(8) {
                std::thread::sleep(Duration::from_micros(200));
            }
        }

        let wait = Duration::from_secs(10);
        let mut r = FrameReader::new(sock);
        assert_eq!(
            next_frame(&mut r, wait),
            Frame::HelloAck {
                version: PROTOCOL_VERSION
            }
        );
        // PONG is answered inline by the event loop while SUBSCRIBED
        // rides the tick thread, so the pair may arrive in either
        // order — but the ack must still precede the first delta.
        let mut sid = None;
        let mut ponged = false;
        for _ in 0..2 {
            match next_frame(&mut r, wait) {
                Frame::Subscribed { token: 7, sid: s } => sid = Some(s),
                Frame::Pong { nonce } if nonce == round => ponged = true,
                other => panic!("expected Subscribed or Pong, got {other:?}"),
            }
        }
        let sid = sid.expect("Subscribed ack arrived");
        assert!(ponged, "Pong arrived");
        match next_frame(&mut r, wait) {
            Frame::TickDelta {
                tick,
                sid: got,
                snapshot,
                ..
            } => {
                assert_eq!(tick, round + 1);
                assert_eq!(got, sid);
                assert!(snapshot, "first push after subscribe is a snapshot");
            }
            other => panic!("expected the snapshot delta, got {other:?}"),
        }
        match next_frame(&mut r, wait) {
            Frame::TickEnd { tick, .. } => assert_eq!(tick, round + 1),
            other => panic!("expected TickEnd, got {other:?}"),
        }
    }
}

/// Push frames far larger than the transport's whole buffer: the
/// memory pipe admits whole frames but blocks between them, so every
/// flush stalls repeatedly and must resume via write readiness. The
/// stream must stay intact throughout.
#[test]
fn blocked_flushes_resume_through_a_tiny_pipe() {
    let cfg = ServerConfig {
        outbound_queue_frames: 1 << 14,
        ..base_cfg()
    };
    let store = SpatialStore::new(cfg.space, cfg.grid, Vec::new());
    // 48-byte pipes: a modest TickDelta overshoots the whole buffer,
    // so the next flush always finds the pipe full and must wait for
    // the write-readiness callback.
    let (listener, connector) = memory_listener_with_capacity(48);
    let mut srv = Server::start_on(Listener::Mem(listener), store, cfg, MetricsRegistry::new())
        .expect("server boots");

    let mut c = Client::from_stream(Stream::Mem(connector.connect().unwrap())).unwrap();
    let mut rng = Rng64::seed_from_u64(0x5807);
    for id in 1..=120u32 {
        c.upsert(id, ObjectKind::A, rng.f64() * 100.0, rng.f64() * 100.0)
            .unwrap();
    }
    let sid = c.subscribe(1, Algorithm::Knn(64)).unwrap();
    for tick in 1..=3u64 {
        for _ in 0..30 {
            let id = rng.gen_range(1..121) as u32;
            c.upsert(id, ObjectKind::A, rng.f64() * 100.0, rng.f64() * 100.0)
                .unwrap();
        }
        c.step().unwrap();
        c.wait_tick_end(tick, Duration::from_secs(10)).unwrap();
    }
    assert_eq!(c.answer(sid).len(), 64, "64-NN answer arrived complete");
    srv.shutdown();
    srv.wait();
}

/// Genuine short writes over TCP: a minimum-size `SO_SNDBUF` on the
/// accepted socket cannot hold one ~100KB snapshot frame, so the
/// kernel accepts a prefix and the state machine must resume
/// mid-frame. The answer must arrive byte-exact and the resumption
/// counter must move.
#[test]
fn tcp_short_writes_resume_mid_frame() {
    let cfg = ServerConfig {
        tcp_send_buffer: Some(1), // kernel clamps to its minimum
        outbound_queue_frames: 1 << 14,
        ..base_cfg()
    };
    let store = SpatialStore::new(cfg.space, cfg.grid, Vec::new());
    let mut srv = Server::start(("127.0.0.1", 0), store, cfg).expect("server boots");

    let mut c = Client::connect(srv.local_addr()).unwrap();
    let mut rng = Rng64::seed_from_u64(0x5808);
    for id in 1..=30_000u32 {
        c.upsert(id, ObjectKind::A, rng.f64() * 100.0, rng.f64() * 100.0)
            .unwrap();
    }
    // k = 25000 → a ~100KB snapshot TickDelta. That exceeds both the
    // clamped send buffer and a single loopback skb, so the kernel can
    // only take a prefix per write and the flush must resume mid-frame.
    let sid = c.subscribe(1, Algorithm::Knn(25_000)).unwrap();
    c.step().unwrap();
    c.wait_tick_end(1, Duration::from_secs(30)).unwrap();
    assert_eq!(
        c.answer(sid).len(),
        25_000,
        "25000-NN answer arrived complete"
    );

    let resumed = srv
        .registry()
        .counter("igern_server_reactor_short_write_resumptions_total")
        .get();
    assert!(
        resumed > 0,
        "a 100KB frame through a minimum send buffer must short-write at least once"
    );
    srv.shutdown();
    srv.wait();
}

/// Run one deterministic client script against the server and return
/// every pushed frame, in order, with wall-clock stamps zeroed.
fn scripted_stream() -> Vec<u8> {
    let (mut srv, connector) = boot_mem(base_cfg());
    let stream = Stream::Mem(connector.connect().unwrap());
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = FrameReader::new(stream);
    let wait = Duration::from_secs(10);
    let mut got: Vec<Frame> = Vec::new();

    let send = |w: &mut Stream, f: Frame| w.write_all(&f.encode()).unwrap();
    send(
        &mut w,
        Frame::Hello {
            version: PROTOCOL_VERSION,
        },
    );
    got.push(next_frame(&mut r, wait));

    let mut rng = Rng64::seed_from_u64(0xB17E);
    for id in 1..=40u32 {
        send(
            &mut w,
            Frame::UpsertObject {
                id,
                kind: ObjectKind::A,
                x: rng.f64() * 100.0,
                y: rng.f64() * 100.0,
            },
        );
    }
    for (token, anchor, algo) in [
        (1u32, 5u32, Algorithm::IgernMono),
        (2, 12, Algorithm::Knn(4)),
    ] {
        send(
            &mut w,
            Frame::Subscribe {
                token,
                anchor,
                algo,
                mode: DistanceMode::Euclidean,
            },
        );
        got.push(next_frame(&mut r, wait));
    }

    for tick in 1..=5u64 {
        for _ in 0..12 {
            let id = rng.gen_range(1..41) as u32;
            if rng.next_u64().is_multiple_of(5) {
                send(&mut w, Frame::RemoveObject { id });
            } else {
                send(
                    &mut w,
                    Frame::UpsertObject {
                        id,
                        kind: ObjectKind::A,
                        x: rng.f64() * 100.0,
                        y: rng.f64() * 100.0,
                    },
                );
            }
        }
        send(&mut w, Frame::Step);
        loop {
            let f = next_frame(&mut r, wait);
            let done = matches!(f, Frame::TickEnd { tick: t, .. } if t == tick);
            got.push(f);
            if done {
                break;
            }
        }
    }

    send(&mut w, Frame::Shutdown);
    loop {
        match r.poll().expect("stream is well-formed") {
            ReadOutcome::Frame(f) => got.push(f),
            ReadOutcome::Eof => break,
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    srv.wait();

    got.into_iter()
        .flat_map(|f| zero_stamp(f).encode())
        .collect()
}

/// The lockstep script's server→client stream (modulo wall-clock
/// stamps) is pinned to the digest recorded at commit a87bc24, where
/// this test compared it byte for byte against the since-deleted
/// thread-per-connection backend: frame order and encoding must not
/// drift now that there is no second runtime to cross-check.
#[test]
fn scripted_push_stream_matches_the_pinned_digest() {
    let stream = scripted_stream();
    assert_eq!(stream.len(), 606, "push stream length changed");
    assert_eq!(
        igern_wal::fnv1a(igern_wal::FNV_OFFSET, &stream),
        0x8c15_ba20_e184_5d5e,
        "push stream bytes changed"
    );
}

/// 1000 concurrent subscribers on the fixed loop pool: all ack, all
/// see every tick, and closing half is noticed and survived.
#[test]
fn a_thousand_subscribers_tick_and_churn() {
    let (mut srv, connector) = boot_mem(base_cfg());
    let mut rng = Rng64::seed_from_u64(0x1000);

    let mut clients: Vec<Client> = (0..1000)
        .map(|_| Client::from_stream(Stream::Mem(connector.connect().unwrap())).expect("handshake"))
        .collect();
    for id in 1..=50u32 {
        clients[0]
            .upsert(id, ObjectKind::A, rng.f64() * 100.0, rng.f64() * 100.0)
            .unwrap();
    }
    for (i, c) in clients.iter_mut().enumerate() {
        let anchor = (i % 50 + 1) as u32;
        c.subscribe(anchor, Algorithm::IgernMono)
            .expect("subscribe acks");
    }
    assert_eq!(srv.metrics().connections_active.get(), 1000.0);

    clients[0].step().unwrap();
    for c in clients.iter_mut() {
        c.wait_tick_end(1, Duration::from_secs(30))
            .expect("tick 1 reaches every subscriber");
    }

    // Churn: close every odd connection, keep the evens.
    let mut keep = Vec::with_capacity(500);
    for (i, c) in clients.into_iter().enumerate() {
        if i % 2 == 0 {
            keep.push(c);
        }
    }
    let t0 = Instant::now();
    while srv.metrics().connections_active.get() > 500.0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "server failed to notice 500 closed connections"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    keep[0].step().unwrap();
    for c in keep.iter_mut() {
        c.wait_tick_end(2, Duration::from_secs(30))
            .expect("tick 2 reaches every survivor");
    }
    drop(keep);
    srv.shutdown();
    srv.wait();
}

/// A subscriber that stops reading cannot stall graceful shutdown past
/// the configured drain deadline.
#[test]
fn shutdown_drain_deadline_cuts_slow_consumers() {
    let cfg = ServerConfig {
        shutdown_drain: Duration::from_millis(300),
        slow_consumer: SlowConsumerPolicy::Coalesce,
        outbound_queue_frames: 1 << 14,
        ..base_cfg()
    };
    let store = SpatialStore::new(cfg.space, cfg.grid, Vec::new());
    let (listener, connector) = memory_listener_with_capacity(48);
    let mut srv = Server::start_on(Listener::Mem(listener), store, cfg, MetricsRegistry::new())
        .expect("server boots");

    let mut driver = Client::from_stream(Stream::Mem(connector.connect().unwrap())).unwrap();
    let mut rng = Rng64::seed_from_u64(0xDEAD);
    for id in 1..=100u32 {
        driver
            .upsert(id, ObjectKind::A, rng.f64() * 100.0, rng.f64() * 100.0)
            .unwrap();
    }
    // TickEnd is only pushed to subscribed connections; the driver
    // needs a (cheap) sub of its own to observe tick boundaries.
    driver.subscribe(2, Algorithm::Knn(1)).unwrap();

    // The slow consumer handshakes and subscribes, then never reads
    // again: its snapshot wedges mid-frame in the 48-byte pipe.
    let lazy = Stream::Mem(connector.connect().unwrap());
    lazy.set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let mut lw = lazy.try_clone().unwrap();
    let mut lr = FrameReader::new(lazy);
    lw.write_all(
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .unwrap();
    assert!(matches!(
        next_frame(&mut lr, Duration::from_secs(10)),
        Frame::HelloAck { .. }
    ));
    lw.write_all(
        &Frame::Subscribe {
            token: 1,
            anchor: 1,
            algo: Algorithm::Knn(64),
            mode: DistanceMode::Euclidean,
        }
        .encode(),
    )
    .unwrap();

    driver.step().unwrap();
    driver.wait_tick_end(1, Duration::from_secs(10)).unwrap();

    srv.shutdown();
    let t0 = Instant::now();
    srv.wait();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "drain deadline (300ms) must bound shutdown; took {elapsed:?}"
    );
}
