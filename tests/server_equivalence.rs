//! End-to-end equivalence between the network serving layer and an
//! offline [`TickRunner`] fed the identical update sequence.
//!
//! The server must be a transparent transport: a client that folds the
//! pushed snapshots and deltas into local state sees, after every
//! `TICK_END`, exactly the answer the offline engine computes — for all
//! eight algorithms, at one worker and at four, across mid-stream
//! subscribe/unsubscribe, object insertion/removal, and a slow-consumer
//! coalesce event. Malformed input must never take the server down.
//!
//! The lockstep drives run under both distance modes: in
//! `DistanceMode::Network` both stores carry the same synthetic road
//! graph and every subscription opens in network mode over the
//! protocol's v2 mode byte.

mod common;

use std::time::Duration;

use common::Lcg;
use igern::core::processor::Algorithm;
use igern::core::types::{DistanceMode, ObjectKind};
use igern::core::{NetworkSpace, SpatialStore};
use igern::engine::{Placement, TickRunner};
use igern::geom::Aabb;
use igern::grid::ObjectId;
use igern::mobgen::{build_synthetic_network, SyntheticNetworkConfig};
use igern::server::client::Event;
use igern::server::{Client, ErrorCode, Server, ServerConfig, SlowConsumerPolicy, TickMode};

const SIDE: f64 = 100.0;
const N: usize = 40;
const A_COUNT: usize = 20;
const TICKS: u64 = 200;
const WAIT: Duration = Duration::from_secs(30);

fn space() -> Aabb {
    Aabb::from_coords(0.0, 0.0, SIDE, SIDE)
}

fn kinds() -> Vec<ObjectKind> {
    (0..N)
        .map(|i| {
            if i < A_COUNT {
                ObjectKind::A
            } else {
                ObjectKind::B
            }
        })
        .collect()
}

const MODES: [DistanceMode; 2] = [DistanceMode::Euclidean, DistanceMode::Network];

fn seeded_store(seed: u64) -> SpatialStore {
    seeded_store_in(seed, DistanceMode::Euclidean)
}

fn seeded_store_in(seed: u64, mode: DistanceMode) -> SpatialStore {
    let mut rng = Lcg::new(seed);
    let pts = rng.points(N, SIDE);
    let mut store = SpatialStore::new(space(), 8, kinds());
    if mode == DistanceMode::Network {
        store.set_network(std::sync::Arc::new(NetworkSpace::from_network(
            &build_synthetic_network(&SyntheticNetworkConfig {
                k: 8,
                space: space(),
                seed,
                ..Default::default()
            }),
        )));
    }
    store.load(&pts);
    store
}

fn manual_config(workers: usize) -> ServerConfig {
    ServerConfig {
        space: space(),
        grid: 8,
        workers,
        tick_mode: TickMode::Manual,
        ..ServerConfig::default()
    }
}

fn ids(answer: &[ObjectId]) -> Vec<u32> {
    answer.iter().map(|o| o.0).collect()
}

/// The eight algorithm variants the paper pipeline supports.
fn all_algorithms() -> [Algorithm; 8] {
    [
        Algorithm::IgernMono,
        Algorithm::Crnn,
        Algorithm::TplRepeat,
        Algorithm::IgernBi,
        Algorithm::VoronoiRepeat,
        Algorithm::IgernMonoK(2),
        Algorithm::IgernBiK(2),
        Algorithm::Knn(3),
    ]
}

/// Drive a 200-tick workload through the server and an offline runner
/// in lockstep, comparing every live subscription's answer every tick.
fn drive_equivalence(workers: usize, mode: DistanceMode) {
    let seed = 0xC0FF_EE00 ^ workers as u64;
    let store = || seeded_store_in(seed, mode);
    let mut reference = TickRunner::new(store(), workers, Placement::RoundRobin);
    let mut server =
        Server::start(("127.0.0.1", 0), store(), manual_config(workers)).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let algos = all_algorithms();
    // First six algorithms subscribe up front (anchors 0..6, all kind
    // A); the last two join mid-stream at tick 80.
    let mut live: Vec<(u32, usize)> = Vec::new();
    for (i, &algo) in algos.iter().take(6).enumerate() {
        let sid = client
            .subscribe_in(i as u32, algo, mode)
            .expect("subscribe");
        let qid = reference
            .add_query_in(ObjectId(i as u32), algo, mode)
            .expect("ref query");
        live.push((sid, qid));
    }

    let mut rng = Lcg::new(seed ^ 0xDEAD_BEEF);
    let mut alive: Vec<u32> = (0..N as u32).collect();
    let mut removed_sid = None;

    for tick in 1..=TICKS {
        // A handful of random moves per tick — anchors included.
        for _ in 0..6 {
            let id = alive[rng.usize(alive.len())];
            let p = rng.point(SIDE);
            let kind = reference.store().kind(ObjectId(id));
            client.upsert(id, kind, p.x, p.y).expect("upsert");
            reference.apply_update(ObjectId(id), p);
        }
        match tick {
            60 => {
                // Dynamic insertion of a brand-new object.
                let p = rng.point(SIDE);
                client.upsert(40, ObjectKind::B, p.x, p.y).expect("insert");
                reference.insert_object(ObjectId(40), ObjectKind::B, p);
                alive.push(40);
            }
            70 => {
                let p = rng.point(SIDE);
                client.upsert(41, ObjectKind::A, p.x, p.y).expect("insert");
                reference.insert_object(ObjectId(41), ObjectKind::A, p);
                alive.push(41);
            }
            80 => {
                for (i, &algo) in algos.iter().enumerate().skip(6) {
                    let sid = client
                        .subscribe_in(i as u32, algo, mode)
                        .expect("late subscribe");
                    let qid = reference
                        .add_query_in(ObjectId(i as u32), algo, mode)
                        .expect("ref");
                    live.push((sid, qid));
                }
            }
            120 => {
                client.remove_object(40).expect("remove");
                reference.remove_object(ObjectId(40));
                alive.retain(|&id| id != 40);
            }
            140 => {
                // Mid-stream unsubscribe; its engine slot becomes a
                // tombstone on both sides.
                let (sid, qid) = live.remove(1);
                client.unsubscribe(sid).expect("unsubscribe");
                reference.remove_query(qid);
                removed_sid = Some(sid);
            }
            160 => {
                // A new subscription after the unsubscribe reuses the
                // tombstoned slot identically on both sides.
                let sid = client
                    .subscribe_in(8, Algorithm::IgernMono, mode)
                    .expect("resub");
                let qid = reference
                    .add_query_in(ObjectId(8), Algorithm::IgernMono, mode)
                    .expect("ref resub");
                live.push((sid, qid));
            }
            _ => {}
        }
        client.step().expect("step");
        reference.step(&[]);
        client.wait_tick_end(tick, WAIT).expect("tick end");
        for &(sid, qid) in &live {
            assert_eq!(
                client.answer(sid),
                ids(reference.answer(qid)),
                "tick {tick}, sid {sid}, qid {qid}, workers {workers}, {mode:?}"
            );
        }
        if let Some(sid) = removed_sid {
            assert!(
                client.answer(sid).is_empty(),
                "unsubscribed sid {sid} kept an answer"
            );
        }
    }
    assert_eq!(reference.tick(), TICKS);
    server.stop();
}

#[test]
fn serial_server_matches_offline_runner_for_all_algorithms() {
    for mode in MODES {
        drive_equivalence(1, mode);
    }
}

#[test]
fn sharded_server_matches_offline_runner_for_all_algorithms() {
    for mode in MODES {
        drive_equivalence(4, mode);
    }
}

/// A client that stops reading long enough to overflow its outbound
/// queue under the coalesce policy must converge back to the exact
/// offline answer from the pushed snapshots.
#[test]
fn coalesce_recovers_exact_answers_after_overflow() {
    for mode in MODES {
        coalesce_recovers_exact_answers(mode);
    }
}

fn coalesce_recovers_exact_answers(mode: DistanceMode) {
    let seed = 0xFEED_F00D;
    let store = || seeded_store_in(seed, mode);
    let mut reference = TickRunner::new(store(), 1, Placement::RoundRobin);
    // A 2-frame cap is smaller than one tick's batch (two deltas plus
    // TICK_END), so the overflow → shed → forced-snapshot path fires
    // every tick with answer churn, whatever the socket buffers absorb.
    let cfg = ServerConfig {
        outbound_queue_frames: 2,
        slow_consumer: SlowConsumerPolicy::Coalesce,
        ..manual_config(1)
    };
    let mut server = Server::start(("127.0.0.1", 0), store(), cfg).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let sid_mono = client
        .subscribe_in(0, Algorithm::IgernMono, mode)
        .expect("sub");
    let sid_knn = client
        .subscribe_in(1, Algorithm::Knn(3), mode)
        .expect("sub");
    let q_mono = reference
        .add_query_in(ObjectId(0), Algorithm::IgernMono, mode)
        .expect("ref");
    let q_knn = reference
        .add_query_in(ObjectId(1), Algorithm::Knn(3), mode)
        .expect("ref");

    // 30 ticks of churn without reading a single push: with a 4-frame
    // cap the queue overflows repeatedly and sheds tick traffic.
    let mut rng = Lcg::new(seed ^ 1);
    let total = 30;
    for _ in 1..=total {
        for _ in 0..4 {
            let id = rng.usize(N) as u32;
            let p = rng.point(SIDE);
            let kind = reference.store().kind(ObjectId(id));
            client.upsert(id, kind, p.x, p.y).expect("upsert");
            reference.apply_update(ObjectId(id), p);
        }
        client.step().expect("step");
        reference.step(&[]);
        // Give the tick thread time to run (and overflow the queue).
        std::thread::sleep(Duration::from_millis(5));
    }

    // Now drain. The surviving stream is a suffix of snapshots; after
    // the final TICK_END the folded answers must be bit-exact.
    client.wait_tick_end(total, WAIT).expect("final tick end");
    assert_eq!(client.answer(sid_mono), ids(reference.answer(q_mono)));
    assert_eq!(client.answer(sid_knn), ids(reference.answer(q_knn)));
    assert!(
        server.metrics().slow_consumer_total.get() > 0,
        "the tiny queue never overflowed — the coalesce path was not exercised"
    );
    server.stop();
}

/// Garbage from one client closes only that connection; a well-behaved
/// client on the same server keeps getting served, and the error is
/// counted.
#[test]
fn malformed_frames_poison_only_their_own_connection() {
    let seed = 0xBAD_F00D;
    let mut server =
        Server::start(("127.0.0.1", 0), seeded_store(seed), manual_config(1)).expect("bind server");
    let mut good = Client::connect(server.local_addr()).expect("connect good");
    let sid = good.subscribe(0, Algorithm::IgernMono).expect("subscribe");

    // Evil client 1: oversized length prefix.
    let mut evil = Client::connect(server.local_addr()).expect("connect evil");
    evil.send_raw(&[0xff, 0xff, 0xff, 0xff]).expect("inject");
    // Evil client 2: valid envelope around a known type with a garbage
    // body (an upsert frame three bytes long).
    let mut evil2 = Client::connect(server.local_addr()).expect("connect evil2");
    evil2.send_raw(&[3, 0, 0, 0, 2, 1, 2]).expect("inject");

    // Both evil connections get an ERROR frame and then EOF.
    for bad in [&mut evil, &mut evil2] {
        let mut saw_error = false;
        loop {
            match bad.poll_event(Duration::from_secs(5)) {
                Ok(Some(Event::Error { code, .. })) => {
                    assert_eq!(code, ErrorCode::Malformed);
                    saw_error = true;
                }
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
        assert!(saw_error, "malformed input did not produce an ERROR frame");
    }

    // A well-framed *unknown* frame type is forward-compatibility, not
    // an attack: it is skipped and the connection stays fully usable.
    let mut futur = Client::connect(server.local_addr()).expect("connect futuristic");
    futur.send_raw(&[3, 0, 0, 0, 0xEE, 1, 2]).expect("inject");
    futur.ping(7).expect("ping after unknown frame type");
    assert!(
        server.metrics().frames_skipped_total.get() >= 1,
        "the skipped frame was not counted"
    );

    // The good client is still served.
    good.upsert(5, ObjectKind::A, 1.0, 1.0).expect("upsert");
    good.step().expect("step");
    good.wait_tick_end(1, WAIT).expect("tick end");
    assert!(!good.answer(sid).is_empty() || good.answer(sid).is_empty()); // still responsive
    good.ping(42).expect("ping after the storm");
    assert!(
        server.metrics().protocol_errors_total.get() >= 2,
        "protocol errors were not counted"
    );
    server.stop();
}

/// Semantic rejections arrive as ERROR frames and leave the connection
/// fully usable.
#[test]
fn semantic_errors_keep_the_connection_alive() {
    let seed = 0x5EED;
    let mut server =
        Server::start(("127.0.0.1", 0), seeded_store(seed), manual_config(1)).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let expect_error = |client: &mut Client, want: ErrorCode| loop {
        match client.wait_event(WAIT).expect("event") {
            Event::Error { code, .. } => {
                assert_eq!(code, want);
                break;
            }
            _ => continue,
        }
    };

    // Subscribe against a nonexistent anchor.
    client.subscribe(99, Algorithm::IgernMono).expect("acked");
    expect_error(&mut client, ErrorCode::UnknownObject);
    // Bichromatic query anchored at a kind-B object.
    client.subscribe(25, Algorithm::IgernBi).expect("acked");
    expect_error(&mut client, ErrorCode::NotKindA);
    // k = 0.
    client.subscribe(0, Algorithm::Knn(0)).expect("acked");
    expect_error(&mut client, ErrorCode::ZeroK);
    // Out-of-bounds upsert.
    client
        .upsert(0, ObjectKind::A, SIDE * 2.0, 0.0)
        .expect("sent");
    expect_error(&mut client, ErrorCode::OutOfBounds);
    // Removing a live anchor.
    let sid = client.subscribe(0, Algorithm::IgernMono).expect("sub");
    client.remove_object(0).expect("sent");
    expect_error(&mut client, ErrorCode::AnchorInUse);
    // Unsubscribing a sid we do not own.
    client.unsubscribe(7777).expect("sent");
    expect_error(&mut client, ErrorCode::UnknownSubscription);
    // Kind change of an existing object.
    client.upsert(0, ObjectKind::B, 1.0, 1.0).expect("sent");
    expect_error(&mut client, ErrorCode::KindMismatch);

    // After all of that, the connection still ticks.
    client.step().expect("step");
    client.wait_tick_end(1, WAIT).expect("tick end");
    let _ = client.answer(sid);
    server.stop();
}

/// An internal sub-index desync — a connection listing a subscription
/// id the tick thread's sub table no longer knows — must not take the
/// tick thread down: the tick completes, the desync is counted in
/// `igern_server_sub_desync_total`, and the server keeps serving.
#[test]
fn injected_sub_desync_is_survived_and_counted() {
    let seed = 0xDE_517C;
    let mut server =
        Server::start(("127.0.0.1", 0), seeded_store(seed), manual_config(1)).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let sid = client
        .subscribe(0, Algorithm::IgernMono)
        .expect("subscribe");
    client.step().expect("step");
    client.wait_tick_end(1, WAIT).expect("tick end");

    // Rip the subscription out of the tick thread's sub table while the
    // connection still lists it, then force a tick with answer churn so
    // the delta fan-out walks the now-dangling sid.
    server.debug_desync_sub(sid);
    client.upsert(1, ObjectKind::A, 1.0, 1.0).expect("upsert");
    client.step().expect("step");
    client
        .wait_tick_end(2, WAIT)
        .expect("tick survives the desync");
    assert!(
        server.metrics().sub_desync_total.get() >= 1,
        "the injected desync was not counted"
    );

    // The server is still fully serviceable: a fresh subscription on
    // the same connection answers on the next tick.
    let sid2 = client.subscribe(2, Algorithm::Knn(3)).expect("resubscribe");
    client.upsert(3, ObjectKind::A, 2.0, 2.0).expect("upsert");
    client.step().expect("step");
    client
        .wait_tick_end(3, WAIT)
        .expect("tick end after recovery");
    assert_eq!(
        client.answer(sid2).len(),
        3,
        "knn answer missing after the desync"
    );
    server.stop();
}

/// A wrong protocol version is rejected with VERSION_MISMATCH at
/// handshake.
#[test]
fn version_mismatch_is_rejected_at_handshake() {
    let mut server = Server::start(("127.0.0.1", 0), seeded_store(0x1111), manual_config(1))
        .expect("bind server");
    // Raw socket: HELLO with version 999.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    std::io::Write::write_all(&mut raw, &[3, 0, 0, 0, 1, 231, 3]).expect("send");
    let mut buf = Vec::new();
    let _ = std::io::Read::read_to_end(&mut raw, &mut buf);
    // The reply must be one decodable ERROR frame with the right code.
    assert!(buf.len() > 5, "no reply before close");
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let frame = igern::server::Frame::decode(&buf[4..4 + len]).expect("decodable reply");
    match frame {
        igern::server::Frame::Error { code, .. } => {
            assert_eq!(code, ErrorCode::VersionMismatch)
        }
        other => panic!("expected ERROR, got {other:?}"),
    }
    server.stop();
}

/// Timer mode pushes ticks without STEP frames.
#[test]
fn timer_mode_ticks_on_its_own() {
    let cfg = ServerConfig {
        tick_mode: TickMode::Every(Duration::from_millis(10)),
        ..manual_config(1)
    };
    let mut server =
        Server::start(("127.0.0.1", 0), seeded_store(0x7777), cfg).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let _sid = client
        .subscribe(0, Algorithm::IgernMono)
        .expect("subscribe");
    let (t1, _) = client.wait_tick_end(1, WAIT).expect("first tick");
    let (t2, _) = client.wait_tick_end(t1 + 3, WAIT).expect("later tick");
    assert!(t2 >= t1 + 3, "ticks did not advance on the timer");
    server.stop();
}

/// Graceful shutdown: a final tick drains in-flight ingestion and every
/// queued push is flushed before the socket closes.
#[test]
fn shutdown_drains_in_flight_updates() {
    let seed = 0xD00D;
    let mut reference = TickRunner::new(seeded_store(seed), 1, Placement::RoundRobin);
    let mut server =
        Server::start(("127.0.0.1", 0), seeded_store(seed), manual_config(1)).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let sid = client
        .subscribe(0, Algorithm::IgernMono)
        .expect("subscribe");
    let qid = reference
        .add_query(ObjectId(0), Algorithm::IgernMono)
        .expect("ref");

    // Updates followed immediately by a client-initiated SHUTDOWN: the
    // server must evaluate them in its final tick and push the result.
    let mut rng = Lcg::new(seed);
    for _ in 0..10 {
        let id = rng.usize(N) as u32;
        let p = rng.point(SIDE);
        let kind = reference.store().kind(ObjectId(id));
        client.upsert(id, kind, p.x, p.y).expect("upsert");
        reference.apply_update(ObjectId(id), p);
    }
    client.shutdown_server().expect("shutdown frame");
    reference.step(&[]);

    client.wait_tick_end(1, WAIT).expect("final push");
    assert_eq!(client.answer(sid), ids(reference.answer(qid)));
    // The server then closes the socket cleanly.
    loop {
        match client.poll_event(Duration::from_secs(5)) {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("socket stayed open after shutdown"),
            Err(_) => break, // Closed
        }
    }
    server.wait();
}
