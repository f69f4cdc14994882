//! Experiment SRV — serving-layer throughput and push latency.
//!
//! N concurrent clients stream position updates at full speed into one
//! server while holding live subscriptions; each measures
//! **tick-to-push latency** — the wall-clock gap between the server
//! stamping a tick's push batch and the client receiving its
//! `TICK_END` — from the `stamp_nanos` the frames carry (same host, so
//! one clock). Sustained ingest is the total updates sent over the
//! send-loop wall time, backpressured end to end by the bounded ingest
//! queue.
//!
//! By default the server runs in-process (workers 1 and a host-capped
//! 4, two series), followed by a **durability sweep**: the same
//! workload with the write-ahead log enabled, one series per fsync
//! policy (`never`/`tick`/`always`), so `BENCH_server.json` shows what
//! durability costs relative to the log-free baseline. `--addr
//! HOST:PORT` instead drives an external `igern serve` instance, which
//! is how the CI smoke leg exercises the shipped binary. Results go to
//! `BENCH_server.json` with `host_cpus` recorded — single-core hosts
//! serialize everything, so read the numbers against that field.
//!
//! In-process runs finish with a **subscriber sweep**: 100 / 1k / 10k
//! concurrent standing subscriptions over the in-memory transport,
//! measuring per-tick fan-out latency (tick stamp → each subscriber's
//! `TICK_END` decoded).

use std::io::Write;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use igern_bench::report::print_table;
use igern_core::obs::MetricsRegistry;
use igern_core::processor::Algorithm;
use igern_core::types::ObjectKind;
use igern_core::SpatialStore;
use igern_geom::Aabb;
use igern_mobgen::rng::Rng64;
use igern_server::client::Event;
use igern_server::proto::{Frame, FrameReader, ReadOutcome};
use igern_server::{
    memory_listener, Client, Listener, Server, ServerConfig, SlowConsumerPolicy, Stream, TickMode,
    PROTOCOL_VERSION,
};
use igern_wal::{FsyncPolicy, WalOptions};

const SIDE: f64 = 100.0;

#[derive(Debug, Clone)]
struct SrvArgs {
    clients: usize,
    /// Updates each client streams.
    updates: usize,
    objects_per_client: usize,
    tick_ms: u64,
    seed: u64,
    quick: bool,
    /// Drive an external server instead of in-process sweeps.
    addr: Option<String>,
    /// Send a SHUTDOWN frame when done (external mode).
    shutdown: bool,
    /// Override the subscriber-sweep counts (default 100/1k/10k).
    subscribers: Option<usize>,
}

impl SrvArgs {
    fn parse() -> Self {
        let mut args = SrvArgs {
            clients: 4,
            updates: 20_000,
            objects_per_client: 100,
            tick_ms: 5,
            seed: 7,
            quick: false,
            addr: None,
            shutdown: false,
            subscribers: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> String {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--clients" => args.clients = value("--clients").parse().expect("--clients"),
                "--updates" => args.updates = value("--updates").parse().expect("--updates"),
                "--objects" => {
                    args.objects_per_client = value("--objects").parse().expect("--objects")
                }
                "--tick-ms" => args.tick_ms = value("--tick-ms").parse().expect("--tick-ms"),
                "--seed" => args.seed = value("--seed").parse().expect("--seed"),
                "--quick" => args.quick = true,
                "--addr" => args.addr = Some(value("--addr")),
                "--shutdown" => args.shutdown = value("--shutdown") == "true",
                "--subscribers" => {
                    args.subscribers = Some(value("--subscribers").parse().expect("--subscribers"))
                }
                other => panic!(
                    "unknown flag {other} \
                     (--clients --updates --objects --tick-ms --seed --quick --addr --shutdown \
                     --subscribers)"
                ),
            }
        }
        if args.quick {
            args.clients = args.clients.min(2);
            args.updates = args.updates.min(2_000);
        }
        args
    }
}

fn now_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

struct ClientRun {
    sent: u64,
    send_secs: f64,
    /// Tick-to-push latencies (ms), one per TICK_END received.
    latencies_ms: Vec<f64>,
}

/// One bench client: populate an id range, subscribe two queries, then
/// stream updates at full speed, draining pushes opportunistically.
fn drive_client(addr: &str, idx: usize, args: &SrvArgs) -> ClientRun {
    let mut rng = Rng64::seed_from_u64(args.seed ^ (idx as u64).wrapping_mul(0x9e37));
    let base = (idx * args.objects_per_client) as u32;
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Duration::from_millis(1))
        .expect("read timeout");
    for i in 0..args.objects_per_client as u32 {
        let (x, y) = (rng.f64() * SIDE, rng.f64() * SIDE);
        client
            .upsert(base + i, ObjectKind::A, x, y)
            .expect("populate");
    }
    client
        .subscribe(base, Algorithm::IgernMono)
        .expect("subscribe mono");
    client
        .subscribe(base + 1, Algorithm::Knn(4))
        .expect("subscribe knn");

    let mut latencies_ms = Vec::new();
    let drain = |client: &mut Client, latencies_ms: &mut Vec<f64>| {
        while let Ok(Some(ev)) = client.poll_event(Duration::ZERO) {
            if let Event::TickEnd { stamp_nanos, .. } = ev {
                let now = now_nanos();
                if now > stamp_nanos {
                    latencies_ms.push((now - stamp_nanos) as f64 / 1e6);
                }
            }
        }
    };

    let start = Instant::now();
    for u in 0..args.updates {
        let id = base + (rng.gen_range(0..args.objects_per_client)) as u32;
        let (x, y) = (rng.f64() * SIDE, rng.f64() * SIDE);
        client.upsert(id, ObjectKind::A, x, y).expect("update");
        // Drain periodically so the outbound queue never brands this
        // client a slow consumer; rarely enough not to gate the sends.
        if u % 256 == 255 {
            drain(&mut client, &mut latencies_ms);
        }
    }
    let send_secs = start.elapsed().as_secs_f64();
    // Collect the tail of pushes for a few tick periods.
    let settle = Instant::now() + Duration::from_millis(args.tick_ms.max(10) * 20);
    while Instant::now() < settle {
        drain(&mut client, &mut latencies_ms);
        std::thread::sleep(Duration::from_millis(1));
    }
    if args.shutdown && idx == 0 {
        client.shutdown_server().expect("shutdown frame");
    }
    ClientRun {
        sent: args.updates as u64,
        send_secs,
        latencies_ms,
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

struct Series {
    label: String,
    workers: usize,
    /// `None` = no write-ahead log for this series.
    wal_fsync: Option<FsyncPolicy>,
    updates_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    samples: usize,
    slow_consumer_events: u64,
    protocol_errors: u64,
}

/// Run all clients against `addr` and aggregate.
fn run_clients(addr: &str, args: &SrvArgs) -> (f64, Vec<f64>) {
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        // The collect is the spawn barrier: chaining map(spawn).map(join)
        // lazily would run the clients one at a time.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = (0..args.clients)
            .map(|i| scope.spawn(move || drive_client(addr, i, args)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let sent: u64 = runs.iter().map(|r| r.sent).sum();
    let wall = runs.iter().map(|r| r.send_secs).fold(0.0, f64::max);
    let mut latencies: Vec<f64> = runs.into_iter().flat_map(|r| r.latencies_ms).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    (sent as f64 / wall, latencies)
}

fn measure_in_process(workers: usize, args: &SrvArgs, wal_fsync: Option<FsyncPolicy>) -> Series {
    let store = SpatialStore::new(Aabb::from_coords(0.0, 0.0, SIDE, SIDE), 16, Vec::new());
    let wal_dir = wal_fsync.map(|fsync| {
        let dir = std::env::temp_dir().join(format!(
            "igern-bench-wal-{}-{}",
            std::process::id(),
            fsync.name()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (dir, fsync)
    });
    let cfg = ServerConfig {
        space: Aabb::from_coords(0.0, 0.0, SIDE, SIDE),
        grid: 16,
        workers,
        tick_mode: TickMode::Every(Duration::from_millis(args.tick_ms.max(1))),
        slow_consumer: SlowConsumerPolicy::Coalesce,
        wal: wal_dir.as_ref().map(|(dir, fsync)| WalOptions {
            fsync: *fsync,
            ..WalOptions::new(dir)
        }),
        ..ServerConfig::default()
    };
    let mut server = Server::start(("127.0.0.1", 0), store, cfg).expect("bind");
    let addr = server.local_addr().to_string();
    let (updates_per_sec, latencies) = run_clients(&addr, args);
    let m = server.metrics();
    let label = match wal_fsync {
        None => format!("in-process, {workers} workers"),
        Some(f) => format!("in-process, {workers} workers, wal fsync={}", f.name()),
    };
    let series = Series {
        label,
        workers,
        wal_fsync,
        updates_per_sec,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        samples: latencies.len(),
        slow_consumer_events: m.slow_consumer_total.get(),
        protocol_errors: m.protocol_errors_total.get(),
    };
    server.stop();
    if let Some((dir, _)) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    series
}

/// Objects the sweep driver maintains; subscriber anchors cycle these.
const SWEEP_OBJECTS: u32 = 512;
/// Driver churn per tick in the subscriber sweep.
const SWEEP_CHURN: usize = 64;

struct SweepPoint {
    subscribers: usize,
    ticks: u64,
    handshake_secs: f64,
    fanout_p50_ms: f64,
    fanout_p99_ms: f64,
    samples: usize,
}

/// Block on `r` (bounded by the stream's read timeout per poll) until a
/// frame decodes.
fn next_push(r: &mut FrameReader<Stream>, deadline: Duration) -> Frame {
    let t0 = Instant::now();
    loop {
        match r.poll().expect("subscriber stream is well-formed") {
            ReadOutcome::Frame(f) => return f,
            ReadOutcome::Eof => panic!("subscriber saw EOF mid-sweep"),
            _ => assert!(
                t0.elapsed() < deadline,
                "subscriber starved for {deadline:?}"
            ),
        }
    }
}

/// Fan-out to `n` standing subscribers over the in-memory transport:
/// one driver client churns objects and steps ticks while `n` raw
/// streams each hold a 4-NN subscription. Per tick, every subscriber's
/// `TICK_END` arrival is timed against the tick's push stamp; the
/// drain runs on one thread, so the recorded p99 is the cost of
/// delivering *and consuming* the full fan-out, not one lucky socket.
fn sweep_point(n: usize, ticks: u64, args: &SrvArgs) -> SweepPoint {
    let space = Aabb::from_coords(0.0, 0.0, SIDE, SIDE);
    let cfg = ServerConfig {
        space,
        grid: 16,
        tick_mode: TickMode::Manual,
        slow_consumer: SlowConsumerPolicy::Coalesce,
        ..ServerConfig::default()
    };
    let store = SpatialStore::new(space, 16, Vec::new());
    let (listener, connector) = memory_listener();
    let mut server = Server::start_on(Listener::Mem(listener), store, cfg, MetricsRegistry::new())
        .expect("sweep server boots");

    let mut driver = Client::from_stream(Stream::Mem(connector.connect().expect("driver pipe")))
        .expect("driver handshake");
    let mut rng = Rng64::seed_from_u64(args.seed ^ 0xFA0);
    for id in 1..=SWEEP_OBJECTS {
        driver
            .upsert(id, ObjectKind::A, rng.f64() * SIDE, rng.f64() * SIDE)
            .expect("populate");
    }
    // The driver holds a subscription of its own purely so TICK_END
    // reaches it (ticks are only pushed to subscribed connections).
    driver.subscribe(1, Algorithm::Knn(1)).expect("driver sub");

    // Handshake pipelined in waves — send to all, then collect from
    // all — so connection setup overlaps inside the server instead of
    // serializing on this thread's round trips.
    let wait = Duration::from_secs(120);
    let t0 = Instant::now();
    let mut subs: Vec<(Stream, FrameReader<Stream>)> = Vec::with_capacity(n);
    for _ in 0..n {
        let s = Stream::Mem(connector.connect().expect("subscriber pipe"));
        s.set_read_timeout(Some(Duration::from_millis(100)))
            .expect("read timeout");
        let mut w = s.try_clone().expect("stream clone");
        w.write_all(
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        )
        .expect("hello");
        subs.push((w, FrameReader::new(s)));
    }
    for (_, r) in subs.iter_mut() {
        match next_push(r, wait) {
            Frame::HelloAck { .. } => {}
            other => panic!("expected HelloAck, got {other:?}"),
        }
    }
    for (i, (w, _)) in subs.iter_mut().enumerate() {
        w.write_all(
            &Frame::Subscribe {
                token: 1,
                anchor: 1 + (i as u32 % SWEEP_OBJECTS),
                algo: Algorithm::Knn(4),
                mode: igern_core::DistanceMode::Euclidean,
            }
            .encode(),
        )
        .expect("subscribe");
    }
    for (_, r) in subs.iter_mut() {
        match next_push(r, wait) {
            Frame::Subscribed { .. } => {}
            other => panic!("expected Subscribed, got {other:?}"),
        }
    }
    let handshake_secs = t0.elapsed().as_secs_f64();

    let mut lat_ms: Vec<f64> = Vec::with_capacity(n * ticks as usize);
    for tick in 1..=ticks {
        for _ in 0..SWEEP_CHURN {
            let id = 1 + rng.gen_range(0..SWEEP_OBJECTS as usize) as u32;
            driver
                .upsert(id, ObjectKind::A, rng.f64() * SIDE, rng.f64() * SIDE)
                .expect("churn");
        }
        driver.step().expect("step");
        driver
            .wait_tick_end(tick, Duration::from_secs(120))
            .expect("driver tick");
        for (_, r) in subs.iter_mut() {
            loop {
                if let Frame::TickEnd {
                    tick: t,
                    stamp_nanos,
                } = next_push(r, wait)
                {
                    if t == tick {
                        let now = now_nanos();
                        if now > stamp_nanos {
                            lat_ms.push((now - stamp_nanos) as f64 / 1e6);
                        }
                        break;
                    }
                }
            }
        }
    }
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    drop(subs);
    drop(driver);
    server.stop();
    SweepPoint {
        subscribers: n,
        ticks,
        handshake_secs,
        fanout_p50_ms: percentile(&lat_ms, 0.50),
        fanout_p99_ms: percentile(&lat_ms, 0.99),
        samples: lat_ms.len(),
    }
}

fn run_subscriber_sweep(args: &SrvArgs) -> Vec<SweepPoint> {
    let counts: Vec<usize> = match args.subscribers {
        Some(n) => vec![n],
        None if args.quick => vec![100, 1_000],
        None => vec![100, 1_000, 10_000],
    };
    let ticks: u64 = if args.quick { 3 } else { 5 };
    counts
        .into_iter()
        .map(|n| {
            println!("  sweep: {n} subscribers ...");
            sweep_point(n, ticks, args)
        })
        .collect()
}

fn main() {
    let args = SrvArgs::parse();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "SRV: serving layer — {} clients × {} updates, {} objects/client, \
         tick {}ms, seed {}, host cpus {host_cpus}",
        args.clients, args.updates, args.objects_per_client, args.tick_ms, args.seed
    );

    let series: Vec<Series> = match &args.addr {
        Some(addr) => {
            let (updates_per_sec, latencies) = run_clients(addr, &args);
            vec![Series {
                label: format!("external {addr}"),
                workers: 0,
                wal_fsync: None,
                updates_per_sec,
                p50_ms: percentile(&latencies, 0.50),
                p99_ms: percentile(&latencies, 0.99),
                samples: latencies.len(),
                slow_consumer_events: 0,
                protocol_errors: 0,
            }]
        }
        None => {
            let sweep = if host_cpus >= 4 { vec![1, 4] } else { vec![1] };
            let mut series: Vec<Series> = sweep
                .iter()
                .map(|&w| measure_in_process(w, &args, None))
                .collect();
            // Durability sweep: the same workload over a write-ahead
            // log, one series per fsync policy, at the widest worker
            // count measured above (the log rides the tick thread, so
            // its cost is worker-independent — compare against that
            // baseline series).
            let wal_workers = *sweep.last().expect("sweep never empty");
            for fsync in [FsyncPolicy::Never, FsyncPolicy::Tick, FsyncPolicy::Always] {
                series.push(measure_in_process(wal_workers, &args, Some(fsync)));
            }
            series
        }
    };
    let sweep_points: Vec<SweepPoint> = if args.addr.is_none() {
        run_subscriber_sweep(&args)
    } else {
        Vec::new()
    };

    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            vec![
                s.label.clone(),
                format!("{:.0}", s.updates_per_sec),
                format!("{:.3}", s.p50_ms),
                format!("{:.3}", s.p99_ms),
                s.samples.to_string(),
            ]
        })
        .collect();
    print_table(
        "SRV: sustained ingest and tick-to-push latency",
        &["series", "updates/s", "p50 ms", "p99 ms", "ticks seen"],
        &rows,
    );

    if !sweep_points.is_empty() {
        let rows: Vec<Vec<String>> = sweep_points
            .iter()
            .map(|p| {
                vec![
                    p.subscribers.to_string(),
                    format!("{:.3}", p.fanout_p50_ms),
                    format!("{:.3}", p.fanout_p99_ms),
                    p.samples.to_string(),
                ]
            })
            .collect();
        print_table(
            "SRV: subscriber fan-out sweep (tick stamp → TICK_END decoded)",
            &["subscribers", "p50 ms", "p99 ms", "samples"],
            &rows,
        );
    }

    let entries: Vec<String> = series
        .iter()
        .map(|s| {
            format!(
                "    {{\"label\": \"{}\", \"workers\": {}, \"wal_fsync\": {}, \
                 \"updates_per_sec\": {:.1}, \
                 \"tick_to_push_p50_ms\": {:.4}, \"tick_to_push_p99_ms\": {:.4}, \
                 \"latency_samples\": {}, \"slow_consumer_events\": {}, \
                 \"protocol_errors\": {}}}",
                s.label,
                s.workers,
                s.wal_fsync
                    .map_or("null".to_string(), |f| format!("\"{}\"", f.name())),
                s.updates_per_sec,
                s.p50_ms,
                s.p99_ms,
                s.samples,
                s.slow_consumer_events,
                s.protocol_errors
            )
        })
        .collect();
    let sweep_entries: Vec<String> = sweep_points
        .iter()
        .map(|p| {
            let num = |v: f64| {
                if v.is_finite() {
                    format!("{v:.4}")
                } else {
                    "null".to_string()
                }
            };
            format!(
                "    {{\"subscribers\": {}, \"ticks\": {}, \
                 \"handshake_secs\": {}, \"fanout_p50_ms\": {}, \"fanout_p99_ms\": {}, \
                 \"samples\": {}}}",
                p.subscribers,
                p.ticks,
                num(p.handshake_secs),
                num(p.fanout_p50_ms),
                num(p.fanout_p99_ms),
                p.samples,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"server_throughput\",\n  \"clients\": {},\n  \
         \"updates_per_client\": {},\n  \"objects_per_client\": {},\n  \
         \"tick_ms\": {},\n  \"seed\": {},\n  \"host_cpus\": {host_cpus},\n  \
         \"series\": [\n{}\n  ],\n  \"subscriber_sweep\": [\n{}\n  ]\n}}\n",
        args.clients,
        args.updates,
        args.objects_per_client,
        args.tick_ms,
        args.seed,
        entries.join(",\n"),
        sweep_entries.join(",\n")
    );
    let path = "BENCH_server.json";
    std::fs::write(path, &json).expect("write BENCH_server.json");
    println!("wrote {path}");
}
