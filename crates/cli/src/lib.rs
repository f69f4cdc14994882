//! Command implementations for the `igern` CLI.
//!
//! The binary is a thin wrapper: each subcommand is a function from
//! parsed arguments to a `Write` sink, so everything here is unit-tested
//! without process spawning.
//!
//! ```text
//! igern gen-network --seed 7 --k 24 --out net.txt
//! igern gen-trace   --objects 1000 --ticks 50 --seed 7 --out trace.txt
//! igern run         --trace trace.txt --algo igern --queries 4 --ticks 10
//! igern render      --trace trace.txt --query 0 --ticks 3
//! ```

#![forbid(unsafe_code)]

use std::io::Write;
use std::time::Duration;

use igern_core::obs::{jsontext, promtext, MetricsRegistry};
use igern_core::processor::Algorithm;
use igern_core::prune::PruneGranularity;
use igern_core::types::{DistanceMode, ObjectKind};
use igern_core::{render, EvalScratch, MonoIgern, NetworkSpace, SpatialStore};
use igern_engine::{Placement, TickRunner};
use igern_geom::{Aabb, Point};
use igern_grid::{Grid, ObjectId, OpCounters};
use igern_mobgen::{
    build_synthetic_network, Mover, RecordedTrace, RoadNetwork, Scenario, SyntheticNetworkConfig,
    Workload, WorkloadConfig,
};
use igern_server::{Server, ServerConfig, SlowConsumerPolicy, TickMode};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

/// A parsed `--flag value` argument list.
#[derive(Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parse `--flag value` pairs; rejects dangling flags and stray
    /// positional arguments.
    pub fn parse<I: IntoIterator<Item = String>>(iter: I) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| CliError(format!("expected --flag, got {flag:?}")))?;
            let value = it
                .next()
                .ok_or_else(|| CliError(format!("missing value for --{name}")))?;
            pairs.push((name.to_string(), value));
        }
        Ok(Args { pairs })
    }

    /// Fetch a string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Fetch a required flag.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError(format!("missing required --{name}")))
    }

    /// Fetch a numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("bad value for --{name}: {v:?}"))),
        }
    }
}

/// `gen-network`: build and save a synthetic road network.
pub fn gen_network<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let cfg = SyntheticNetworkConfig {
        seed: args.num("seed", 7u64)?,
        k: args.num("k", 24usize)?,
        ..Default::default()
    };
    let net = build_synthetic_network(&cfg);
    match args.get("out") {
        Some(path) => {
            let mut f = std::fs::File::create(path)?;
            net.save(&mut f)?;
            writeln!(
                out,
                "wrote network: {} nodes, {} edges -> {path}",
                net.num_nodes(),
                net.num_edges()
            )?;
        }
        None => net.save(out)?,
    }
    Ok(())
}

/// `gen-trace`: simulate a workload and save the update stream.
pub fn gen_trace<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let objects = args.num("objects", 1000usize)?;
    let ticks = args.num("ticks", 50usize)?;
    let seed = args.num("seed", 7u64)?;
    let bi = args.get("bi").map(|v| v == "true").unwrap_or(false);
    let wcfg = match args.get("scenario") {
        Some(name) => {
            if args.get("bi").is_some() {
                return Err(CliError(
                    "--bi conflicts with --scenario (the preset fixes the kind split)".to_string(),
                ));
            }
            Scenario::by_name(name, objects, seed)
                .ok_or_else(|| {
                    CliError(format!(
                        "unknown --scenario {name:?} ({})",
                        Scenario::NAMES.join("|")
                    ))
                })?
                .workload
        }
        None if bi => WorkloadConfig::network_bi(objects, seed),
        None => WorkloadConfig::network_mono(objects, seed),
    };
    let mut workload = Workload::from_config(&wcfg);
    let trace = {
        // Record through the Workload's mover.
        struct W2<'a>(&'a mut Workload);
        impl Mover for W2<'_> {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn space(&self) -> igern_geom::Aabb {
                self.0.mover().space()
            }
            fn position(&self, id: u32) -> Point {
                self.0.mover().position(id)
            }
            fn advance(&mut self) -> &[igern_mobgen::Update] {
                self.0.advance()
            }
        }
        RecordedTrace::record(&mut W2(&mut workload), ticks)
    };
    match args.get("out") {
        Some(path) => {
            let mut f = std::fs::File::create(path)?;
            trace.save(&mut f)?;
            writeln!(
                out,
                "wrote trace: {} objects x {} ticks -> {path}",
                trace.num_objects(),
                trace.num_ticks()
            )?;
        }
        None => trace.save(out)?,
    }
    Ok(())
}

fn algorithm_by_name(name: &str, k: usize) -> Result<Algorithm, CliError> {
    Ok(match name {
        "igern" => Algorithm::IgernMono,
        "crnn" => Algorithm::Crnn,
        "tpl" => Algorithm::TplRepeat,
        "igern-bi" => Algorithm::IgernBi,
        "voronoi" => Algorithm::VoronoiRepeat,
        "igern-k" => Algorithm::IgernMonoK(k),
        "igern-bi-k" => Algorithm::IgernBiK(k),
        "knn" => Algorithm::Knn(k),
        other => {
            return Err(CliError(format!(
                "unknown --algo {other:?} (igern|crnn|tpl|igern-bi|voronoi|igern-k|igern-bi-k|knn)"
            )))
        }
    })
}

fn load_trace(args: &Args) -> Result<RecordedTrace, CliError> {
    let path = args.require("trace")?;
    let f = std::fs::File::open(path)?;
    Ok(RecordedTrace::load(std::io::BufReader::new(f))?)
}

/// Build a loaded store over a trace's initial state.
fn store_for(trace: &RecordedTrace, bi: bool, grid: usize) -> SpatialStore {
    let n = trace.num_objects();
    let kinds: Vec<ObjectKind> = (0..n)
        .map(|i| {
            if bi && i >= n / 2 {
                ObjectKind::B
            } else {
                ObjectKind::A
            }
        })
        .collect();
    let mut store = SpatialStore::new(trace.space(), grid, kinds);
    store.load(trace.initial());
    store
}

/// Parse `--grid`, rejecting a zero-cell grid.
fn grid_arg(args: &Args, default: usize) -> Result<usize, CliError> {
    let grid: usize = args.num("grid", default)?;
    if grid == 0 {
        return Err(CliError("--grid must be at least 1".to_string()));
    }
    Ok(grid)
}

/// Parse `--k`, rejecting `k == 0` (an RkNN answer of size zero is
/// meaningless and the engine refuses it).
fn k_arg(args: &Args) -> Result<usize, CliError> {
    let k: usize = args.num("k", 2usize)?;
    if k == 0 {
        return Err(CliError("--k must be at least 1".to_string()));
    }
    Ok(k)
}

/// Parse `--distance euclidean|network`.
fn distance_arg(args: &Args) -> Result<DistanceMode, CliError> {
    match args.get("distance").unwrap_or("euclidean") {
        "euclidean" => Ok(DistanceMode::Euclidean),
        "network" => Ok(DistanceMode::Network),
        other => Err(CliError(format!(
            "bad value for --distance: {other:?} (euclidean|network)"
        ))),
    }
}

/// The road graph a network-distance command runs on: loaded from
/// `--network FILE` when given, else a deterministic synthetic net over
/// `space` (`--net-seed`, default 7). Returns `None` — and rejects
/// dangling network flags — under Euclidean distance.
fn network_space_arg(
    args: &Args,
    mode: DistanceMode,
    space: Aabb,
) -> Result<Option<std::sync::Arc<NetworkSpace>>, CliError> {
    if mode == DistanceMode::Euclidean {
        for dependent in ["network", "net-seed"] {
            if args.get(dependent).is_some() {
                return Err(CliError(format!(
                    "--{dependent} requires --distance network"
                )));
            }
        }
        return Ok(None);
    }
    let net = match args.get("network") {
        Some(path) => {
            let f = std::fs::File::open(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            RoadNetwork::load(std::io::BufReader::new(f))
                .map_err(|e| CliError(format!("{path}: {e}")))?
        }
        None => build_synthetic_network(&SyntheticNetworkConfig {
            k: 8,
            space,
            seed: args.num("net-seed", 7u64)?,
            ..Default::default()
        }),
    };
    Ok(Some(std::sync::Arc::new(NetworkSpace::from_network(&net))))
}

fn placement_arg(args: &Args) -> Result<Placement, CliError> {
    match args.get("placement") {
        None => Ok(Placement::default()),
        Some(name) => Placement::parse(name).ok_or_else(|| {
            CliError(format!(
                "bad value for --placement: {name:?} (round-robin|anchor-cell)"
            ))
        }),
    }
}

/// `run`: evaluate continuous queries over a saved trace and print
/// per-tick answers and summary metrics.
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let trace = load_trace(args)?;
    let algo = algorithm_by_name(args.get("algo").unwrap_or("igern"), k_arg(args)?)?;
    let nq: usize = args.num("queries", 1usize)?;
    let ticks: usize = args.num("ticks", trace.num_ticks())?;
    let ticks = ticks.min(trace.num_ticks());
    let grid = grid_arg(args, Grid::suggest_size(trace.num_objects()))?;
    let workers: usize = args.num("workers", 1usize)?;
    if workers == 0 {
        return Err(CliError("--workers must be at least 1".to_string()));
    }
    let placement = placement_arg(args)?;
    let history_cap = match args.get("history") {
        None => None,
        Some(v) => {
            let cap: usize = v
                .parse()
                .map_err(|_| CliError(format!("bad value for --history: {v:?}")))?;
            if cap == 0 {
                return Err(CliError("--history must be at least 1".to_string()));
            }
            Some(cap)
        }
    };
    let mode = distance_arg(args)?;
    let mut store = store_for(&trace, algo.is_bichromatic(), grid);
    if let Some(ns) = network_space_arg(args, mode, trace.space())? {
        store.set_network(ns);
    }
    let mut proc = TickRunner::new(store, workers, placement);
    proc.set_history_capacity(history_cap);
    match args.get("routing").unwrap_or("on") {
        "on" => proc.set_skip_routing(true),
        "off" => proc.set_skip_routing(false),
        other => return Err(CliError(format!("bad value for --routing: {other:?}"))),
    }
    let metrics_out = args.get("metrics-out").map(str::to_string);
    let metrics_every: usize = args.num("metrics-every", 0)?;
    if metrics_every > 0 && metrics_out.is_none() {
        return Err(CliError(
            "--metrics-every requires --metrics-out".to_string(),
        ));
    }
    let registry = MetricsRegistry::new();
    if metrics_out.is_some() {
        proc.attach_metrics(&registry, "igern_pipeline");
    }
    let n = trace.num_objects();
    let candidates = if algo.is_bichromatic() { n / 2 } else { n };
    let handles: Vec<usize> = (0..nq.min(candidates))
        .map(|i| {
            proc.add_query_in(ObjectId((i * candidates / nq.max(1)) as u32), algo, mode)
                .map_err(|e| CliError(e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    proc.evaluate_all();
    let mut player = trace.player();
    for t in 0..=ticks {
        if t > 0 {
            let ups: Vec<(ObjectId, Point)> = player
                .advance()
                .iter()
                .map(|u| (ObjectId(u.id), u.pos))
                .collect();
            proc.step(&ups);
            if let Some(path) = &metrics_out {
                if metrics_every > 0 && t % metrics_every == 0 {
                    dump_registry(&registry, path)?;
                }
            }
        }
        write!(out, "tick {t}:")?;
        for &h in &handles {
            let ans: Vec<u32> = proc.answer(h).iter().map(|o| o.0).collect();
            write!(out, "  q{}={ans:?}", proc.query_object(h).0)?;
        }
        writeln!(out)?;
    }
    // Summary. The history's aggregate covers every sample ever pushed,
    // even when --history caps the retained ring buffer.
    for &h in &handles {
        let stats = proc.history(h).stats();
        writeln!(
            out,
            "query {}: mean {:.3} ms/tick, mean answer {:.2}, mean monitored {:.2}, \
             skipped {}/{} ticks",
            proc.query_object(h),
            stats.mean_time().as_secs_f64() * 1e3,
            stats.mean_answer(),
            stats.mean_monitored(),
            stats.skipped(),
            stats.len(),
        )?;
    }
    if let Some(path) = &metrics_out {
        dump_registry(&registry, path)?;
        writeln!(out, "wrote metrics -> {path}")?;
    }
    Ok(())
}

/// `serve`: run the network serving layer until a client sends
/// SHUTDOWN. The store starts from `--trace` when given, empty
/// otherwise (clients then populate it with UPSERT_OBJECT).
pub fn serve<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7464");
    let workers: usize = args.num("workers", 1usize)?;
    if workers == 0 {
        return Err(CliError("--workers must be at least 1".to_string()));
    }
    let tick_ms: u64 = args.num("tick-ms", 100u64)?;
    let grid = grid_arg(args, 16)?;
    let side: f64 = args.num("space", 1.0f64)?;
    if !side.is_finite() || side <= 0.0 {
        return Err(CliError(
            "--space must be a positive side length".to_string(),
        ));
    }
    let slow_consumer = match args.get("slow-consumer") {
        None => SlowConsumerPolicy::default(),
        Some(name) => SlowConsumerPolicy::parse(name).ok_or_else(|| {
            CliError(format!(
                "bad value for --slow-consumer: {name:?} (disconnect|coalesce)"
            ))
        })?,
    };
    let (mut store, space) = match args.get("trace") {
        Some(_) => {
            let trace = load_trace(args)?;
            let bi = args.get("bi").map(|v| v == "true").unwrap_or(false);
            let space = trace.space();
            (store_for(&trace, bi, grid), space)
        }
        None => {
            let space = Aabb::from_coords(0.0, 0.0, side, side);
            (SpatialStore::new(space, grid, Vec::new()), space)
        }
    };
    // With --distance network the store carries the road graph, so
    // clients may open protocol-v2 network-mode subscriptions (and WAL
    // recovery can re-register them). Euclidean subscriptions still
    // work either way — the mode is per-subscription.
    let distance = distance_arg(args)?;
    if let Some(ns) = network_space_arg(args, distance, space)? {
        store.set_network(ns);
    }
    let cfg = ServerConfig {
        space,
        grid,
        workers,
        placement: placement_arg(args)?,
        tick_mode: if tick_ms == 0 {
            TickMode::Manual
        } else {
            TickMode::Every(Duration::from_millis(tick_ms))
        },
        slow_consumer,
        io_threads: args.num("io-threads", 0usize)?,
        outbound_queue_frames: args.num("queue", 1024usize)?,
        wal: wal_options_arg(args)?,
        ..ServerConfig::default()
    };
    if let Some(w) = &cfg.wal {
        std::fs::create_dir_all(&w.dir)?;
    }
    let mut server =
        Server::start(addr, store, cfg).map_err(|e| CliError(format!("bind {addr}: {e}")))?;
    if let Some(rec) = server.recovery() {
        writeln!(
            out,
            "recovered: tick {}, {} objects, {} subs, digest {:016x} \
             ({} records / {} ticks replayed{})",
            rec.tick,
            rec.objects,
            rec.subs,
            rec.digest,
            rec.report.replayed_records,
            rec.report.replayed_ticks,
            if rec.report.clean() {
                String::new()
            } else {
                format!(
                    "; tolerated {} bad records, {} torn bytes, {} bad snapshots, \
                     {} digest mismatches, {} lenient skips",
                    rec.report.skipped_records,
                    rec.report.torn_tail_bytes,
                    rec.report.skipped_snapshots,
                    rec.report.digest_mismatches,
                    rec.report.lenient_skips,
                )
            },
        )?;
    }
    writeln!(
        out,
        "serving on {} ({} workers, tick {}, {} policy)",
        server.local_addr(),
        workers,
        if tick_ms == 0 {
            "manual".to_string()
        } else {
            format!("{tick_ms}ms")
        },
        match slow_consumer {
            SlowConsumerPolicy::Disconnect => "disconnect",
            SlowConsumerPolicy::Coalesce => "coalesce",
        },
    )?;
    out.flush()?;
    server.wait();
    if let Some(path) = args.get("metrics-out") {
        dump_registry(server.registry(), path)?;
        writeln!(out, "wrote metrics -> {path}")?;
    }
    writeln!(out, "server stopped")?;
    Ok(())
}

/// Parse the `serve` durability flags into [`igern_wal::WalOptions`];
/// the `--snapshot-every` / `--fsync` / `--segment-bytes` knobs are
/// only meaningful together with `--wal-dir`.
fn wal_options_arg(args: &Args) -> Result<Option<igern_wal::WalOptions>, CliError> {
    let Some(dir) = args.get("wal-dir") else {
        for dependent in ["snapshot-every", "fsync", "segment-bytes"] {
            if args.get(dependent).is_some() {
                return Err(CliError(format!("--{dependent} requires --wal-dir")));
            }
        }
        return Ok(None);
    };
    let mut opts = igern_wal::WalOptions::new(dir);
    opts.snapshot_every = args.num("snapshot-every", opts.snapshot_every)?;
    opts.segment_bytes = args.num("segment-bytes", opts.segment_bytes)?;
    if let Some(name) = args.get("fsync") {
        opts.fsync = igern_wal::FsyncPolicy::parse(name).ok_or_else(|| {
            CliError(format!(
                "bad value for --fsync: {name:?} (always|tick|never)"
            ))
        })?;
    }
    Ok(Some(opts))
}

/// `wal inspect`: walk a durability directory and report every
/// snapshot and segment, then dry-run recovery and print the state a
/// server booted on this directory would resume with.
pub fn wal_inspect<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let dir = std::path::PathBuf::from(args.require("dir")?);
    if !dir.is_dir() {
        return Err(CliError(format!(
            "--dir {}: not a directory",
            dir.display()
        )));
    }
    let snaps = igern_wal::snapshot_paths(&dir)?;
    writeln!(out, "{} snapshot(s):", snaps.len())?;
    for (covered, _, path) in &snaps {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        match igern_wal::load_snapshot(path) {
            Some(s) => writeln!(
                out,
                "  {name}: tick {}, covers seq < {covered}, {} objects, {} subs",
                s.tick,
                s.objects.len(),
                s.subs.len(),
            )?,
            None => writeln!(out, "  {name}: CORRUPT (recovery will skip it)")?,
        }
    }
    let segs = igern_wal::segment_paths(&dir)?;
    writeln!(out, "{} segment(s):", segs.len())?;
    for (first, path) in &segs {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        match igern_wal::scan_segment(path) {
            Ok(scan) => {
                let ticks = scan
                    .records
                    .iter()
                    .filter(|r| matches!(r.frame, igern_server::Frame::TickEnd { .. }))
                    .count();
                writeln!(
                    out,
                    "  {name}: seq [{first}, {}), {} records ({} tick boundaries), \
                     {} skipped, {} torn tail bytes",
                    scan.end_seq,
                    scan.records.len(),
                    ticks,
                    scan.skipped_records,
                    scan.torn_tail_bytes,
                )?;
            }
            Err(e) => writeln!(out, "  {name}: unreadable ({e})")?,
        }
    }
    let rec = igern_wal::recover(
        &dir,
        1,
        Placement::RoundRobin,
        Aabb::from_coords(0.0, 0.0, 1.0, 1.0),
        16,
        None,
    )?;
    writeln!(
        out,
        "recovery: tick {}, {} objects, {} subs, digest {:016x}, clean {}",
        rec.tick,
        rec.runner.store().len(),
        rec.subs.len(),
        rec.digest,
        rec.report.clean(),
    )?;
    Ok(())
}

/// `wal drive`: the driver of CI's serving and crash-recovery smokes.
/// Connects to a served instance, streams a seeded workload through
/// manual ticks, and mirrors every mutation into an in-process
/// [`TickRunner`]; each tick the pushed answers must match the mirror
/// exactly. Prints the mirror's whole-state digest per tick — after the
/// server is `kill -9`ed and restarted, its recovery banner must report
/// the same digest this driver last printed.
pub fn wal_drive<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    use igern_server::Client;

    let addr = args.require("addr")?;
    let objects: u32 = args.num("objects", 32u32)?;
    let subs: u32 = args.num("subs", 4u32)?;
    let ticks: u64 = args.num("ticks", 30u64)?;
    let seed: u64 = args.num("seed", 1u64)?;
    let side: f64 = args.num("space", 1.0f64)?;
    let grid = grid_arg(args, 16)?;
    if objects == 0 || subs == 0 || ticks == 0 {
        return Err(CliError(
            "--objects, --subs, and --ticks must be at least 1".to_string(),
        ));
    }
    let subs = subs.min(objects);

    // The offline mirror: same space/grid as the server, one worker
    // (the worker count never changes answers).
    let space = Aabb::from_coords(0.0, 0.0, side, side);
    let store = SpatialStore::new(space, grid, Vec::new());
    let mut mirror = TickRunner::new(store, 1, Placement::RoundRobin);

    // The serve banner races the first connect; retry briefly.
    let mut client = None;
    for _ in 0..250 {
        match Client::connect(addr) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let mut client =
        client.ok_or_else(|| CliError(format!("no server came up on {addr} within 5s")))?;

    let mut rng = igern_mobgen::rng::Rng64::seed_from_u64(seed);
    let place = |rng: &mut igern_mobgen::rng::Rng64| Point::new(rng.f64() * side, rng.f64() * side);
    for id in 0..objects {
        let p = place(&mut rng);
        client
            .upsert(id, ObjectKind::A, p.x, p.y)
            .map_err(|e| CliError(e.to_string()))?;
        mirror.insert_object(ObjectId(id), ObjectKind::A, p);
    }
    let mut tracked: Vec<(u32, igern_wal::SubSpec, usize)> = Vec::new();
    for i in 0..subs {
        let anchor = i * objects / subs;
        let algo = if i % 2 == 0 {
            Algorithm::IgernMono
        } else {
            Algorithm::Knn(2)
        };
        let sid = client
            .subscribe(anchor, algo)
            .map_err(|e| CliError(e.to_string()))?;
        let handle = mirror
            .add_query(ObjectId(anchor), algo)
            .map_err(|e| CliError(e.to_string()))?;
        tracked.push((
            sid,
            igern_wal::SubSpec {
                sid,
                anchor,
                algo,
                mode: igern_core::DistanceMode::Euclidean,
            },
            handle,
        ));
    }
    mirror.evaluate_all();

    let mut last = 0u64;
    for _ in 0..ticks {
        let mut moved: Vec<(ObjectId, Point)> = Vec::new();
        for id in 0..objects {
            if rng.next_u64().is_multiple_of(3) {
                let p = place(&mut rng);
                client
                    .upsert(id, ObjectKind::A, p.x, p.y)
                    .map_err(|e| CliError(e.to_string()))?;
                moved.push((ObjectId(id), p));
            }
        }
        client.step().map_err(|e| CliError(e.to_string()))?;
        let (tick, _) = client
            .wait_tick_end(last + 1, Duration::from_secs(10))
            .map_err(|e| CliError(e.to_string()))?;
        last = tick;
        mirror.step(&moved);
        for &(sid, _, handle) in &tracked {
            let served = client.answer(sid);
            let local: Vec<u32> = mirror.answer(handle).iter().map(|o| o.0).collect();
            if served != local {
                return Err(CliError(format!(
                    "tick {tick}: sub {sid} diverged from the offline mirror: \
                     served {served:?}, mirror {local:?}"
                )));
            }
        }
        let specs: Vec<igern_wal::SubSpec> = tracked.iter().map(|&(_, s, _)| s).collect();
        let digest = igern_wal::state_digest(tick, &specs, |s| {
            let &(_, _, handle) = tracked
                .iter()
                .find(|(sid, _, _)| *sid == s.sid)
                .expect("spec came from tracked");
            mirror.answer(handle)
        });
        writeln!(out, "tick {tick} digest {digest:016x}")?;
        out.flush()?;
    }
    writeln!(
        out,
        "drove {ticks} ticks to tick {last}; all answers matched the mirror"
    )?;
    out.flush()?;
    // Disconnecting drops our subscriptions server-side (and logs the
    // drops), which would change the durable state. For the crash
    // smoke, hold the connection open so the kill lands while the
    // subscriptions are still live.
    let hold_ms: u64 = args.num("hold-ms", 0u64)?;
    if hold_ms > 0 {
        std::thread::sleep(Duration::from_millis(hold_ms));
    }
    if bool_arg(args, "shutdown", false)? {
        client
            .shutdown_server()
            .map_err(|e| CliError(e.to_string()))?;
    }
    Ok(())
}

/// Parse a `true|false` flag with a default.
fn bool_arg(args: &Args, name: &str, default: bool) -> Result<bool, CliError> {
    match args.get(name) {
        None => Ok(default),
        Some("true") => Ok(true),
        Some("false") => Ok(false),
        Some(v) => Err(CliError(format!(
            "bad value for --{name}: {v:?} (true|false)"
        ))),
    }
}

/// `sim`: run the deterministic fault-injection harness (DESIGN.md
/// §13) — one seed drives every backend through a faulted schedule
/// with every tick oracle-checked. A healthy build prints a digest
/// (identical across runs of the same seed); a failing one gets its
/// schedule delta-debugged down and written as a self-contained
/// `.simreplay` file that `igern sim --replay FILE` re-executes.
pub fn sim_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let (plan, label) = match args.get("replay") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let plan =
                igern_sim::load_replay(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
            (plan, format!("replay {path}"))
        }
        None => {
            let cfg = igern_sim::SimConfig {
                seed: args.num("seed", 1u64)?,
                ticks: args.num("ticks", 100u64)?,
                objects: args.num("objects", 48usize)?,
                grid: grid_arg(args, 16)?,
                queries: args.num("queries", 8usize)?,
                workers: args.num("workers", 4usize)?,
                faults: bool_arg(args, "faults", true)?,
                server: bool_arg(args, "server", true)?,
                durable: bool_arg(args, "durable", false)?,
                network: distance_arg(args)? == DistanceMode::Network,
                ..igern_sim::SimConfig::default()
            };
            if cfg.durable && !(cfg.server && cfg.faults) {
                return Err(CliError(
                    "--durable true needs --server true and --faults true \
                     (the crash fault targets the served backend)"
                        .to_string(),
                ));
            }
            if cfg.ticks == 0 || cfg.objects == 0 || cfg.workers == 0 {
                return Err(CliError(
                    "--ticks, --objects, and --workers must be at least 1".to_string(),
                ));
            }
            let label = format!("seed {}", cfg.seed);
            (cfg.plan(), label)
        }
    };
    writeln!(
        out,
        "sim {label}: {} objects, {} ticks, {} events, {} workers, server {}{}{}",
        plan.initial.len(),
        plan.ticks,
        plan.events.len(),
        plan.workers,
        if plan.server { "on" } else { "off" },
        if plan.durable { " (durable)" } else { "" },
        if plan.network {
            " (network distance)"
        } else {
            ""
        },
    )?;
    match igern_sim::execute(&plan, None) {
        Ok(report) => {
            let c = &report.counters;
            writeln!(
                out,
                "PASS: {} ticks, digest {:016x}",
                report.ticks, report.digest
            )?;
            writeln!(
                out,
                "  events applied {} (skipped {}): {} moves, {} inserts, {} removes, \
                 {} queries added, {} removed",
                c.events_applied,
                c.events_skipped,
                c.moves,
                c.inserts,
                c.removes,
                c.queries_added,
                c.queries_removed,
            )?;
            writeln!(
                out,
                "  faults: {} desyncs, {} worker stalls, {} frame faults, {} client stalls, \
                 {} kill-restarts",
                c.desyncs, c.worker_stalls, c.frame_faults, c.client_stalls, c.kill_restarts,
            )?;
            // Victim-connection liveness is deliberately not printed:
            // it races real connection teardown and is excluded from
            // the determinism contract, while this output is diffed
            // across runs (CI) to prove bit-identical behavior.
            writeln!(
                out,
                "  {} answer checks, final population {}",
                c.answer_checks, c.final_population,
            )?;
            Ok(())
        }
        Err(failure) => {
            writeln!(out, "FAIL: {failure}")?;
            let budget: u32 = args.num("shrink", 500u32)?;
            let minimal = if budget > 0 {
                let (min, min_failure, stats) =
                    igern_sim::minimize(&plan, &failure, budget, |p| igern_sim::execute(p, None));
                writeln!(
                    out,
                    "shrunk {} -> {} events, {} ticks in {} executions; minimal: {min_failure}",
                    stats.from_events, stats.to_events, stats.to_ticks, stats.executions,
                )?;
                min
            } else {
                plan
            };
            let path = args.get("replay-out").unwrap_or("failure.simreplay");
            std::fs::write(path, igern_sim::write_replay(&minimal))?;
            writeln!(out, "wrote replay -> {path}")?;
            Err(CliError(format!("simulation failed: {failure}")))
        }
    }
}

/// Dump the registry to `path`; `.json` selects the JSON exporter,
/// anything else the Prometheus text format.
fn dump_registry(registry: &MetricsRegistry, path: &str) -> Result<(), CliError> {
    let text = if path.ends_with(".json") {
        registry.render_json()
    } else {
        registry.render_prometheus()
    };
    std::fs::write(path, text)?;
    Ok(())
}

/// One row of the `stats` table.
struct StatRow {
    name: String,
    kind: &'static str,
    value: String,
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

fn fmt_label_suffix(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// Summarize a Prometheus text dump. Validates it with the in-repo lint
/// first, so a malformed export is an error, not garbled output.
fn summarize_prom(text: &str) -> Result<Vec<StatRow>, CliError> {
    let report =
        promtext::lint(text).map_err(|e| CliError(format!("invalid metrics file: {e}")))?;
    let mut rows = Vec::new();
    for s in &report.parsed {
        match report.types.get(&s.name).map(String::as_str) {
            Some("counter") => rows.push(StatRow {
                name: format!("{}{}", s.name, fmt_label_suffix(&s.labels)),
                kind: "counter",
                value: fmt_num(s.value),
            }),
            Some("gauge") => rows.push(StatRow {
                name: format!("{}{}", s.name, fmt_label_suffix(&s.labels)),
                kind: "gauge",
                value: fmt_num(s.value),
            }),
            _ => {
                // Histogram series: fold each `_count` sample together
                // with its `_sum` sibling into one row.
                let Some(base) = s.name.strip_suffix("_count") else {
                    continue;
                };
                if report.types.get(base).map(String::as_str) != Some("histogram") {
                    continue;
                }
                let sum = report
                    .parsed
                    .iter()
                    .find(|o| o.name == format!("{base}_sum") && o.labels == s.labels)
                    .map_or(0.0, |o| o.value);
                let mean = if s.value > 0.0 { sum / s.value } else { 0.0 };
                rows.push(StatRow {
                    name: format!("{base}{}", fmt_label_suffix(&s.labels)),
                    kind: "histogram",
                    value: format!(
                        "count={} sum={} mean={}",
                        fmt_num(s.value),
                        fmt_num(sum),
                        fmt_num(mean)
                    ),
                });
            }
        }
    }
    Ok(rows)
}

/// Summarize a JSON dump produced by the JSON exporter.
fn summarize_json(text: &str) -> Result<Vec<StatRow>, CliError> {
    let doc = jsontext::parse(text).map_err(|e| CliError(format!("invalid metrics file: {e}")))?;
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_array())
        .ok_or_else(|| CliError("metrics file has no \"metrics\" array".to_string()))?;
    let mut rows = Vec::new();
    for m in metrics {
        let name = m
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| CliError("metric without a name".to_string()))?;
        let labels = match m.get("labels") {
            Some(jsontext::Value::Object(map)) => map
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                .collect(),
            _ => Vec::new(),
        };
        let name = format!("{name}{}", fmt_label_suffix(&labels));
        match m.get("type").and_then(|t| t.as_str()) {
            Some(kind @ ("counter" | "gauge")) => rows.push(StatRow {
                name,
                kind: if kind == "counter" {
                    "counter"
                } else {
                    "gauge"
                },
                value: m
                    .get("value")
                    .and_then(|v| v.as_f64())
                    .map_or("null".to_string(), fmt_num),
            }),
            Some("histogram") => {
                let count = m.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0);
                let sum = m.get("sum").and_then(|v| v.as_f64()).unwrap_or(0.0);
                let mean = if count > 0.0 { sum / count } else { 0.0 };
                rows.push(StatRow {
                    name,
                    kind: "histogram",
                    value: format!(
                        "count={} sum={} mean={}",
                        fmt_num(count),
                        fmt_num(sum),
                        fmt_num(mean)
                    ),
                });
            }
            other => {
                return Err(CliError(format!(
                    "metric {name} has unknown type {other:?}"
                )))
            }
        }
    }
    Ok(rows)
}

/// `stats`: validate a metrics dump written by `run --metrics-out` and
/// render it as a summary table. The validation pass doubles as the CI
/// smoke check for the exporters.
pub fn stats_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let path = args.require("metrics")?;
    let text = std::fs::read_to_string(path)?;
    let rows = if path.ends_with(".json") {
        summarize_json(&text)?
    } else {
        summarize_prom(&text)?
    };
    if rows.is_empty() {
        writeln!(out, "no metrics in {path}")?;
        return Ok(());
    }
    let name_w = rows.iter().map(|r| r.name.len()).max().unwrap_or(6).max(6);
    writeln!(out, "{:<name_w$}  {:<9}  VALUE", "METRIC", "TYPE")?;
    for r in &rows {
        writeln!(out, "{:<name_w$}  {:<9}  {}", r.name, r.kind, r.value)?;
    }
    writeln!(out, "{} series ok", rows.len())?;
    Ok(())
}

/// `render`: replay a trace and draw the IGERN alive region per tick.
pub fn render_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let trace = load_trace(args)?;
    let qi: usize = args.num("query", 0usize)?;
    if qi >= trace.num_objects() {
        return Err(CliError(format!("--query {qi} out of range")));
    }
    let ticks: usize = args.num("ticks", 3usize)?;
    let ticks = ticks.min(trace.num_ticks());
    let grid_n = grid_arg(args, 16)?;
    let mut g = Grid::new(trace.space(), grid_n);
    for (i, &p) in trace.initial().iter().enumerate() {
        g.insert(ObjectId(i as u32), p);
    }
    let q_id = ObjectId(qi as u32);
    let q_pos = |g: &Grid| {
        g.position(q_id)
            .ok_or_else(|| CliError(format!("query object {q_id} is not indexed by the grid")))
    };
    let (mut ops, mut scratch) = (OpCounters::new(), EvalScratch::default());
    let (q0, exact) = (q_pos(&g)?, PruneGranularity::Exact);
    let mut m = MonoIgern::initial(&g, q0, Some(q_id), 1, exact, &mut ops, &mut scratch);
    let mut player = trace.player();
    for t in 0..=ticks {
        if t > 0 {
            for u in player.advance().to_vec() {
                g.update(ObjectId(u.id), u.pos);
            }
            m.incremental(&g, q_pos(&g)?, &mut ops, &mut scratch);
        }
        writeln!(out, "tick {t}: rnn = {:?}", m.rnn())?;
        write!(
            out,
            "{}",
            render::render_region(&g, m.alive_cells(), q_pos(&g)?, &m.candidates())
        )?;
    }
    Ok(())
}

/// The flags each subcommand reads, space-separated; [`dispatch`]
/// refuses any other, so a typo or a retired flag fails loudly instead of
/// being ignored.
const KNOWN_FLAGS: &[(&str, &str)] = &[
    ("gen-network", "seed k out"),
    ("gen-trace", "objects ticks seed bi scenario out"),
    (
        "run",
        "trace algo queries ticks grid k routing workers placement history distance network \
         net-seed metrics-out metrics-every",
    ),
    (
        "serve",
        "addr workers tick-ms grid space trace bi slow-consumer queue placement io-threads \
         metrics-out wal-dir snapshot-every fsync segment-bytes distance network net-seed",
    ),
    ("render", "trace query ticks grid"),
    ("stats", "metrics"),
    (
        "sim",
        "seed ticks objects grid queries workers faults server durable distance shrink \
         replay-out replay",
    ),
    ("wal inspect", "dir"),
    (
        "wal drive",
        "addr objects subs ticks seed space grid hold-ms shutdown",
    ),
];

/// Dispatch a subcommand.
pub fn dispatch<W: Write>(cmd: &str, args: &Args, out: &mut W) -> Result<(), CliError> {
    if let Some(&(_, known)) = KNOWN_FLAGS.iter().find(|(c, _)| *c == cmd) {
        let known: Vec<&str> = known.split_whitespace().collect();
        if let Some((name, _)) = args
            .pairs
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            let known: Vec<String> = known.iter().map(|f| format!("--{f}")).collect();
            return Err(CliError(format!(
                "unknown flag --{name} for {cmd} (known: {})",
                known.join(" ")
            )));
        }
    }
    match cmd {
        "gen-network" => gen_network(args, out),
        "gen-trace" => gen_trace(args, out),
        "run" => run(args, out),
        "serve" => serve(args, out),
        "render" => render_cmd(args, out),
        "stats" => stats_cmd(args, out),
        "sim" => sim_cmd(args, out),
        "wal inspect" => wal_inspect(args, out),
        "wal drive" => wal_drive(args, out),
        "wal" | "wal " => Err(CliError(
            "wal needs a subcommand: wal inspect | wal drive".to_string(),
        )),
        other => Err(CliError(format!(
            "unknown command {other:?} (gen-network|gen-trace|run|serve|render|stats|sim|wal)"
        ))),
    }
}

/// Usage text for the binary.
pub const USAGE: &str = "\
igern — continuous reverse-nearest-neighbor monitoring (ICDE'07 reproduction)

USAGE: igern <command> [--flag value]...

COMMANDS:
  gen-network  --seed N --k N [--out FILE]
  gen-trace    --objects N --ticks N --seed N [--bi true] [--out FILE]
               [--scenario taxi-dispatch|geofenced-influence|hotspot-churn]
  run          --trace FILE [--algo igern|crnn|tpl|igern-bi|voronoi|igern-k|igern-bi-k|knn]
               [--queries N] [--ticks N] [--grid N] [--k N] [--routing on|off]
               [--workers N] [--placement round-robin|anchor-cell] [--history N]
               [--distance euclidean|network] [--network FILE] [--net-seed N]
               [--metrics-out FILE] [--metrics-every N]
  serve        [--addr HOST:PORT] [--workers N] [--tick-ms N] [--grid N]
               [--space SIDE] [--trace FILE] [--slow-consumer disconnect|coalesce]
               [--queue N] [--placement round-robin|anchor-cell]
               [--io-threads N] [--metrics-out FILE]
               [--wal-dir DIR] [--snapshot-every N] [--fsync always|tick|never]
               [--segment-bytes N]
               [--distance euclidean|network] [--network FILE] [--net-seed N]
  render       --trace FILE [--query N] [--ticks N] [--grid N]
  stats        --metrics FILE
  sim          [--seed N] [--ticks N] [--objects N] [--grid N] [--queries N]
               [--workers N] [--faults true|false] [--server true|false]
               [--durable true|false]
               [--distance euclidean|network] [--shrink BUDGET]
               [--replay-out FILE] | --replay FILE
  wal inspect  --dir DIR
  wal drive    --addr HOST:PORT [--objects N] [--subs N] [--ticks N] [--seed N]
               [--space SIDE] [--grid N] [--hold-ms N] [--shutdown true|false]

Every command rejects a flag it does not read.

`run --workers N` (default 1 = serial) evaluates queries on N sharded
worker threads; answers are identical to the serial run.
`--history N` caps per-query sample retention (summaries still cover
every tick).
`run --metrics-out FILE` records pipeline metrics and dumps them to FILE
(Prometheus text, or JSON when FILE ends in .json) at the end of the run
and — with `--metrics-every N` — every N ticks along the way. `stats`
validates such a dump and renders it as a table.

`serve` exposes the pipeline over TCP: clients stream object upserts,
subscribe continuous queries, and receive per-tick answer deltas (see
DESIGN.md §12 for the wire protocol). `--tick-ms 0` ticks only on
client STEP frames; the default is a 100ms timer. The server runs until
a client sends SHUTDOWN, then dumps metrics to `--metrics-out`.
All connections are multiplexed onto a fixed pool of event-loop
threads (`--io-threads N`, 0 = auto).

`sim` runs the deterministic fault-injection harness (DESIGN.md §13):
one seed generates a schedule of moves, churn, query turnover, and
faults, executes it on the serial, sharded, and served backends in
lockstep, and checks every query every tick against the brute-force
oracles. Same seed, same digest — byte-identical output across runs.
On failure the schedule is shrunk (`--shrink` caps re-executions) and
written to `--replay-out` (default failure.simreplay); `igern sim
--replay FILE` re-executes a replay file exactly. `sim --durable true`
runs the served backend over a write-ahead log and schedules
crash-kill/restart faults against it — recovered answers must stay
bit-identical to the oracle.

`--distance network` switches query evaluation to shortest-path
distance over a road graph: `run` and `serve` attach the network from
`--network FILE` (a `gen-network` save) or synthesize one over the data
space (`--net-seed`, default 7); `sim` derives it from the sim seed so
replay files stay self-contained. `gen-trace --scenario NAME` generates
a city-scale preset workload (taxi-dispatch, geofenced-influence,
hotspot-churn) instead of the plain network_mono/bi default.

`serve --wal-dir DIR` turns on durability (DESIGN.md §15): every
admitted mutation is write-ahead-logged, a compacted snapshot is taken
every `--snapshot-every` ticks (default 256), and a restart over the
same directory recovers the exact pre-crash state — the banner prints
the recovered tick and state digest. `wal inspect` reports the
snapshots and segments in a durability directory and dry-runs
recovery. `wal drive` streams a seeded workload at a served instance
while mirroring it into an in-process runner, failing on any answer
divergence and printing the per-tick state digest the server must
recover to after `kill -9` (`--hold-ms` keeps its subscriptions alive
while the kill lands; `--shutdown true` ends the run with a SHUTDOWN
frame, so a clean server exit is part of what the drive checks).
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn arg_parsing() {
        let a = args(&["--objects", "100", "--out", "x.txt"]);
        assert_eq!(a.get("objects"), Some("100"));
        assert_eq!(a.num("objects", 0usize).unwrap(), 100);
        assert_eq!(a.num("ticks", 7usize).unwrap(), 7);
        assert!(a.require("missing").is_err());
        assert!(Args::parse(["--dangling".to_string()]).is_err());
        assert!(Args::parse(["positional".to_string()]).is_err());
        assert!(a.num::<usize>("out", 0).is_err());
    }

    #[test]
    fn commands_reject_flags_they_do_not_read() {
        // The retired batch switch of each command, and a typo.
        for (cmd, flag, value) in [
            ("run", "batch", "on"),
            ("serve", "batch", "off"),
            ("sim", "batch", "true"),
            ("run", "wokers", "4"),
        ] {
            // Refused before the command runs: no trace, socket or sim.
            let a = args(&[&format!("--{flag}"), value]);
            let err = dispatch(cmd, &a, &mut Vec::new()).unwrap_err();
            let want = format!("unknown flag --{flag} for {cmd} (known: ");
            assert!(err.0.starts_with(&want), "{err}");
            assert!(err.0.contains(" --workers "), "{err}");
        }
    }

    #[test]
    fn gen_network_to_writer() {
        let a = args(&["--seed", "3", "--k", "4"]);
        let mut buf = Vec::new();
        gen_network(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("space "));
        assert!(text.contains("nodes 16"));
    }

    #[test]
    fn gen_trace_and_run_roundtrip() {
        let dir = std::env::temp_dir().join("igern_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace");
        let trace_path = trace_path.to_str().unwrap();
        let a = args(&[
            "--objects",
            "60",
            "--ticks",
            "8",
            "--seed",
            "5",
            "--out",
            trace_path,
        ]);
        let mut buf = Vec::new();
        gen_trace(&a, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("wrote trace"));

        for algo in ["igern", "crnn", "tpl", "igern-k", "knn"] {
            let a = args(&[
                "--trace",
                trace_path,
                "--algo",
                algo,
                "--queries",
                "2",
                "--ticks",
                "4",
            ]);
            let mut buf = Vec::new();
            run(&a, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            assert!(text.contains("tick 4:"), "{algo}: {text}");
            assert!(text.contains("ms/tick"), "{algo}");
        }
        // Bichromatic run.
        let a = args(&[
            "--trace",
            trace_path,
            "--algo",
            "igern-bi",
            "--queries",
            "1",
        ]);
        let mut buf = Vec::new();
        run(&a, &mut buf).unwrap();
    }

    #[test]
    fn igern_and_crnn_agree_via_cli() {
        let dir = std::env::temp_dir().join("igern_cli_agree");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace");
        let trace_path = trace_path.to_str().unwrap();
        let a = args(&[
            "--objects",
            "80",
            "--ticks",
            "6",
            "--seed",
            "9",
            "--out",
            trace_path,
        ]);
        gen_trace(&a, &mut Vec::new()).unwrap();
        let mut outs = Vec::new();
        for algo in ["igern", "crnn"] {
            let a = args(&["--trace", trace_path, "--algo", algo, "--queries", "3"]);
            let mut buf = Vec::new();
            run(&a, &mut buf).unwrap();
            // Keep only the per-tick answer lines (timings differ).
            let answers: String = String::from_utf8(buf)
                .unwrap()
                .lines()
                .filter(|l| l.starts_with("tick"))
                .collect::<Vec<_>>()
                .join("\n");
            outs.push(answers);
        }
        assert_eq!(outs[0], outs[1], "CLI answers must agree across algorithms");
    }

    #[test]
    fn routing_flag_changes_cost_not_answers() {
        let dir = std::env::temp_dir().join("igern_cli_routing");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace");
        let trace_path = trace_path.to_str().unwrap();
        let a = args(&[
            "--objects",
            "60",
            "--ticks",
            "6",
            "--seed",
            "11",
            "--out",
            trace_path,
        ]);
        gen_trace(&a, &mut Vec::new()).unwrap();
        let mut outs = Vec::new();
        for routing in ["on", "off"] {
            let a = args(&[
                "--trace",
                trace_path,
                "--algo",
                "igern",
                "--queries",
                "2",
                "--routing",
                routing,
            ]);
            let mut buf = Vec::new();
            run(&a, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            assert!(text.contains("skipped"), "summary reports skip counts");
            if routing == "off" {
                assert!(text.contains("skipped 0/"), "forced run never skips");
            }
            let answers: String = text
                .lines()
                .filter(|l| l.starts_with("tick"))
                .collect::<Vec<_>>()
                .join("\n");
            outs.push(answers);
        }
        assert_eq!(outs[0], outs[1], "routing must not change answers");
        let a = args(&["--trace", trace_path, "--routing", "sideways"]);
        assert!(run(&a, &mut Vec::new()).is_err());
    }

    #[test]
    fn sharded_run_matches_serial_answers() {
        let dir = std::env::temp_dir().join("igern_cli_workers");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace");
        let trace_path = trace_path.to_str().unwrap();
        let a = args(&[
            "--objects",
            "80",
            "--ticks",
            "6",
            "--seed",
            "13",
            "--out",
            trace_path,
        ]);
        gen_trace(&a, &mut Vec::new()).unwrap();
        let mut outs = Vec::new();
        for workers in ["1", "4"] {
            let a = args(&[
                "--trace",
                trace_path,
                "--algo",
                "igern",
                "--queries",
                "3",
                "--workers",
                workers,
            ]);
            let mut buf = Vec::new();
            run(&a, &mut buf).unwrap();
            // Timing lines differ; answers must not.
            let answers: String = String::from_utf8(buf)
                .unwrap()
                .lines()
                .filter(|l| l.starts_with("tick"))
                .collect::<Vec<_>>()
                .join("\n");
            outs.push(answers);
        }
        assert_eq!(outs[0], outs[1], "sharded run must match serial answers");

        // Placement flag is accepted; bad values are rejected.
        let a = args(&[
            "--trace",
            trace_path,
            "--workers",
            "2",
            "--placement",
            "anchor-cell",
        ]);
        run(&a, &mut Vec::new()).unwrap();
        let a = args(&["--trace", trace_path, "--placement", "zigzag"]);
        assert!(run(&a, &mut Vec::new()).is_err());
        let a = args(&["--trace", trace_path, "--workers", "0"]);
        assert!(run(&a, &mut Vec::new()).is_err());
    }

    #[test]
    fn history_cap_preserves_summary() {
        let dir = std::env::temp_dir().join("igern_cli_history");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace");
        let trace_path = trace_path.to_str().unwrap();
        let a = args(&[
            "--objects",
            "60",
            "--ticks",
            "8",
            "--seed",
            "3",
            "--out",
            trace_path,
        ]);
        gen_trace(&a, &mut Vec::new()).unwrap();
        let mut outs = Vec::new();
        for extra in [&[][..], &["--history", "2"][..]] {
            let mut list = vec!["--trace", trace_path, "--algo", "igern", "--queries", "2"];
            list.extend_from_slice(extra);
            let a = args(&list);
            let mut buf = Vec::new();
            run(&a, &mut buf).unwrap();
            // The summary folds every tick even when retention is capped;
            // strip timing numbers, keep the structural counts.
            let summary: String = String::from_utf8(buf)
                .unwrap()
                .lines()
                .filter(|l| l.starts_with("query"))
                .map(|l| l.split_once(" ms/tick").map_or(l, |(_, r)| r).to_string())
                .collect::<Vec<_>>()
                .join("\n");
            outs.push(summary);
        }
        assert_eq!(outs[0], outs[1], "capped history must not change summary");
        let a = args(&["--trace", trace_path, "--history", "0"]);
        assert!(run(&a, &mut Vec::new()).is_err());
    }

    #[test]
    fn metrics_dump_roundtrips_through_stats() {
        let dir = std::env::temp_dir().join("igern_cli_metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace");
        let trace_path = trace_path.to_str().unwrap();
        let a = args(&[
            "--objects",
            "60",
            "--ticks",
            "8",
            "--seed",
            "21",
            "--out",
            trace_path,
        ]);
        gen_trace(&a, &mut Vec::new()).unwrap();
        for (file, workers) in [("m.prom", "1"), ("m.json", "4")] {
            let metrics_path = dir.join(file);
            let metrics_path = metrics_path.to_str().unwrap();
            let a = args(&[
                "--trace",
                trace_path,
                "--algo",
                "igern",
                "--queries",
                "2",
                "--workers",
                workers,
                "--metrics-out",
                metrics_path,
                "--metrics-every",
                "4",
            ]);
            let mut buf = Vec::new();
            run(&a, &mut buf).unwrap();
            assert!(String::from_utf8(buf).unwrap().contains("wrote metrics"));
            // The dump validates and renders through `stats`.
            let a = args(&["--metrics", metrics_path]);
            let mut buf = Vec::new();
            stats_cmd(&a, &mut buf).unwrap();
            let table = String::from_utf8(buf).unwrap();
            assert!(table.contains("igern_pipeline_ticks_total"), "{table}");
            assert!(table.contains("counter"), "{table}");
            assert!(table.contains("series ok"), "{table}");
            // 9 rounds: the initial evaluation plus 8 stepped ticks.
            assert!(
                table
                    .lines()
                    .any(|l| l.starts_with("igern_pipeline_ticks_total") && l.ends_with('9')),
                "{table}"
            );
            if workers == "4" {
                assert!(table.contains("worker_tick_seconds"), "{table}");
                assert!(table.contains("worker=\"3\""), "{table}");
            }
        }
        // A corrupted dump is an error, not garbled output.
        let bad = dir.join("bad.prom");
        std::fs::write(&bad, "igern_ticks_total 4\n").unwrap();
        let a = args(&["--metrics", bad.to_str().unwrap()]);
        let err = stats_cmd(&a, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("invalid metrics file"), "{err}");
        // --metrics-every without a sink is rejected.
        let a = args(&["--trace", trace_path, "--metrics-every", "2"]);
        assert!(run(&a, &mut Vec::new()).is_err());
    }

    #[test]
    fn render_rejects_bad_query_id() {
        let dir = std::env::temp_dir().join("igern_cli_badid");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace");
        let trace_path = trace_path.to_str().unwrap();
        let a = args(&[
            "--objects",
            "20",
            "--ticks",
            "2",
            "--seed",
            "1",
            "--out",
            trace_path,
        ]);
        gen_trace(&a, &mut Vec::new()).unwrap();
        // Out-of-range query ids surface as errors, not panics.
        let a = args(&["--trace", trace_path, "--query", "999"]);
        let err = render_cmd(&a, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn render_draws_regions() {
        let dir = std::env::temp_dir().join("igern_cli_render");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace");
        let trace_path = trace_path.to_str().unwrap();
        let a = args(&[
            "--objects",
            "40",
            "--ticks",
            "4",
            "--seed",
            "2",
            "--out",
            trace_path,
        ]);
        gen_trace(&a, &mut Vec::new()).unwrap();
        let a = args(&[
            "--trace", trace_path, "--query", "0", "--ticks", "2", "--grid", "8",
        ]);
        let mut buf = Vec::new();
        render_cmd(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("tick 0"));
        assert_eq!(text.matches('Q').count(), 3, "one query marker per frame");
    }

    #[test]
    fn dispatch_rejects_unknown() {
        let a = Args::default();
        assert!(dispatch("nope", &a, &mut Vec::new()).is_err());
    }

    #[test]
    fn grid_and_k_zero_are_rejected() {
        let dir = std::env::temp_dir().join("igern_cli_validate");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace");
        let trace_path = trace_path.to_str().unwrap();
        let a = args(&[
            "--objects",
            "20",
            "--ticks",
            "2",
            "--seed",
            "1",
            "--out",
            trace_path,
        ]);
        gen_trace(&a, &mut Vec::new()).unwrap();
        for extra in [&["--grid", "0"][..], &["--k", "0"][..]] {
            let mut list = vec!["--trace", trace_path];
            list.extend_from_slice(extra);
            let err = run(&args(&list), &mut Vec::new()).unwrap_err();
            assert!(err.to_string().contains("at least 1"), "{err}");
        }
        let a = args(&["--trace", trace_path, "--grid", "0"]);
        assert!(render_cmd(&a, &mut Vec::new()).is_err());
        let a = args(&["--grid", "0"]);
        assert!(serve(&a, &mut Vec::new()).is_err());
    }

    #[test]
    fn serve_rejects_bad_flags() {
        for bad in [
            &["--workers", "0"][..],
            &["--space", "-3"][..],
            &["--space", "nan"][..],
            &["--slow-consumer", "shrug"][..],
            &["--placement", "zigzag"][..],
        ] {
            let err = serve(&args(bad), &mut Vec::new()).unwrap_err();
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn sim_runs_are_deterministic_and_flags_validate() {
        let list = [
            "--seed",
            "3",
            "--ticks",
            "20",
            "--objects",
            "16",
            "--queries",
            "4",
            "--workers",
            "2",
        ];
        let mut outs = Vec::new();
        for _ in 0..2 {
            let mut buf = Vec::new();
            sim_cmd(&args(&list), &mut buf).unwrap();
            outs.push(String::from_utf8(buf).unwrap());
        }
        assert!(outs[0].contains("PASS:"), "{}", outs[0]);
        assert!(outs[0].contains("digest "), "{}", outs[0]);
        assert_eq!(outs[0], outs[1], "same seed must print identical output");

        for bad in [
            &["--ticks", "0"][..],
            &["--objects", "0"][..],
            &["--workers", "0"][..],
            &["--grid", "0"][..],
            &["--faults", "shrug"][..],
            &["--server", "2"][..],
        ] {
            assert!(sim_cmd(&args(bad), &mut Vec::new()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sim_replay_file_reproduces_the_run() {
        let dir = std::env::temp_dir().join("igern_cli_sim_replay");
        std::fs::create_dir_all(&dir).unwrap();
        let replay_path = dir.join("healthy.simreplay");
        let replay_path = replay_path.to_str().unwrap();

        // Write a replay of a healthy offline plan by hand, then the
        // `--replay` path must execute it to the same digest as the
        // direct run.
        let cfg = igern_sim::SimConfig {
            seed: 4,
            ticks: 15,
            objects: 16,
            queries: 4,
            server: false,
            ..igern_sim::SimConfig::default()
        };
        let plan = cfg.plan();
        std::fs::write(replay_path, igern_sim::write_replay(&plan)).unwrap();
        let direct = igern_sim::execute(&plan, None).unwrap();

        let a = args(&["--replay", replay_path]);
        let mut buf = Vec::new();
        sim_cmd(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains(&format!("digest {:016x}", direct.digest)),
            "{text}"
        );

        // A corrupt replay file is an error, not a panic.
        std::fs::write(replay_path, "{\"format\":\"nope\"}").unwrap();
        let err = sim_cmd(&a, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains(replay_path), "{err}");
    }

    #[test]
    fn wal_flags_validate() {
        // Dependent flags without --wal-dir are rejected.
        for bad in [
            &["--snapshot-every", "8"][..],
            &["--fsync", "tick"][..],
            &["--segment-bytes", "4096"][..],
        ] {
            let err = serve(&args(bad), &mut Vec::new()).unwrap_err();
            assert!(err.to_string().contains("requires --wal-dir"), "{err}");
        }
        let a = args(&["--wal-dir", "/tmp/x", "--fsync", "sometimes"]);
        let err = wal_options_arg(&a).unwrap_err();
        assert!(err.to_string().contains("--fsync"), "{err}");
        let a = args(&[
            "--wal-dir",
            "/tmp/x",
            "--fsync",
            "never",
            "--snapshot-every",
            "9",
        ]);
        let opts = wal_options_arg(&a).unwrap().unwrap();
        assert_eq!(opts.fsync, igern_wal::FsyncPolicy::Never);
        assert_eq!(opts.snapshot_every, 9);

        // `wal` alone names its subcommands; unknown dirs error cleanly.
        let err = dispatch("wal", &Args::default(), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("wal inspect"), "{err}");
        let a = args(&["--dir", "/nonexistent-igern-wal"]);
        assert!(wal_inspect(&a, &mut Vec::new()).is_err());
        let a = args(&["--addr", "127.0.0.1:1", "--objects", "0"]);
        assert!(wal_drive(&a, &mut Vec::new()).is_err());
    }

    #[test]
    fn wal_drive_mirrors_a_durable_server_and_inspect_reads_the_dir() {
        let dir = std::env::temp_dir().join(format!("igern_cli_wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal_dir = dir.join("wal");
        let wal_dir_s = wal_dir.to_str().unwrap().to_string();
        let port = {
            let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let handle = {
            let addr = addr.clone();
            let wal_dir_s = wal_dir_s.clone();
            std::thread::spawn(move || {
                let a = args(&[
                    "--addr",
                    &addr,
                    "--tick-ms",
                    "0",
                    "--wal-dir",
                    &wal_dir_s,
                    "--snapshot-every",
                    "5",
                ]);
                let mut buf = Vec::new();
                serve(&a, &mut buf).unwrap();
                String::from_utf8(buf).unwrap()
            })
        };
        // Drive a seeded workload; the command itself asserts served
        // answers match its offline mirror every tick.
        let drive = [
            "--addr",
            &addr,
            "--objects",
            "24",
            "--subs",
            "3",
            "--ticks",
            "12",
            "--seed",
            "3",
        ];
        let mut buf = Vec::new();
        wal_drive(&args(&drive), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("tick 12 digest "), "{text}");
        assert!(text.contains("drove 12 ticks"), "{text}");

        // Inspect sees the periodic snapshot and live segments while
        // the server still runs.
        let a = args(&["--dir", &wal_dir_s]);
        let mut buf = Vec::new();
        wal_inspect(&a, &mut buf).unwrap();
        let inspect = String::from_utf8(buf).unwrap();
        assert!(inspect.contains("snapshot(s):"), "{inspect}");
        assert!(inspect.contains("segment(s):"), "{inspect}");
        assert!(inspect.contains("recovery: tick"), "{inspect}");
        assert!(inspect.contains("clean true"), "{inspect}");

        // A second drive lands on a server whose tick counter is
        // already at 12 (as a recovered one's is) and ends it.
        let a = args(&[&drive[..], &["--shutdown", "true"]].concat());
        let mut buf = Vec::new();
        wal_drive(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("drove 12 ticks to tick 24"), "{text}");
        let out = handle.join().expect("serve thread");
        assert!(out.contains("serving on"), "{out}");

        // Graceful shutdown reclaimed every segment; a dry-run
        // recovery over the clean snapshot replays nothing.
        assert!(igern_wal::segment_paths(&wal_dir).unwrap().is_empty());
        let a = args(&["--dir", &wal_dir_s]);
        let mut buf = Vec::new();
        wal_inspect(&a, &mut buf).unwrap();
        let inspect = String::from_utf8(buf).unwrap();
        assert!(inspect.contains("0 segment(s):"), "{inspect}");
        assert!(inspect.contains("clean true"), "{inspect}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_round_trips_a_client_session() {
        use igern_core::processor::Algorithm;
        use igern_server::Client;

        // Pick a free port, then serve on it from a thread. (The serve
        // API blocks until a client SHUTDOWN, as the binary does.)
        let port = {
            let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            probe.local_addr().unwrap().port()
        };
        let dir = std::env::temp_dir().join("igern_cli_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics_path = dir.join("serve.prom");
        let metrics_path = metrics_path.to_str().unwrap().to_string();
        let addr = format!("127.0.0.1:{port}");
        let handle = {
            let addr = addr.clone();
            let metrics_path = metrics_path.clone();
            std::thread::spawn(move || {
                let a = args(&[
                    "--addr",
                    &addr,
                    "--tick-ms",
                    "0",
                    "--space",
                    "10",
                    "--metrics-out",
                    &metrics_path,
                ]);
                let mut buf = Vec::new();
                serve(&a, &mut buf).unwrap();
                String::from_utf8(buf).unwrap()
            })
        };
        // The listener may not be up yet; retry the connect briefly.
        let mut client = None;
        for _ in 0..100 {
            match Client::connect(&*addr) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
        let mut client = client.expect("server never came up");
        client.upsert(0, ObjectKind::A, 1.0, 1.0).unwrap();
        client.upsert(1, ObjectKind::A, 2.0, 2.0).unwrap();
        client.upsert(2, ObjectKind::A, 8.0, 8.0).unwrap();
        let sid = client.subscribe(0, Algorithm::IgernMono).unwrap();
        client.step().unwrap();
        client
            .wait_tick_end(1, std::time::Duration::from_secs(30))
            .unwrap();
        assert_eq!(client.answer(sid), vec![1]);
        client.shutdown_server().unwrap();
        let out = handle.join().expect("serve thread");
        assert!(out.contains("serving on"), "{out}");
        assert!(out.contains("server stopped"), "{out}");
        // The metrics dump validates through `stats`.
        let a = args(&["--metrics", &metrics_path]);
        let mut buf = Vec::new();
        stats_cmd(&a, &mut buf).unwrap();
        let table = String::from_utf8(buf).unwrap();
        assert!(table.contains("igern_server_connections_total"), "{table}");
        assert!(table.contains("series ok"), "{table}");
    }

    #[test]
    fn network_distance_run_via_cli() {
        let dir = std::env::temp_dir().join("igern_cli_netdist");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace");
        let trace_path = trace_path.to_str().unwrap();
        let a = args(&[
            "--objects",
            "40",
            "--ticks",
            "5",
            "--seed",
            "17",
            "--out",
            trace_path,
        ]);
        gen_trace(&a, &mut Vec::new()).unwrap();

        // Synthesized network (--net-seed path).
        let a = args(&[
            "--trace",
            trace_path,
            "--algo",
            "igern",
            "--queries",
            "2",
            "--distance",
            "network",
        ]);
        let mut buf = Vec::new();
        run(&a, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("tick 5:"));

        // Loaded network (--network FILE path), saved by gen-network.
        // gen-network's default space is the unit square the mobgen
        // traces use, so the snap targets cover the trace space.
        let net_path = dir.join("n.net");
        let net_path = net_path.to_str().unwrap();
        let a = args(&["--seed", "3", "--k", "6", "--out", net_path]);
        gen_network(&a, &mut Vec::new()).unwrap();
        let a = args(&[
            "--trace",
            trace_path,
            "--distance",
            "network",
            "--network",
            net_path,
            "--queries",
            "2",
            "--ticks",
            "3",
        ]);
        let mut buf = Vec::new();
        run(&a, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("tick 3:"));

        // Network flags without --distance network are dangling.
        let a = args(&["--trace", trace_path, "--network", net_path]);
        let err = run(&a, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("--distance network"), "{err}");
        let a = args(&["--trace", trace_path, "--net-seed", "4"]);
        assert!(run(&a, &mut Vec::new()).is_err());
        // And bad mode names are rejected.
        let a = args(&["--trace", trace_path, "--distance", "manhattan"]);
        assert!(run(&a, &mut Vec::new()).is_err());
        // A corrupt network file surfaces the structured load error.
        let bad_path = dir.join("bad.net");
        std::fs::write(&bad_path, "space 0 0 1 1\nnodes 9\n").unwrap();
        let a = args(&[
            "--trace",
            trace_path,
            "--distance",
            "network",
            "--network",
            bad_path.to_str().unwrap(),
        ]);
        let err = run(&a, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("bad.net"), "{err}");
    }

    #[test]
    fn network_and_euclidean_runs_may_rank_differently() {
        // Smoke the semantic difference end to end: both modes run the
        // same trace and print well-formed answers; the summaries both
        // report timings (agreement of *answers* is covered by the
        // core/sim oracle suites, not string-diffed here because the
        // two metrics legitimately disagree).
        let dir = std::env::temp_dir().join("igern_cli_netvse");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.trace");
        let trace_path = trace_path.to_str().unwrap();
        let a = args(&[
            "--objects",
            "50",
            "--ticks",
            "4",
            "--seed",
            "23",
            "--out",
            trace_path,
        ]);
        gen_trace(&a, &mut Vec::new()).unwrap();
        for distance in ["euclidean", "network"] {
            let a = args(&[
                "--trace",
                trace_path,
                "--algo",
                "knn",
                "--k",
                "3",
                "--queries",
                "2",
                "--distance",
                distance,
            ]);
            let mut buf = Vec::new();
            run(&a, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            assert!(text.contains("tick 4:"), "{distance}: {text}");
            assert!(text.contains("ms/tick"), "{distance}");
        }
    }

    #[test]
    fn scenario_presets_generate_traces() {
        let dir = std::env::temp_dir().join("igern_cli_scenario");
        std::fs::create_dir_all(&dir).unwrap();
        for name in Scenario::NAMES {
            let trace_path = dir.join(format!("{name}.trace"));
            let trace_path = trace_path.to_str().unwrap();
            let a = args(&[
                "--objects",
                "60",
                "--ticks",
                "4",
                "--seed",
                "5",
                "--scenario",
                name,
                "--out",
                trace_path,
            ]);
            let mut buf = Vec::new();
            gen_trace(&a, &mut buf).unwrap();
            assert!(String::from_utf8(buf).unwrap().contains("wrote trace"));
            // The preset trace drives a run like any other.
            let a = args(&["--trace", trace_path, "--queries", "1", "--ticks", "2"]);
            run(&a, &mut Vec::new()).unwrap();
        }
        let a = args(&["--scenario", "nope"]);
        let err = gen_trace(&a, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("taxi-dispatch"), "{err}");
        let a = args(&["--scenario", "taxi-dispatch", "--bi", "true"]);
        assert!(gen_trace(&a, &mut Vec::new()).is_err());
    }

    #[test]
    fn sim_network_distance_via_cli() {
        let a = args(&[
            "--seed",
            "2",
            "--ticks",
            "12",
            "--objects",
            "16",
            "--queries",
            "4",
            "--workers",
            "2",
            "--distance",
            "network",
        ]);
        let mut buf = Vec::new();
        sim_cmd(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("(network distance)"), "{text}");
        assert!(text.contains("PASS"), "{text}");
    }
}
