//! The `serve` workload: the wire, durable.
//!
//! An in-process server on `127.0.0.1:0` with a write-ahead log on the
//! repository's own filesystem, one generator thread (this one) and two
//! TCP connections. A round is 20,000 random-walk moves, 100 removes,
//! 100 fresh-id inserts and a `STEP`, pre-encoded and sent in one write;
//! it is done when both connections have consumed that tick's
//! `TICK_END`. Closed loop, one round outstanding. Between rounds one
//! subscription is dropped and one added, ack awaited untimed, so the
//! new query's initial evaluation and snapshot delta land in the next
//! timed round.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::inputs::{self, GRID, SIDE};
use crate::layers;
use crate::offline::set_pipeline_counts;
use crate::oracle::Tally;
use crate::report::RunResult;
use crate::stats::{self, fold_answer, median, percentile, ratio, Rng, FNV_OFFSET};
use crate::sut::{
    self, state_digest, Algorithm, Client, DistanceMode, Event, Frame, MetricsRegistry, ObjectId,
    ObjectKind, Point, Server, SpatialStore, SubSpec, COUNT_BUCKETS, LATENCY_BUCKETS_S,
};
use crate::trace::Tracer;
use crate::RunPlan;

const SETUP_REPEATS: usize = 5;
const WARMUP_ROUNDS: usize = 20;
const RECOVERIES: usize = 5;
/// Untimed rounds a layer session runs first.
const LAYER_WARMUP_ROUNDS: usize = 5;
const WAIT: Duration = Duration::from_secs(60);
/// Random-walk step bound, each axis.
const WALK: f64 = 8.0;
/// Largest single write while populating.
const POPULATE_CHUNK: usize = 64 * 1024;
/// Wire size of one `UPSERT_OBJECT`.
const UPSERT_BYTES: usize = 26;
/// The server snapshots every this many ticks (`WalOptions::new`); a
/// run ends `LOG_TAIL_TICKS` past a snapshot so every recovery replays
/// the same ~900k-record tail.
const SNAPSHOT_EVERY: usize = 256;
const LOG_TAIL_TICKS: usize = 44;
/// Rounds per second of `--seconds`, sized on a 2-CPU container
/// (~23 ms per round).
const ROUNDS_PER_SECOND: f64 = 43.0;

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    objects: usize,
    subs: usize,
    moves: usize,
    churn: usize,
    /// Timed rounds (after the set-up tick and the warm-up rounds).
    rounds: usize,
}

impl Sizes {
    fn of(plan: &RunPlan) -> Sizes {
        if plan.quick {
            return Sizes {
                objects: 10_000,
                subs: 26,
                moves: 2_000,
                churn: 10,
                rounds: 30,
            };
        }
        // Total ticks = 1 (set-up) + warm-up + timed, and must end
        // LOG_TAIL_TICKS past a snapshot tick.
        let nominal = ROUNDS_PER_SECOND * plan.seconds / if plan.traced { 1.5 } else { 1.0 };
        let total = nominal + (1 + WARMUP_ROUNDS) as f64;
        let snapshots = ((total - LOG_TAIL_TICKS as f64) / SNAPSHOT_EVERY as f64)
            .round()
            .max(1.0) as usize;
        Sizes {
            objects: 100_000,
            subs: 256,
            moves: 20_000,
            churn: 100,
            rounds: snapshots * SNAPSHOT_EVERY + LOG_TAIL_TICKS - 1 - WARMUP_ROUNDS,
        }
    }

    fn updates_per_round(&self) -> usize {
        self.moves + 2 * self.churn
    }
}

fn kind_of(id: u32) -> ObjectKind {
    if id.is_multiple_of(2) {
        ObjectKind::A
    } else {
        ObjectKind::B
    }
}

/// The generator's mirror of the object population.
#[derive(Clone)]
struct Population {
    /// Position by id; `None` once removed.
    pos: Vec<Option<Point>>,
    /// Live ids, dense, for uniform choice.
    live: Vec<u32>,
    /// Index into `live` by id.
    slot: Vec<u32>,
    /// Subscriptions anchored at each id (an anchor is never removed).
    anchored: Vec<u16>,
}

impl Population {
    fn new(n: usize, rng: &mut Rng) -> Population {
        Population {
            pos: (0..n)
                .map(|_| Some(Point::new(rng.f64() * SIDE, rng.f64() * SIDE)))
                .collect(),
            live: (0..n as u32).collect(),
            slot: (0..n as u32).collect(),
            anchored: vec![0; n],
        }
    }

    fn random_live(&self, rng: &mut Rng) -> u32 {
        self.live[rng.below(self.live.len())]
    }

    /// A live kind-A object (every algorithm may anchor there).
    fn random_anchor(&self, rng: &mut Rng) -> u32 {
        loop {
            let id = self.random_live(rng);
            if kind_of(id) == ObjectKind::A {
                return id;
            }
        }
    }

    fn remove(&mut self, id: u32) {
        let at = self.slot[id as usize] as usize;
        let last = *self.live.last().expect("population never empties");
        self.live.swap_remove(at);
        if last != id {
            self.slot[last as usize] = at as u32;
        }
        self.pos[id as usize] = None;
    }

    fn insert(&mut self, p: Point) -> u32 {
        let id = self.pos.len() as u32;
        self.pos.push(Some(p));
        self.slot.push(self.live.len() as u32);
        self.live.push(id);
        self.anchored.push(0);
        id
    }

    /// Generate one round and append its wire bytes to `out`. `moves`
    /// receives the round's position updates (layer replays).
    fn round(
        &mut self,
        sizes: &Sizes,
        rng: &mut Rng,
        out: &mut Vec<u8>,
        mut moves: Option<&mut Vec<(ObjectId, Point)>>,
    ) {
        for _ in 0..sizes.moves {
            let id = self.random_live(rng);
            let p = self.pos[id as usize].expect("live ids have positions");
            let step =
                |v: f64, rng: &mut Rng| (v + (rng.f64() * 2.0 - 1.0) * WALK).clamp(0.0, SIDE);
            let p = Point::new(step(p.x, rng), step(p.y, rng));
            self.pos[id as usize] = Some(p);
            sut::push_upsert(out, id, kind_of(id), p.x, p.y);
            if let Some(m) = moves.as_deref_mut() {
                m.push((ObjectId(id), p));
            }
        }
        let mut removed = 0;
        while removed < sizes.churn {
            let id = self.random_live(rng);
            if self.anchored[id as usize] == 0 {
                self.remove(id);
                out.extend_from_slice(&Frame::RemoveObject { id }.encode());
                removed += 1;
            }
        }
        for _ in 0..sizes.churn {
            let p = Point::new(rng.f64() * SIDE, rng.f64() * SIDE);
            let id = self.insert(p);
            sut::push_upsert(out, id, kind_of(id), p.x, p.y);
        }
        out.extend_from_slice(&Frame::Step.encode());
    }
}

/// 40 % IgernMono, 40 % IgernBi, 20 % Knn(8).
fn algo_for(i: usize) -> Algorithm {
    match i % 5 {
        0 | 1 => Algorithm::IgernMono,
        2 | 3 => Algorithm::IgernBi,
        _ => Algorithm::Knn(8),
    }
}

#[derive(Debug, Clone, Copy)]
struct Sub {
    conn: usize,
    sid: u32,
    anchor: u32,
    algo: Algorithm,
}

/// What one round's pushes amounted to, summed over both connections.
#[derive(Default)]
struct Pushed {
    delta_frames: u64,
    delta_bytes: u64,
    /// `TICK_DELTA`s of the round, kept when `keep` is set.
    keep: bool,
    deltas: Vec<Frame>,
}

/// A booted server with its two connections and the generator state.
struct Session {
    server: Server,
    clients: [Client; 2],
    pop: Population,
    subs: VecDeque<Sub>,
    /// Subscriptions ever registered (picks the next one's algorithm).
    registered: usize,
    tick: u64,
    sizes: Sizes,
    rng: Rng,
    frames_sent: u64,
    tally: Tally,
    round_buf: Vec<u8>,
}

impl Session {
    /// Boot a server, populate it over the wire, register `subs`
    /// subscriptions and run the first tick. Returns the session and the
    /// seconds from `Server::start` to the first complete answer.
    fn boot(
        sizes: Sizes,
        pop: &Population,
        seed: u64,
        wal_dir: Option<&Path>,
        subs: usize,
    ) -> (Session, f64) {
        // Encoding the population is the generator's work, not set-up.
        let mut chunks: Vec<Vec<u8>> = vec![Vec::new()];
        for &id in &pop.live {
            let p = pop.pos[id as usize].expect("live");
            if chunks.last().expect("non-empty").len() + UPSERT_BYTES > POPULATE_CHUNK {
                chunks.push(Vec::new());
            }
            sut::push_upsert(
                chunks.last_mut().expect("non-empty"),
                id,
                kind_of(id),
                p.x,
                p.y,
            );
        }

        let t0 = Instant::now();
        let store = SpatialStore::new(inputs::space(), GRID, Vec::new());
        let cfg = sut::serve_config(inputs::space(), GRID, wal_dir);
        let server = Server::start(("127.0.0.1", 0), store, cfg).expect("server boots");
        let addr = server.local_addr();
        let connect = || Client::connect(addr).expect("client connects");
        let mut s = Session {
            server,
            clients: [connect(), connect()],
            pop: pop.clone(),
            subs: VecDeque::new(),
            registered: 0,
            tick: 0,
            sizes,
            rng: Rng::new(seed ^ 0x5e7e_5e7e),
            frames_sent: 0,
            tally: Tally::default(),
            round_buf: Vec::new(),
        };
        for chunk in &chunks {
            s.clients[0].send_raw(chunk).expect("populate");
        }
        s.frames_sent += pop.live.len() as u64;
        // PONG comes back behind the upserts on the same connection: all
        // of them are in the ingest queue before connection 1 subscribes.
        s.clients[0].ping(1).expect("populate barrier");
        for i in 0..subs {
            s.subscribe(i % 2);
        }
        s.step_only();
        (s, t0.elapsed().as_secs_f64())
    }

    fn subscribe(&mut self, conn: usize) {
        let anchor = self.pop.random_anchor(&mut self.rng);
        let algo = algo_for(self.registered);
        self.registered += 1;
        self.frames_sent += 1;
        match self.clients[conn].subscribe(anchor, algo) {
            Ok(sid) => {
                self.pop.anchored[anchor as usize] += 1;
                self.subs.push_back(Sub {
                    conn,
                    sid,
                    anchor,
                    algo,
                });
                self.tally.record(true, String::new);
            }
            Err(e) => self
                .tally
                .record(false, || format!("subscribe failed: {e}")),
        }
    }

    /// Drop the oldest subscription and add a new one on its connection.
    fn turnover(&mut self) {
        let Some(old) = self.subs.pop_front() else {
            return;
        };
        self.pop.anchored[old.anchor as usize] -= 1;
        self.frames_sent += 1;
        let sent = self.clients[old.conn].unsubscribe(old.sid);
        self.tally
            .record(sent.is_ok(), || "unsubscribe failed".to_string());
        self.subscribe(old.conn);
    }

    /// Consume connection `conn`'s pushes up to this tick's `TICK_END`
    /// (which the server sends only to connections holding a subscription).
    fn drain(&mut self, conn: usize, pushed: &mut Pushed) {
        if !self.subs.iter().any(|s| s.conn == conn) {
            return;
        }
        let deadline = Instant::now() + WAIT;
        loop {
            let remain = deadline.saturating_duration_since(Instant::now());
            match self.clients[conn].poll_event(remain) {
                Ok(Some(Event::TickEnd { tick, .. })) if tick >= self.tick => return,
                Ok(Some(Event::Delta {
                    tick,
                    stamp_nanos,
                    sid,
                    snapshot,
                    adds,
                    removes,
                })) => {
                    pushed.delta_frames += 1;
                    // [len][type] + tick, stamp, sid, flag, two counted id lists.
                    pushed.delta_bytes +=
                        5 + 8 + 8 + 4 + 1 + 8 + 4 * (adds.len() + removes.len()) as u64;
                    if pushed.keep {
                        pushed.deltas.push(Frame::TickDelta {
                            tick,
                            stamp_nanos,
                            sid,
                            snapshot,
                            adds,
                            removes,
                        });
                    }
                }
                Ok(Some(Event::Error { code, message })) => {
                    self.tally
                        .record(false, || format!("ERROR frame {code:?}: {message}"));
                }
                Ok(Some(_)) => {}
                Ok(None) => {
                    self.tally.record(false, || {
                        format!("tick {} timed out on connection {conn}", self.tick)
                    });
                    return;
                }
                Err(e) => {
                    self.tally
                        .record(false, || format!("connection {conn} failed: {e}"));
                    return;
                }
            }
        }
    }

    /// A bare `STEP` (the set-up tick).
    fn step_only(&mut self) {
        self.tick += 1;
        self.frames_sent += 1;
        self.clients[0]
            .send_raw(&Frame::Step.encode())
            .expect("step");
        let mut pushed = Pushed::default();
        self.drain(0, &mut pushed);
        self.drain(1, &mut pushed);
        self.tally.record(true, String::new);
    }

    /// Generate, encode, send and await one round. Returns the
    /// milliseconds from the first byte sent to the last `TICK_END`
    /// consumed, and the generator's milliseconds.
    fn round(
        &mut self,
        tracer: &mut Tracer,
        pushed: &mut Pushed,
        moves: Option<&mut Vec<(ObjectId, Point)>>,
    ) -> (f64, f64) {
        self.tick += 1;
        let tick = self.tick;
        let root = tracer.enter("round", tick);
        let span = tracer.enter("gen", tick);
        let t_gen = Instant::now();
        let mut buf = std::mem::take(&mut self.round_buf);
        buf.clear();
        self.pop.round(&self.sizes, &mut self.rng, &mut buf, moves);
        let gen_ms = t_gen.elapsed().as_secs_f64() * 1e3;
        tracer.exit(span);
        self.frames_sent += (self.sizes.updates_per_round() + 1) as u64;

        let t0 = Instant::now();
        let span = tracer.enter("send", tick);
        let sent = self.clients[0].send_raw(&buf);
        tracer.exit(span);
        self.tally
            .record(sent.is_ok(), || format!("round {tick}: send failed"));
        let span = tracer.enter("wait", tick);
        self.drain(0, pushed);
        tracer.exit(span);
        let span = tracer.enter("drain", tick);
        self.drain(1, pushed);
        tracer.exit(span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.exit(root);
        self.round_buf = buf;
        (ms, gen_ms)
    }

    /// Cells and objects the server's monitors have visited so far.
    fn work_done(&self) -> f64 {
        let reg = self.server.registry();
        let c = |name: &str| reg.counter(name).get() as f64;
        c("igern_pipeline_ops_cells_visited_total") + c("igern_pipeline_ops_objects_visited_total")
    }

    /// Server-side failure counters the run must leave at zero.
    fn server_failures(&self) -> (f64, f64) {
        let reg = self.server.registry();
        (
            reg.counter("igern_server_slow_consumer_events_total").get() as f64,
            reg.counter("igern_server_protocol_errors_total").get() as f64,
        )
    }

    fn specs(&self) -> Vec<SubSpec> {
        self.subs
            .iter()
            .map(|s| SubSpec {
                sid: s.sid,
                anchor: s.anchor,
                algo: s.algo,
                mode: DistanceMode::Euclidean,
            })
            .collect()
    }
}

/// The offline twin: a `TickRunner` loaded with the population the
/// admitted stream left behind (the generator's own mirror) and the live
/// subscriptions, evaluated from scratch. Answers are a function of the
/// store and the query set, so they must equal what the server reached
/// incrementally. Returns each live subscription's answer.
fn twin_answers(s: &Session) -> Vec<Vec<ObjectId>> {
    let mut store = SpatialStore::new(inputs::space(), GRID, Vec::new());
    for &id in &s.pop.live {
        let p = s.pop.pos[id as usize].expect("live");
        store.insert(ObjectId(id), kind_of(id), p);
    }
    let mut twin = sut::default_runner(store);
    let qids: Vec<usize> = s
        .subs
        .iter()
        .map(|sub| {
            twin.add_query_in(ObjectId(sub.anchor), sub.algo, DistanceMode::Euclidean)
                .expect("live subscriptions are valid queries")
        })
        .collect();
    twin.evaluate_all();
    qids.iter().map(|&q| twin.answer(q).to_vec()).collect()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

struct Recovered {
    ms: Vec<f64>,
    replayed_records: u64,
}

/// Start a server over `RECOVERIES` copies of the crashed log; each must
/// come back clean (bar a torn tail) at `tick` with `digest`.
fn recoveries(
    wal_dir: &Path,
    tick: u64,
    digest: u64,
    subs: usize,
    objects: usize,
    tally: &mut Tally,
) -> Recovered {
    let copies: Vec<PathBuf> = (0..RECOVERIES)
        .map(|i| wal_dir.with_extension(format!("copy{i}")))
        .collect();
    for c in &copies {
        copy_dir(wal_dir, c).expect("copy the crashed log");
    }
    let mut out = Recovered {
        ms: Vec::new(),
        replayed_records: 0,
    };
    for c in &copies {
        let store = SpatialStore::new(inputs::space(), GRID, Vec::new());
        let cfg = sut::serve_config(inputs::space(), GRID, Some(c));
        let t0 = Instant::now();
        let started = Server::start(("127.0.0.1", 0), store, cfg);
        out.ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match started {
            Ok(mut server) => {
                let verdict = match server.recovery() {
                    None => Err("nothing was recovered".to_string()),
                    Some(info) => {
                        out.replayed_records = info.report.replayed_records;
                        let r = &info.report;
                        let clean = r.skipped_snapshots == 0
                            && r.digest_mismatches == 0
                            && r.skipped_records == 0
                            && r.skipped_segments == 0
                            && r.lenient_skips == 0;
                        if !clean {
                            Err(format!("recovery was not clean: {r:?}"))
                        } else if (info.tick, info.subs, info.objects) != (tick, subs, objects) {
                            Err(format!(
                                "recovered tick/subs/objects {}/{}/{}, expected {tick}/{subs}/{objects}",
                                info.tick, info.subs, info.objects
                            ))
                        } else if info.digest != digest {
                            Err(format!(
                                "recovered digest {:016x}, the twin's is {digest:016x}",
                                info.digest
                            ))
                        } else {
                            Ok(())
                        }
                    }
                };
                tally.record(verdict.is_ok(), || verdict.unwrap_err());
                server.crash();
            }
            Err(e) => tally.record(false, || format!("recovery failed to start: {e}")),
        }
    }
    for c in &copies {
        let _ = std::fs::remove_dir_all(c);
    }
    out
}

/// Fresh log directory for this process under `benchmark/target/`.
fn wal_dir(tag: &str) -> PathBuf {
    let dir = crate::scratch_dir().join(format!("serve-wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The timed rounds of one session.
#[derive(Default)]
struct Rounds {
    /// `(tick, ms)` per round.
    ms: Vec<(u64, f64)>,
    gen_ms: f64,
    pushed: Pushed,
}

impl Rounds {
    fn all_ms(&self) -> Vec<f64> {
        self.ms.iter().map(|r| r.1).collect()
    }
}

pub fn run(plan: &RunPlan) -> RunResult {
    let sizes = Sizes::of(plan);
    let mut res = RunResult::for_plan(plan);
    let pop0 = Population::new(sizes.objects, &mut Rng::new(plan.seed ^ 0x0b1ec75));
    let mut tracer = Tracer::new();

    // ---- set-up: the first server runs the workload; the repeats that
    // make `setup_s` a median come after the timed rounds, so that the
    // peak memory read there is one serving process's own.
    let dir = wal_dir("main");
    let (mut s, first_setup_s) = Session::boot(sizes, &pop0, plan.seed, Some(&dir), sizes.subs);

    // ---- rounds -----------------------------------------------------------
    let mut warm = Pushed::default();
    for _ in 0..WARMUP_ROUNDS {
        s.round(&mut tracer, &mut warm, None);
        s.turnover();
    }
    let replay_rounds = (sizes.rounds / 8).clamp(5, 40);
    let mut recorded: Vec<Vec<(ObjectId, Point)>> = Vec::new();
    let mut rounds = Rounds::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let work_at_start = s.work_done();
    let mut work_at_half = 0.0;
    for i in 0..sizes.rounds {
        if i == sizes.rounds / 2 {
            work_at_half = s.work_done();
        }
        // A traced run spans every other round: drift cancels between
        // the two halves that `trace.overhead_share` compares.
        let span_on = plan.traced && i % 2 == 1;
        tracer.set_enabled(span_on);
        rounds.pushed.keep = plan.traced && i + 1 == sizes.rounds;
        let mut moves = (plan.traced && i < replay_rounds).then(Vec::new);
        let (ms, gen_ms) = s.round(&mut tracer, &mut rounds.pushed, moves.as_mut());
        rounds.ms.push((s.tick, ms));
        rounds.gen_ms += gen_ms;
        if span_on {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(ms);
        recorded.extend(moves);
        if i + 1 < sizes.rounds {
            s.turnover();
        }
    }
    tracer.set_enabled(false);
    let work_halves = (work_at_half - work_at_start, s.work_done() - work_at_half);
    let peak_rss_mb = stats::peak_rss_mb();
    let last_round_bytes = s.round_buf.clone();

    // ---- answers: clients vs the offline twin -----------------------------
    let twin = twin_answers(&s);
    let mut digest = FNV_OFFSET;
    for (sub, want) in s.subs.iter().zip(&twin) {
        let got = s.clients[sub.conn].answer(sub.sid);
        digest = fold_answer(digest, got.iter().copied());
        let same = got.iter().copied().eq(want.iter().map(|o| o.0));
        s.tally.record(same, || {
            format!(
                "sid {} ({:?} at {}): client and twin answers differ",
                sub.sid, sub.algo, sub.anchor
            )
        });
    }
    res.answer_digest = digest;
    let specs = s.specs();
    let expect_digest = state_digest(s.tick, &specs, |spec| {
        let i = specs
            .iter()
            .position(|x| x.sid == spec.sid)
            .expect("own spec");
        twin[i].as_slice()
    });

    // ---- what the server published ----------------------------------------
    let (slow, proto_errors) = s.server_failures();
    s.tally.failed += (slow + proto_errors) as u64;
    let ping_us: Vec<f64> = if plan.traced {
        (0..200)
            .map(|n| {
                let t0 = Instant::now();
                let ok = s.clients[0].ping(100 + n).is_ok();
                s.tally.record(ok, || "ping failed".to_string());
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    } else {
        Vec::new()
    };
    let published = Published::read(s.server.registry());
    if plan.traced {
        set_pipeline_counts(&mut res, s.server.registry(), "igern_pipeline", true);
    }

    // ---- crash, recover ------------------------------------------------------
    let (last_tick, live_subs, live_objects) = (s.tick, s.subs.len(), s.pop.live.len());
    let mut tally = std::mem::take(&mut s.tally);
    tally.attempted += s.frames_sent;
    let anchors: Vec<(ObjectId, Point)> = s
        .subs
        .iter()
        .filter(|sub| (sub.anchor as usize) < sizes.objects)
        .filter_map(|sub| pop0.pos[sub.anchor as usize].map(|p| (ObjectId(sub.anchor), p)))
        .collect();
    s.server.crash();
    drop(s);
    let rec = recoveries(
        &dir,
        last_tick,
        expect_digest,
        live_subs,
        live_objects,
        &mut tally,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let mut setups = vec![first_setup_s];
    if !plan.traced {
        for i in 1..SETUP_REPEATS {
            let dir = wal_dir(&format!("setup{i}"));
            let (mut again, secs) = Session::boot(sizes, &pop0, plan.seed, Some(&dir), sizes.subs);
            setups.push(secs);
            tally.absorb(std::mem::take(&mut again.tally));
            tally.attempted += again.frames_sent;
            again.server.crash();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // ---- metrics --------------------------------------------------------------
    let all_ms = rounds.all_ms();
    let p50 = median(&all_ms);
    let total_s: f64 = all_ms.iter().sum::<f64>() / 1e3;
    let gen_share = rounds.gen_ms / (total_s * 1e3);
    if plan.traced {
        let updates = sizes.updates_per_round() as f64;
        let n_rounds = all_ms.len() as f64;
        res.set("recovery_ms", median(&rec.ms));
        res.set("mobgen.gen_share", gen_share);
        res.set(
            "trace.overhead_share",
            median(&traced_ms) / median(&plain_ms) - 1.0,
        );
        res.set("server.round_ms_p95", percentile(&all_ms, 0.95));
        res.samples
            .insert("server.round_ms_p95".into(), all_ms.len() as u64);
        let snap: Vec<f64> = rounds
            .ms
            .iter()
            .filter(|r| r.0 % SNAPSHOT_EVERY as u64 == 0)
            .map(|r| r.1)
            .collect();
        res.set(
            "server.snapshot_round_extra_ms",
            if snap.is_empty() {
                0.0
            } else {
                median(&snap) - p50
            },
        );
        res.samples
            .insert("server.snapshot_round_extra_ms".into(), snap.len() as u64);
        res.set(
            "server.delta_frames_per_tick",
            rounds.pushed.delta_frames as f64 / n_rounds,
        );
        res.set(
            "server.delta_bytes_per_tick",
            rounds.pushed.delta_bytes as f64 / n_rounds,
        );
        res.set("server.ping_rtt_us_p50", median(&ping_us));
        res.set("server.tick_push_ms", published.tick_push_ms);
        res.set("reactor.events_per_wakeup", published.events_per_wakeup);
        res.set("reactor.short_write_resumes", published.short_write_resumes);
        res.set("server.slow_consumer_events", slow);
        res.set("server.protocol_errors", proto_errors);
        res.set("core.eval_ms_per_tick", published.eval_ms_per_tick);
        res.set(
            "proto.bytes_per_update",
            last_round_bytes.len() as f64 / updates,
        );
        res.set("wal.replayed_records", rec.replayed_records as f64);
        res.set(
            "wal.replay_records_per_s",
            rec.replayed_records as f64 / (median(&rec.ms) / 1e3),
        );

        // Layer runs: the same rounds against servers with less to do.
        let lite = layer_session(
            sizes,
            &pop0,
            plan.seed,
            replay_rounds,
            sizes.subs,
            &mut tally,
        );
        res.set("server.wal_off_round_ms_p50", median(&lite));
        let bare = layer_session(sizes, &pop0, plan.seed, replay_rounds, 1, &mut tally);
        let ingest_ns = bare.iter().sum::<f64>() * 1e6 / (bare.len() as f64 * updates);
        res.set("server.ingest_ns_per_update", ingest_ns);

        tracer.set_enabled(true);
        let frames = layers::proto_decode(&mut res, &mut tracer, &last_round_bytes);
        layers::proto_encode(&mut res, &mut tracer, &rounds.pushed.deltas);
        let replay_dir = wal_dir("replay");
        layers::wal_append(
            &mut res,
            &mut tracer,
            &replay_dir,
            &frames[..frames.len() - 1],
            sizes.updates_per_round(),
            replay_rounds,
        )
        .expect("wal replay");
        let kinds: Vec<ObjectKind> = (0..sizes.objects as u32).map(kind_of).collect();
        let start: Vec<Point> = pop0.pos.iter().map(|p| p.expect("initial")).collect();
        for tick in &mut recorded {
            tick.retain(|(id, _)| id.index() < sizes.objects);
        }
        let mut twin_store = layers::Twin::load(&kinds, &start);
        twin_store.grid(&mut res, &mut tracer, &anchors);
        twin_store.prune(&mut res, &mut tracer, &anchors);
        twin_store.apply(&mut res, &mut tracer, &recorded);

        // Attribution: per-round layer time from the replays and the
        // published evaluation time. The layers run on two threads that
        // overlap, so the residue is an indication, not a balance.
        let frames_per_round = updates + 1.0;
        let m = |k: &str| res.metrics[k];
        let attributed = (m("proto.decode_ns_per_frame") * frames_per_round
            + m("wal.append_ns_per_record") * frames_per_round
            + m("store.apply_ns_per_update") * updates
            + m("proto.delta_encode_ns_per_frame") * m("server.delta_frames_per_tick"))
            / 1e6
            + m("wal.sync_us_per_tick") / 1e3
            + published.eval_ms_per_tick;
        res.set("attr.unattributed_share", 1.0 - attributed / p50);
        if !plan.quick {
            let share = published.eval_ms_per_tick / p50;
            if share >= 0.30 {
                res.notes.push(format!(
                    "prediction failed: monitor evaluation is {:.0} % of the round (< 30 % expected)",
                    share * 100.0
                ));
            }
        }
        res.self_ms = tracer
            .self_ms()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        crate::write_trace_file(plan, &tracer);
    } else {
        res.set("setup_s", median(&setups));
        res.set("tick_ms_p50", p50);
        res.set(
            "updates_per_s",
            (all_ms.len() * sizes.updates_per_round()) as f64 / total_s,
        );
        res.set("recovery_ms", median(&rec.ms));
        res.set("peak_rss_mb", peak_rss_mb);
        res.samples.insert("setup_s".into(), setups.len() as u64);
        res.samples
            .insert("tick_ms_p50".into(), all_ms.len() as u64);
        res.samples
            .insert("recovery_ms".into(), rec.ms.len() as u64);
        res.judge_stationarity(work_halves, &all_ms);
    }
    res.finish(tally, gen_share);
    res
}

/// A WAL-less server fed the main session's first `rounds` rounds; returns
/// the round times in milliseconds.
fn layer_session(
    sizes: Sizes,
    pop0: &Population,
    seed: u64,
    rounds: usize,
    subs: usize,
    tally: &mut Tally,
) -> Vec<f64> {
    let (mut s, _) = Session::boot(sizes, pop0, seed, None, subs);
    let mut tracer = Tracer::new();
    let mut pushed = Pushed::default();
    let ms: Vec<f64> = (0..LAYER_WARMUP_ROUNDS + rounds)
        .map(|_| s.round(&mut tracer, &mut pushed, None).0)
        .skip(LAYER_WARMUP_ROUNDS)
        .collect();
    tally.absorb(std::mem::take(&mut s.tally));
    s.server.crash();
    ms
}

/// Values read from the server's registry.
struct Published {
    tick_push_ms: f64,
    events_per_wakeup: f64,
    short_write_resumes: f64,
    eval_ms_per_tick: f64,
}

impl Published {
    fn read(reg: &MetricsRegistry) -> Published {
        let hist = |name: &str, bounds: &[f64]| reg.histogram(name, bounds);
        let eval = hist("igern_pipeline_evaluate_seconds", &LATENCY_BUCKETS_S);
        Published {
            tick_push_ms: hist("igern_server_tick_push_seconds", &LATENCY_BUCKETS_S).mean() * 1e3,
            events_per_wakeup: hist("igern_server_reactor_events_per_wakeup", &COUNT_BUCKETS)
                .mean(),
            short_write_resumes: reg
                .counter("igern_server_reactor_short_write_resumptions_total")
                .get() as f64,
            eval_ms_per_tick: ratio(eval.sum() * 1e3, eval.count() as f64),
        }
    }
}
