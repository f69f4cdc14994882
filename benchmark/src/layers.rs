//! Layer replays: a workload's own inputs fed to one layer's public
//! functions in isolation, each under a `replay.*` span. These time a
//! layer without the rest of the tick around it; they run only in
//! `--trace 1` runs, after the timed loop.

use std::path::Path;
use std::time::Instant;

use crate::inputs;
use crate::report::RunResult;
use crate::stats::ratio;
use crate::sut::{
    k_nearest_into, nearest, recompute_alive_into, CellFeed, CellSet, Frame, FrameReader,
    NetScratch, NetworkSpace, ObjectId, ObjectKind, OpCounters, Point, PruneScratch, ReadOutcome,
    SpatialStore, WalOptions, WalWriter,
};
use crate::trace::Tracer;

/// Calls a replay makes at least, so that a workload with two dozen
/// anchors still times more than scheduler noise.
const MIN_CALLS: usize = 20_000;

fn passes_for(calls_per_pass: usize) -> usize {
    MIN_CALLS.div_ceil(calls_per_pass.max(1))
}

/// A store loaded like the workload's, owned by the benchmark.
pub struct Twin {
    store: SpatialStore,
}

impl Twin {
    pub fn load(kinds: &[ObjectKind], positions: &[Point]) -> Twin {
        let mut store = SpatialStore::new(inputs::space(), inputs::GRID, kinds.to_vec());
        store.load(positions);
        store.drain_dirty();
        Twin { store }
    }

    /// `grid.*`: ring searches from every query anchor on the loaded
    /// grid, and priming the anchors' cells into a shared-scan feed.
    pub fn grid(&self, res: &mut RunResult, tracer: &mut Tracer, anchors: &[(ObjectId, Point)]) {
        let grid = self.store.all();
        let passes = passes_for(anchors.len());
        let calls = (passes * anchors.len()) as f64;

        let mut ops = OpCounters::new();
        let ns = tracer.time("replay.grid_nn", || {
            for _ in 0..passes {
                for &(id, p) in anchors {
                    std::hint::black_box(nearest(grid, p, Some(id), &mut ops));
                }
            }
        });
        res.set("grid.nn_ns_per_call", ns / calls);
        res.set("grid.nn_cells_per_call", ops.cells_visited as f64 / calls);
        res.set(
            "grid.nn_objects_per_call",
            ops.objects_visited as f64 / calls,
        );

        let mut best = Vec::new();
        let ns = tracer.time("replay.grid_knn8", || {
            for _ in 0..passes {
                for &(id, p) in anchors {
                    k_nearest_into(grid, p, 8, Some(id), &mut ops, &mut best);
                    std::hint::black_box(&best);
                }
            }
        });
        res.set("grid.knn8_ns_per_call", ns / calls);

        let mut cells: Vec<usize> = anchors
            .iter()
            .map(|&(_, p)| grid.cell_of_point(p))
            .collect();
        cells.sort_unstable();
        cells.dedup();
        let passes = passes_for(cells.len());
        let mut feed = CellFeed::new();
        let ns = tracer.time("replay.feed_prime", || {
            for _ in 0..passes {
                feed.begin(grid.num_cells());
                for &c in &cells {
                    feed.prime(grid, c);
                }
                std::hint::black_box(feed.len());
            }
        });
        res.set(
            "grid.feed_prime_ns_per_cell",
            ns / (passes * cells.len()) as f64,
        );
    }

    /// `prune.*`: redraw the alive region at each anchor with its four
    /// nearest neighbours as bisector sites.
    pub fn prune(&self, res: &mut RunResult, tracer: &mut Tracer, anchors: &[(ObjectId, Point)]) {
        let grid = self.store.all();
        let mut ops = OpCounters::new();
        let mut best = Vec::new();
        let sites: Vec<Vec<Point>> = anchors
            .iter()
            .map(|&(id, p)| {
                k_nearest_into(grid, p, 4, Some(id), &mut ops, &mut best);
                best.iter().map(|n| n.pos).collect()
            })
            .collect();
        let passes = passes_for(anchors.len());
        let mut alive = CellSet::new(grid.num_cells());
        let mut scratch = PruneScratch::default();
        let ns = tracer.time("replay.prune", || {
            for _ in 0..passes {
                for (&(_, p), s) in anchors.iter().zip(&sites) {
                    recompute_alive_into(grid, p, s, &mut alive, &mut scratch);
                    std::hint::black_box(alive.count());
                }
            }
        });
        res.set(
            "prune.recompute_alive_us_per_call",
            ns / 1e3 / (passes * anchors.len()) as f64,
        );
    }

    /// `store.*`: the recorded ticks through `apply_batch`.
    pub fn apply(
        &mut self,
        res: &mut RunResult,
        tracer: &mut Tracer,
        ticks: &[Vec<(ObjectId, Point)>],
    ) {
        let changes_before = self.store.cell_changes();
        let mut ns = 0.0;
        let span = tracer.enter("replay.store_apply", 0);
        for ups in ticks {
            let t0 = Instant::now();
            self.store.apply_batch(ups);
            ns += t0.elapsed().as_nanos() as f64;
            self.store.drain_dirty();
        }
        tracer.exit(span);
        let updates: usize = ticks.iter().map(Vec::len).sum();
        res.set("store.apply_ns_per_update", ratio(ns, updates as f64));
        res.set(
            "store.cell_change_share",
            ratio(
                (self.store.cell_changes() - changes_before) as f64,
                updates as f64,
            ),
        );
    }
}

/// `net.*`: snapping, warm point-to-point distance, cold expansion.
pub fn netspace(res: &mut RunResult, tracer: &mut Tracer, ns: &NetworkSpace, positions: &[Point]) {
    let passes = passes_for(positions.len());
    let snap_ns = tracer.time("replay.net_snap", || {
        for _ in 0..passes {
            for &p in positions {
                std::hint::black_box(ns.snap(p));
            }
        }
    });
    res.set(
        "net.snap_ns_per_call",
        snap_ns / (passes * positions.len()) as f64,
    );

    let snapped: Vec<_> = positions.iter().map(|&p| ns.snap(p)).collect();
    let pairs = snapped.len().min(2_000);
    let mut scratch = NetScratch::default();
    let route = |scratch: &mut NetScratch| {
        for i in 0..pairs {
            let j = (i * 7 + 1) % snapped.len();
            std::hint::black_box(ns.dist(scratch, &snapped[i], &snapped[j]));
        }
    };
    route(&mut scratch); // fills the memo for every source node used
    let passes = passes_for(pairs);
    let dist_ns = tracer.time("replay.net_dist", || {
        for _ in 0..passes {
            route(&mut scratch);
        }
    });
    res.set(
        "net.dist_us_per_call_warm",
        dist_ns / 1e3 / (passes * pairs) as f64,
    );

    let nodes = ns.num_nodes().min(256);
    let mut cold = NetScratch::default();
    let expand_ns = tracer.time("replay.net_expand", || {
        for n in 0..nodes {
            std::hint::black_box(ns.node_dists(&mut cold, n).len());
        }
    });
    res.set("net.expand_us_per_node", expand_ns / 1e3 / nodes as f64);
    res.set("net.nodes", ns.num_nodes() as f64);
    res.set("net.edges", ns.num_edges() as f64);
}

/// `proto.decode_*`: one round's bytes through `FrameReader::poll`.
/// Returns the decoded frames (the WAL replay appends them).
pub fn proto_decode(res: &mut RunResult, tracer: &mut Tracer, round_bytes: &[u8]) -> Vec<Frame> {
    let decode = || {
        let mut reader = FrameReader::new(round_bytes);
        let mut frames = Vec::new();
        loop {
            match reader.poll().expect("the benchmark's own encoding decodes") {
                ReadOutcome::Frame(f) => frames.push(f),
                ReadOutcome::Eof => return frames,
                ReadOutcome::Idle | ReadOutcome::Skipped(_) => {}
            }
        }
    };
    let frames = decode();
    let passes = passes_for(frames.len()).max(3);
    let ns = tracer.time("replay.proto_decode", || {
        for _ in 0..passes {
            std::hint::black_box(decode().len());
        }
    });
    res.set(
        "proto.decode_ns_per_frame",
        ns / (passes * frames.len()) as f64,
    );
    frames
}

/// `proto.delta_encode_*`: re-encode the captured `TICK_DELTA`s.
pub fn proto_encode(res: &mut RunResult, tracer: &mut Tracer, deltas: &[Frame]) {
    let passes = passes_for(deltas.len());
    let ns = tracer.time("replay.proto_encode", || {
        for _ in 0..passes {
            for f in deltas {
                std::hint::black_box(f.encode());
            }
        }
    });
    res.set(
        "proto.delta_encode_ns_per_frame",
        ratio(ns, (passes * deltas.len()) as f64),
    );
}

/// `wal.append_*`, `wal.sync_*`, `wal.bytes_per_update`: the round's
/// frames through `WalWriter::append`, closed by `tick_boundary` (whose
/// fsync the default policy runs once per tick), `rounds` times over.
pub fn wal_append(
    res: &mut RunResult,
    tracer: &mut Tracer,
    dir: &Path,
    frames: &[Frame],
    updates_per_round: usize,
    rounds: usize,
) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    let mut wal = WalWriter::open(&WalOptions::new(dir))?;
    let (mut append_ns, mut sync_ns) = (0.0, 0.0);
    let span = tracer.enter("replay.wal_append", 0);
    for round in 0..rounds {
        let t0 = Instant::now();
        for f in frames {
            wal.append(f)?;
        }
        append_ns += t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        wal.tick_boundary(round as u64 + 1, 0)?;
        sync_ns += t0.elapsed().as_nanos() as f64;
    }
    tracer.exit(span);
    drop(wal);
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir)? {
        bytes += entry?.metadata()?.len();
    }
    std::fs::remove_dir_all(dir)?;
    res.set(
        "wal.append_ns_per_record",
        append_ns / (rounds * frames.len()) as f64,
    );
    res.set("wal.sync_us_per_tick", sync_ns / 1e3 / rounds as f64);
    res.set(
        "wal.bytes_per_update",
        bytes as f64 / (rounds * updates_per_round) as f64,
    );
    Ok(())
}
