//! Replay-on-boot: newest valid snapshot + segment tail → a rebuilt
//! [`TickRunner`] holding bit-identical answers.
//!
//! Recovery leans on the workspace's central determinism invariant
//! (routed evaluation ≡ forced evaluation ≡ brute force, fuzzed across
//! the equivalence suites): answers are a pure function of the store
//! and the standing-query set, so restoring those and re-evaluating
//! reconverges exactly — the log never needs to carry answers.
//!
//! Everything untrustworthy is skipped **and counted**, never
//! panicked on: invalid snapshots fall back to older ones, torn
//! segment tails are dropped, CRC-failed records are passed over, and
//! replay applies each surviving record leniently (an upsert of an
//! unknown id inserts, a remove of a missing id is a no-op) so that a
//! skipped record never wedges the records after it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use igern_core::types::DistanceMode;
use igern_core::{NetworkSpace, SpatialStore};
use igern_engine::{Placement, TickRunner};
use igern_geom::{Aabb, Point};
use igern_grid::ObjectId;
use igern_proto::Frame;

use crate::segment::{scan_segment, segment_paths};
use crate::snapshot::load_newest_snapshot;
use crate::{answer_digest, state_digest, SubSpec};

/// Per-query samples the recovered runner retains. Nothing in recovery
/// or serving reads raw samples back, and unbounded retention grows by
/// one `TickSample` per subscription per tick for the life of the
/// server. `History::stats` still folds every sample.
const HISTORY_SAMPLES: usize = 8;

/// One standing query restored by recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveredSub {
    /// Subscription id (stable across the crash).
    pub sid: u32,
    /// Anchor object.
    pub anchor: ObjectId,
    /// Query algorithm.
    pub algo: igern_core::processor::Algorithm,
    /// Distance mode the query evaluates under.
    pub mode: DistanceMode,
    /// Query index in the rebuilt runner.
    pub qid: usize,
}

/// Counters describing what recovery found and tolerated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Snapshot the state was seeded from, if any.
    pub snapshot: Option<PathBuf>,
    /// Newer snapshot candidates skipped as invalid.
    pub skipped_snapshots: u64,
    /// Per-sub answer digests that did not match after re-evaluation
    /// (0 unless the snapshot itself was silently damaged).
    pub digest_mismatches: u64,
    /// Log records replayed.
    pub replayed_records: u64,
    /// Tick boundaries replayed.
    pub replayed_ticks: u64,
    /// CRC/decode-failed records skipped inside segments.
    pub skipped_records: u64,
    /// Bytes dropped at torn segment tails.
    pub torn_tail_bytes: u64,
    /// Segments skipped wholesale (unreadable header).
    pub skipped_segments: u64,
    /// Records that decoded but could not apply (unknown remove,
    /// duplicate subscribe, out-of-space upsert, …).
    pub lenient_skips: u64,
}

impl RecoveryReport {
    /// Whether recovery saw any damage at all.
    pub fn clean(&self) -> bool {
        self.skipped_snapshots == 0
            && self.digest_mismatches == 0
            && self.skipped_records == 0
            && self.torn_tail_bytes == 0
            && self.skipped_segments == 0
            && self.lenient_skips == 0
    }
}

/// A rebuilt server state.
pub struct Recovered {
    /// Runner holding the restored store and queries, evaluated up to
    /// the last replayed tick boundary.
    pub runner: TickRunner,
    /// Standing queries, ascending by `sid`.
    pub subs: Vec<RecoveredSub>,
    /// Subscription-id allocator watermark (max seen + 1).
    pub next_sid: u32,
    /// Logical tick (snapshot tick + replayed boundaries).
    pub tick: u64,
    /// [`state_digest`] over the recovered answers at `tick`.
    pub digest: u64,
    /// Sequence number the next log append should use.
    pub next_seq: u64,
    /// What was tolerated along the way.
    pub report: RecoveryReport,
}

/// Rebuild state from `dir`. With no snapshot and no segments this
/// returns a fresh empty runner over `fallback_space`/`fallback_grid`
/// (the server's configured geometry); a snapshot's stored geometry
/// wins otherwise. `network` is the road network the serving store had
/// attached (if any): it is re-attached to the rebuilt store *before*
/// queries re-register, so recovered network-mode subscriptions keep
/// evaluating (without it they are counted as lenient skips).
pub fn recover(
    dir: &Path,
    workers: usize,
    placement: Placement,
    fallback_space: Aabb,
    fallback_grid: usize,
    network: Option<Arc<NetworkSpace>>,
) -> io::Result<Recovered> {
    let mut report = RecoveryReport::default();

    // 1. Seed from the newest valid snapshot, if any.
    let (found, skipped_snapshots) = load_newest_snapshot(dir)?;
    report.skipped_snapshots = skipped_snapshots;
    let (space, grid, snap) = match &found {
        Some((path, data)) => {
            report.snapshot = Some(path.clone());
            (data.space, data.grid, Some(data))
        }
        None => (fallback_space, fallback_grid, None),
    };
    let mut store = SpatialStore::new(space, grid, Vec::new());
    if let Some(ns) = network {
        store.set_network(ns);
    }
    if let Some(data) = snap {
        for &(id, kind, x, y) in &data.objects {
            store.insert(ObjectId(id), kind, Point::new(x, y));
        }
    }
    let mut runner = TickRunner::new(store, workers, placement);
    runner.set_history_capacity(Some(HISTORY_SAMPLES));
    let mut subs: Vec<RecoveredSub> = Vec::new();
    let mut next_sid = 1u32;
    let mut tick = 0u64;
    let mut covered_seq = 0u64;
    if let Some(data) = snap {
        next_sid = next_sid.max(data.next_sid);
        tick = data.tick;
        covered_seq = data.covered_seq;
        let mut entries = data.subs.clone();
        // Ascending sid keeps qid assignment deterministic regardless
        // of the order the snapshot listed them in.
        entries.sort_by_key(|s| s.sid);
        for entry in entries {
            match runner.add_query_in(ObjectId(entry.anchor), entry.algo, entry.mode) {
                Ok(qid) => {
                    subs.push(RecoveredSub {
                        sid: entry.sid,
                        anchor: ObjectId(entry.anchor),
                        algo: entry.algo,
                        mode: entry.mode,
                        qid,
                    });
                    next_sid = next_sid.max(entry.sid + 1);
                }
                Err(_) => report.lenient_skips += 1,
            }
        }
        // Re-derive every answer from the restored store, then check
        // them against the digests the live server recorded.
        runner.evaluate_all();
        for sub in &subs {
            let want = data
                .subs
                .iter()
                .find(|e| e.sid == sub.sid)
                .map(|e| e.answer_digest);
            if want != Some(answer_digest(runner.answer(sub.qid))) {
                report.digest_mismatches += 1;
            }
        }
    }

    // 2. Replay the segment tail in sequence order.
    let mut next_seq = covered_seq;
    for (_, path) in segment_paths(dir)? {
        let scan = match scan_segment(&path) {
            Ok(s) => s,
            Err(_) => {
                report.skipped_segments += 1;
                continue;
            }
        };
        report.skipped_records += scan.skipped_records;
        report.torn_tail_bytes += scan.torn_tail_bytes;
        next_seq = next_seq.max(scan.end_seq);
        for rec in &scan.records {
            if rec.seq < covered_seq {
                continue; // already reflected in the snapshot
            }
            report.replayed_records += 1;
            apply_record(
                &rec.frame,
                &mut runner,
                &mut subs,
                &mut next_sid,
                &mut tick,
                &mut report,
            );
        }
    }

    subs.sort_by_key(|s| s.sid);
    let specs: Vec<SubSpec> = subs
        .iter()
        .map(|s| SubSpec {
            sid: s.sid,
            anchor: s.anchor.0,
            algo: s.algo,
            mode: s.mode,
        })
        .collect();
    let digest = state_digest(tick, &specs, |spec| {
        let sub = subs.iter().find(|s| s.sid == spec.sid).unwrap();
        runner.answer(sub.qid)
    });
    Ok(Recovered {
        runner,
        subs,
        next_sid,
        tick,
        digest,
        next_seq,
        report,
    })
}

/// Apply one replayed record leniently. The log only ever holds
/// *admitted* operations, so failures here mean earlier records were
/// corrupted away — each failure is counted, none aborts replay.
fn apply_record(
    frame: &Frame,
    runner: &mut TickRunner,
    subs: &mut Vec<RecoveredSub>,
    next_sid: &mut u32,
    tick: &mut u64,
    report: &mut RecoveryReport,
) {
    match frame {
        Frame::UpsertObject { id, kind, x, y } => {
            let p = Point::new(*x, *y);
            if !runner.store().space().contains(p) {
                report.lenient_skips += 1;
                return;
            }
            let oid = ObjectId(*id);
            match runner.store().position(oid) {
                Some(_) => {
                    if runner.store().kind(oid) == *kind {
                        runner.apply_update(oid, p);
                    } else {
                        report.lenient_skips += 1;
                    }
                }
                None => runner.insert_object(oid, *kind, p),
            }
        }
        Frame::RemoveObject { id } => {
            let oid = ObjectId(*id);
            // An anchored or unknown object cannot be removed (the live
            // server rejects both before admission).
            if subs.iter().any(|s| s.anchor == oid) || runner.store().position(oid).is_none() {
                report.lenient_skips += 1;
                return;
            }
            runner.remove_object(oid);
        }
        Frame::Subscribe {
            token,
            anchor,
            algo,
            mode,
        } => {
            // The tick thread logs the assigned sid in the token field.
            let sid = *token;
            if subs.iter().any(|s| s.sid == sid) {
                report.lenient_skips += 1;
                return;
            }
            match runner.add_query_in(ObjectId(*anchor), *algo, *mode) {
                Ok(qid) => {
                    subs.push(RecoveredSub {
                        sid,
                        anchor: ObjectId(*anchor),
                        algo: *algo,
                        mode: *mode,
                        qid,
                    });
                    *next_sid = (*next_sid).max(sid + 1);
                }
                Err(_) => report.lenient_skips += 1,
            }
        }
        Frame::Unsubscribe { sid } => match subs.iter().position(|s| s.sid == *sid) {
            Some(i) => {
                let sub = subs.remove(i);
                runner.remove_query(sub.qid);
            }
            None => report.lenient_skips += 1,
        },
        Frame::TickEnd { tick: t, .. } => {
            // Mutations were already applied on arrival (exactly like
            // the live tick thread); the boundary just evaluates.
            runner.step(&[]);
            *tick = *t;
            report.replayed_ticks += 1;
        }
        // No other frame type is ever appended; seeing one means a
        // record's bytes decayed into a different valid frame.
        _ => report.lenient_skips += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::WalWriter;
    use crate::snapshot::{write_snapshot, SnapshotData, SubEntry};
    use crate::WalOptions;
    use igern_core::processor::Algorithm;
    use igern_core::types::ObjectKind;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("igern-wal-rec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn space() -> Aabb {
        Aabb::from_coords(0.0, 0.0, 100.0, 100.0)
    }

    fn upsert(id: u32, x: f64, y: f64) -> Frame {
        Frame::UpsertObject {
            id,
            kind: ObjectKind::A,
            x,
            y,
        }
    }

    #[test]
    fn empty_dir_recovers_fresh() {
        let dir = tmp_dir("fresh");
        let r = recover(&dir, 1, Placement::RoundRobin, space(), 8, None).unwrap();
        assert_eq!(r.tick, 0);
        assert_eq!(r.next_sid, 1);
        assert_eq!(r.next_seq, 0);
        assert!(r.subs.is_empty());
        assert_eq!(r.runner.store().len(), 0);
        assert!(r.report.clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Build state by live calls, log the same ops, recover, compare.
    #[test]
    fn log_only_replay_matches_live_runner() {
        let dir = tmp_dir("log-only");
        let mut w = WalWriter::open(&WalOptions::new(&dir)).unwrap();
        let mut live = TickRunner::new(
            SpatialStore::new(space(), 8, Vec::new()),
            1,
            Placement::RoundRobin,
        );
        let mut rng = igern_mobgen::rng::Rng64::seed_from_u64(7);
        for id in 0..30u32 {
            let (x, y) = (rng.f64() * 100.0, rng.f64() * 100.0);
            let kind = if id % 3 == 0 {
                ObjectKind::B
            } else {
                ObjectKind::A
            };
            live.insert_object(ObjectId(id), kind, Point::new(x, y));
            w.append(&Frame::UpsertObject { id, kind, x, y }).unwrap();
        }
        let q0 = live.add_query(ObjectId(1), Algorithm::IgernMono).unwrap();
        w.append(&Frame::Subscribe {
            token: 1,
            anchor: 1,
            algo: Algorithm::IgernMono,
            mode: DistanceMode::Euclidean,
        })
        .unwrap();
        let q1 = live.add_query(ObjectId(2), Algorithm::Knn(3)).unwrap();
        w.append(&Frame::Subscribe {
            token: 2,
            anchor: 2,
            algo: Algorithm::Knn(3),
            mode: DistanceMode::Euclidean,
        })
        .unwrap();
        for t in 1..=5u64 {
            for _ in 0..10 {
                let id = rng.gen_range(0..30) as u32;
                let (x, y) = (rng.f64() * 100.0, rng.f64() * 100.0);
                if live.store().position(ObjectId(id)).is_some()
                    && live.store().kind(ObjectId(id)) == ObjectKind::A
                {
                    live.apply_update(ObjectId(id), Point::new(x, y));
                    w.append(&upsert(id, x, y)).unwrap();
                }
            }
            live.step(&[]);
            w.tick_boundary(t, 0).unwrap();
        }
        drop(w);
        let r = recover(&dir, 1, Placement::RoundRobin, space(), 8, None).unwrap();
        assert!(r.report.clean(), "{:?}", r.report);
        assert_eq!(r.tick, 5);
        assert_eq!(r.subs.len(), 2);
        assert_eq!(r.next_sid, 3);
        assert_eq!(r.runner.store().len(), live.store().len());
        assert_eq!(r.runner.answer(r.subs[0].qid), live.answer(q0));
        assert_eq!(r.runner.answer(r.subs[1].qid), live.answer(q1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Snapshot + tail replay equals pure-log replay (same digest).
    #[test]
    fn snapshot_plus_tail_matches_full_log() {
        let dir_full = tmp_dir("full");
        let dir_snap = tmp_dir("snapped");
        let opts_full = WalOptions::new(&dir_full);
        let opts_snap = WalOptions::new(&dir_snap);
        let mut wf = WalWriter::open(&opts_full).unwrap();
        let mut ws = WalWriter::open(&opts_snap).unwrap();
        let mut rng = igern_mobgen::rng::Rng64::seed_from_u64(11);
        fn log_both(wf: &mut WalWriter, ws: &mut WalWriter, f: &Frame) {
            wf.append(f).unwrap();
            ws.append(f).unwrap();
        }
        for id in 0..20u32 {
            let (x, y) = (rng.f64() * 100.0, rng.f64() * 100.0);
            log_both(&mut wf, &mut ws, &upsert(id, x, y));
        }
        log_both(
            &mut wf,
            &mut ws,
            &Frame::Subscribe {
                token: 1,
                anchor: 3,
                algo: Algorithm::IgernMono,
                mode: DistanceMode::Euclidean,
            },
        );
        for t in 1..=3u64 {
            for _ in 0..5 {
                let id = rng.gen_range(0..20) as u32;
                let (x, y) = (rng.f64() * 100.0, rng.f64() * 100.0);
                log_both(&mut wf, &mut ws, &upsert(id, x, y));
            }
            wf.tick_boundary(t, 0).unwrap();
            ws.tick_boundary(t, 0).unwrap();
        }
        // Snapshot the snapped dir at tick 3 from a recovery of it.
        let mid = recover(&dir_snap, 1, Placement::RoundRobin, space(), 8, None).unwrap();
        let data = SnapshotData {
            tick: mid.tick,
            covered_seq: ws.next_seq(),
            next_sid: mid.next_sid,
            space: space(),
            grid: 8,
            objects: mid
                .runner
                .store()
                .all()
                .iter()
                .map(|(id, p)| (id.0, mid.runner.store().kind(id), p.x, p.y))
                .collect(),
            subs: mid
                .subs
                .iter()
                .map(|s| SubEntry {
                    sid: s.sid,
                    anchor: s.anchor.0,
                    algo: s.algo,
                    mode: s.mode,
                    answer_digest: answer_digest(mid.runner.answer(s.qid)),
                })
                .collect(),
        };
        write_snapshot(&dir_snap, &data).unwrap();
        ws.reclaim_covered(data.covered_seq).unwrap();
        // More traffic after the snapshot.
        for t in 4..=6u64 {
            for _ in 0..5 {
                let id = rng.gen_range(0..20) as u32;
                let (x, y) = (rng.f64() * 100.0, rng.f64() * 100.0);
                log_both(&mut wf, &mut ws, &upsert(id, x, y));
            }
            wf.tick_boundary(t, 0).unwrap();
            ws.tick_boundary(t, 0).unwrap();
        }
        drop(wf);
        drop(ws);
        let full = recover(&dir_full, 1, Placement::RoundRobin, space(), 8, None).unwrap();
        let snapped = recover(&dir_snap, 1, Placement::RoundRobin, space(), 8, None).unwrap();
        assert!(full.report.clean(), "{:?}", full.report);
        assert!(snapped.report.clean(), "{:?}", snapped.report);
        assert_eq!(full.digest, snapped.digest);
        assert_eq!(full.tick, snapped.tick);
        assert!(snapped.report.snapshot.is_some());
        std::fs::remove_dir_all(&dir_full).unwrap();
        std::fs::remove_dir_all(&dir_snap).unwrap();
    }

    /// Recovery across worker counts yields the same digest (the
    /// engine equivalence invariant carries over to replay).
    #[test]
    fn digest_is_worker_count_invariant() {
        let dir = tmp_dir("workers");
        let mut w = WalWriter::open(&WalOptions::new(&dir)).unwrap();
        let mut rng = igern_mobgen::rng::Rng64::seed_from_u64(3);
        for id in 0..25u32 {
            let (x, y) = (rng.f64() * 100.0, rng.f64() * 100.0);
            w.append(&upsert(id, x, y)).unwrap();
        }
        w.append(&Frame::Subscribe {
            token: 1,
            anchor: 0,
            algo: Algorithm::IgernMono,
            mode: DistanceMode::Euclidean,
        })
        .unwrap();
        w.append(&Frame::Subscribe {
            token: 2,
            anchor: 5,
            algo: Algorithm::Knn(2),
            mode: DistanceMode::Euclidean,
        })
        .unwrap();
        w.tick_boundary(1, 0).unwrap();
        drop(w);
        let serial = recover(&dir, 1, Placement::RoundRobin, space(), 8, None).unwrap();
        let sharded = recover(&dir, 4, Placement::AnchorCell, space(), 8, None).unwrap();
        assert_eq!(serial.digest, sharded.digest);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
