//! Durability layer: segmented write-ahead log, compacted snapshots,
//! and crash recovery (DESIGN.md §15).
//!
//! The durable unit is the *admitted update stream plus per-query
//! bookkeeping*, not raw answers: every mutation the server's tick
//! thread admits (object upserts/removes, subscription add/drops) is
//! appended to an append-only segmented log as a CRC-protected record
//! reusing the [`igern_proto`] frame payload encoding, and every tick
//! closes with a `TICK_END` boundary record. Because answers are a
//! deterministic function of the store and the standing-query set
//! (the routed-vs-forced equivalence the test suite fuzzes), replaying
//! the log into a fresh [`igern_engine::TickRunner`] reconverges to bit-identical
//! answers — no answer sets are ever logged.
//!
//! Periodic [`snapshot`]s compact the log: the full store and query
//! set (plus per-query FNV-1a answer digests for verification) are
//! serialized atomically, after which fully-covered segments are
//! reclaimed. [`recover()`] rebuilds a runner from the newest valid
//! snapshot plus the segment tail, tolerating torn tails, bit flips,
//! and missing snapshots by skipping-and-counting, never panicking.

#![forbid(unsafe_code)]

use igern_core::processor::Algorithm;
use igern_core::types::DistanceMode;
use igern_grid::ObjectId;

pub mod crc;
pub mod recover;
pub mod segment;
pub mod snapshot;

pub use recover::{recover, Recovered, RecoveredSub, RecoveryReport};
pub use segment::{
    reclaim_covered_segments, remove_all_segments, scan_segment, segment_paths, ScanOutcome,
    ScannedRecord, WalWriter,
};
pub use snapshot::{
    load_newest_snapshot, load_snapshot, prune_snapshots, snapshot_paths, write_snapshot,
    SnapshotData, SubEntry,
};

/// When the log file is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// After every appended record: no admitted update is ever lost,
    /// at the cost of one fsync per mutation.
    Always,
    /// At each tick boundary (default): a crash can lose at most the
    /// current in-progress tick, which no client has seen pushed.
    #[default]
    Tick,
    /// Never: the OS flushes whenever it likes. Survives process
    /// crashes (the records left the process on `write`), not power
    /// loss.
    Never,
}

impl FsyncPolicy {
    /// Parse a CLI-style name (`always` | `tick` | `never`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "tick" => Some(FsyncPolicy::Tick),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }

    /// The CLI-style name.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Tick => "tick",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Durability configuration, carried by the server when `--wal-dir`
/// is set.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Directory holding segments and snapshots.
    pub dir: std::path::PathBuf,
    /// Fsync policy for the log.
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes (records never split
    /// across segments; a segment may exceed this by one record).
    pub segment_bytes: u64,
    /// Write a compacted snapshot every N ticks (0 = never).
    pub snapshot_every: u64,
}

impl WalOptions {
    /// Defaults: tick fsync, 1 MiB segments, snapshot every 256 ticks.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        WalOptions {
            dir: dir.into(),
            fsync: FsyncPolicy::Tick,
            segment_bytes: 1 << 20,
            snapshot_every: 256,
        }
    }
}

/// FNV-1a offset basis (the same constants `crates/sim` digests with).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Fold `bytes` into an FNV-1a accumulator.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest of one query's answer set (ids in their stored, sorted
/// order). Stored per sub in snapshots so recovery can verify the
/// rebuilt runner reproduces the exact answers the live one held.
pub fn answer_digest(ids: &[ObjectId]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(ids.len() as u64).to_le_bytes());
    for id in ids {
        h = fnv1a(h, &id.0.to_le_bytes());
    }
    h
}

/// One standing query as the durability layer sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubSpec {
    /// Server-assigned subscription id (stable across recovery).
    pub sid: u32,
    /// Anchor object id.
    pub anchor: u32,
    /// The query algorithm.
    pub algo: Algorithm,
    /// Distance mode the query evaluates under.
    pub mode: DistanceMode,
}

/// Whole-server answer digest: FNV-1a over the logical tick then, per
/// sub in ascending `sid` order, the sub identity and its full answer.
/// `answer_of` maps a [`SubSpec`] to its current sorted answer. Both
/// the recovery banner and the CI crash smoke compare this value.
pub fn state_digest<'a>(
    tick: u64,
    subs: &[SubSpec],
    mut answer_of: impl FnMut(&SubSpec) -> &'a [ObjectId],
) -> u64 {
    let mut order: Vec<usize> = (0..subs.len()).collect();
    order.sort_by_key(|&i| subs[i].sid);
    let mut h = fnv1a(FNV_OFFSET, &tick.to_le_bytes());
    for i in order {
        let s = &subs[i];
        let (code, k) = igern_proto::algo_to_wire(s.algo);
        h = fnv1a(h, &s.sid.to_le_bytes());
        h = fnv1a(h, &s.anchor.to_le_bytes());
        h = fnv1a(h, &[code]);
        h = fnv1a(h, &k.to_le_bytes());
        h = fnv1a(h, &[igern_proto::mode_to_wire(s.mode)]);
        let ids = answer_of(s);
        h = fnv1a(h, &(ids.len() as u64).to_le_bytes());
        for id in ids {
            h = fnv1a(h, &id.0.to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_digest_is_sid_order_invariant() {
        let a = SubSpec {
            sid: 1,
            anchor: 10,
            algo: Algorithm::IgernMono,
            mode: DistanceMode::Euclidean,
        };
        let b = SubSpec {
            sid: 2,
            anchor: 11,
            algo: Algorithm::Knn(3),
            mode: DistanceMode::Euclidean,
        };
        let ans_a = [ObjectId(3), ObjectId(7)];
        let ans_b = [ObjectId(1)];
        let of = |s: &SubSpec| -> &[ObjectId] {
            if s.sid == 1 {
                &ans_a
            } else {
                &ans_b
            }
        };
        let d1 = state_digest(5, &[a, b], of);
        let d2 = state_digest(5, &[b, a], of);
        assert_eq!(d1, d2);
        // Any ingredient changes the digest.
        assert_ne!(d1, state_digest(6, &[a, b], of));
        let b2 = SubSpec {
            algo: Algorithm::Knn(4),
            ..b
        };
        assert_ne!(d1, state_digest(5, &[a, b2], of));
        let b3 = SubSpec {
            mode: DistanceMode::Network,
            ..b
        };
        assert_ne!(d1, state_digest(5, &[a, b3], of));
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("tick"), Some(FsyncPolicy::Tick));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::Tick.name(), "tick");
    }
}
