//! Shared-scan batch evaluation equivalence (see `igern_core::batch`).
//!
//! With batching on, the runner must reproduce the per-query path
//! bit-for-bit: same answers, same monitored counts, same per-tick skip
//! decisions, and the same machine-independent op counters — for all
//! eight algorithm families with k ∈ {1, 2, 4}, across mid-stream query
//! add/remove, at worker counts 1, 2, and 4 under both placement
//! policies. Query anchors are deliberately clustered into one grid
//! cell so multi-member batch groups actually form; the pipeline
//! metrics assert that they did.

mod common;

use common::Lcg;
use igern::core::obs::{MetricsRegistry, PipelineMetrics};
use igern::core::processor::Algorithm;
use igern::core::types::ObjectKind;
use igern::core::SpatialStore;
use igern::engine::{Placement, TickRunner};
use igern::geom::{Aabb, Point};
use igern::grid::ObjectId;

const SIDE: f64 = 100.0;
const N_A: usize = 36;
const N_B: usize = 36;
const TICKS: usize = 80;
/// Kind-A objects serving as query anchors, clustered into one cell.
const ANCHORS: usize = 12;

/// A store with `N_A` kind-A objects followed by `N_B` kind-B objects.
/// The first [`ANCHORS`] kind-A objects (the query anchors) are packed
/// into a single 16×16 grid cell so same-cell batch groups form.
fn loaded_store(seed: u64) -> SpatialStore {
    let mut kinds = vec![ObjectKind::A; N_A];
    kinds.extend(vec![ObjectKind::B; N_B]);
    let mut store = SpatialStore::new(Aabb::from_coords(0.0, 0.0, SIDE, SIDE), 16, kinds);
    let mut pts = Lcg::new(seed).points(N_A + N_B, SIDE);
    for (i, p) in pts.iter_mut().enumerate().take(ANCHORS) {
        *p = Point::new(2.0 + (i % 4) as f64, 2.0 + (i / 4) as f64);
    }
    store.load(&pts);
    store
}

/// All eight algorithm families; the k-parameterised ones sweep
/// k ∈ {1, 2, 4}.
fn variants() -> Vec<Algorithm> {
    let mut v = vec![
        Algorithm::IgernMono,
        Algorithm::Crnn,
        Algorithm::TplRepeat,
        Algorithm::IgernBi,
        Algorithm::VoronoiRepeat,
    ];
    for k in [1, 2, 4] {
        v.push(Algorithm::IgernMonoK(k));
        v.push(Algorithm::IgernBiK(k));
        v.push(Algorithm::Knn(k));
    }
    v
}

/// Compare query `q` of the batched runner `name` at tick `tick` against
/// the reference sample.
fn check(name: &str, batched: &TickRunner, reference: &TickRunner, q: usize, tick: usize) {
    let sample = batched.history(q).latest().unwrap();
    let r = reference.history(q).latest().unwrap();
    assert_eq!(
        reference.answer(q),
        batched.answer(q),
        "answer diverged: query {q} tick {tick} backend {name}"
    );
    assert_eq!(reference.monitored(q), batched.monitored(q));
    assert_eq!(
        r.skipped, sample.skipped,
        "skip decision diverged: query {q} tick {tick} backend {name}"
    );
    assert_eq!(
        r.ops, sample.ops,
        "op counters diverged: query {q} tick {tick} backend {name}"
    );
    assert_eq!(r.answer_size, sample.answer_size);
    assert_eq!(r.monitored, sample.monitored);
    assert_eq!(
        r.region_area.to_bits(),
        sample.region_area.to_bits(),
        "region area diverged: query {q} tick {tick} backend {name}"
    );
}

/// Drive the per-query one-worker reference against batched runners
/// (workers × placements) through one randomized stream with mid-stream
/// query churn, asserting bit-identical behaviour on every live query
/// every tick.
#[test]
fn batched_backends_match_per_query_reference() {
    let seed = 0xBA7C_4ED1_u64;
    let algos = variants();

    let mut reference = TickRunner::new(loaded_store(seed), 1, Placement::RoundRobin);

    let registry = MetricsRegistry::new();
    let mut backends: Vec<(String, TickRunner)> = [
        (1, Placement::RoundRobin),
        (2, Placement::AnchorCell),
        (4, Placement::RoundRobin),
        (4, Placement::AnchorCell),
    ]
    .into_iter()
    .map(|(workers, placement)| {
        let mut r = TickRunner::new(loaded_store(seed), workers, placement);
        r.set_batch(true);
        (format!("w{workers} {placement}"), r)
    })
    .collect();
    // The one-worker batched runner reports its group counts.
    backends[0].1.attach_metrics(&registry, "batch_eq");
    let metrics = PipelineMetrics::register(&registry, "batch_eq");

    // Two queries per variant on clustered (often shared) anchors, so
    // the four batchable IGERN monitors form multi-member groups.
    let mut live: Vec<usize> = Vec::new();
    for (i, &algo) in algos.iter().enumerate() {
        for anchor in [i % ANCHORS, (i + 1) % ANCHORS] {
            let obj = ObjectId(anchor as u32);
            let qr = reference.add_query(obj, algo).expect("valid query");
            for (_, b) in &mut backends {
                assert_eq!(Ok(qr), b.add_query(obj, algo), "index assignment diverged");
            }
            live.push(qr);
        }
    }
    reference.evaluate_all();
    for (_, b) in &mut backends {
        b.evaluate_all();
    }

    let mut rng = Lcg::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    for tick in 0..TICKS {
        // Movement: half the moves stay inside the anchor cluster's
        // cell so shared scans see churn; the rest roam globally.
        let mut ups: Vec<(ObjectId, Point)> = Vec::new();
        for _ in 0..1 + rng.usize(8) {
            let id = ObjectId(rng.usize(N_A + N_B) as u32);
            let p = if rng.bool(0.5) {
                Point::new(rng.range_f64(0.0, 6.0), rng.range_f64(0.0, 6.0))
            } else {
                rng.point(SIDE)
            };
            ups.push((id, p));
        }
        // Mid-stream churn: drop and register standing queries.
        if live.len() > 4 && rng.bool(0.08) {
            let at = rng.usize(live.len());
            let q = live.swap_remove(at);
            reference.remove_query(q);
            for (_, b) in &mut backends {
                b.remove_query(q);
            }
        }
        if rng.bool(0.08) {
            let algo = algos[rng.usize(algos.len())];
            let obj = ObjectId(rng.usize(ANCHORS) as u32);
            let qr = reference.add_query(obj, algo).expect("valid query");
            for (_, b) in &mut backends {
                assert_eq!(
                    Ok(qr),
                    b.add_query(obj, algo),
                    "index assignment diverged at tick {tick}"
                );
            }
            live.push(qr);
        }

        reference.step(&ups);
        for (name, b) in &mut backends {
            b.step(&ups);
            for &q in &live {
                check(name, b, &reference, q, tick);
            }
        }
    }

    // The stream must have exercised both the skip path and actual
    // multi-member batch groups, or the test proves nothing.
    let skipped: usize = live
        .iter()
        .map(|&q| reference.history(q).iter().filter(|s| s.skipped).count())
        .sum();
    assert!(skipped > 0, "stream never skipped — routing not exercised");
    let groups = metrics.batch_groups_total.get();
    let members = metrics.batch_members_total.get();
    assert!(groups > 0, "no multi-member batch group ever formed");
    assert!(
        members >= 2 * groups,
        "multi-member groups must contribute ≥2 members each (got {members} over {groups})"
    );
}
