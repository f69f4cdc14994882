//! Observability-layer integration tests.
//!
//! * Skip carry-over: a query-tick skipped by dirty-region routing must
//!   report the `monitored` / `answer_size` / `region_area` of the most
//!   recent *evaluated* tick, identically at every worker count.
//! * Desync resilience: a bucket/position desync injected into the store
//!   must not panic the tick — the affected object is treated as removed,
//!   the tick completes, and `desync_total` counts the event.

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

fn loaded_store(seed: u64) -> SpatialStore {
    let mut kinds = vec![ObjectKind::A; N_A];
    kinds.extend(vec![ObjectKind::B; N_B]);
    let mut store = SpatialStore::new(Aabb::from_coords(0.0, 0.0, SIDE, SIDE), 16, kinds);
    let pts = Lcg::new(seed).points(N_A + N_B, SIDE);
    store.load(&pts);
    store
}

/// Walk one query's history asserting every skipped sample repeats the
/// carried-over fields of the last evaluated sample before it. Returns
/// `(evaluated, skipped)` counts so callers can assert both paths ran.
fn check_carryover(history: &igern::core::history::History, ctx: &str) -> (usize, usize) {
    let mut last_eval: Option<&igern::core::metrics::TickSample> = None;
    let mut evaluated = 0usize;
    let mut skipped = 0usize;
    for s in history.iter() {
        if s.skipped {
            let prev = last_eval
                .unwrap_or_else(|| panic!("{ctx}: tick {} skipped before any evaluation", s.tick));
            assert_eq!(
                s.monitored, prev.monitored,
                "{ctx}: tick {} skipped but monitored diverged from last evaluated tick {}",
                s.tick, prev.tick
            );
            assert_eq!(
                s.answer_size, prev.answer_size,
                "{ctx}: tick {} skipped but answer_size diverged from last evaluated tick {}",
                s.tick, prev.tick
            );
            assert_eq!(
                s.region_area, prev.region_area,
                "{ctx}: tick {} skipped but region_area diverged from last evaluated tick {}",
                s.tick, prev.tick
            );
            skipped += 1;
        } else {
            last_eval = Some(s);
            evaluated += 1;
        }
    }
    (evaluated, skipped)
}

/// Skipped ticks must carry the last evaluated tick's `monitored`,
/// `answer_size`, and `region_area` forward unchanged — on the one-worker
/// runner and on a sharded one, which must also agree with each other
/// sample-for-sample.
#[test]
fn skipped_ticks_carry_over_last_evaluated_state() {
    const ALGOS: [Algorithm; 4] = [
        Algorithm::IgernMono,
        Algorithm::Crnn,
        Algorithm::IgernBi,
        Algorithm::IgernMonoK(2),
    ];
    for workers in [1usize, 2, 4] {
        let seed = 0xca11_0ff5;
        let mut serial = TickRunner::new(loaded_store(seed), 1, Placement::RoundRobin);
        let mut engine = TickRunner::new(loaded_store(seed), workers, Placement::RoundRobin);
        let queries: Vec<usize> = ALGOS
            .iter()
            .enumerate()
            .map(|(i, &algo)| {
                let obj = ObjectId(i as u32 * 4);
                let qs = serial.add_query(obj, algo).expect("valid query");
                let qe = engine.add_query(obj, algo).expect("valid query");
                assert_eq!(qs, qe);
                qs
            })
            .collect();
        serial.evaluate_all();
        engine.evaluate_all();

        // Mostly-localized movement in the far corner, so anchors near
        // the origin routinely skip; occasional global moves force real
        // re-evaluations in between.
        let mut rng = Lcg::new(seed ^ 0x5eed);
        for _ in 0..TICKS {
            let mut ups: Vec<(ObjectId, Point)> = Vec::new();
            let global = rng.bool(0.2);
            for _ in 0..1 + rng.usize(6) {
                let id = ObjectId(rng.usize(N_A + N_B) as u32);
                let p = if global {
                    rng.point(SIDE)
                } else {
                    Point::new(rng.range_f64(85.0, 100.0), rng.range_f64(85.0, 100.0))
                };
                ups.push((id, p));
            }
            serial.step(&ups);
            engine.step(&ups);
        }

        let mut total_eval = 0usize;
        let mut total_skip = 0usize;
        for &q in &queries {
            let (se, ss) = check_carryover(serial.history(q), &format!("serial q{q}"));
            let (ee, es) =
                check_carryover(engine.history(q), &format!("engine q{q} workers {workers}"));
            assert_eq!((se, ss), (ee, es), "eval/skip split diverged for q{q}");
            // The two runners must agree sample-for-sample, not just in
            // aggregate.
            let sh = serial.history(q);
            let eh = engine.history(q);
            assert_eq!(sh.len(), eh.len());
            for (a, b) in sh.iter().zip(eh.iter()) {
                assert_eq!(a.tick, b.tick);
                assert_eq!(a.skipped, b.skipped);
                assert_eq!(a.monitored, b.monitored);
                assert_eq!(a.answer_size, b.answer_size);
                assert_eq!(a.region_area, b.region_area);
            }
            total_eval += se;
            total_skip += ss;
        }
        assert!(total_skip > 0, "stream never skipped — routing unexercised");
        assert!(total_eval > 0, "stream never evaluated");
    }
}

#[test]
fn desync_is_counted_and_the_tick_completes() {
    for workers in [1, 2] {
        let registry = MetricsRegistry::new();
        let mut p = TickRunner::new(loaded_store(11), workers, Placement::RoundRobin);
        p.attach_metrics(&registry, "t");
        let metrics = PipelineMetrics::register(&registry, "t");
        p.set_skip_routing(false);
        let q = p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        p.evaluate_all();
        let before = *p.history(q).latest().unwrap();
        assert!(!before.skipped);
        assert_eq!(metrics.desync_total.get(), 0);

        // Corrupt the anchor's position slot: the buckets still list it,
        // the position lookup fails — exactly the desync the hot path
        // must survive.
        assert!(p.debug_force_desync(ObjectId(0)));
        p.step(&[(ObjectId(5), Point::new(1.0, 1.0))]);

        assert!(metrics.desync_total.get() >= 1, "desync was not counted");
        let after = p.history(q).latest().unwrap();
        assert!(after.skipped, "desynced query must degrade to a skip");
        assert_eq!(after.monitored, before.monitored, "carry-over after desync");
        assert_eq!(after.answer_size, before.answer_size);
        assert_eq!(p.tick(), 1, "the tick must still complete");
    }
}

/// A bichromatic query whose B-side develops desyncs must also survive:
/// verify() treats the missing objects as removed and counts each one.
#[test]
fn bichromatic_desync_is_survived_and_counted() {
    // A deterministic layout: the anchor A-object sits mid-domain with a
    // B cluster around it (all reverse nearest neighbors), the only other
    // A-object far away — so the alive region always covers the cluster.
    let kinds = vec![
        ObjectKind::A,
        ObjectKind::A,
        ObjectKind::B,
        ObjectKind::B,
        ObjectKind::B,
        ObjectKind::B,
    ];
    let mut store = SpatialStore::new(Aabb::from_coords(0.0, 0.0, SIDE, SIDE), 16, kinds);
    store.load(&[
        Point::new(50.0, 50.0),
        Point::new(5.0, 5.0),
        Point::new(45.0, 50.0),
        Point::new(55.0, 50.0),
        Point::new(50.0, 45.0),
        Point::new(50.0, 55.0),
    ]);
    let registry = MetricsRegistry::new();
    let mut p = TickRunner::new(store, 1, Placement::RoundRobin);
    p.attach_metrics(&registry, "t");
    let metrics = PipelineMetrics::register(&registry, "t");
    p.set_skip_routing(false);
    let q = p.add_query(ObjectId(0), Algorithm::IgernBi).unwrap();
    p.evaluate_all();
    assert_eq!(p.history(q).latest().unwrap().answer_size, 4);

    // Desync every B object: its bucket entry survives, the position
    // lookup fails. Moving the anchor forces the verification pass to
    // re-read the B grid, where it must skip-and-count each one.
    for i in 2..6 {
        assert!(p.debug_force_desync(ObjectId(i as u32)));
    }
    p.step(&[(ObjectId(0), Point::new(52.0, 50.0))]);
    assert!(
        metrics.desync_total.get() >= 1,
        "B-side desyncs were not counted"
    );
    let after = p.history(q).latest().unwrap();
    assert!(!after.skipped);
    assert_eq!(
        after.answer_size, 0,
        "desynced B-objects must be treated as removed"
    );
    assert_eq!(p.tick(), 1, "the tick must still complete");
}
