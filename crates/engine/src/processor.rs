//! The unit tests of the serial tick loop (`igern_core::processor`, now
//! only the `Algorithm` enum) that [`TickRunner`] replaced, moved here
//! with the loop they test and kept under their `processor::tests::*`
//! names. They run a one-shard runner; the ones that existed once per
//! backend sweep `workers ∈ {1, 2}` instead.

#[cfg(test)]
mod tests {
    use igern_core::naive;
    use igern_core::processor::Algorithm;
    use igern_core::ObjectKind;
    use igern_geom::Point;
    use igern_grid::ObjectId;

    use crate::tests::store;
    use crate::{Placement, TickRunner};

    /// A runner over [`store`]`(points, n_a)` with `workers` shards.
    fn runner_with(workers: usize, points: &[(f64, f64)], n_a: usize) -> TickRunner {
        TickRunner::new(store(points, n_a), workers, Placement::RoundRobin)
    }

    /// The one-shard runner: the serial loop.
    fn runner(points: &[(f64, f64)], n_a: usize) -> TickRunner {
        runner_with(1, points, n_a)
    }

    #[test]
    fn mono_algorithms_agree_with_each_other_and_the_oracle() {
        let pts = [
            (5.0, 5.0),
            (4.0, 5.0),
            (6.5, 5.0),
            (5.0, 8.0),
            (1.0, 1.0),
            (9.0, 2.0),
        ];
        let mut p = runner(&pts, pts.len());
        let qi = p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        let qc = p.add_query(ObjectId(0), Algorithm::Crnn).unwrap();
        let qt = p.add_query(ObjectId(0), Algorithm::TplRepeat).unwrap();
        p.evaluate_all();
        let objs: Vec<(ObjectId, Point)> = p.store().all().iter().collect();
        let want = naive::mono_rnn(&objs, Point::new(5.0, 5.0), Some(ObjectId(0)));
        assert_eq!(p.answer(qi), want.as_slice());
        assert_eq!(p.answer(qc), want.as_slice());
        assert_eq!(p.answer(qt), want.as_slice());
    }

    #[test]
    fn bi_algorithms_agree_over_a_moving_stream() {
        // 3 A objects (ids 0..3), 5 B objects (ids 3..8); query at object 0.
        let pts = [
            (5.0, 5.0),
            (2.0, 2.0),
            (8.0, 8.0),
            (4.0, 5.0),
            (6.0, 6.0),
            (1.0, 9.0),
            (9.0, 1.0),
            (5.0, 3.0),
        ];
        let mut p = runner(&pts, 3);
        let qi = p.add_query(ObjectId(0), Algorithm::IgernBi).unwrap();
        let qv = p.add_query(ObjectId(0), Algorithm::VoronoiRepeat).unwrap();
        p.evaluate_all();
        assert_eq!(p.answer(qi), p.answer(qv));
        // Drift every object a little for a few ticks.
        let mut state = 9u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        for _ in 0..10 {
            let ups: Vec<(ObjectId, Point)> = (0..8u32)
                .map(|i| {
                    let cur = p.store().position(ObjectId(i)).unwrap();
                    (
                        ObjectId(i),
                        Point::new(
                            (cur.x + rnd()).clamp(0.0, 10.0),
                            (cur.y + rnd()).clamp(0.0, 10.0),
                        ),
                    )
                })
                .collect();
            p.step(&ups);
            assert_eq!(p.answer(qi), p.answer(qv));
            let a: Vec<(ObjectId, Point)> = p.store().grid_a().iter().collect();
            let b: Vec<(ObjectId, Point)> = p.store().grid_b().iter().collect();
            let qpos = p.store().position(ObjectId(0)).unwrap();
            assert_eq!(
                p.answer(qi),
                naive::bi_rnn(&a, &b, qpos, Some(ObjectId(0))).as_slice()
            );
        }
    }

    #[test]
    fn history_accumulates_one_sample_per_tick() {
        let pts = [(5.0, 5.0), (4.0, 4.0), (6.0, 6.0)];
        let mut p = runner(&pts, 3);
        let q = p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        p.evaluate_all();
        p.step(&[(ObjectId(1), Point::new(4.5, 4.5))]);
        p.step(&[]);
        assert_eq!(p.history(q).len(), 3);
        assert_eq!(p.history(q)[0].tick, 0);
        assert_eq!(p.history(q)[2].tick, 2);
        assert_eq!(p.tick(), 2);
        assert_eq!(p.query_object(q), ObjectId(0));
    }

    #[test]
    fn k_rnn_queries_match_the_k_oracles() {
        let pts = [
            (5.0, 5.0),
            (4.0, 5.0),
            (4.5, 5.0),
            (6.5, 5.0),
            (5.0, 8.0),
            (1.0, 1.0),
            (9.0, 2.0),
            (2.0, 8.0),
        ];
        let mut p = runner(&pts, 4);
        let q2 = p.add_query(ObjectId(0), Algorithm::IgernMonoK(2)).unwrap();
        let qb2 = p.add_query(ObjectId(0), Algorithm::IgernBiK(2)).unwrap();
        p.evaluate_all();
        p.step(&[(ObjectId(3), Point::new(5.5, 5.2))]);
        let objs: Vec<(ObjectId, Point)> = p.store().all().iter().collect();
        let a: Vec<(ObjectId, Point)> = p.store().grid_a().iter().collect();
        let b: Vec<(ObjectId, Point)> = p.store().grid_b().iter().collect();
        let qpos = p.store().position(ObjectId(0)).unwrap();
        assert_eq!(
            p.answer(q2),
            naive::mono_rknn(&objs, qpos, Some(ObjectId(0)), 2).as_slice()
        );
        assert_eq!(
            p.answer(qb2),
            naive::bi_rknn(&a, &b, qpos, Some(ObjectId(0)), 2).as_slice()
        );
    }

    #[test]
    fn knn_queries_run_through_the_processor() {
        let pts = [(5.0, 5.0), (4.0, 5.0), (6.5, 5.0), (5.0, 8.0), (1.0, 1.0)];
        let mut p = runner(&pts, pts.len());
        let h = p.add_query(ObjectId(0), Algorithm::Knn(2)).unwrap();
        p.evaluate_all();
        // The two nearest to (5,5) are objects 1 (d=1) and 2 (d=1.5),
        // reported sorted by id.
        assert_eq!(p.answer(h), &[ObjectId(1), ObjectId(2)]);
        p.step(&[(ObjectId(4), Point::new(5.2, 5.0))]);
        assert_eq!(p.answer(h), &[ObjectId(1), ObjectId(4)]);
        assert_eq!(p.monitored(h), 2);
    }

    #[test]
    fn removed_queries_are_skipped() {
        let pts = [(5.0, 5.0), (4.0, 4.0), (6.0, 6.0)];
        let mut p = runner(&pts, 3);
        let a = p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        let b = p.add_query(ObjectId(1), Algorithm::IgernMono).unwrap();
        p.evaluate_all();
        p.remove_query(a);
        p.step(&[]);
        // The surviving query keeps accumulating history.
        assert_eq!(p.history(b).len(), 2);
        assert_eq!(p.query_object(b), ObjectId(1));
    }

    #[test]
    fn removed_query_answer_panics() {
        let pts = [(5.0, 5.0), (4.0, 4.0)];
        for workers in [1, 2] {
            let mut p = runner_with(workers, &pts, 2);
            let a = p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
            p.evaluate_all();
            p.remove_query(a);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = p.answer(a);
            }))
            .expect_err("answer of a removed query must panic");
            let msg = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("was removed"), "{workers} workers: {msg}");
        }
    }

    #[test]
    fn dynamic_population_is_tracked_exactly() {
        let pts = [(5.0, 5.0), (4.0, 5.0), (8.0, 8.0)];
        for workers in [1, 2] {
            let mut p = runner_with(workers, &pts, 3);
            let h = p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
            p.evaluate_all();
            // A brand-new object appears right next to the query.
            p.insert_object(ObjectId(50), ObjectKind::A, Point::new(5.4, 5.0));
            p.step(&[]);
            let objs: Vec<(ObjectId, Point)> = p.store().all().iter().collect();
            let want = naive::mono_rnn(&objs, Point::new(5.0, 5.0), Some(ObjectId(0)));
            assert_eq!(p.answer(h), want.as_slice());
            assert!(p.answer(h).contains(&ObjectId(50)));
            assert!(p.monitored(h) > 0);
            // And disappears again (e.g. logs out).
            assert_eq!(p.remove_object(ObjectId(50)), Some(Point::new(5.4, 5.0)));
            p.step(&[]);
            let objs: Vec<(ObjectId, Point)> = p.store().all().iter().collect();
            let want = naive::mono_rnn(&objs, Point::new(5.0, 5.0), Some(ObjectId(0)));
            assert_eq!(p.answer(h), want.as_slice());
            assert!(!p.answer(h).contains(&ObjectId(50)));
        }
    }

    #[test]
    fn tombstoned_slots_are_reused() {
        let pts = [(5.0, 5.0), (4.0, 4.0), (6.0, 6.0)];
        for workers in [1, 2] {
            let mut p = runner_with(workers, &pts, 3);
            let a = p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
            let b = p.add_query(ObjectId(1), Algorithm::IgernMono).unwrap();
            p.evaluate_all();
            p.remove_query(a);
            let c = p.add_query(ObjectId(2), Algorithm::Knn(1)).unwrap();
            assert_eq!(c, a, "removed slot must be handed out again");
            assert_ne!(c, b);
            assert_eq!(p.num_queries(), 2);
            p.step(&[]);
            assert_eq!(p.query_object(c), ObjectId(2));
            assert_eq!(p.history(c).len(), 1, "fresh query, fresh history");
        }
    }

    #[test]
    fn bounded_history_keeps_stats_exact() {
        let pts = [(5.0, 5.0), (4.0, 4.0), (6.0, 6.0)];
        for workers in [1, 2] {
            let mut p = runner_with(workers, &pts, 3);
            p.set_history_capacity(Some(2));
            let q = p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
            p.evaluate_all();
            for i in 0..5 {
                p.step(&[(ObjectId(1), Point::new(4.0 + 0.1 * i as f64, 4.0))]);
            }
            let h = p.history(q);
            // Only the last two samples are retained…
            assert_eq!(h.len(), 2);
            assert_eq!(h[0].tick, 4);
            assert_eq!(h[1].tick, 5);
            // …but the aggregate folded all six (initial + five steps).
            assert_eq!(h.total(), 6);
            assert_eq!(h.stats().len(), 6);
        }
    }

    #[test]
    fn localized_updates_skip_untouched_queries() {
        // Query cluster near the center; spectators in the far corner.
        let pts = [(5.0, 5.0), (4.5, 5.0), (5.5, 5.0), (9.5, 9.5), (9.0, 9.5)];
        let mut p = runner(&pts, pts.len());
        let h = p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        p.evaluate_all();
        assert!(!p.history(h)[0].skipped, "initial step always evaluates");
        // A far-corner move touches no watched cell: skipped, zero cost.
        p.step(&[(ObjectId(3), Point::new(9.4, 9.4))]);
        let s = p.history(h)[1];
        assert!(s.skipped);
        assert_eq!(s.elapsed, std::time::Duration::ZERO);
        assert_eq!(s.ops.nn + s.ops.nn_b + s.ops.verifications, 0);
        let objs: Vec<(ObjectId, Point)> = p.store().all().iter().collect();
        let want = naive::mono_rnn(&objs, Point::new(5.0, 5.0), Some(ObjectId(0)));
        assert_eq!(p.answer(h), want.as_slice(), "reused answer still right");
        // A candidate move lands in the watch: evaluated.
        p.step(&[(ObjectId(1), Point::new(4.4, 5.1))]);
        assert!(!p.history(h)[2].skipped);
        // Quiet tick: everything (even snapshots) skips.
        let t = p.add_query(ObjectId(0), Algorithm::TplRepeat).unwrap();
        p.step(&[]);
        p.step(&[]);
        let th = p.history(t);
        assert!(th[th.len() - 1].skipped);
        assert!(p.history(h)[4].skipped);
    }

    #[test]
    fn disabling_skip_routing_forces_every_tick() {
        let pts = [(5.0, 5.0), (4.5, 5.0), (9.5, 9.5)];
        for workers in [1, 2] {
            let mut p = runner_with(workers, &pts, 3);
            p.set_skip_routing(false);
            let h = p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
            p.evaluate_all();
            p.step(&[]);
            p.step(&[(ObjectId(2), Point::new(9.4, 9.4))]);
            assert!(p.history(h).iter().all(|s| !s.skipped));
        }
    }

    #[test]
    fn routed_and_forced_processors_agree_over_a_stream() {
        let pts: Vec<(f64, f64)> = (0..30)
            .map(|i| ((i * 7 % 30) as f64 / 3.0, (i * 11 % 30) as f64 / 3.0))
            .collect();
        let mk = |routing| {
            let mut p = runner(&pts, 20);
            p.set_skip_routing(routing);
            p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
            p.add_query(ObjectId(0), Algorithm::Crnn).unwrap();
            p.add_query(ObjectId(0), Algorithm::IgernBi).unwrap();
            p.add_query(ObjectId(0), Algorithm::IgernMonoK(2)).unwrap();
            p.add_query(ObjectId(0), Algorithm::Knn(3)).unwrap();
            p.evaluate_all();
            p
        };
        let mut routed = mk(true);
        let mut forced = mk(false);
        let mut state = 77u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for tick in 0..30 {
            // Localized updates: only objects 20..30 (far half) move on
            // most ticks, so center queries get skippable ticks.
            let lo = if tick % 4 == 0 { 0 } else { 20 };
            let mut ups: Vec<(ObjectId, Point)> = Vec::new();
            for i in lo..30u32 {
                if rnd() < 0.5 {
                    let cur = routed.store().position(ObjectId(i)).unwrap();
                    ups.push((
                        ObjectId(i),
                        Point::new(
                            (cur.x + rnd() - 0.5).clamp(0.0, 10.0),
                            (cur.y + rnd() - 0.5).clamp(0.0, 10.0),
                        ),
                    ));
                }
            }
            routed.step(&ups);
            forced.step(&ups);
            for qi in 0..5 {
                assert_eq!(
                    routed.answer(qi),
                    forced.answer(qi),
                    "query {qi} tick {tick}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "anchor of a live query")]
    fn cannot_remove_query_anchor() {
        let pts = [(5.0, 5.0), (4.0, 4.0)];
        let mut p = runner(&pts, 2);
        p.add_query(ObjectId(0), Algorithm::IgernMono).unwrap();
        p.remove_object(ObjectId(0));
    }

    #[test]
    #[should_panic(expected = "must be of kind A")]
    fn bichromatic_query_must_be_kind_a() {
        let pts = [(5.0, 5.0), (4.0, 4.0)];
        let mut p = runner(&pts, 1);
        if let Err(e) = p.add_query(ObjectId(1), Algorithm::IgernBi) {
            panic!("{e}");
        }
    }
}
