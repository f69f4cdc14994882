//! The offline tick driver: `city`, `hotspot` and `roadnet`.
//!
//! A closed loop with one tick outstanding: a tick's updates are
//! generated, handed to `TickRunner::step`, and the next tick is
//! generated only after `step` returned with that tick's answers. This is
//! a monitor that ticks every Δt on the reports that arrived; it keeps
//! per-tick work deterministic, and on two shared cores an open-loop
//! generator's own scheduling jitter would be the size of the service
//! time.

use std::sync::Arc;
use std::time::Instant;

use crate::inputs::{self, QuerySpec, Source, World};
use crate::layers;
use crate::oracle::{self, Tally};
use crate::report::RunResult;
use crate::stats::{self, fold_answer, median, percentile, ratio, Rng, FNV_OFFSET};
use crate::sut::{
    self, naive, Algorithm, MetricsRegistry, NetScratch, NetworkSpace, ObjectId, ObjectKind, Point,
    SpatialStore, TickRunner, COUNT_BUCKETS, LATENCY_BUCKETS_S,
};
use crate::trace::Tracer;
use crate::RunPlan;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Ticks between sampled oracle checks.
const CHECK_EVERY: usize = 50;
/// Prefix the traced run's runner publishes its instruments under.
const METRICS_PREFIX: &str = "bench";

/// Timed ticks per second of `--seconds`, sized on a 2-CPU container
/// (city ~110 ms/tick, hotspot ~16.5, roadnet ~100). The counts are
/// fixed per `--seconds` so that answers, digests and counts repeat
/// exactly for a seed whatever the machine's speed.
fn ticks_per_second(workload: &str) -> f64 {
    match workload {
        "city" => 9.0,
        "hotspot" => 60.0,
        "roadnet" => 10.0,
        other => panic!("{other} is not an offline workload"),
    }
}

fn make_inputs(workload: &str, seed: u64, div: usize) -> (World, Source) {
    match workload {
        "city" => inputs::city(seed, div),
        "hotspot" => inputs::hotspot(seed, div),
        "roadnet" => inputs::roadnet(seed, div),
        other => panic!("{other} is not an offline workload"),
    }
}

/// The non-default switches of the per-layer variant runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    Default,
    RoutingOff,
    BatchOff,
    BatchOn,
    TwoWorkers,
}

/// Build, load, register and evaluate: everything up to the first
/// complete answer. Returns the runner and the seconds it took.
fn set_up(
    inputs: &World,
    positions: &[Point],
    variant: Variant,
    registry: Option<&MetricsRegistry>,
) -> (TickRunner, Option<Arc<NetworkSpace>>, f64) {
    let kinds = inputs.kinds.clone();
    let t0 = Instant::now();
    let mut store = SpatialStore::new(inputs::space(), inputs::GRID, kinds);
    let network = inputs
        .road
        .as_ref()
        .map(|road| Arc::new(NetworkSpace::from_network(road)));
    if let Some(ns) = &network {
        store.set_network(Arc::clone(ns));
    }
    store.load(positions);
    let mut runner = match variant {
        Variant::TwoWorkers => sut::runner_with_workers(store, 2),
        _ => sut::default_runner(store),
    };
    match variant {
        Variant::RoutingOff => runner.set_skip_routing(false),
        Variant::BatchOff => runner.set_batch(false),
        Variant::BatchOn => runner.set_batch(true),
        Variant::Default | Variant::TwoWorkers => {}
    }
    for &(anchor, algo, mode) in &inputs.queries {
        runner
            .add_query_in(anchor, algo, mode)
            .expect("generated queries are valid");
    }
    runner.evaluate_all();
    std::hint::black_box(runner.answer(0));
    let secs = t0.elapsed().as_secs_f64();
    // Attached after the initial evaluation, so the instruments count
    // the ticks only.
    if let Some(reg) = registry {
        runner.attach_metrics(reg, METRICS_PREFIX);
    }
    (runner, network, secs)
}

fn answer_digest(runner: &TickRunner, queries: usize) -> u64 {
    (0..queries).fold(FNV_OFFSET, |h, q| {
        fold_answer(h, runner.answer(q).iter().map(|o| o.0))
    })
}

/// Verify a seeded sample of queries against their definitions.
fn sampled_check(
    inputs: &World,
    positions: &[Point],
    network: Option<&NetworkSpace>,
    runner: &TickRunner,
    rng: &mut Rng,
    tally: &mut Tally,
) {
    let n = inputs.queries.len();
    let sample: Vec<usize> = if n <= oracle::SAMPLED_QUERIES {
        (0..n).collect()
    } else {
        (0..oracle::SAMPLED_QUERIES).map(|_| rng.below(n)).collect()
    };
    match network {
        None => {
            let mut dist = |i: usize, j: usize| positions[i].dist_sq(positions[j]);
            for q in sample {
                oracle::check_query(
                    &mut dist,
                    positions,
                    &inputs.kinds,
                    inputs.queries[q],
                    runner.answer(q),
                    rng,
                    tally,
                );
            }
        }
        Some(ns) => {
            let snapped: Vec<_> = positions.iter().map(|&p| ns.snap(p)).collect();
            let mut scratch = NetScratch::default();
            let mut dist = |i: usize, j: usize| ns.dist(&mut scratch, &snapped[i], &snapped[j]);
            for q in sample {
                oracle::check_query(
                    &mut dist,
                    positions,
                    &inputs.kinds,
                    inputs.queries[q],
                    runner.answer(q),
                    rng,
                    tally,
                );
            }
        }
    }
}

/// `roadnet` is small enough to call the quadratic network oracles
/// outright: the first IgernMono, the first IgernBi and every Knn query
/// must equal `naive::*_net` exactly.
fn full_network_oracle(
    inputs: &World,
    positions: &[Point],
    ns: &NetworkSpace,
    runner: &TickRunner,
    tally: &mut Tally,
) {
    let all: Vec<(ObjectId, Point)> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| (ObjectId(i as u32), p))
        .collect();
    let of_kind = |k: ObjectKind| -> Vec<(ObjectId, Point)> {
        all.iter()
            .copied()
            .filter(|(id, _)| inputs.kinds[id.index()] == k)
            .collect()
    };
    let (a, b) = (of_kind(ObjectKind::A), of_kind(ObjectKind::B));
    let mut scratch = NetScratch::default();
    let first = |algo: Algorithm| inputs.queries.iter().position(|q| q.1 == algo);
    let (first_mono, first_bi) = (first(Algorithm::IgernMono), first(Algorithm::IgernBi));
    for (q, &(anchor, algo, _)) in inputs.queries.iter().enumerate() {
        let pos = positions[anchor.index()];
        let want = match algo {
            Algorithm::IgernMono if Some(q) == first_mono => {
                naive::mono_rnn_net(ns, &mut scratch, &all, pos, Some(anchor))
            }
            Algorithm::IgernBi if Some(q) == first_bi => {
                naive::bi_rnn_net(ns, &mut scratch, &a, &b, pos, Some(anchor))
            }
            Algorithm::Knn(k) => naive::knn_net(ns, &mut scratch, &all, pos, Some(anchor), k),
            _ => continue,
        };
        tally.record(runner.answer(q) == want.as_slice(), || {
            format!("{algo:?} at {anchor}: differs from the naive network oracle")
        });
    }
}

/// One timed tick loop over `ticks` ticks. `on_tick` runs untimed after
/// each tick with the tick's index and updates.
struct Loop {
    tick_ms: Vec<f64>,
    gen_ms: f64,
    updates: u64,
}

#[allow(clippy::too_many_arguments)]
fn tick_loop(
    source: &mut Source,
    runner: &mut TickRunner,
    positions: &mut [Point],
    tracer: &mut Tracer,
    // Span every other tick: the traced and untraced halves then share
    // whatever drift the run has, and their medians compare cleanly.
    trace_odd_ticks: bool,
    ticks: usize,
    mut on_tick: impl FnMut(usize, &[(ObjectId, Point)], &TickRunner, &[Point]),
) -> Loop {
    let mut out = Loop {
        tick_ms: Vec::with_capacity(ticks),
        gen_ms: 0.0,
        updates: 0,
    };
    let mut ups: Vec<(ObjectId, Point)> = Vec::new();
    for tick in 1..=ticks {
        tracer.set_enabled(trace_odd_ticks && tick % 2 == 1);
        let root = tracer.enter("tick", tick as u64);
        let span = tracer.enter("gen", tick as u64);
        let t0 = Instant::now();
        source.next_tick(&mut ups);
        out.gen_ms += t0.elapsed().as_secs_f64() * 1e3;
        tracer.exit(span);

        let span = tracer.enter("step", tick as u64);
        let t0 = Instant::now();
        runner.step(&ups);
        std::hint::black_box(runner.answer(0));
        out.tick_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tracer.exit(span);
        tracer.exit(root);

        out.updates += ups.len() as u64;
        for &(id, p) in &ups {
            positions[id.index()] = p;
        }
        on_tick(tick, &ups, runner, positions);
    }
    tracer.set_enabled(false);
    out
}

/// Cells and objects every query's searches have visited so far: a
/// deterministic measure of the work done.
fn work_done(runner: &TickRunner, queries: usize) -> f64 {
    (0..queries)
        .map(|q| {
            let ops = runner.history(q).stats().ops();
            (ops.cells_visited + ops.objects_visited) as f64
        })
        .sum()
}

pub fn run(plan: &RunPlan) -> RunResult {
    if plan.traced {
        run_traced(plan)
    } else {
        run_untraced(plan)
    }
}

fn planned_ticks(plan: &RunPlan) -> usize {
    if plan.quick {
        30
    } else {
        ((ticks_per_second(&plan.workload) * plan.seconds).round() as usize).max(20)
    }
}

fn run_untraced(plan: &RunPlan) -> RunResult {
    let mut res = RunResult::for_plan(plan);
    let ticks = planned_ticks(plan);
    let (inputs, mut source) = make_inputs(&plan.workload, plan.seed, plan.div());
    let mut positions = inputs.positions.clone();

    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPEATS {
        drop(loaded.take());
        let (runner, network, secs) = set_up(&inputs, &positions, Variant::Default, None);
        setups.push(secs);
        loaded = Some((runner, network));
    }
    let (mut runner, network) = loaded.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut rng = Rng::new(plan.seed ^ 0x0c4e_c4e5);
    let mut tracer = Tracer::new();
    let nq = inputs.queries.len();
    let work_at_start = work_done(&runner, nq);
    let mut work_at_half = 0.0;
    let lp = tick_loop(
        &mut source,
        &mut runner,
        &mut positions,
        &mut tracer,
        false,
        ticks,
        |tick, _, runner, positions| {
            if tick == ticks / 2 {
                work_at_half = work_done(runner, nq);
            }
            if tick % CHECK_EVERY == 0 || tick == ticks {
                sampled_check(
                    &inputs,
                    positions,
                    network.as_deref(),
                    runner,
                    &mut rng,
                    &mut tally,
                );
            }
        },
    );
    if let Some(ns) = network.as_deref() {
        full_network_oracle(&inputs, &positions, ns, &runner, &mut tally);
    }
    // Ticks and registrations are operations too; none can fail short of
    // a panic, which fails the whole run.
    tally.attempted += (ticks + inputs.queries.len() * SETUP_REPEATS) as u64;

    let total_ms: f64 = lp.tick_ms.iter().sum();
    res.set("setup_s", median(&setups));
    res.set("tick_ms_p50", median(&lp.tick_ms));
    res.set("updates_per_s", lp.updates as f64 / (total_ms / 1e3));
    res.samples.insert("setup_s".into(), setups.len() as u64);
    res.samples
        .insert("tick_ms_p50".into(), lp.tick_ms.len() as u64);
    res.answer_digest = answer_digest(&runner, inputs.queries.len());
    let halves = (
        work_at_half - work_at_start,
        work_done(&runner, nq) - work_at_half,
    );
    res.judge_stationarity(halves, &lp.tick_ms);
    drop(runner);
    res.set("peak_rss_mb", stats::peak_rss_mb());
    res.finish(tally, lp.gen_ms / total_ms);
    res
}

/// Sums the traced run reads from the runner's published instruments.
struct Pipeline {
    ticks: f64,
    apply_s: f64,
    evaluated: f64,
    skipped: f64,
    dirty_cells_sum: f64,
    batch_groups: f64,
    batch_members: f64,
    nn: f64,
    verifications: f64,
    cells: f64,
    objects: f64,
}

impl Pipeline {
    /// Read `prefix`'s instruments (get-or-register: an instrument the
    /// program stopped publishing reads 0).
    fn read(reg: &MetricsRegistry, prefix: &str) -> Pipeline {
        let c = |s: &str| reg.counter(&format!("{prefix}_{s}")).get() as f64;
        Pipeline {
            ticks: c("ticks_total"),
            apply_s: reg
                .histogram(&format!("{prefix}_apply_seconds"), &LATENCY_BUCKETS_S)
                .sum(),
            evaluated: c("queries_evaluated_total"),
            skipped: c("queries_skipped_total"),
            dirty_cells_sum: reg
                .histogram(&format!("{prefix}_dirty_cells"), &COUNT_BUCKETS)
                .sum(),
            batch_groups: c("batch_groups_total"),
            batch_members: c("batch_members_total"),
            nn: c("ops_nn_total") + c("ops_nn_c_total") + c("ops_nn_b_total"),
            verifications: c("ops_verifications_total"),
            cells: c("ops_cells_visited_total"),
            objects: c("ops_objects_visited_total"),
        }
    }
}

/// The `core.*`, `store.dirty_cells_per_tick` and `batch.*` counts every
/// workload reads from the pipeline instruments (`serve` reads the
/// server's registry through this too).
pub fn set_pipeline_counts(res: &mut RunResult, reg: &MetricsRegistry, prefix: &str, batch: bool) {
    let p = Pipeline::read(reg, prefix);
    res.set("core.skip_share", ratio(p.skipped, p.skipped + p.evaluated));
    res.set("core.cells_per_eval", ratio(p.cells, p.evaluated));
    res.set("core.objects_per_eval", ratio(p.objects, p.evaluated));
    res.set("core.nn_per_eval", ratio(p.nn, p.evaluated));
    res.set(
        "core.verifications_per_eval",
        ratio(p.verifications, p.evaluated),
    );
    res.set(
        "store.dirty_cells_per_tick",
        ratio(p.dirty_cells_sum, p.ticks),
    );
    if batch {
        res.set("batch.groups_per_tick", ratio(p.batch_groups, p.ticks));
        res.set(
            "batch.members_per_group",
            ratio(p.batch_members, p.batch_groups),
        );
    }
}

fn algo_metric(algo: Algorithm) -> &'static str {
    match algo {
        Algorithm::IgernMono => "core.eval_us.igern_mono",
        Algorithm::IgernBi => "core.eval_us.igern_bi",
        Algorithm::IgernMonoK(4) => "core.eval_us.igern_mono_k4",
        Algorithm::IgernBiK(4) => "core.eval_us.igern_bi_k4",
        Algorithm::Knn(8) => "core.eval_us.knn8",
        Algorithm::Knn(4) => "core.eval_us.knn4",
        other => panic!("no eval metric for {other:?}"),
    }
}

fn run_traced(plan: &RunPlan) -> RunResult {
    let mut res = RunResult::for_plan(plan);
    // Two thirds of the untraced length, every other tick spanned.
    let ticks = (planned_ticks(plan) * 2 / 3).max(20);
    let variant_ticks = (ticks / 4).clamp(5, 40);
    let (inputs, mut source) = make_inputs(&plan.workload, plan.seed, plan.div());
    let start_positions = inputs.positions.clone();
    let mut positions = start_positions.clone();
    let euclid = inputs.road.is_none();
    let queries: Vec<QuerySpec> = inputs.queries.clone();
    let nq = queries.len();

    let registry = MetricsRegistry::new();
    let (mut runner, network, _) = set_up(&inputs, &positions, Variant::Default, Some(&registry));
    let initial_stats: Vec<_> = (0..nq).map(|q| runner.history(q).stats().clone()).collect();

    let mut tracer = Tracer::new();
    let mut recorded: Vec<Vec<(ObjectId, Point)>> = Vec::new();
    let mut digest_at_variant_end = 0u64;
    let lp = tick_loop(
        &mut source,
        &mut runner,
        &mut positions,
        &mut tracer,
        true,
        ticks,
        |tick, ups, runner, _| {
            if tick <= variant_ticks {
                recorded.push(ups.to_vec());
            }
            if tick == variant_ticks {
                digest_at_variant_end = answer_digest(runner, nq);
            }
        },
    );
    let during = Pipeline::read(&registry, METRICS_PREFIX);

    let mut tally = Tally::default();
    let mut rng = Rng::new(plan.seed ^ 0x0c4e_c4e5);
    sampled_check(
        &inputs,
        &positions,
        network.as_deref(),
        &runner,
        &mut rng,
        &mut tally,
    );
    tally.attempted += (ticks + nq) as u64;
    res.answer_digest = answer_digest(&runner, nq);

    // ---- monitors, from the per-query histories and the instruments ----
    let all_ms = &lp.tick_ms;
    let (spanned_ms, plain_ms): (Vec<f64>, Vec<f64>) = {
        // Tick t is all_ms[t - 1]; odd ticks were spanned.
        let pick = |odd: usize| all_ms.iter().skip(1 - odd).step_by(2).copied().collect();
        (pick(1), pick(0))
    };
    let ticks = all_ms.len() as f64;
    let mean_tick_ms = stats::mean(all_ms);
    // Histories are rings; the aggregate beside each folds every sample,
    // and what it held after the initial evaluation (which set-up paid
    // for) is subtracted.
    let mut per_algo: Vec<(Algorithm, f64, f64)> = Vec::new();
    let (mut eval_ns, mut monitored, mut answers, mut samples) = (0.0, 0.0, 0.0, 0.0);
    for (q, &(_, algo, _)) in queries.iter().enumerate() {
        let (now, then) = (runner.history(q).stats(), &initial_stats[q]);
        let sum = |mean: f64, n: usize| (mean * n as f64).round();
        samples += (now.len() - then.len()) as f64;
        monitored += sum(now.mean_monitored(), now.len()) - sum(then.mean_monitored(), then.len());
        answers += sum(now.mean_answer(), now.len()) - sum(then.mean_answer(), then.len());
        let ns = (now.total_time() - then.total_time()).as_nanos() as f64;
        let n = (now.evaluated() - then.evaluated()) as f64;
        eval_ns += ns;
        match per_algo.iter_mut().find(|e| e.0 == algo) {
            Some(e) => {
                e.1 += ns;
                e.2 += n;
            }
            None => per_algo.push((algo, ns, n)),
        }
    }
    for (algo, ns, n) in per_algo {
        res.set(algo_metric(algo), ratio(ns, n) / 1e3);
    }
    let eval_ms_per_tick = eval_ns / 1e6 / ticks;
    let apply_ms_per_tick = during.apply_s * 1e3 / ticks;
    let residue = mean_tick_ms - apply_ms_per_tick - eval_ms_per_tick;
    res.set("core.eval_ms_per_tick", eval_ms_per_tick);
    res.set("core.tick_residue_ms", residue);
    res.set("core.monitored_mean", ratio(monitored, samples));
    res.set("core.answer_mean", ratio(answers, samples));
    set_pipeline_counts(&mut res, &registry, METRICS_PREFIX, false);
    res.set("attr.unattributed_share", residue / mean_tick_ms);
    res.set("engine.tick_ms_p95", percentile(all_ms, 0.95));
    res.samples
        .insert("engine.tick_ms_p95".into(), all_ms.len() as u64);
    let total_ms: f64 = all_ms.iter().sum();
    res.set("mobgen.gen_share", lp.gen_ms / total_ms);
    res.set(
        "trace.overhead_share",
        median(&spanned_ms) / median(&plain_ms) - 1.0,
    );
    drop(runner);

    // ---- variant runs: same inputs, one switch flipped ------------------
    // All runners advance through the recorded ticks together, a few
    // ticks each in turn, so every variant meets the same seconds of
    // host speed; the default configuration runs again among them as
    // the base their ratios are taken against.
    const BLOCK: usize = 4;
    let mut variants = vec![
        (Variant::Default, None),
        (Variant::RoutingOff, Some("core.routing_off_ms_per_tick")),
        (Variant::TwoWorkers, Some("engine.w2_ms_per_tick")),
    ];
    if euclid {
        variants.push((Variant::BatchOff, Some("batch.off_ms_per_tick")));
        variants.push((Variant::BatchOn, Some("batch.on_ms_per_tick")));
    }
    let mut lanes: Vec<_> = variants
        .into_iter()
        .map(|(variant, name)| {
            let reg = MetricsRegistry::new();
            let (runner, _, _) = set_up(&inputs, &start_positions, variant, Some(&reg));
            (variant, name, runner, reg, Vec::<f64>::new())
        })
        .collect();
    let span = tracer.enter("variants", 0);
    for block in recorded.chunks(BLOCK) {
        for (_, _, runner, _, ms) in &mut lanes {
            for ups in block {
                let t0 = Instant::now();
                runner.step(ups);
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    tracer.exit(span);
    let base_ms = median(&lanes[0].4);
    for (variant, name, runner, reg, ms) in &lanes {
        // Routing, batching and sharding are execution plans: the
        // answers must be the default run's, bit for bit.
        tally.record(answer_digest(runner, nq) == digest_at_variant_end, || {
            format!("{variant:?} changed the answers")
        });
        if let Some(name) = name {
            res.set(name, median(ms));
        }
        match variant {
            Variant::TwoWorkers => res.set("engine.w2_speedup", base_ms / median(ms)),
            Variant::BatchOn => {
                let p = Pipeline::read(reg, METRICS_PREFIX);
                res.set("batch.groups_per_tick", ratio(p.batch_groups, p.ticks));
                res.set(
                    "batch.members_per_group",
                    ratio(p.batch_members, p.batch_groups),
                );
            }
            _ => {}
        }
    }
    drop(lanes);

    // ---- layer replays ----------------------------------------------------
    tracer.set_enabled(true);
    let anchors: Vec<(ObjectId, Point)> = queries
        .iter()
        .map(|q| (q.0, start_positions[q.0.index()]))
        .collect();
    let mut twin = layers::Twin::load(&inputs.kinds, &start_positions);
    twin.grid(&mut res, &mut tracer, &anchors);
    if euclid {
        twin.prune(&mut res, &mut tracer, &anchors);
    }
    twin.apply(&mut res, &mut tracer, &recorded);
    if let Some(ns) = network.as_deref() {
        layers::netspace(&mut res, &mut tracer, ns, &start_positions);
    }

    // ---- the table's predictions -------------------------------------------
    let get = |res: &RunResult, k: &str| res.metrics[k];
    if !plan.quick {
        let skip = get(&res, "core.skip_share");
        match plan.workload.as_str() {
            "hotspot" => {
                predict(
                    &mut res,
                    skip >= 0.7,
                    format!("core.skip_share {skip:.3} >= 0.7"),
                );
                // Same ticks, same seconds (the variant lanes): within 2 %
                // means batching off *is* the default.
                let (off, on) = (
                    get(&res, "batch.off_ms_per_tick"),
                    get(&res, "batch.on_ms_per_tick"),
                );
                predict(
                    &mut res,
                    off > base_ms * 1.02,
                    format!(
                        "batch.off_ms_per_tick {off:.2} > the default tick's {base_ms:.2} \
                         (the default runs unbatched; batch.on_ms_per_tick is {on:.2})"
                    ),
                );
            }
            "city" => predict(
                &mut res,
                skip <= 0.01,
                format!("core.skip_share {skip:.4} <= 0.01"),
            ),
            _ => {}
        }
    }

    res.self_ms = tracer
        .self_ms()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    crate::write_trace_file(plan, &tracer);
    let gen_share = get(&res, "mobgen.gen_share");
    res.finish(tally, gen_share);
    res
}

/// A prediction of the issue's table; one that fails is a note for the
/// README, not a failed run.
fn predict(res: &mut RunResult, held: bool, what: String) {
    if !held {
        res.notes.push(format!("prediction failed: {what}"));
    }
}
