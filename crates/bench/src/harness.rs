//! The shared experiment runner: one workload, one algorithm, full
//! per-tick measurement.
//!
//! Each algorithm is run in its own tick runner over a freshly generated —
//! but seed-identical — workload, so all algorithms consume byte-identical
//! update streams (the mobgen determinism contract) without interfering
//! with each other's caches or timers.

use std::time::Duration;

use igern_core::processor::Algorithm;
use igern_core::types::ObjectKind;
use igern_core::SpatialStore;
use igern_engine::{Placement, TickRunner};
use igern_grid::{ObjectId, OpCounters};
use igern_mobgen::{ObjKind, Workload, WorkloadConfig};

/// Parameters of one experiment run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub num_objects: usize,
    pub grid_size: usize,
    /// Total evaluations: 1 initial + (ticks - 1) incremental.
    pub ticks: usize,
    pub seed: u64,
    pub num_queries: usize,
    /// Bichromatic workload (half A, half B) vs. monochromatic.
    pub bichromatic: bool,
}

impl RunConfig {
    /// Paper defaults for a monochromatic run.
    pub fn mono(num_objects: usize, grid_size: usize, ticks: usize, seed: u64) -> Self {
        RunConfig {
            num_objects,
            grid_size,
            ticks,
            seed,
            num_queries: 8,
            bichromatic: false,
        }
    }

    /// Paper defaults for a bichromatic run.
    pub fn bi(num_objects: usize, grid_size: usize, ticks: usize, seed: u64) -> Self {
        RunConfig {
            bichromatic: true,
            ..Self::mono(num_objects, grid_size, ticks, seed)
        }
    }
}

/// Aggregated measurements of one `(workload, algorithm)` run.
#[derive(Debug, Clone)]
pub struct AlgoRun {
    pub algorithm: Algorithm,
    /// Mean per-query evaluation time at each tick (index 0 = initial).
    pub tick_times: Vec<Duration>,
    /// Running accumulation of `tick_times`.
    pub accumulated: Vec<Duration>,
    /// Mean monitored objects over all queries and all ticks.
    pub mean_monitored: f64,
    /// Mean answer size over all queries and ticks.
    pub mean_answer: f64,
    /// Mean monitored-region area over all queries and ticks (0 for
    /// algorithms without a persistent region).
    pub mean_region_area: f64,
    /// Summed machine-independent operation counts over all queries/ticks.
    pub ops: OpCounters,
    /// Grid cell changes recorded on the store over the whole run.
    pub cell_changes: u64,
}

impl AlgoRun {
    /// Mean time of the initial evaluation (tick 0).
    pub fn initial_time(&self) -> Duration {
        self.tick_times.first().copied().unwrap_or_default()
    }

    /// Mean time per incremental tick (ticks ≥ 1); falls back to the
    /// initial tick for single-tick runs.
    pub fn mean_incremental_time(&self) -> Duration {
        if self.tick_times.len() <= 1 {
            return self.initial_time();
        }
        let total: Duration = self.tick_times[1..].iter().sum();
        total / (self.tick_times.len() as u32 - 1)
    }

    /// Mean time over all ticks including the initial one (the "average
    /// CPU time" of Figures 7a/9a).
    pub fn mean_time(&self) -> Duration {
        if self.tick_times.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.tick_times.iter().sum();
        total / self.tick_times.len() as u32
    }

    /// Total accumulated time (Figures 8b/10b's last point).
    pub fn total_time(&self) -> Duration {
        self.accumulated.last().copied().unwrap_or_default()
    }
}

/// The workload a config describes.
fn workload_config(cfg: &RunConfig) -> WorkloadConfig {
    if cfg.bichromatic {
        WorkloadConfig::network_bi(cfg.num_objects, cfg.seed)
    } else {
        WorkloadConfig::network_mono(cfg.num_objects, cfg.seed)
    }
}

/// A store over the workload's space, loaded with its kinds and initial
/// positions.
pub(crate) fn build_store(workload: &Workload, grid_size: usize) -> SpatialStore {
    let kinds: Vec<ObjectKind> = workload
        .kinds()
        .iter()
        .map(|k| match k {
            ObjKind::A => ObjectKind::A,
            ObjKind::B => ObjectKind::B,
        })
        .collect();
    let mut store = SpatialStore::new(workload.mover().space(), grid_size, kinds);
    let initial: Vec<_> = (0..workload.len() as u32)
        .map(|i| workload.mover().position(i))
        .collect();
    store.load(&initial);
    store
}

/// Run one algorithm over the configured workload and aggregate.
pub fn run_one(cfg: &RunConfig, algorithm: Algorithm) -> AlgoRun {
    run_workload(
        &workload_config(cfg),
        cfg.grid_size,
        cfg.ticks,
        cfg.num_queries,
        algorithm,
    )
}

/// [`run_one`] over an explicit workload config (the movement-model and
/// skew ablations bring their own).
pub(crate) fn run_workload(
    wcfg: &WorkloadConfig,
    grid_size: usize,
    ticks: usize,
    num_queries: usize,
    algorithm: Algorithm,
) -> AlgoRun {
    assert!(ticks >= 1, "need at least the initial tick");
    let mut workload = Workload::from_config(wcfg);
    let mut proc = TickRunner::new(build_store(&workload, grid_size), 1, Placement::RoundRobin);
    let query_kind = ObjKind::A; // bichromatic queries must be A; mono is all-A
    let query_ids = workload.pick_queries(query_kind, num_queries);
    assert!(!query_ids.is_empty(), "no query candidates in workload");
    for &q in &query_ids {
        proc.add_query(ObjectId(q), algorithm)
            .expect("picked query objects are valid anchors");
    }
    // Tick 0: initial evaluation.
    proc.evaluate_all();
    // Ticks 1..: move everything, re-evaluate.
    for _ in 1..ticks {
        let ups: Vec<(ObjectId, _)> = workload
            .advance()
            .iter()
            .map(|u| (ObjectId(u.id), u.pos))
            .collect();
        proc.step(&ups);
    }
    // Aggregate across queries.
    let nq = proc.num_queries();
    let mut tick_times = vec![Duration::ZERO; ticks];
    let mut ops = OpCounters::new();
    let mut monitored_sum = 0u64;
    let mut answer_sum = 0u64;
    let mut area_sum = 0.0f64;
    let mut samples = 0u64;
    for qi in 0..nq {
        let hist = proc.history(qi);
        assert_eq!(hist.len(), ticks, "one sample per tick per query");
        for (t, s) in hist.iter().enumerate() {
            tick_times[t] += s.elapsed;
            ops.merge(&s.ops);
            monitored_sum += s.monitored as u64;
            answer_sum += s.answer_size as u64;
            area_sum += s.region_area;
            samples += 1;
        }
    }
    for t in &mut tick_times {
        *t /= nq as u32;
    }
    let mut accumulated = Vec::with_capacity(ticks);
    let mut acc = Duration::ZERO;
    for &t in &tick_times {
        acc += t;
        accumulated.push(acc);
    }
    AlgoRun {
        algorithm,
        tick_times,
        accumulated,
        mean_monitored: monitored_sum as f64 / samples as f64,
        mean_answer: answer_sum as f64 / samples as f64,
        mean_region_area: area_sum / samples as f64,
        ops,
        cell_changes: proc.store().cell_changes(),
    }
}

/// Count grid cell changes for a workload at a given grid size, without
/// evaluating any query (Figure 6a's metric).
pub fn measure_cell_changes(cfg: &RunConfig) -> u64 {
    let mut workload = Workload::from_config(&workload_config(cfg));
    let mut store = build_store(&workload, cfg.grid_size);
    for _ in 1..cfg.ticks {
        for u in workload.advance().to_vec() {
            store.apply(ObjectId(u.id), u.pos);
        }
    }
    store.cell_changes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(bichromatic: bool) -> RunConfig {
        RunConfig {
            num_objects: 300,
            grid_size: 16,
            ticks: 6,
            seed: 3,
            num_queries: 3,
            bichromatic,
        }
    }

    #[test]
    fn mono_run_produces_full_series() {
        let run = run_one(&tiny(false), Algorithm::IgernMono);
        assert_eq!(run.tick_times.len(), 6);
        assert_eq!(run.accumulated.len(), 6);
        assert!(run.total_time() >= run.initial_time());
        assert!(run.ops.total_searches() > 0);
    }

    #[test]
    fn identical_seeds_give_identical_answers_across_algorithms() {
        let cfg = tiny(false);
        let a = run_one(&cfg, Algorithm::IgernMono);
        let b = run_one(&cfg, Algorithm::Crnn);
        let c = run_one(&cfg, Algorithm::TplRepeat);
        // Answer sizes are workload properties, not algorithm properties.
        assert!((a.mean_answer - b.mean_answer).abs() < 1e-9);
        assert!((a.mean_answer - c.mean_answer).abs() < 1e-9);
    }

    #[test]
    fn bi_run_matches_voronoi_answers() {
        let cfg = tiny(true);
        let a = run_one(&cfg, Algorithm::IgernBi);
        let b = run_one(&cfg, Algorithm::VoronoiRepeat);
        assert!((a.mean_answer - b.mean_answer).abs() < 1e-9);
    }

    #[test]
    fn igern_monitors_fewer_than_crnn() {
        let cfg = RunConfig {
            num_objects: 2_000,
            ..tiny(false)
        };
        let igern = run_one(&cfg, Algorithm::IgernMono);
        let crnn = run_one(&cfg, Algorithm::Crnn);
        assert!(
            igern.mean_monitored < crnn.mean_monitored,
            "IGERN {} vs CRNN {}",
            igern.mean_monitored,
            crnn.mean_monitored
        );
        // Dense data: nearly every pie is occupied (queries near the space
        // boundary can face a few empty pies).
        assert!(crnn.mean_monitored > 5.0, "crnn {}", crnn.mean_monitored);
    }

    #[test]
    fn cell_changes_grow_with_grid_size() {
        let coarse = measure_cell_changes(&RunConfig {
            grid_size: 8,
            ..tiny(false)
        });
        let fine = measure_cell_changes(&RunConfig {
            grid_size: 64,
            ..tiny(false)
        });
        assert!(fine > coarse, "fine {fine} vs coarse {coarse}");
    }
}
