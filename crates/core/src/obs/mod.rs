//! The observability subsystem: a lightweight, dependency-free metrics
//! registry shared by every layer of the tick pipeline.
//!
//! # Model
//!
//! A [`MetricsRegistry`] owns a flat namespace of instruments, each
//! identified by a Prometheus-style name plus an optional sorted label
//! set:
//!
//! * [`Counter`] — a monotonic `u64` (events since process start);
//! * [`Gauge`] — a point-in-time `f64` (shard sizes, queue depths);
//! * [`Histogram`] — fixed cumulative buckets over `f64` observations
//!   (latencies in seconds, per-tick dirty-cell counts).
//!
//! Handles are cheap `Arc`-backed clones updated with relaxed atomics, so
//! the hot path (a worker thread recording a tick sample) never takes a
//! lock: registration locks a mutex once, updates are lock-free. The same
//! `(name, labels)` pair always resolves to the same underlying
//! instrument, so independent components can share a series safely.
//!
//! # Exporters
//!
//! [`MetricsRegistry::render_prometheus`] emits the Prometheus text
//! exposition format; [`MetricsRegistry::render_json`] a stable JSON
//! document. The sibling [`promtext`] and [`jsontext`] modules hold the
//! matching in-repo parsers so exports can be validated (CI smoke) and
//! rendered (`igern stats`) without external dependencies.
//!
//! # Pipeline metrics
//!
//! [`PipelineMetrics`] bundles the per-sample instruments of the tick
//! loop — the same measurement surface at every worker count:
//! skip/evaluate counts, per-query latency, §6 operation counters, and
//! the `desync_total` counter fed by graceful cell-desync handling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use igern_grid::OpCounters;

use crate::metrics::TickSample;

pub mod export;
pub mod jsontext;
pub mod promtext;

/// Default latency buckets (seconds): 1 µs → 10 s, roughly log-spaced.
/// IGERN incremental ticks sit around a few µs; snapshot baselines and
/// whole-round phases reach milliseconds.
pub const LATENCY_BUCKETS_S: [f64; 12] = [
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2, 1e-1, 1.0,
];

/// Default buckets for small nonnegative counts (dirty cells per tick,
/// batch sizes): powers of two up to 4096.
pub const COUNT_BUCKETS: [f64; 12] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0,
];

/// A monotonic event counter. Clones share the same underlying value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value (stored as `f64` bits). Clones share the same
/// underlying value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the current value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the non-infinite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (NOT cumulative; one extra slot at
    /// the end for the implicit `+Inf` bucket).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, as `f64` bits (CAS-accumulated).
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram over `f64` observations. Clones share the
/// same underlying series.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let inner = &*self.0;
        let i = inner.bounds.partition_point(|&b| b < v);
        inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a duration in seconds.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Cumulative `(upper_bound, count ≤ bound)` pairs; the final pair is
    /// `(f64::INFINITY, total count)` — the Prometheus `le` view.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let inner = &*self.0;
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(inner.buckets.len());
        for (i, b) in inner.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            let bound = inner.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

/// One registered instrument.
#[derive(Debug, Clone)]
pub(crate) enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    pub instrument: Instrument,
}

/// The instrument namespace: registration is mutex-guarded and
/// idempotent; the handles it returns update lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
        && !name.as_bytes()[0].is_ascii_digit()
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn resolve(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(
            labels.iter().all(|(k, _)| valid_name(k)),
            "bad label name in {labels:?}"
        );
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return e.instrument.clone();
        }
        let instrument = make();
        entries.push(Entry {
            name: name.to_string(),
            labels,
            instrument: instrument.clone(),
        });
        instrument
    }

    /// Get or register the counter `name` (no labels).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_labeled(name, &[])
    }

    /// Get or register the counter `name` with the given labels.
    ///
    /// # Panics
    /// Panics when `(name, labels)` is already registered as a different
    /// instrument kind, or the name is not `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.resolve(name, labels, || Instrument::Counter(Counter::default())) {
            Instrument::Counter(c) => c,
            _ => panic!("{name} is already registered as a non-counter"),
        }
    }

    /// Get or register the gauge `name` (no labels).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_labeled(name, &[])
    }

    /// Get or register the gauge `name` with the given labels.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.resolve(name, labels, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            _ => panic!("{name} is already registered as a non-gauge"),
        }
    }

    /// Get or register the histogram `name` (no labels) with the given
    /// bucket upper bounds (an implicit `+Inf` bucket is always added).
    /// When the series already exists, `bounds` is ignored.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_labeled(name, &[], bounds)
    }

    /// Get or register the histogram `name` with labels and bounds.
    pub fn histogram_labeled(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.resolve(name, labels, || {
            Instrument::Histogram(Histogram::new(bounds))
        }) {
            Instrument::Histogram(h) => h,
            _ => panic!("{name} is already registered as a non-histogram"),
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("registry lock").len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the entries sorted by `(name, labels)` — the stable order
    /// both exporters emit.
    pub(crate) fn sorted_entries(&self) -> Vec<Entry> {
        let mut entries = self.entries.lock().expect("registry lock").clone();
        entries.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        entries
    }
}

/// The per-sample instrument bundle of the tick loop: one measurement
/// surface at every worker count. Names are prefixed
/// (`<prefix>_queries_evaluated_total`, …).
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    /// Ticks completed (`<prefix>_ticks_total`).
    pub ticks_total: Counter,
    /// Position updates applied (`<prefix>_updates_total`).
    pub updates_total: Counter,
    /// Apply-updates phase latency (`<prefix>_apply_seconds`).
    pub apply_seconds: Histogram,
    /// Route + evaluate phase latency (`<prefix>_evaluate_seconds`).
    pub evaluate_seconds: Histogram,
    /// Per-query evaluation latency, evaluated queries only
    /// (`<prefix>_query_eval_seconds`).
    pub query_eval_seconds: Histogram,
    /// Query-ticks that ran the algorithm (`<prefix>_queries_evaluated_total`).
    pub queries_evaluated_total: Counter,
    /// Query-ticks skipped by dirty-region routing
    /// (`<prefix>_queries_skipped_total`).
    pub queries_skipped_total: Counter,
    /// Dirty cells observed per tick (`<prefix>_dirty_cells`).
    pub dirty_cells: Histogram,
    /// Cell desyncs survived (`<prefix>_desync_total`).
    pub desync_total: Counter,
    /// §6 operation counters (`<prefix>_ops_nn_total`, …).
    pub ops_nn_total: Counter,
    pub ops_nn_c_total: Counter,
    pub ops_nn_b_total: Counter,
    pub ops_verifications_total: Counter,
    pub ops_cells_visited_total: Counter,
    pub ops_objects_visited_total: Counter,
}

impl PipelineMetrics {
    /// Register (or re-attach to) the bundle under `prefix` in `registry`.
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> Self {
        let n = |suffix: &str| format!("{prefix}_{suffix}");
        PipelineMetrics {
            ticks_total: registry.counter(&n("ticks_total")),
            updates_total: registry.counter(&n("updates_total")),
            apply_seconds: registry.histogram(&n("apply_seconds"), &LATENCY_BUCKETS_S),
            evaluate_seconds: registry.histogram(&n("evaluate_seconds"), &LATENCY_BUCKETS_S),
            query_eval_seconds: registry.histogram(&n("query_eval_seconds"), &LATENCY_BUCKETS_S),
            queries_evaluated_total: registry.counter(&n("queries_evaluated_total")),
            queries_skipped_total: registry.counter(&n("queries_skipped_total")),
            dirty_cells: registry.histogram(&n("dirty_cells"), &COUNT_BUCKETS),
            desync_total: registry.counter(&n("desync_total")),
            ops_nn_total: registry.counter(&n("ops_nn_total")),
            ops_nn_c_total: registry.counter(&n("ops_nn_c_total")),
            ops_nn_b_total: registry.counter(&n("ops_nn_b_total")),
            ops_verifications_total: registry.counter(&n("ops_verifications_total")),
            ops_cells_visited_total: registry.counter(&n("ops_cells_visited_total")),
            ops_objects_visited_total: registry.counter(&n("ops_objects_visited_total")),
        }
    }

    /// Fold one query-tick sample into the bundle.
    pub fn record_sample(&self, s: &TickSample) {
        if s.skipped {
            self.queries_skipped_total.inc();
        } else {
            self.queries_evaluated_total.inc();
            self.query_eval_seconds.observe_duration(s.elapsed);
        }
        self.record_ops(&s.ops);
    }

    /// Fold a bare operation-counter delta (used where samples are not
    /// available, e.g. ad-hoc searches).
    pub fn record_ops(&self, ops: &OpCounters) {
        // Skipped samples carry all-zero ops; guard the common case so a
        // skip costs two counter bumps, not eight.
        if ops == &OpCounters::default() {
            return;
        }
        self.ops_nn_total.add(ops.nn);
        self.ops_nn_c_total.add(ops.nn_c);
        self.ops_nn_b_total.add(ops.nn_b);
        self.ops_verifications_total.add(ops.verifications);
        self.ops_cells_visited_total.add(ops.cells_visited);
        self.ops_objects_visited_total.add(ops.objects_visited);
        self.desync_total.add(ops.desyncs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_state_across_clones() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ticks_total");
        c.inc();
        reg.counter("ticks_total").add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge_labeled("shard_size", &[("worker", "0")]);
        g.set(7.0);
        assert_eq!(
            reg.gauge_labeled("shard_size", &[("worker", "0")]).get(),
            7.0
        );
        // A different label set is a different series.
        assert_eq!(
            reg.gauge_labeled("shard_size", &[("worker", "1")]).get(),
            0.0
        );
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn histogram_buckets_accumulate_cumulatively() {
        let h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 0.7, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 56.2).abs() < 1e-9);
        assert!((h.mean() - 14.05).abs() < 1e-9);
        let b = h.cumulative_buckets();
        assert_eq!(b.len(), 3);
        assert_eq!(b[0], (1.0, 2));
        assert_eq!(b[1], (10.0, 3));
        assert_eq!(b[2].1, 4);
        assert!(b[2].0.is_infinite());
        // Boundary observation lands in its own bucket (le is inclusive).
        let h2 = Histogram::new(&[1.0]);
        h2.observe(1.0);
        assert_eq!(h2.cumulative_buckets()[0], (1.0, 1));
    }

    #[test]
    fn registration_is_idempotent_and_typed() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &LATENCY_BUCKETS_S);
        h.observe_duration(Duration::from_micros(3));
        // Re-registration ignores the (different) bounds and reuses state.
        let h2 = reg.histogram("lat", &[1.0]);
        assert_eq!(h2.count(), 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("x");
        reg.counter("x");
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn invalid_names_are_rejected() {
        MetricsRegistry::new().counter("9bad name");
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("n");
        let h = reg.histogram("v", &[0.5]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(if i % 2 == 0 { 0.25 } else { 0.75 });
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert!((h.sum() - 2000.0).abs() < 1e-6);
        assert_eq!(h.cumulative_buckets()[0], (0.5, 2000));
    }

    #[test]
    fn pipeline_bundle_folds_samples() {
        let reg = MetricsRegistry::new();
        let pm = PipelineMetrics::register(&reg, "igern_test");
        let mut s = TickSample {
            elapsed: Duration::from_micros(5),
            ..TickSample::default()
        };
        s.ops.nn = 2;
        s.ops.desyncs = 1;
        pm.record_sample(&s);
        pm.record_sample(&TickSample {
            skipped: true,
            ..TickSample::default()
        });
        assert_eq!(pm.queries_evaluated_total.get(), 1);
        assert_eq!(pm.queries_skipped_total.get(), 1);
        assert_eq!(pm.ops_nn_total.get(), 2);
        assert_eq!(pm.desync_total.get(), 1);
        assert_eq!(pm.query_eval_seconds.count(), 1);
        // Re-registering under the same prefix re-attaches, not duplicates.
        let before = reg.len();
        let pm2 = PipelineMetrics::register(&reg, "igern_test");
        assert_eq!(reg.len(), before);
        assert_eq!(pm2.ops_nn_total.get(), 2);
    }
}
