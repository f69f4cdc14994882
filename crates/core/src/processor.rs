//! [`Algorithm`] — which evaluation strategy a standing query runs.
//!
//! The tick loop that walks the registered queries is `igern-engine`'s
//! `TickRunner`; this module only names the strategies it can register.
//! [`Algorithm::make_monitor`] (in [`crate::monitor`]) builds the boxed
//! [`ContinuousMonitor`](crate::monitor::ContinuousMonitor) for one.

/// Which algorithm evaluates a continuous query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// IGERN, monochromatic (Algorithms 1–2).
    IgernMono,
    /// CRNN six-pie monitoring (monochromatic).
    Crnn,
    /// Snapshot TPL re-run every tick (monochromatic).
    TplRepeat,
    /// IGERN, bichromatic (Algorithms 3–4). The query object must be of
    /// kind A.
    IgernBi,
    /// Voronoi-cell reconstruction every tick (bichromatic).
    VoronoiRepeat,
    /// IGERN generalized to reverse k-nearest neighbors, monochromatic
    /// (the journal-version extension).
    IgernMonoK(usize),
    /// IGERN generalized to reverse k-nearest neighbors, bichromatic.
    IgernBiK(usize),
    /// Plain continuous k-nearest neighbors (guard-circle monitoring) —
    /// the substrate facility of the paper's reference \[17\], offered as a
    /// registrable algorithm for completeness.
    Knn(usize),
}

impl Algorithm {
    /// Whether the algorithm answers bichromatic queries.
    pub fn is_bichromatic(self) -> bool {
        matches!(
            self,
            Algorithm::IgernBi | Algorithm::VoronoiRepeat | Algorithm::IgernBiK(_)
        )
    }
}
