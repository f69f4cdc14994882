//! Continuous bichromatic reverse-nearest-neighbor evaluation
//! (paper §4: Algorithms 3 and 4) — the first continuous algorithm for
//! the bichromatic case — at any order `k`.

mod igern;

pub use igern::BiIgern;
