//! Continuous monochromatic reverse-nearest-neighbor evaluation
//! (paper §3: Algorithms 1 and 2), at any order `k`.

mod igern;

pub use igern::MonoIgern;
