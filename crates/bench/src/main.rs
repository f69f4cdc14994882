//! `experiments`: regenerate the paper's Section 7 and §6 tables.
//!
//! `cargo run --release -p igern-bench -- --quick` is a fast smoke pass
//! over every figure; without `--quick` the paper-scale parameters are
//! used. `--only e1,e8` runs a subset.

#![forbid(unsafe_code)]

fn main() {
    if let Err(e) = igern_bench::run(&igern_bench::ExpArgs::parse()) {
        eprintln!("{e}");
        std::process::exit(2);
    }
}
