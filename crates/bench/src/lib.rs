//! Experiment harness for the Section-7 reproduction.
//!
//! One driver, `experiments`, runs one function per paper figure (see
//! DESIGN.md §5 and EXPERIMENTS.md); `--only e1,e8,…` selects by id:
//!
//! | id    | reproduces                                  |
//! |-------|---------------------------------------------|
//! | `e1`  | Figures 6a, 6b (grid size)                  |
//! | `e2`  | Figures 7a, 7b (mono scalability)           |
//! | `e3`  | Figures 8a, 8b (mono stability)             |
//! | `e4`  | Figures 9a, 9b (bi scalability)             |
//! | `e5`  | Figures 10a, 10b (bi stability)             |
//! | `e6`  | §6 cost model                               |
//! | `e7`  | ablations A1/A2/A4/A6/A7                    |
//! | `e8`  | RkNN extension, k sweep                     |
//! | `e9`  | ablation A5: grid vs the [`rtree`] substrate |
//! | `e10` | query-count scalability                     |
//!
//! Every experiment prints the same series the paper plots (plus
//! machine-independent operation counts) and writes CSV into `results/`.
//! Performance claims about the system itself live in `benchmark/`, not
//! here.

#![forbid(unsafe_code)]

pub mod args;
mod experiments;
pub mod harness;
pub mod report;
pub mod rtree;

pub use args::ExpArgs;
pub use experiments::run;
pub use harness::{run_one, AlgoRun, RunConfig};
