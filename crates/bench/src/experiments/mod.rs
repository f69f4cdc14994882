//! The Section-7 reproduction as one table: every experiment is a
//! function over the shared [`ExpArgs`], run in-process in E1…E10 order.

mod ablation;
mod bi_scalability;
mod cost_model;
mod grid_size;
mod krnn;
mod mono_scalability;
mod query_count;
mod stability;
mod substrate;

use crate::{ExpArgs, RunConfig};
use igern_core::processor::Algorithm;

/// `(id, what it reproduces, body)`.
type Experiment = (&'static str, &'static str, fn(&ExpArgs));

const TABLE: &[Experiment] = &[
    ("e1", "Figure 6: grid size", grid_size::run),
    ("e2", "Figure 7: mono scalability", mono_scalability::run),
    ("e3", "Figure 8: mono stability", |a| {
        stability::run(a, 8, RunConfig::mono, Algorithm::IgernMono, Algorithm::Crnn)
    }),
    ("e4", "Figure 9: bi scalability", bi_scalability::run),
    ("e5", "Figure 10: bi stability", |a| {
        stability::run(
            a,
            10,
            RunConfig::bi,
            Algorithm::IgernBi,
            Algorithm::VoronoiRepeat,
        )
    }),
    ("e6", "Section 6: cost model", cost_model::run),
    ("e7", "ablations A1/A2/A4/A6/A7", ablation::run),
    ("e8", "RkNN extension: k sweep", krnn::run),
    ("e9", "ablation A5: grid vs R-tree", substrate::run),
    ("e10", "query-count scalability", query_count::run),
];

/// Run the experiments `args.only` selects (all of them when empty), in
/// table order.
///
/// # Errors
/// An id in `args.only` that the table does not hold; the message lists
/// the valid ones. Nothing is run in that case.
pub fn run(args: &ExpArgs) -> Result<(), String> {
    if let Some(bad) = args
        .only
        .iter()
        .find(|id| !TABLE.iter().any(|(known, ..)| known == id))
    {
        let valid: Vec<&str> = TABLE.iter().map(|&(id, ..)| id).collect();
        return Err(format!(
            "--only: unknown experiment {bad:?} (valid: {})",
            valid.join(",")
        ));
    }
    for (id, what, body) in TABLE {
        if args.only.is_empty() || args.only.iter().any(|o| o == id) {
            println!("\n########## {id} — {what} ##########");
            body(args);
        }
    }
    Ok(())
}
