//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§4).
//!
//! Each experiment lives in its own module under [`experiments`] and returns
//! one or more [`reporting::ExperimentTable`]s whose rows mirror the series
//! the paper plots; the `run_experiments` binary prints them. Performance
//! is measured elsewhere: the repository's benchmark is the `benchmark/`
//! package (see `benchmark/README.md`).
//!
//! Absolute numbers are *not* expected to match the paper (the substrate is a
//! laptop-scale Rust engine, not the authors' 32-core MonetDB testbed); the
//! shapes — who wins, by roughly what factor, where the crossovers lie — are
//! what the experiments reproduce.

#![forbid(unsafe_code)]

pub mod common;
pub mod config;
pub mod experiments;
pub mod reporting;

pub use config::ExperimentConfig;
pub use reporting::ExperimentTable;

/// Identifier and short description of every reproducible experiment.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig1", "Figure 1: response time vs DOP under a concurrent workload"),
    ("fig11", "Figure 11: adaptive convergence curve of a join plan"),
    ("fig12", "Figure 12: skewed select — static vs dynamic partitioning"),
    ("fig14", "Figure 14: adaptive select plan, size x selectivity sweep"),
    ("table2", "Table 2: select plan speedup, adaptive vs heuristic"),
    ("fig15", "Figure 15: adaptive join plan, input size sweep"),
    ("table3", "Table 3: join plan speedup, adaptive vs heuristic"),
    ("fig16", "Figure 16: TPC-H isolated + concurrent, HP vs AP vs admission-controlled"),
    ("fig17", "Figure 17: TPC-DS isolated, heuristic vs adaptive, two machine configs"),
    ("table5", "Table 5: TPC-H Q14 plan statistics, AP vs HP"),
    ("fig18", "Figure 18: convergence robustness over repeated invocations"),
    ("fig19", "Figures 19/20: multi-core utilization traces of TPC-H Q14"),
];

/// Runs one experiment by id.
pub fn run_experiment(id: &str, cfg: &ExperimentConfig) -> Option<Vec<ExperimentTable>> {
    match id {
        "fig1" => Some(experiments::fig01_dop_variation::run(cfg)),
        "fig11" => Some(experiments::fig11_convergence_curve::run(cfg)),
        "fig12" => Some(experiments::fig12_skew::run(cfg)),
        "fig14" => Some(experiments::fig14_select_adaptation::run(cfg)),
        "table2" => Some(experiments::table2_select_speedup::run(cfg)),
        "fig15" => Some(experiments::fig15_join_adaptation::run(cfg)),
        "table3" => Some(experiments::table3_join_speedup::run(cfg)),
        "fig16" => Some(experiments::fig16_tpch::run(cfg)),
        "fig17" => Some(experiments::fig17_tpcds::run(cfg)),
        "table5" => Some(experiments::table5_plan_stats::run(cfg)),
        "fig18" => Some(experiments::fig18_convergence::run(cfg)),
        "fig19" => Some(experiments::fig19_utilization::run(cfg)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_is_runnable_by_id() {
        // Only checks the dispatch table; the experiments themselves are
        // exercised by their own tests.
        for (id, description) in EXPERIMENTS {
            assert!(!description.is_empty());
            assert!(
                [
                    "fig1", "fig11", "fig12", "fig14", "table2", "fig15", "table3", "fig16",
                    "fig17", "table5", "fig18", "fig19"
                ]
                .contains(id),
                "unknown experiment id {id}"
            );
        }
        assert!(run_experiment("nope", &ExperimentConfig::smoke()).is_none());
    }
}
