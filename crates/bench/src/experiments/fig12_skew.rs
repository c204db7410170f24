//! Figure 12: parallel select over skewed data (Fig. 13 distribution) with
//! static 8-way partitioning, static 128-way ("work stealing") partitioning
//! and dynamic (adaptive) partitioning, as the fraction of skewed matches
//! grows from 10 % to 50 %.

use apq_baselines::{heuristic_parallelize, DEFAULT_WORK_STEALING_PARTITIONS};
use apq_workloads::micro::skewed;

use crate::common::{adaptive, engine, time_plan_ms, us_to_ms};
use crate::config::ExperimentConfig;
use crate::reporting::{fmt_ms, ExperimentTable};

/// Runs the experiment.
pub fn run(cfg: &ExperimentConfig) -> Vec<ExperimentTable> {
    let engine = engine(cfg);
    let static_parts = engine.n_workers();
    let stealing_parts = (engine.n_workers() * 16).min(DEFAULT_WORK_STEALING_PARTITIONS);
    let catalog = skewed::catalog(cfg.micro_rows, cfg.seed);

    let mut table = ExperimentTable::new(
        "Figure 12",
        format!(
            "skewed select, {} rows, {} workers: static {static_parts} parts vs static {stealing_parts} parts (work stealing) vs dynamic (adaptive)",
            cfg.micro_rows,
            engine.n_workers()
        ),
        &[
            "skew_%",
            "static_parts_ms",
            "work_stealing_ms",
            "adaptive_dynamic_ms",
            "adaptive_partitions",
        ],
    );

    for clusters in 1..=5usize {
        let serial = skewed::plan(&catalog, clusters).expect("skewed plan builds");
        let static_plan = heuristic_parallelize(&serial, &catalog, static_parts)
            .expect("static partitioning succeeds");
        let stealing = heuristic_parallelize(&serial, &catalog, stealing_parts)
            .expect("work-stealing plan builds");
        let static_ms = time_plan_ms(&engine, &catalog, &static_plan, cfg.measure_reps);
        let stealing_ms = time_plan_ms(&engine, &catalog, &stealing, cfg.measure_reps);
        let report = adaptive(cfg, &engine, &catalog, &serial);
        let adaptive_ms = time_plan_ms(&engine, &catalog, &report.best_plan, cfg.measure_reps)
            .min(us_to_ms(report.best_us));
        table.row(vec![
            format!("{}", clusters * 10),
            fmt_ms(static_ms),
            fmt_ms(stealing_ms),
            fmt_ms(adaptive_ms),
            report.best_plan.count_of("select").to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_row_per_skew_level() {
        let tables = run(&ExperimentConfig::smoke());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 5);
        assert_eq!(tables[0].rows[0][0], "10");
        assert_eq!(tables[0].rows[4][0], "50");
        // Times are positive numbers.
        for row in &tables[0].rows {
            for cell in &row[1..=3] {
                assert!(cell.parse::<f64>().unwrap() > 0.0);
            }
        }
    }
}
