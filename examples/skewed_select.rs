//! Skew handling (paper Figure 12): static vs dynamic (adaptive)
//! partitioning of a select over the skewed column of the paper's Figure 13.
//!
//! Static equi-range partitioning assigns every worker the same number of
//! rows, but all the matching rows live in one region of the column, so one
//! partition does all the output work. Adaptive parallelization notices that
//! the operator on the skewed partition stays the most expensive one and
//! keeps splitting exactly that partition until the work is balanced.
//!
//! ```text
//! cargo run --release --example skewed_select
//! ```

use std::time::Instant;

use adaptive_parallelization::adaptive::{AdaptiveConfig, AdaptiveOptimizer};
use adaptive_parallelization::baselines::{
    heuristic_parallelize, DEFAULT_WORK_STEALING_PARTITIONS,
};
use adaptive_parallelization::engine::Engine;
use adaptive_parallelization::workloads::micro::skewed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows = 2_000_000;
    let workers = 8;
    println!("skewed column with {rows} rows, {workers} workers");
    let catalog = skewed::catalog(rows, 7);
    let engine = Engine::with_workers(workers);
    let optimizer = AdaptiveOptimizer::new(AdaptiveConfig::for_cores(workers).with_max_runs(32));

    println!(
        "{:>7} {:>16} {:>18} {:>14} {:>14}",
        "skew_%", "static_8_ms", "static_128_ms", "adaptive_ms", "AP_partitions"
    );
    for clusters in 1..=5usize {
        let serial = skewed::plan(&catalog, clusters)?;
        let static_plan = heuristic_parallelize(&serial, &catalog, workers)?;
        let stealing_plan =
            heuristic_parallelize(&serial, &catalog, DEFAULT_WORK_STEALING_PARTITIONS)?;
        let report = optimizer.optimize(&engine, &catalog, &serial)?;

        let static_ms = best_ms(&engine, &catalog, &static_plan);
        let stealing_ms = best_ms(&engine, &catalog, &stealing_plan);
        let adaptive_ms = best_ms(&engine, &catalog, &report.best_plan);
        println!(
            "{:>7} {:>16.3} {:>18.3} {:>14.3} {:>14}",
            clusters * 10,
            static_ms,
            stealing_ms,
            adaptive_ms,
            report.best_plan.count_of("select"),
        );
    }
    Ok(())
}

fn best_ms(
    engine: &Engine,
    catalog: &std::sync::Arc<adaptive_parallelization::columnar::Catalog>,
    plan: &adaptive_parallelization::engine::Plan,
) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            engine.execute(plan, catalog).expect("execution succeeds");
            start.elapsed().as_secs_f64() * 1000.0
        })
        .fold(f64::INFINITY, f64::min)
}
