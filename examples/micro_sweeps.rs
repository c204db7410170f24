//! Micro-benchmark sweeps of adaptive parallelization (paper figs. 11, 14
//! and 15, tables 2 and 3).
//!
//! One adaptive episode per sweep point: a select plan over three sizes and
//! three selectivities (fig. 14, table 2), then a join plan over three outer
//! and two inner sizes (fig. 15, table 3; fig. 11 is the curve of the
//! largest outer input with the smaller inner one). Each episode prints its
//! convergence curve — per run the time, the mutation that produced the
//! run's plan, the plan's size and the credit/debit balance after the run —
//! and then the adaptive (AP) and heuristic (HP) speedups over the serial
//! plan.
//!
//! ```text
//! cargo run --release --example micro_sweeps
//! ```

use std::sync::Arc;
use std::time::Instant;

use adaptive_parallelization::adaptive::{AdaptiveConfig, AdaptiveOptimizer};
use adaptive_parallelization::baselines::heuristic_parallelize;
use adaptive_parallelization::columnar::Catalog;
use adaptive_parallelization::engine::{Engine, Plan};
use adaptive_parallelization::workloads::micro::{join_sweep, select_sweep};

const WORKERS: usize = 8;
/// The largest input; the sweeps scale it down.
const ROWS: usize = 400_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = Engine::with_workers(WORKERS);
    let optimizer = AdaptiveOptimizer::new(AdaptiveConfig::for_cores(WORKERS).with_max_runs(24));
    println!("{WORKERS} workers; HP partitions the input {WORKERS} ways");
    for rows in [ROWS, ROWS / 2, ROWS / 4] {
        let catalog = select_sweep::catalog(rows, 42);
        // The paper's selectivity is the percentage of rows filtered out.
        for selectivity in [0, 50, 100] {
            let serial = select_sweep::plan(&catalog, selectivity)?;
            let label = format!("select: {rows} rows, selectivity {selectivity}%");
            episode(&engine, &optimizer, &catalog, &serial, &label)?;
        }
    }
    // The paper's 3200 / 2000 / 640 MB outer and 64 / 16 MB inner inputs.
    for outer in [ROWS, ROWS * 5 / 8, ROWS / 5] {
        for inner in [ROWS / 50, ROWS / 200] {
            let catalog = join_sweep::catalog(outer, inner, 42);
            let serial = join_sweep::plan(&catalog)?;
            let label = format!("join: {outer} outer rows, {inner} inner rows");
            episode(&engine, &optimizer, &catalog, &serial, &label)?;
        }
    }
    Ok(())
}

/// Runs one adaptive episode over `serial` and prints its curve and speedups.
fn episode(
    engine: &Engine,
    optimizer: &AdaptiveOptimizer,
    catalog: &Arc<Catalog>,
    serial: &Plan,
    label: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let report = optimizer.optimize(engine, catalog, serial)?;
    println!("--- {label} ---");
    println!("{:>4} {:>9} {:>9} {:>8}", "run", "ms", "mutation", "balance");
    for r in &report.records {
        let mutation = r.mutation.map_or("serial".to_string(), |m| m.to_string());
        let ms = r.exec_us as f64 / 1000.0;
        println!("{:>4} {ms:>9.3} {mutation:>9} {:>8.2}", r.run, r.balance);
    }
    let parts: usize = report.best_plan.count_by_name().values().sum();
    println!("best plan: {} operators in {parts} parts", report.best_plan.node_count());
    let hp = heuristic_parallelize(serial, catalog, WORKERS)?;
    let serial_ms = best_ms(engine, catalog, serial);
    println!(
        "speedup over serial ({serial_ms:.3} ms): AP {:.2}x, HP {:.2}x",
        serial_ms / best_ms(engine, catalog, &report.best_plan),
        serial_ms / best_ms(engine, catalog, &hp),
    );
    Ok(())
}

/// Best of three executions, in milliseconds.
fn best_ms(engine: &Engine, catalog: &Arc<Catalog>, plan: &Plan) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            engine.execute(plan, catalog).expect("execution succeeds");
            start.elapsed().as_secs_f64() * 1000.0
        })
        .fold(f64::INFINITY, f64::min)
}
