//! Concurrent workload: why the adaptive plans' lower degree of parallelism
//! pays off when the machine is busy (paper figs. 1 and 16, concurrent).
//!
//! A pool of background clients keeps firing heuristically parallelized
//! TPC-H queries. Under that one load the example measures:
//!
//! * fig. 16's concurrent bars — every evaluated query's response time as
//!   its heuristic plan, as the plan adaptive parallelization found while
//!   the system was idle, and as the heuristic plan run through the
//!   Vectorwise-style admission baseline, which counts the background
//!   clients and so grants the measured query one task at a time;
//! * fig. 1 — Q4, Q9 and Q19's heuristic plans at W/4, W/2 and W
//!   partitions: no single static degree of parallelism suits every query.
//!
//! ```text
//! cargo run --release --example concurrent_workload
//! ```

use std::sync::Arc;
use std::time::Instant;

use adaptive_parallelization::adaptive::{AdaptiveConfig, AdaptiveOptimizer};
use adaptive_parallelization::baselines::{heuristic_parallelize, AdmissionController};
use adaptive_parallelization::engine::Engine;
use adaptive_parallelization::workloads::concurrent::{measure_under_load, BackgroundLoad};
use adaptive_parallelization::workloads::tpch::{self, TpchQuery, TpchScale};

const WORKERS: usize = 8;
const CLIENTS: usize = 16;
/// Measured executions per reported mean.
const REPS: usize = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = tpch::generate(TpchScale::new(0.01), 42);
    let engine = Arc::new(Engine::with_workers(WORKERS));
    let optimizer = AdaptiveOptimizer::new(AdaptiveConfig::for_cores(WORKERS).with_max_runs(24));

    // Prepare plans while the system is idle.
    let mut prepared = Vec::new();
    for query in TpchQuery::all() {
        let serial = query.build(&catalog)?;
        let hp = Arc::new(heuristic_parallelize(&serial, &catalog, WORKERS)?);
        let ap = optimizer.optimize(&engine, &catalog, &serial)?.best_plan;
        prepared.push((query, serial, hp, ap));
    }
    let background = prepared.iter().map(|(_, _, hp, _)| hp.as_ref().clone()).collect();

    println!("starting {CLIENTS} background clients on {WORKERS} workers...");
    let load =
        BackgroundLoad::start(Arc::clone(&engine), Arc::clone(&catalog), background, CLIENTS, 7);
    let admission = AdmissionController::new(WORKERS);
    let _clients: Vec<_> = (0..CLIENTS).map(|_| admission.admit()).collect();

    println!(
        "{:<5} {:>13} {:>12} {:>13} {:>12}",
        "query", "heuristic_ms", "adaptive_ms", "admission_ms", "improvement"
    );
    for (query, _, hp, ap) in &prepared {
        let hp_ms = measure_under_load(&engine, &catalog, hp, REPS)?.mean_ms();
        let ap_ms = measure_under_load(&engine, &catalog, ap, REPS)?.mean_ms();
        let start = Instant::now();
        for _ in 0..REPS {
            admission.execute_admitted(&engine, hp, &catalog)?;
        }
        let admission_ms = start.elapsed().as_secs_f64() * 1000.0 / REPS as f64;
        println!(
            "{:<5} {:>13.3} {:>12.3} {:>13.3} {:>11.1}%",
            query.to_string(),
            hp_ms,
            ap_ms,
            admission_ms,
            (1.0 - ap_ms / hp_ms) * 100.0,
        );
    }

    println!("heuristic response time by degree of parallelism, same load (fig. 1):");
    println!("{:<5} {:>4} {:>12}", "query", "DOP", "response_ms");
    for (query, serial, ..) in &prepared {
        if !matches!(query, TpchQuery::Q4 | TpchQuery::Q9 | TpchQuery::Q19) {
            continue;
        }
        for dop in [WORKERS / 4, WORKERS / 2, WORKERS] {
            let plan = heuristic_parallelize(serial, &catalog, dop)?;
            let m = measure_under_load(&engine, &catalog, &plan, REPS)?;
            println!("{:<5} {:>4} {:>12.3}", query.to_string(), dop, m.mean_ms());
        }
    }
    let executed = load.stop();
    println!("background clients completed {executed} queries during the measurement");
    Ok(())
}
