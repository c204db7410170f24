//! Adaptive vs heuristic parallelization on the TPC-H-like and TPC-DS-like
//! workloads (paper figs. 16 isolated, 17a and 18).
//!
//! Builds scale-factor-0.01 databases, then runs every evaluated query —
//! TPC-H Q4, Q6, Q8, Q9, Q14, Q19, Q22 and the five TPC-DS-like report
//! queries — three ways: the serial plan, the statically parallelized
//! (heuristic) plan, and the plan found by adaptive parallelization. The
//! adaptive episode runs three times per query, as in fig. 18: each
//! invocation prints its total runs, the run of its global minimum (GME)
//! and the GME time, and the first invocation's plan is the adaptive column
//! (fig. 16's isolated bars for TPC-H, fig. 17a's for TPC-DS).
//!
//! ```text
//! cargo run --release --example adaptive_tpch
//! ```

use std::sync::Arc;
use std::time::Instant;

use adaptive_parallelization::adaptive::{AdaptiveConfig, AdaptiveOptimizer};
use adaptive_parallelization::baselines::heuristic_parallelize;
use adaptive_parallelization::columnar::Catalog;
use adaptive_parallelization::engine::{Engine, Plan};
use adaptive_parallelization::workloads::tpcds::{self, TpcdsQuery, TpcdsScale};
use adaptive_parallelization::workloads::tpch::{self, TpchQuery, TpchScale};

/// Adaptive episodes per query (fig. 18 repeats each one three times).
const INVOCATIONS: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = TpchScale::new(0.01);
    println!(
        "generating TPC-H-like (scale factor {}, {} lineitem rows) and TPC-DS-like data...",
        scale.sf,
        scale.lineitem_rows()
    );
    let tpch = tpch::generate(scale, 42);
    let tpcds = tpcds::generate(TpcdsScale::new(0.01), 42);
    let mut queries = Vec::new();
    for query in TpchQuery::all() {
        queries.push((query.to_string(), Arc::clone(&tpch), query.build(&tpch)?));
    }
    for query in TpcdsQuery::all() {
        queries.push((query.to_string(), Arc::clone(&tpcds), query.build(&tpcds)?));
    }
    let engine = Engine::with_workers(8);
    let optimizer =
        AdaptiveOptimizer::new(AdaptiveConfig::for_cores(engine.n_workers()).with_max_runs(24));

    println!("{} workers; each invocation reads total runs / GME run / GME ms", engine.n_workers());
    println!(
        "{:<5} {:>10} {:>12} {:>11} {:>10}  invocations",
        "query", "serial_ms", "heuristic_ms", "adaptive_ms", "AP_selects"
    );
    for (name, catalog, serial) in &queries {
        let hp = heuristic_parallelize(serial, catalog, engine.n_workers())?;
        let mut invocations = Vec::new();
        for _ in 0..INVOCATIONS {
            invocations.push(optimizer.optimize(&engine, catalog, serial)?);
        }
        let ap = &invocations[0].best_plan;
        let runs: Vec<String> = invocations
            .iter()
            .map(|r| format!("{}/{}/{:.3}", r.total_runs, r.gme_run, r.gme_us as f64 / 1000.0))
            .collect();
        println!(
            "{:<5} {:>10.3} {:>12.3} {:>11.3} {:>10}  {}",
            name,
            best_ms(&engine, catalog, serial),
            best_ms(&engine, catalog, &hp),
            best_ms(&engine, catalog, ap),
            ap.count_of("select"),
            runs.join("  "),
        );
    }
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
