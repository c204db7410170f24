//! Plan evolution, plan statistics and tomograph-style execution traces
//! (paper table 5 and figs. 19/20).
//!
//! Shows TPC-H Q14's serial plan, the plan adaptive parallelization converges
//! to, and the statically parallelized plan — then executes the latter two,
//! renders per-worker timelines so the multi-core-utilization difference is
//! visible in the terminal, and prints table 5: both plans' operator counts
//! per family and both executions' utilization.
//!
//! ```text
//! cargo run --release --example plan_trace
//! ```

use adaptive_parallelization::adaptive::{AdaptiveConfig, AdaptiveOptimizer};
use adaptive_parallelization::baselines::heuristic_parallelize;
use adaptive_parallelization::engine::Engine;
use adaptive_parallelization::workloads::tpch::{self, queries::q14, TpchScale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers = 8;
    let catalog = tpch::generate(TpchScale::new(0.01), 42);
    let engine = Engine::with_workers(workers);
    let serial = q14(&catalog)?;

    println!("--- serial Q14 plan ({} operators) ---", serial.node_count());
    println!("{}", serial.pretty());

    let optimizer = AdaptiveOptimizer::new(AdaptiveConfig::for_cores(workers).with_max_runs(24));
    let report = optimizer.optimize(&engine, &catalog, &serial)?;
    println!(
        "--- adaptive Q14 plan after {} runs ({} operators, speedup {:.2}x) ---",
        report.total_runs,
        report.best_plan.node_count(),
        report.speedup()
    );
    println!("{}", report.best_plan.pretty());

    let hp = heuristic_parallelize(&serial, &catalog, workers)?;
    println!("--- heuristic Q14 plan ({} operators) ---", hp.node_count());

    let ap_exec = engine.execute(&report.best_plan, &catalog)?;
    let hp_exec = engine.execute(&hp, &catalog)?;
    println!("--- adaptive execution trace (paper Fig. 19) ---");
    println!("{}", ap_exec.profile.timeline(100));
    println!("--- heuristic execution trace (paper Fig. 20) ---");
    println!("{}", hp_exec.profile.timeline(100));
    println!("--- Q14 plan statistics (paper table 5) ---");
    println!("{:<26} {:>9} {:>10}", "", "adaptive", "heuristic");
    // Each node counts its parts, as the paper counts each clone.
    for family in ["select", "join", "fetch"] {
        let (ap, hp) = (report.best_plan.count_of(family), hp.count_of(family));
        println!("{:<26} {ap:>9} {hp:>10}", format!("# {family} operators"));
    }
    let (ap_nodes, hp_nodes) = (report.best_plan.node_count(), hp.node_count());
    println!("{:<26} {ap_nodes:>9} {hp_nodes:>10}", "# plan operators");
    for (metric, ap, hp) in [
        (
            "% multi-core utilization",
            ap_exec.profile.multi_core_utilization(),
            hp_exec.profile.multi_core_utilization(),
        ),
        (
            "% parallelism usage",
            ap_exec.profile.parallelism_usage(),
            hp_exec.profile.parallelism_usage(),
        ),
    ] {
        println!("{metric:<26} {:>9.1} {:>10.1}", ap * 100.0, hp * 100.0);
    }
    Ok(())
}
