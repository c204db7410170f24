//! Cross-crate correctness: for every evaluated query, the serial plan, the
//! heuristically parallelized plan and the plan found by adaptive
//! parallelization must produce identical results.
//!
//! This is the end-to-end version of the paper's implicit correctness
//! obligation — plan mutation and static rewriting only change *how* a query
//! is evaluated, never *what* it returns.

use std::sync::Arc;

use adaptive_parallelization::adaptive::{AdaptiveConfig, AdaptiveOptimizer};
use adaptive_parallelization::baselines::heuristic_parallelize;
use adaptive_parallelization::engine::Engine;
use adaptive_parallelization::workloads::tpcds::{self, TpcdsQuery, TpcdsScale};
use adaptive_parallelization::workloads::tpch::{self, TpchQuery, TpchScale};

fn optimizer(workers: usize) -> AdaptiveOptimizer {
    AdaptiveOptimizer::new(
        AdaptiveConfig::for_cores(workers)
            .with_min_partition_rows(256)
            .with_max_runs(10)
            .with_verification(),
    )
}

#[test]
fn tpch_adaptive_and_heuristic_plans_match_serial_results() {
    let workers = 4;
    let catalog = tpch::generate(TpchScale::new(0.002), 1234);
    let engine = Engine::with_workers(workers);
    let optimizer = optimizer(workers);

    for query in TpchQuery::all() {
        let serial = query.build(&catalog).expect("serial plan builds");
        let expected = engine.execute(&serial, &catalog).expect("serial executes").output;

        let hp = heuristic_parallelize(&serial, &catalog, workers).expect("HP rewrite");
        let hp_out = engine.execute(&hp, &catalog).expect("HP executes").output;
        assert_eq!(hp_out, expected, "{query}: heuristic plan diverged");

        // Work-stealing style (paper §4.1.1): many more partitions than workers.
        let ws = heuristic_parallelize(&serial, &catalog, workers * 8).expect("WS rewrite");
        let ws_out = engine.execute(&ws, &catalog).expect("WS executes").output;
        assert_eq!(ws_out, expected, "{query}: work-stealing plan diverged");

        // The optimizer itself verifies every intermediate run (verification
        // is enabled in the config); re-check the final plan explicitly.
        let report = optimizer.optimize(&engine, &catalog, &serial).expect("adaptive optimization");
        let ap_out = engine.execute(&report.best_plan, &catalog).expect("AP executes").output;
        assert_eq!(ap_out, expected, "{query}: adaptive plan diverged");
        assert_eq!(report.final_output, expected, "{query}: report output diverged");
    }
}

#[test]
fn tpch_adaptive_loop_over_morsel_plans_matches_serial_results() {
    // The loop mutates plans cut into morsels as it does plans as built: a
    // morsel node's tasks become explicit cuts, and a node reading a morsel
    // producer whole adopts its parts.
    let workers = 4;
    let catalog = tpch::generate(TpchScale::new(0.002), 1234);
    let engine = Engine::with_workers(workers);
    let optimizer = optimizer(workers);

    let mut mutated_runs = 0;
    for query in TpchQuery::all() {
        let serial = query.build(&catalog).expect("serial plan builds");
        let expected = engine.execute(&serial, &catalog).expect("serial executes").output;
        let morsels = serial.cut_into_morsels(1024);
        let report =
            optimizer.optimize(&engine, &catalog, &morsels).expect("adaptive optimization");
        mutated_runs += report.total_runs;
        let ap_out = engine.execute(&report.best_plan, &catalog).expect("AP executes").output;
        assert_eq!(ap_out, expected, "{query}: adaptive morsel plan diverged");
        assert_eq!(report.final_output, expected, "{query}: report output diverged");
    }
    assert!(mutated_runs > 0, "the loop never mutated a morsel plan");
}

#[test]
fn tpcds_adaptive_and_heuristic_plans_match_serial_results() {
    let workers = 4;
    let catalog = tpcds::generate(TpcdsScale::new(0.002), 77);
    let engine = Engine::with_workers(workers);
    let optimizer = optimizer(workers);

    for query in TpcdsQuery::all() {
        let serial = query.build(&catalog).expect("serial plan builds");
        let expected = engine.execute(&serial, &catalog).expect("serial executes").output;

        let hp = heuristic_parallelize(&serial, &catalog, workers).expect("HP rewrite");
        assert_eq!(
            engine.execute(&hp, &catalog).expect("HP executes").output,
            expected,
            "{query}: heuristic plan diverged"
        );

        let report = optimizer.optimize(&engine, &catalog, &serial).expect("adaptive optimization");
        assert_eq!(
            engine.execute(&report.best_plan, &catalog).expect("AP executes").output,
            expected,
            "{query}: adaptive plan diverged"
        );
    }
}

#[test]
fn adaptive_plans_survive_different_worker_counts() {
    // A plan adapted on one engine must still be correct on engines with a
    // different worker count (plans and execution resources are independent).
    let catalog = tpch::generate(TpchScale::new(0.002), 5);
    let serial = TpchQuery::Q14.build(&catalog).expect("Q14 builds");
    let engine4 = Engine::with_workers(4);
    let expected = engine4.execute(&serial, &catalog).expect("serial executes").output;
    let report = optimizer(4).optimize(&engine4, &catalog, &serial).expect("adaptive optimization");
    for workers in [1, 2, 8] {
        let other = Engine::with_workers(workers);
        assert_eq!(
            other.execute(&report.best_plan, &catalog).expect("executes").output,
            expected,
            "adaptive Q14 plan diverged on {workers} workers"
        );
    }
}

#[test]
fn heuristic_partition_count_does_not_change_results() {
    let catalog = Arc::clone(&tpch::generate(TpchScale::new(0.002), 9));
    let engine = Engine::with_workers(3);
    let serial = TpchQuery::Q19.build(&catalog).expect("Q19 builds");
    let expected = engine.execute(&serial, &catalog).expect("serial executes").output;
    for partitions in [2, 3, 5, 9, 17] {
        let hp = heuristic_parallelize(&serial, &catalog, partitions).expect("HP rewrite");
        assert_eq!(
            engine.execute(&hp, &catalog).expect("executes").output,
            expected,
            "HP Q19 with {partitions} partitions diverged"
        );
    }
}
