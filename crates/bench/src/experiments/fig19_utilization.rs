//! Figures 19 and 20: tomograph-style execution traces of TPC-H Q14 under
//! adaptive (low multi-core utilization) and heuristic (high multi-core
//! utilization) parallelization.
//!
//! The numeric table carries the utilization metrics; the rendered timelines
//! (one lane per worker, as in the paper's figures) are attached as extra
//! "tables" with a single text row each so that `run_experiments` prints
//! them. A third table reports the engine's per-worker scheduler counters
//! (tasks executed, local-deque hits, steals, injector hits, accumulated
//! queue wait) for the heuristic plan — §4.1.1's work stealing at the
//! dispatch level. A further table repeats the run in **morsel-driven**
//! execution mode (`ExecutionMode::MorselDriven`): per worker, the tasks
//! executed and the morsels pulled, showing how pipeline fan-out spreads
//! locality-friendly work units across the pool.

use std::sync::Arc;

use apq_baselines::heuristic_parallelize;
use apq_engine::{Engine, EngineConfig, ExecutionMode};
use apq_workloads::tpch::{self, queries::q14, TpchScale};

use crate::common::{adaptive, engine};
use crate::config::ExperimentConfig;
use crate::reporting::{fmt_percent, ExperimentTable};

/// Runs the experiment.
pub fn run(cfg: &ExperimentConfig) -> Vec<ExperimentTable> {
    let engine = engine(cfg);
    let workers = engine.n_workers();
    let catalog = tpch::generate(TpchScale::new(cfg.tpch_sf), cfg.seed);
    let serial = q14(&catalog).expect("Q14 builds");

    let report = adaptive(cfg, &engine, &catalog, &serial);
    let ap_exec = engine.execute(&report.best_plan, &catalog).expect("AP executes");
    let hp_plan = heuristic_parallelize(&serial, &catalog, workers).expect("HP builds");
    let hp_exec = engine.execute(&hp_plan, &catalog).expect("HP executes");

    // Morsel-mode executions of the same two plans (fresh engine so the
    // dispatch counters below stay attributable).
    let morsel_engine = Engine::new(
        EngineConfig::with_workers(workers)
            .with_execution_mode(ExecutionMode::MorselDriven)
            .with_morsel_rows(cfg.morsel_rows),
    );
    let ap_morsel = morsel_engine.execute(&report.best_plan, &catalog).expect("AP morsel");
    let hp_morsel = morsel_engine.execute(&hp_plan, &catalog).expect("HP morsel");

    let mut metrics = ExperimentTable::new(
        "Figures 19/20 (metrics)",
        format!("TPC-H Q14 isolated execution on {workers} workers"),
        &[
            "plan",
            "mode",
            "operators",
            "morsels",
            "cpu_ms",
            "wall_ms",
            "parallelism_usage",
            "multi_core_utilization",
        ],
    );
    for (label, mode, exec) in [
        ("adaptive (Fig. 19)", "operator-at-a-time", &ap_exec),
        ("heuristic (Fig. 20)", "operator-at-a-time", &hp_exec),
        ("adaptive (Fig. 19)", "morsel-driven", &ap_morsel),
        ("heuristic (Fig. 20)", "morsel-driven", &hp_morsel),
    ] {
        metrics.row(vec![
            label.to_string(),
            mode.to_string(),
            exec.profile.operators.len().to_string(),
            exec.profile.total_morsels().to_string(),
            format!("{:.3}", exec.profile.total_cpu_us() as f64 / 1000.0),
            format!("{:.3}", exec.profile.wall_us() as f64 / 1000.0),
            fmt_percent(exec.profile.parallelism_usage()),
            fmt_percent(exec.profile.multi_core_utilization()),
        ]);
    }

    let mut ap_trace = ExperimentTable::new(
        "Figure 19 (trace)",
        "adaptive Q14 worker timeline (S select, J join, U union, F fetch, C calc, A aggregate, . idle)",
        &["timeline"],
    );
    for line in ap_exec.profile.timeline(72).lines() {
        ap_trace.row(vec![line.to_string()]);
    }
    let mut hp_trace =
        ExperimentTable::new("Figure 20 (trace)", "heuristic Q14 worker timeline", &["timeline"]);
    for line in hp_exec.profile.timeline(72).lines() {
        hp_trace.row(vec![line.to_string()]);
    }

    // Per-worker dispatch counters of the heuristic plan (fresh engine, so
    // the counters cover exactly one execution).
    let mut counters = ExperimentTable::new(
        "Figures 19/20 (scheduler counters)",
        "per-worker dispatch counters of the heuristic Q14 plan",
        &["worker", "executed", "local", "stolen", "injected", "queue_wait_ms"],
    );
    let hp_shared = Arc::new(hp_plan);
    let probe = Engine::with_workers(workers);
    probe.execute_shared(&hp_shared, &catalog).expect("HP executes");
    let stats = probe.scheduler_stats();
    for (w, ws) in stats.workers.iter().enumerate() {
        counters.row(vec![
            w.to_string(),
            ws.executed.to_string(),
            ws.local_hits.to_string(),
            ws.steals.to_string(),
            ws.injector_hits.to_string(),
            format!("{:.3}", ws.queue_wait_us as f64 / 1000.0),
        ]);
    }

    // The same in morsel-driven mode: per-worker task and morsel counters
    // of the heuristic Q14 plan.
    let mut morsel_counters = ExperimentTable::new(
        "Figures 19/20 (morsel counters)",
        format!(
            "per-worker morsel counters of the heuristic Q14 plan in morsel-driven mode \
             ({} rows per morsel)",
            cfg.morsel_rows
        ),
        &["worker", "executed", "morsels", "pipelines", "queue_wait_ms"],
    );
    let probe = Engine::new(
        EngineConfig::with_workers(workers)
            .with_execution_mode(ExecutionMode::MorselDriven)
            .with_morsel_rows(cfg.morsel_rows),
    );
    let exec = probe.execute_shared(&hp_shared, &catalog).expect("HP executes under morsel mode");
    assert_eq!(exec.output, hp_exec.output, "morsel-mode Q14 diverged from operator-at-a-time");
    let stats = probe.scheduler_stats();
    let morsels = exec.profile.morsels_by_worker();
    let n_pipelines = exec.profile.pipelines.len();
    for (w, ws) in stats.workers.iter().enumerate() {
        morsel_counters.row(vec![
            w.to_string(),
            ws.executed.to_string(),
            morsels.get(w).copied().unwrap_or(0).to_string(),
            n_pipelines.to_string(),
            format!("{:.3}", ws.queue_wait_us as f64 / 1000.0),
        ]);
    }

    vec![metrics, ap_trace, hp_trace, counters, morsel_counters]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_metrics_two_traces_and_scheduler_counters() {
        let cfg = ExperimentConfig::smoke();
        let tables = run(&cfg);
        assert_eq!(tables.len(), 5);
        // Two plans × (operator-at-a-time, morsel-driven).
        assert_eq!(tables[0].len(), 4);
        // One header line plus one lane per worker.
        assert_eq!(tables[1].len(), cfg.workers + 1);
        assert_eq!(tables[2].len(), cfg.workers + 1);
        // The HP plan executes at least as many operators as the AP plan.
        let ap_ops: usize = tables[0].rows[0][2].parse().unwrap();
        let hp_ops: usize = tables[0].rows[1][2].parse().unwrap();
        assert!(hp_ops >= ap_ops);
        // Operator-at-a-time rows report no morsels; morsel rows report some.
        assert_eq!(tables[0].rows[0][3], "0");
        let hp_morsels: usize = tables[0].rows[3][3].parse().unwrap();
        assert!(hp_morsels > 0, "morsel-driven HP run reported no morsels");
        // Counter table: one row per worker, the plan fully dispatched.
        let counters = &tables[3];
        assert_eq!(counters.len(), cfg.workers);
        let executed: u64 = counters.rows.iter().map(|r| r[1].parse::<u64>().unwrap()).sum();
        assert_eq!(executed, hp_ops as u64, "dispatch count mismatch");
        // Morsel counter table: per-worker morsel counts sum to the fan-out
        // the metrics table reports for the same plan and morsel size.
        let morsel_counters = &tables[4];
        assert_eq!(morsel_counters.len(), cfg.workers);
        let morsels: u64 = morsel_counters.rows.iter().map(|r| r[2].parse::<u64>().unwrap()).sum();
        assert_eq!(morsels, hp_morsels as u64, "morsel fan-out differed between probes");
    }
}
