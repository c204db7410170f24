//! Shared plumbing for the experiments: engines, adaptive optimization runs
//! and plan timing.

use std::sync::Arc;
use std::time::Instant;

use apq_columnar::Catalog;
use apq_core::{AdaptiveConfig, AdaptiveOptimizer, AdaptiveReport};
use apq_engine::{Engine, EngineConfig, FaultConfig, Plan};

use crate::config::ExperimentConfig;

/// Engine sized per the experiment configuration (worker count).
pub fn engine(cfg: &ExperimentConfig) -> Arc<Engine> {
    engine_with_workers(cfg.workers)
}

/// Engine with an explicit worker count (DOP sweeps, "4-socket" variant).
pub fn engine_with_workers(workers: usize) -> Arc<Engine> {
    Arc::new(Engine::with_workers(workers.max(1)))
}

/// Engine emulating the slower-interconnect 4-socket machine of Fig. 17b:
/// more workers, but a fixed per-operator latency penalty.
pub fn four_socket_engine(cfg: &ExperimentConfig) -> Arc<Engine> {
    Arc::new(Engine::new(
        EngineConfig::with_workers(cfg.workers * 2).with_faults(FaultConfig::fixed_delay(30)),
    ))
}

/// Adaptive-optimizer configuration matching the experiment configuration.
pub fn adaptive_config(cfg: &ExperimentConfig, engine: &Engine) -> AdaptiveConfig {
    AdaptiveConfig::for_cores(engine.n_workers())
        .with_min_partition_rows(cfg.min_partition_rows)
        .with_max_runs(cfg.adaptive_max_runs)
}

/// Runs a full adaptive-parallelization episode for `serial` on `engine`.
pub fn adaptive(
    cfg: &ExperimentConfig,
    engine: &Engine,
    catalog: &Arc<Catalog>,
    serial: &Plan,
) -> AdaptiveReport {
    let optimizer = AdaptiveOptimizer::new(adaptive_config(cfg, engine));
    optimizer
        .optimize(engine, catalog, serial)
        .expect("adaptive optimization of a workload plan must succeed")
}

/// Wall-clock time of one plan execution, in milliseconds.
pub fn time_once_ms(engine: &Engine, catalog: &Arc<Catalog>, plan: &Plan) -> f64 {
    let start = Instant::now();
    engine.execute(plan, catalog).expect("plan execution must succeed");
    start.elapsed().as_secs_f64() * 1_000.0
}

/// Minimum wall-clock time over `reps` executions, in milliseconds.
///
/// The minimum (rather than the mean) is reported for isolated runs because
/// it is the least noise-sensitive statistic on a shared machine; concurrent
/// experiments use the mean via `measure_under_load`. The plan is shared
/// once up front so repeated executions skip the per-run deep plan clone.
pub fn time_plan_ms(engine: &Engine, catalog: &Arc<Catalog>, plan: &Plan, reps: usize) -> f64 {
    let plan = Arc::new(plan.clone());
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            engine.execute_shared(&plan, catalog).expect("plan execution must succeed");
            start.elapsed().as_secs_f64() * 1_000.0
        })
        .fold(f64::INFINITY, f64::min)
}

/// Microseconds to milliseconds.
pub fn us_to_ms(us: u64) -> f64 {
    us as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_workloads::micro::select_sweep;

    #[test]
    fn engines_and_timing() {
        let cfg = ExperimentConfig::smoke();
        let engine = engine(&cfg);
        assert_eq!(engine.n_workers(), cfg.workers);
        assert_eq!(engine_with_workers(0).n_workers(), 1);
        let ns = four_socket_engine(&cfg);
        assert_eq!(ns.n_workers(), cfg.workers * 2);

        let cat = select_sweep::catalog(10_000, 1);
        let plan = select_sweep::plan(&cat, 20).unwrap();
        let t = time_plan_ms(&engine, &cat, &plan, 2);
        assert!(t > 0.0);
        assert!(time_once_ms(&engine, &cat, &plan) > 0.0);
        assert_eq!(us_to_ms(1500), 1.5);
    }

    #[test]
    fn adaptive_episode_returns_a_report() {
        let cfg = ExperimentConfig::smoke();
        let engine = engine(&cfg);
        let cat = select_sweep::catalog(30_000, 2);
        let plan = select_sweep::plan(&cat, 30).unwrap();
        let report = adaptive(&cfg, &engine, &cat, &plan);
        assert!(report.total_runs <= cfg.adaptive_max_runs);
        assert!(report.best_us <= report.serial_us);
        assert_eq!(adaptive_config(&cfg, &engine).max_runs, cfg.adaptive_max_runs);
    }
}
