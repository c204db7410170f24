//! Concurrent workload driver.
//!
//! The paper's concurrent experiments (Fig. 1, Fig. 16, §4.2.3) run "a heavy
//! concurrent CPU bound workload, which ensures 0 % CPU core idleness", with
//! "32 clients invok\[ing\] queries repeatedly", and measure the response time
//! of a query of interest while that background load is active. This module
//! provides exactly that harness:
//!
//! * [`BackgroundLoad`] — `n_clients` threads repeatedly executing random
//!   plans from a pool against the shared engine until stopped;
//! * [`measure_under_load`] — executes a measurement plan a number of times
//!   while the load is running and reports mean / min / max response times
//!   plus the mean queue-wait share (how much of the measured query's
//!   in-system time was spent waiting behind the background load — the
//!   scheduler-interference signal, distinguishable from "the operators were
//!   slow").
//!
//! Worker-level contention counters (local hits / steals / queue wait per
//! worker) are available from [`apq_engine::Engine::scheduler_stats`]; the
//! fig. 19 utilization experiment reports them per policy.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apq_columnar::Catalog;
use apq_engine::{Engine, Plan, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Handle to a running background workload.
pub struct BackgroundLoad {
    stop: Arc<AtomicBool>,
    executed: Arc<AtomicUsize>,
    handles: Vec<JoinHandle<()>>,
}

impl BackgroundLoad {
    /// Starts `n_clients` client threads, each repeatedly executing a random
    /// plan from `plans` on `engine` until [`BackgroundLoad::stop`] is called.
    ///
    /// Execution errors in background clients are ignored (they would only
    /// stem from plan/catalog mismatches, which the tests rule out); the
    /// purpose of the load is purely to occupy the worker pool.
    pub fn start(
        engine: Arc<Engine>,
        catalog: Arc<Catalog>,
        plans: Vec<Plan>,
        n_clients: usize,
        seed: u64,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let executed = Arc::new(AtomicUsize::new(0));
        // Plans are shared once and executed via `execute_shared`, so the
        // per-execution deep plan clone of the seed engine is gone from this
        // hot loop.
        let plans: Arc<Vec<Arc<Plan>>> = Arc::new(plans.into_iter().map(Arc::new).collect());
        let mut handles = Vec::with_capacity(n_clients);
        for client in 0..n_clients {
            let engine = Arc::clone(&engine);
            let catalog = Arc::clone(&catalog);
            let plans = Arc::clone(&plans);
            let stop = Arc::clone(&stop);
            let executed = Arc::clone(&executed);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("apq-client-{client}"))
                    .spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(client as u64));
                        while !stop.load(Ordering::Acquire) {
                            if plans.is_empty() {
                                break;
                            }
                            let plan = &plans[rng.gen_range(0..plans.len())];
                            if engine.execute_shared(plan, &catalog).is_ok() {
                                executed.fetch_add(1, Ordering::AcqRel);
                            }
                        }
                    })
                    .expect("failed to spawn client thread"),
            );
        }
        BackgroundLoad { stop, executed, handles }
    }

    /// Number of client threads.
    pub fn clients(&self) -> usize {
        self.handles.len()
    }

    /// Stops the clients and waits for them to finish; returns the total
    /// number of background queries that completed.
    pub fn stop(mut self) -> usize {
        self.stop.store(true, Ordering::Release);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        self.executed.load(Ordering::Acquire)
    }
}

impl Drop for BackgroundLoad {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Response-time statistics of a query measured under load.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrentMeasurement {
    /// Number of measured executions.
    pub repetitions: usize,
    /// Mean response time.
    pub mean: Duration,
    /// Fastest response.
    pub min: Duration,
    /// Slowest response.
    pub max: Duration,
    /// Mean total queue wait of the measured query's operators per
    /// execution, microseconds: time ready operators sat behind the
    /// background load before a worker picked them up.
    pub mean_queue_wait_us: f64,
    /// Mean queue-wait share per execution (`0.0` idle .. `1.0` pure wait);
    /// see [`apq_engine::QueryProfile::queue_wait_share`].
    pub mean_queue_wait_share: f64,
}

impl ConcurrentMeasurement {
    /// Mean response time in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean.as_secs_f64() * 1_000.0
    }
}

/// Executes `plan` `repetitions` times on `engine` (while any background load
/// keeps running) and reports its response-time and queue-wait statistics.
pub fn measure_under_load(
    engine: &Engine,
    catalog: &Arc<Catalog>,
    plan: &Plan,
    repetitions: usize,
) -> Result<ConcurrentMeasurement> {
    let repetitions = repetitions.max(1);
    let plan = Arc::new(plan.clone());
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    let mut total_wait_us = 0u64;
    let mut total_wait_share = 0.0f64;
    for _ in 0..repetitions {
        let start = Instant::now();
        let exec = engine.execute_shared(&plan, catalog)?;
        let elapsed = start.elapsed();
        total += elapsed;
        min = min.min(elapsed);
        max = max.max(elapsed);
        total_wait_us += exec.profile.total_queue_wait_us();
        total_wait_share += exec.profile.queue_wait_share();
    }
    Ok(ConcurrentMeasurement {
        repetitions,
        mean: total / repetitions as u32,
        min,
        max,
        mean_queue_wait_us: total_wait_us as f64 / repetitions as f64,
        mean_queue_wait_share: total_wait_share / repetitions as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::select_sweep;

    #[test]
    fn background_load_executes_queries_and_stops() {
        let cat = select_sweep::catalog(5_000, 3);
        let engine = Arc::new(Engine::with_workers(2));
        let plans =
            vec![select_sweep::plan(&cat, 10).unwrap(), select_sweep::plan(&cat, 50).unwrap()];
        let load = BackgroundLoad::start(Arc::clone(&engine), Arc::clone(&cat), plans, 3, 42);
        assert_eq!(load.clients(), 3);
        // Give the clients a moment to run.
        std::thread::sleep(Duration::from_millis(50));
        let total = load.stop();
        assert!(total > 0, "background clients executed no queries");
    }

    #[test]
    fn measurement_reports_consistent_statistics() {
        let cat = select_sweep::catalog(5_000, 3);
        let engine = Engine::with_workers(2);
        let plan = select_sweep::plan(&cat, 25).unwrap();
        let m = measure_under_load(&engine, &cat, &plan, 5).unwrap();
        assert_eq!(m.repetitions, 5);
        assert!(m.min <= m.mean && m.mean <= m.max);
        assert!(m.mean_ms() > 0.0);
        assert!((0.0..=1.0).contains(&m.mean_queue_wait_share));
        assert!(m.mean_queue_wait_us >= 0.0);
        // Zero repetitions are clamped to one.
        let m1 = measure_under_load(&engine, &cat, &plan, 0).unwrap();
        assert_eq!(m1.repetitions, 1);
    }

    #[test]
    fn load_with_empty_plan_pool_terminates() {
        let cat = select_sweep::catalog(1_000, 1);
        let engine = Arc::new(Engine::with_workers(1));
        let load = BackgroundLoad::start(engine, cat, Vec::new(), 2, 1);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(load.stop(), 0);
    }

    #[test]
    fn measurement_under_active_load_still_succeeds() {
        let cat = select_sweep::catalog(8_000, 9);
        let engine = Arc::new(Engine::with_workers(2));
        let background = vec![select_sweep::plan(&cat, 40).unwrap()];
        let load = BackgroundLoad::start(Arc::clone(&engine), Arc::clone(&cat), background, 4, 7);
        let plan = select_sweep::plan(&cat, 20).unwrap();
        let m = measure_under_load(&engine, &cat, &plan, 3).unwrap();
        assert!(m.mean > Duration::ZERO);
        // With 4 background clients on a 2-worker engine, the measured query
        // must have spent *some* time queued behind the load.
        assert!(
            m.mean_queue_wait_us > 0.0,
            "no queue wait recorded under active background load: {m:?}"
        );
        load.stop();
        // The engine's scheduler saw the combined traffic.
        let stats = engine.scheduler_stats();
        assert!(stats.total_executed() > 0);
        assert!(stats.total_queue_wait_us() > 0);
    }
}
