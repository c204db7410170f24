//! Cross-crate behavioural properties of adaptive parallelization: the
//! degree of parallelism grows only where it pays off, the convergence
//! algorithm stays within its bounds, and the adaptive plans hold their own
//! under data skew and concurrent load.

use std::sync::Arc;

use adaptive_parallelization::adaptive::{AdaptiveConfig, AdaptiveOptimizer};
use adaptive_parallelization::baselines::heuristic_parallelize;
use adaptive_parallelization::engine::{Engine, Plan};
use adaptive_parallelization::workloads::concurrent::{measure_under_load, BackgroundLoad};
use adaptive_parallelization::workloads::micro::{join_sweep, select_sweep, skewed};
use adaptive_parallelization::workloads::tpch::{self, TpchQuery, TpchScale};

/// Operators as they run: each node counts its parts.
fn parts(plan: &Plan) -> usize {
    plan.count_by_name().values().sum()
}

#[test]
fn adaptive_parallelism_grows_and_improves_on_a_large_scan() {
    let rows = 400_000;
    let workers = 4;
    let catalog = select_sweep::catalog(rows, 11);
    let engine = Engine::with_workers(workers);
    let config =
        AdaptiveConfig::for_cores(workers).with_min_partition_rows(1_000).with_max_runs(16);
    let serial = select_sweep::plan(&catalog, 50).expect("plan builds");
    let report = AdaptiveOptimizer::new(config.clone())
        .optimize(&engine, &catalog, &serial)
        .expect("optimization succeeds");

    // The best plan is at least as fast as the serial plan.
    assert!(report.total_runs >= 1);
    assert!(report.best_us <= report.serial_us);
    // On parallel hardware the best plan must also be more parallel than the
    // serial plan. On a single hardware thread (some CI containers) extra
    // partitions cannot improve wall time, so converging back to the serial
    // plan is the *correct* adaptive outcome and growth is not asserted.
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if hw > 1 {
        assert!(parts(&report.best_plan) > parts(&serial));
        assert!(report.best_plan.count_of("select") >= 2, "select was never parallelized");
    }
    // Convergence respected both the balance rule and the hard cap.
    assert!(report.total_runs <= config.max_runs);
    // The run count stays within the paper's (approximate) upper bound plus
    // slack for credit earned on the plateau.
    assert!(report.total_runs <= 2 * config.upper_bound_runs());
}

#[test]
fn adaptive_beats_static_partitioning_under_skew() {
    // Fig. 12's qualitative claim: with skewed matches, dynamically sized
    // partitions beat equal-sized static partitions.
    let rows = 600_000;
    let workers = 4;
    let catalog = skewed::catalog(rows, 3);
    let engine = Engine::with_workers(workers);
    let serial = skewed::plan(&catalog, 2).expect("plan builds");
    let static_plan = heuristic_parallelize(&serial, &catalog, workers).expect("HP rewrite");
    let report = AdaptiveOptimizer::new(
        AdaptiveConfig::for_cores(workers).with_min_partition_rows(4_000).with_max_runs(20),
    )
    .optimize(&engine, &catalog, &serial)
    .expect("optimization succeeds");

    let best = |plan: &Plan| {
        (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                engine.execute(plan, &catalog).expect("executes");
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let static_s = best(&static_plan);
    let adaptive_s = best(&report.best_plan);
    // Allow generous noise margin: adaptive must not be dramatically slower,
    // and usually is faster. (The strict "<" would be flaky on a busy CI box.)
    assert!(
        adaptive_s <= static_s * 1.5,
        "adaptive {adaptive_s:.4}s much slower than static {static_s:.4}s under skew"
    );
}

#[test]
fn adaptive_join_plan_partitions_only_the_outer_side() {
    let catalog = join_sweep::catalog(200_000, 512, 21);
    let workers = 4;
    let engine = Engine::with_workers(workers);
    let serial = join_sweep::plan(&catalog).expect("plan builds");
    let report = AdaptiveOptimizer::new(
        AdaptiveConfig::for_cores(workers).with_min_partition_rows(1_000).with_max_runs(12),
    )
    .optimize(&engine, &catalog, &serial)
    .expect("optimization succeeds");
    // The hash build stays single (the paper never parallelizes the build side).
    assert_eq!(report.best_plan.count_of("hashbuild"), 1);
    // The probe side got cut if any mutation happened at all.
    if report.total_runs > 0 && parts(&report.best_plan) > parts(&serial) {
        assert!(
            report.best_plan.count_of("join") + report.best_plan.count_of("fetch")
                > serial.count_of("join") + serial.count_of("fetch"),
            "no probe-side operator was parallelized"
        );
    }
}

#[test]
fn adaptive_plans_respond_under_concurrent_load() {
    // Smoke-scale version of the Fig. 16 concurrent experiment: measuring the
    // adaptive plan under background load completes and returns sane numbers.
    let workers = 4;
    let catalog = tpch::generate(TpchScale::new(0.002), 55);
    let engine = Arc::new(Engine::with_workers(workers));
    let serial = TpchQuery::Q6.build(&catalog).expect("Q6 builds");
    let hp = heuristic_parallelize(&serial, &catalog, workers).expect("HP rewrite");
    let report = AdaptiveOptimizer::new(
        AdaptiveConfig::for_cores(workers).with_min_partition_rows(256).with_max_runs(8),
    )
    .optimize(&engine, &catalog, &serial)
    .expect("optimization succeeds");

    let background: Vec<_> = TpchQuery::all()
        .iter()
        .map(|q| {
            let s = q.build(&catalog).expect("builds");
            heuristic_parallelize(&s, &catalog, workers).expect("HP rewrite")
        })
        .collect();
    let load = BackgroundLoad::start(Arc::clone(&engine), Arc::clone(&catalog), background, 6, 3);
    let hp_m = measure_under_load(&engine, &catalog, &hp, 3).expect("HP measured");
    let ap_m = measure_under_load(&engine, &catalog, &report.best_plan, 3).expect("AP measured");
    let executed = load.stop();
    assert!(executed > 0, "background load executed nothing");
    assert!(hp_m.mean_ms() > 0.0 && ap_m.mean_ms() > 0.0);
}

#[test]
fn adaptive_optimization_converges_while_background_load_is_live() {
    // The optimizer's own runs share the pool with other clients' queries
    // (the other tests here optimize first and start the load afterwards):
    // every run still returns the serial answer, and the loop still stops.
    let workers = 4;
    let catalog = tpch::generate(TpchScale::new(0.002), 55);
    let engine = Arc::new(Engine::with_workers(workers));
    let serial = TpchQuery::Q6.build(&catalog).expect("Q6 builds");
    let expected = engine.execute(&serial, &catalog).expect("serial executes").output;
    let config = AdaptiveConfig::for_cores(workers)
        .with_min_partition_rows(256)
        .with_max_runs(8)
        .with_verification();

    let background: Vec<_> = TpchQuery::all()
        .iter()
        .map(|q| {
            let s = q.build(&catalog).expect("builds");
            heuristic_parallelize(&s, &catalog, workers).expect("HP rewrite")
        })
        .collect();
    let load = BackgroundLoad::start(Arc::clone(&engine), Arc::clone(&catalog), background, 2, 3);
    while engine.in_flight_queries() == 0 {
        std::thread::yield_now();
    }
    let report = AdaptiveOptimizer::new(config.clone())
        .optimize(&engine, &catalog, &serial)
        .expect("every run under load matches the serial result");
    let executed = load.stop();

    assert!(executed > 0, "background load executed nothing");
    assert!(report.total_runs <= config.max_runs);
    assert_eq!(report.records.len(), report.total_runs + 1);
    assert_eq!(report.final_output, expected);
    assert!(report.best_us <= report.serial_us);
}

#[test]
fn convergence_statistics_are_reported_consistently() {
    let workers = 4;
    let catalog = tpch::generate(TpchScale::new(0.002), 99);
    let engine = Engine::with_workers(workers);
    let optimizer = AdaptiveOptimizer::new(
        AdaptiveConfig::for_cores(workers).with_min_partition_rows(256).with_max_runs(10),
    );
    for query in [TpchQuery::Q6, TpchQuery::Q14, TpchQuery::Q4] {
        let serial = query.build(&catalog).expect("builds");
        let report = optimizer.optimize(&engine, &catalog, &serial).expect("optimizes");
        assert_eq!(report.records.len(), report.total_runs + 1, "{query}: record count");
        assert!(report.gme_run <= report.total_runs, "{query}: GME beyond the last run");
        assert!(report.best_us <= report.serial_us, "{query}: best worse than serial");
        assert!(report.gme_us >= report.best_us, "{query}: GME better than the true best");
        assert!(report.speedup() >= 1.0, "{query}: speedup below 1");
        // The convergence curve covers every run exactly once, in order.
        let runs: Vec<usize> = report.convergence_curve().iter().map(|(r, _)| *r).collect();
        assert_eq!(runs, (0..=report.total_runs).collect::<Vec<_>>(), "{query}: curve runs");
    }
}
