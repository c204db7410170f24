//! Scheduler stress: N concurrent clients execute a mixed plan pool; every
//! query's output must be byte-identical to the same plan run alone on one
//! worker, and the queue-wait signal must appear in the profiles whenever
//! the pool is oversubscribed.
//!
//! This is the correctness obligation of the scheduler subsystem: dispatch
//! may reorder arbitrarily (local-first pop, stealing, DOP throttling), but
//! dependency order — and therefore the result — is enforced by the
//! executor's dataflow counters, never by queue order.

use std::sync::Arc;

use adaptive_parallelization::baselines::{heuristic_parallelize, AdmissionController};
use adaptive_parallelization::engine::{Engine, QueryOutput};
use adaptive_parallelization::workloads::micro::{join_sweep, select_sweep, skewed};
use adaptive_parallelization::workloads::tpch::{self, TpchQuery, TpchScale};

/// A mixed pool of plans: micro select/join/skew plans plus every TPC-H-like
/// query, serial and heuristically parallelized.
fn plan_pool(
) -> (Arc<adaptive_parallelization::columnar::Catalog>, Vec<adaptive_parallelization::engine::Plan>)
{
    let catalog = tpch::generate(TpchScale::new(0.002), 4242);
    let mut plans = Vec::new();
    for q in TpchQuery::all() {
        let serial = q.build(&catalog).expect("tpch plan builds");
        let hp = heuristic_parallelize(&serial, &catalog, 4).expect("HP rewrite");
        plans.push(serial);
        plans.push(hp);
    }
    (catalog, plans)
}

#[test]
fn concurrent_queries_match_their_solo_outputs() {
    let (catalog, plans) = plan_pool();
    let plans: Vec<Arc<_>> = plans.into_iter().map(Arc::new).collect();
    let n_clients = 6;
    let rounds = 3;

    // Reference: every plan alone on a one-worker engine, where nothing can
    // be stolen or run concurrently.
    let solo = Engine::with_workers(1);
    let reference: Vec<QueryOutput> = plans
        .iter()
        .map(|plan| solo.execute_shared(plan, &catalog).expect("reference executes").output)
        .collect();

    let engine = Arc::new(Engine::with_workers(3));
    let mut clients = Vec::new();
    for client in 0..n_clients {
        let engine = Arc::clone(&engine);
        let catalog = Arc::clone(&catalog);
        let plans = plans.clone();
        clients.push(std::thread::spawn(move || {
            let mut outs = Vec::new();
            for round in 0..rounds {
                // Deterministic interleaving-independent assignment.
                let plan = &plans[(client * rounds + round) % plans.len()];
                outs.push(
                    engine.execute_shared(plan, &catalog).expect("stress query executes").output,
                );
            }
            outs
        }));
    }
    let outputs: Vec<QueryOutput> =
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect();
    // Every task dispatched exactly once: the scheduler executed all the
    // operators that all the queries produced.
    assert!(engine.scheduler_stats().total_executed() > 0);

    assert_eq!(outputs.len(), n_clients * rounds);
    for (i, out) in outputs.iter().enumerate() {
        // Client-major order, the same `client * rounds + round` as above.
        assert_eq!(out, &reference[i % plans.len()], "query {i}: concurrent output diverged");
    }
}

#[test]
fn oversubscribed_pool_records_queue_wait_under_both_plannings() {
    let catalog = select_sweep::catalog(60_000, 7);
    let plan = select_sweep::plan(&catalog, 40).expect("plan builds");
    let parallel = heuristic_parallelize(&plan, &catalog, 8).expect("HP rewrite");
    // 8 partitions on 2 workers: ready tasks must queue. Small morsels cut
    // the nodes the rewrite left whole into several tasks.
    for (mode, plan) in
        [("as built", parallel.clone()), ("morsels", parallel.cut_into_morsels(1_000))]
    {
        let engine = Engine::with_workers(2);
        let exec = engine.execute(&plan, &catalog).expect("executes");
        let profile = &exec.profile;
        assert!(profile.total_queue_wait_us() > 0, "[{mode}] oversubscribed plan recorded no wait");
        let share = profile.queue_wait_share();
        assert!((0.0..=1.0).contains(&share), "[{mode}] wait share {share} out of range");
        // One task per profile outside a pipeline, one per morsel inside.
        let one_task_steps = profile.operators.iter().filter(|o| o.step.is_none()).count();
        let stats = engine.scheduler_stats();
        assert_eq!(
            stats.total_executed() as usize,
            one_task_steps + profile.total_morsels(),
            "[{mode}]"
        );
        assert_eq!(stats.total_queue_wait_us(), profile.total_queue_wait_us(), "[{mode}]");
    }
}

#[test]
fn skew_and_joins_survive_stealing_with_throttled_and_priority_queries() {
    // Heterogeneous pressure: a skewed select, a join plan and an admission-
    // throttled query run concurrently.
    let skew_cat = skewed::catalog(100_000, 5);
    let skew_plan = Arc::new(
        heuristic_parallelize(&skewed::plan(&skew_cat, 2).expect("builds"), &skew_cat, 6)
            .expect("HP rewrite"),
    );
    let join_cat = join_sweep::catalog(50_000, 256, 9);
    let join_plan = Arc::new(join_sweep::plan(&join_cat).expect("builds"));

    let engine = Arc::new(Engine::with_workers(3));
    let skew_expected = engine.execute_shared(&skew_plan, &skew_cat).expect("skew").output;
    let join_expected = engine.execute_shared(&join_plan, &join_cat).expect("join").output;

    let mut threads = Vec::new();
    for i in 0..4 {
        let engine = Arc::clone(&engine);
        let skew_plan = Arc::clone(&skew_plan);
        let skew_cat = Arc::clone(&skew_cat);
        let join_plan = Arc::clone(&join_plan);
        let join_cat = Arc::clone(&join_cat);
        let skew_expected = skew_expected.clone();
        let join_expected = join_expected.clone();
        threads.push(std::thread::spawn(move || {
            for _ in 0..2 {
                match i % 3 {
                    0 => {
                        // Throttled to one task at a time.
                        let handle = engine.register_query(1);
                        let out = engine
                            .execute_with_handle(&skew_plan, &skew_cat, handle)
                            .expect("throttled skew executes")
                            .output;
                        assert_eq!(out, skew_expected);
                    }
                    1 => {
                        let out =
                            engine.execute_shared(&join_plan, &join_cat).expect("join").output;
                        assert_eq!(out, join_expected);
                    }
                    _ => {
                        let out =
                            engine.execute_shared(&skew_plan, &skew_cat).expect("skew").output;
                        assert_eq!(out, skew_expected);
                    }
                }
            }
        }));
    }
    for t in threads {
        t.join().expect("stress thread");
    }
}

#[test]
fn scheduler_throttled_admission_matches_serial() {
    let catalog = tpch::generate(TpchScale::new(0.002), 17);
    let serial = TpchQuery::Q6.build(&catalog).expect("Q6 builds");
    let engine = Engine::with_workers(4);
    let expected = engine.execute(&serial, &catalog).expect("serial").output;
    let parallel = Arc::new(heuristic_parallelize(&serial, &catalog, 4).expect("HP"));
    // The plan stays 4-way; the granted DOP is enforced by the scheduler.
    let (exec, _dop) = AdmissionController::new(4)
        .execute_admitted(&engine, &parallel, &catalog)
        .expect("admitted");
    assert_eq!(exec.output, expected, "scheduler-throttled plan diverged");
}
