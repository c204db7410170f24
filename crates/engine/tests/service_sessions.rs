//! Service-layer behavior: session lifecycle, the unified admission path,
//! and result cache correctness (hits byte-identical to cold execution,
//! bounds respected, invalidation selective, no result of a swapped-out
//! catalog).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apq_columnar::{Catalog, ScalarValue, TableBuilder};
use apq_engine::plan::{Cuts, OperatorSpec, Plan};
use apq_engine::{
    DopPhase, EngineConfig, EngineError, FaultConfig, QueryOutput, QueryService, ServiceConfig,
};
use apq_operators::{AggFunc, CmpOp, Predicate};

fn catalog_with(rows: usize, scale: i64) -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("t")
            .i64_column("a", (0..rows as i64).collect())
            .i64_column("b", (0..rows as i64).map(|v| v * scale).collect())
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

fn catalog(rows: usize) -> Arc<Catalog> {
    catalog_with(rows, 2)
}

/// sum(b) where a < threshold.
fn sum_plan(threshold: i64) -> Plan {
    let mut p = Plan::new();
    let a = p.add(OperatorSpec::ScanColumn { table: "t".into(), column: "a".into() }, vec![]);
    let b = p.add(OperatorSpec::ScanColumn { table: "t".into(), column: "b".into() }, vec![]);
    let sel =
        p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, threshold) }, vec![a]);
    let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    p
}

fn expected_sum(threshold: i64) -> QueryOutput {
    QueryOutput::Scalar(ScalarValue::I64((0..threshold).map(|v| v * 2).sum()))
}

fn service(config: ServiceConfig) -> QueryService {
    QueryService::new(config, catalog(10_000))
}

/// Spins until `cond` holds; a wait on a state change, never on a duration.
fn await_condition(label: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < Duration::from_secs(20), "timed out waiting for {label}");
        std::thread::yield_now();
    }
}

#[test]
fn submissions_run_under_reserved_census_slots() {
    let svc = service(ServiceConfig::with_engine(EngineConfig::with_workers(2)));
    let session = svc.connect();
    let response = session.submit(&sum_plan(500)).unwrap();
    assert_eq!(response.output, expected_sum(500));
    let profile = response.profile.expect("cold submissions execute");
    // The unified admission path: the query lived as a reservation first.
    let phases: Vec<DopPhase> = profile.dop_timeline.iter().map(|e| e.phase).collect();
    assert_eq!(phases[0], DopPhase::Reserve);
    assert!(phases.contains(&DopPhase::Submit));
    // A lone client gets the whole pool at admit time.
    assert_eq!(profile.dop_timeline[0].dop, 2);
    // The reservation was released once the submission finished.
    assert!(svc.engine().reservations().is_empty());
}

#[test]
fn uncached_repeats_re_execute_byte_identically_and_cuts_key_apart() {
    // Result cache off: every submission executes its own copy of the plan.
    let svc = service(
        ServiceConfig::with_engine(EngineConfig::with_workers(2)).with_result_cache_capacity(0),
    );
    let session = svc.connect();
    let plan = sum_plan(777);
    let cold = session.submit(&plan).unwrap();
    let repeat = session.submit(&plan).unwrap();
    assert!(!cold.result_cache_hit && !repeat.result_cache_hit);
    assert!(repeat.profile.is_some(), "an uncached repeat executes");
    assert_eq!(repeat.output, cold.output, "a repeat changed the result");
    assert_eq!(cold.output, expected_sum(777));

    // The result cache keys on `Plan::signature`, which holds the cuts: a
    // plan cut differently is another key, and runs with its own cuts.
    let svc = service(ServiceConfig::with_engine(EngineConfig::with_workers(2)));
    let session = svc.connect();
    let (select, fetch) = (2, 3);
    let mut halves = plan.clone();
    halves.node_mut(select).unwrap().cuts = Cuts::At(vec![5_000]);
    let mut adopting = halves.clone();
    adopting.node_mut(fetch).unwrap().cuts = Cuts::Adopt;
    // Morsels are cuts too: a plan cut into them is not the whole plan.
    let morsels = plan.cut_into_morsels(1_000);
    let forms = [(&plan, (1, 1)), (&halves, (2, 1)), (&adopting, (2, 2)), (&morsels, (10, 10))];
    for (plan, tasks) in forms {
        let cold = session.submit(plan).unwrap();
        assert!(!cold.result_cache_hit, "a plan cut differently hit another plan's entry");
        assert_eq!(cold.output, expected_sum(777));
        let profile = cold.profile.expect("a miss executes");
        let tasks_of = |node| profile.operator(node).unwrap().tasks.len();
        assert_eq!((tasks_of(select), tasks_of(fetch)), tasks, "the executed plan lost its cuts");
        assert!(session.submit(plan).unwrap().result_cache_hit);
    }
    assert_eq!(svc.result_cache_len(), 4);
}

#[test]
fn result_cache_hits_skip_execution_and_match_cold_output() {
    let svc = service(ServiceConfig::with_engine(EngineConfig::with_workers(2)));
    let session = svc.connect();
    let plan = sum_plan(250);

    let cold = session.submit(&plan).unwrap();
    let hit = session.submit(&plan).unwrap();
    assert!(hit.result_cache_hit);
    assert!(hit.profile.is_none(), "cache hits do not execute");
    assert_eq!(hit.output, cold.output);

    // Distinct constants are distinct keys: no false sharing.
    let other = session.submit(&sum_plan(251)).unwrap();
    assert!(!other.result_cache_hit);
    assert_eq!(other.output, QueryOutput::Scalar(ScalarValue::I64((0..251).map(|v| v * 2).sum())));

    let stats = svc.stats();
    assert_eq!(stats.result_cache_hits, 1);
    assert_eq!(stats.result_cache_misses, 2);
    assert_eq!(stats.queries, 3);
}

#[test]
fn result_cache_respects_bounds_and_invalidation() {
    let svc = service(
        ServiceConfig::with_engine(EngineConfig::with_workers(2)).with_result_cache_capacity(2),
    );
    let session = svc.connect();

    for threshold in [100, 200, 300] {
        session.submit(&sum_plan(threshold)).unwrap();
    }
    assert_eq!(svc.result_cache_len(), 2, "bounded cache must evict");
    // The oldest entry (100) was evicted; the newer two still hit.
    assert!(!session.submit(&sum_plan(100)).unwrap().result_cache_hit);
    assert!(session.submit(&sum_plan(300)).unwrap().result_cache_hit);

    // Per-table invalidation drops every entry computed from "t".
    let dropped = svc.invalidate_table("t");
    assert_eq!(dropped, 2);
    assert_eq!(svc.result_cache_len(), 0);
    assert!(!session.submit(&sum_plan(300)).unwrap().result_cache_hit);
    assert_eq!(svc.stats().results_invalidated, 2);

    // Invalidating an unrelated table drops nothing.
    assert_eq!(svc.invalidate_table("unrelated"), 0);
    assert!(session.submit(&sum_plan(300)).unwrap().result_cache_hit);
}

#[test]
fn replacing_the_catalog_invalidates_results() {
    let svc = service(ServiceConfig::with_engine(EngineConfig::with_workers(2)));
    let session = svc.connect();
    let plan = sum_plan(400);

    let before = session.submit(&plan).unwrap();
    assert_eq!(before.output, expected_sum(400));

    // Same table name, different data (b = 3a instead of 2a): a stale
    // cached result would now be wrong.
    svc.replace_catalog(catalog_with(10_000, 3));
    let after = session.submit(&plan).unwrap();
    assert!(!after.result_cache_hit, "stale results must not survive a catalog swap");
    assert_eq!(after.output, QueryOutput::Scalar(ScalarValue::I64((0..400).map(|v| v * 3).sum())));
}

#[test]
fn a_catalog_swap_during_a_query_keeps_its_result_out_of_the_cache() {
    // 20 ms per operator: the swap lands while the first query still runs
    // on the old catalog.
    let svc = QueryService::new(
        ServiceConfig::with_engine(
            EngineConfig::with_workers(2).with_faults(FaultConfig::fixed_delay(20_000)),
        ),
        catalog(1_000),
    );
    let plan = sum_plan(400);
    let session = svc.connect();
    let old = std::thread::scope(|scope| {
        let running = scope.spawn(|| session.submit(&plan).unwrap());
        await_condition("the query to execute", || svc.engine().in_flight_queries() > 0);
        // Same table name, different data (b = 3a instead of 2a).
        svc.replace_catalog(catalog_with(1_000, 3));
        running.join().unwrap()
    });
    assert_eq!(old.output, expected_sum(400), "the query read its catalog before the swap");
    let after = session.submit(&plan).unwrap();
    assert!(!after.result_cache_hit, "a result of the old catalog was cached after the swap");
    assert_eq!(after.output, QueryOutput::Scalar(ScalarValue::I64((0..400).map(|v| v * 3).sum())));
}

#[test]
fn closed_sessions_reject_submissions_and_clones_share_the_close() {
    let svc = service(ServiceConfig::with_engine(EngineConfig::with_workers(2)));
    let session = svc.connect();
    let clone = session.clone();
    assert_eq!(session.id(), clone.id());

    session.submit(&sum_plan(100)).unwrap();
    clone.close();
    assert!(session.is_closed());
    assert_eq!(session.submit(&sum_plan(100)).unwrap_err(), EngineError::SessionClosed);
    // Idempotent: a second close (and drops) do not double-count.
    session.close();
    drop(session);
    drop(clone);
    let stats = svc.stats();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_closed, 1);
}

#[test]
fn sessions_are_independent_and_share_the_caches() {
    let svc = service(ServiceConfig::with_engine(EngineConfig::with_workers(2)));
    let a = svc.connect();
    let b = svc.connect();
    assert_ne!(a.id(), b.id());

    let plan = sum_plan(600);
    let cold = a.submit(&plan).unwrap();
    // Session B hits the shared result cache warmed by A.
    let warm = b.submit(&plan).unwrap();
    assert!(warm.result_cache_hit);
    assert_eq!(warm.output, cold.output);

    // Closing A does not affect B.
    a.close();
    assert!(!b.is_closed());
    assert!(b.submit(&plan).unwrap().result_cache_hit);
}

#[test]
fn concurrent_submissions_through_one_session_serialize_safely() {
    let svc = service(ServiceConfig::with_engine(EngineConfig::with_workers(2)));
    let session = svc.connect();
    let threads: Vec<_> = (0..4)
        .map(|i| {
            let session = session.clone();
            std::thread::spawn(move || {
                let threshold = 100 + (i % 2) * 100; // two distinct queries
                session.submit(&sum_plan(threshold)).map(|r| (threshold, r))
            })
        })
        .collect();
    for t in threads {
        let (threshold, response) = t.join().unwrap().unwrap();
        assert_eq!(
            response.output,
            QueryOutput::Scalar(ScalarValue::I64((0..threshold).map(|v| v * 2).sum()))
        );
    }
    assert_eq!(svc.stats().queries, 4);
    assert!(svc.engine().reservations().is_empty());
}

#[test]
fn queued_submissions_are_served_in_arrival_order() {
    // 20 ms per operator: the first submission holds the turn for ~0.1 s,
    // far longer than the four behind it take to queue.
    let svc = service(
        ServiceConfig::with_engine(
            EngineConfig::with_workers(2).with_faults(FaultConfig::fixed_delay(20_000)),
        )
        .with_result_cache_capacity(0),
    );
    let session = svc.connect();
    let thresholds = [100, 200, 300, 400, 500];
    let answered = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let submit = |threshold: i64| {
            let (session, answered) = (session.clone(), &answered);
            scope.spawn(move || {
                let response = session.submit(&sum_plan(threshold)).unwrap();
                answered.lock().unwrap().push((threshold, response.output));
            })
        };
        let first = submit(thresholds[0]);
        await_condition("the first submission to hold the turn", || {
            svc.engine().in_flight_queries() == 1
        });
        // The i-th follower arrives only once the i before it are queued.
        for (i, &threshold) in thresholds[1..].iter().enumerate() {
            await_condition("the previous follower to queue", || {
                assert!(!first.is_finished(), "the turn holder returned before the line formed");
                svc.queued() == i
            });
            submit(threshold);
        }
    });
    let answered = answered.into_inner().unwrap();
    let order: Vec<i64> = answered.iter().map(|(threshold, _)| *threshold).collect();
    assert_eq!(order, thresholds, "the line did not serve in arrival order");
    for (threshold, output) in answered {
        assert_eq!(output, expected_sum(threshold), "threshold {threshold}");
    }
    assert_eq!(svc.queued(), 0);
}
