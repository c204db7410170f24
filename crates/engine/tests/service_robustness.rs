//! Directed regression tests for the service robustness layer: deadline
//! results never reach the result cache, `close()` wakes queued
//! submitters immediately, the overload policy refuses the newcomer and
//! evicts nobody, and `try_submit` never blocks. Companion to the randomized
//! `proptest_faults.rs`; the failure taxonomy lives in
//! `docs/architecture.md` §9.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use apq_columnar::{Catalog, ScalarValue, TableBuilder};
use apq_engine::plan::{OperatorSpec, Plan};
use apq_engine::{
    EngineConfig, EngineError, FaultConfig, QueryOutput, QueryService, ServiceConfig, Session,
};
use apq_operators::{AggFunc, CmpOp, Predicate};

const ROWS: usize = 2_000;

fn catalog() -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("t")
            .i64_column("a", (0..ROWS as i64).map(|v| (v * 7919) % 1000).collect())
            .i64_column("b", (0..ROWS as i64).map(|v| v % 101).collect())
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

/// sum(b) where a < threshold — six nodes, so per-operator overhead adds up
/// to a predictable execution time.
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

/// A service whose every operator takes ~`overhead_ms`, so queries run long
/// enough to race closes/deadlines against deterministically.
fn slow_service(overhead_ms: u64, max_queued: usize) -> QueryService {
    let engine =
        EngineConfig::with_workers(2).with_faults(FaultConfig::fixed_delay(overhead_ms * 1_000));
    QueryService::new(ServiceConfig::with_engine(engine).with_max_queued(max_queued), catalog())
}

/// Polls until `cond` holds, failing after a generous watchdog.
fn await_condition(label: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < Duration::from_secs(20), "timed out waiting for {label}");
        thread::yield_now();
    }
}

#[test]
fn timed_out_partial_outcome_is_never_served_to_the_next_submission() {
    // ~20ms per operator: a 5ms deadline expires mid-execution, after
    // dispatch began. The aborted query's partial state must not be
    // cached: the identical follow-up submission must really execute and
    // return the correct bytes.
    let service = slow_service(20, 0);
    let session = service.connect();
    let plan = sum_plan(353);

    let err = session
        .submit_with_deadline(&plan, Duration::from_millis(5))
        .expect_err("a 5ms deadline cannot survive ~120ms of operator overhead");
    assert_eq!(err, EngineError::DeadlineExceeded);
    assert_eq!(service.stats().timed_out, 1);
    assert_eq!(service.result_cache_len(), 0, "timed-out outcome reached the result cache");

    let retry = session.submit(&plan).expect("fresh submission executes");
    assert!(!retry.result_cache_hit, "nothing may have been cached by the timed-out run");
    assert!(retry.profile.is_some(), "the retry really executed");

    // Sanity: the retry's output matches an overhead-free reference.
    let reference = QueryService::new(ServiceConfig::default(), catalog());
    let expected = reference.connect().submit(&plan).unwrap().output;
    assert_eq!(retry.output, expected);

    // An already-expired deadline fails even though the result is now
    // cached: a passed deadline is never answered, not even for free.
    let expired = session.submit_with_deadline(&plan, Duration::ZERO);
    assert_eq!(expired.unwrap_err(), EngineError::DeadlineExceeded);
    assert_eq!(service.stats().timed_out, 2);
}

#[test]
fn close_wakes_queued_submitters_immediately() {
    // Thread A holds the session's turn with a ~120ms query; thread B
    // queues behind it. Closing the session must wake B with
    // SessionClosed right away — not after A's query drains.
    let service = slow_service(20, 0);
    let session = service.connect();
    let plan = sum_plan(353);

    let a = submit_async(&session, &plan);
    // B queues only once A holds the turn (a query is inside the engine).
    await_condition("A's query to go live", || service.engine().in_flight_queries() == 1);
    let b = submit_async(&session, &plan);
    await_condition("B to join the queue", || service.queued() == 1);

    session.close();
    let b_result = b.join().unwrap();
    let a_result = a.join().unwrap();

    assert_eq!(b_result.unwrap_err(), EngineError::SessionClosed);
    // Close also cancelled A's in-flight query.
    assert_eq!(a_result.unwrap_err(), EngineError::Cancelled);
    // "Immediately": B never got a turn — a submission is counted only once
    // its turn is granted, so A is the only one the service counted.
    assert_eq!(service.stats().queries, 1, "B ran instead of waking");
    assert_eq!(service.queued(), 0, "the queued census retained a woken waiter");
}

/// Spawns a blocking submission on `session`, returning the join handle.
fn submit_async(
    session: &Session,
    plan: &Plan,
) -> thread::JoinHandle<Result<apq_engine::ServiceResponse, EngineError>> {
    let (session, plan) = (session.clone(), plan.clone());
    thread::spawn(move || session.submit(&plan))
}

#[test]
fn newcomer_is_refused_when_nothing_queued_outranks_it() {
    // Queue bound 1, one running submission plus one queued waiter: the
    // bound is service-wide, so the next submission that would have to
    // queue — on this session or another — gets Overloaded, and the waiter
    // already in line is untouched.
    let service = slow_service(20, 1);
    let session = service.connect();
    let other = service.connect();
    let plan = sum_plan(353);

    let running = submit_async(&session, &plan);
    await_condition("query to go live", || service.engine().in_flight_queries() == 1);
    let queued = submit_async(&session, &plan);
    await_condition("waiter to queue", || service.queued() == 1);

    match session.submit(&plan).expect_err("the census is full") {
        EngineError::Overloaded { retry_after_hint } => {
            assert!(
                retry_after_hint >= Duration::from_millis(1),
                "hint below the 1ms floor: {retry_after_hint:?}"
            );
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    assert_eq!(service.queued(), 1, "the refusal must not evict the queued waiter");

    // An idle session's first submission takes its turn without queueing;
    // its second would have to queue and is refused like the one above.
    let other_running = submit_async(&other, &plan);
    await_condition("other query to go live", || service.engine().in_flight_queries() == 2);
    let refused = other.submit(&plan).expect_err("the census is still full");
    assert!(matches!(refused, EngineError::Overloaded { .. }), "got {refused}");
    assert_eq!(service.queued(), 1, "the refusal must not evict the queued waiter");

    for handle in [running, queued, other_running] {
        handle.join().unwrap().expect("admitted submissions complete normally");
    }
    assert_eq!(service.stats().shed, 2);
    assert_eq!(service.queued(), 0);
    assert_eq!(service.engine().in_flight_queries(), 0);
    assert!(service.engine().reservations().is_empty());
}

#[test]
fn try_submit_refuses_instead_of_queueing() {
    let service = slow_service(20, 0);
    let session = service.connect();
    let plan = sum_plan(353);

    // Idle session: try_submit executes like submit.
    let first = session.try_submit(&plan).expect("idle session accepts try_submit");
    assert!(matches!(first.output, QueryOutput::Scalar(ScalarValue::I64(_))));

    // Busy session: try_submit returns Overloaded without waiting.
    service.invalidate_results(); // force the next submissions to execute
    let running = submit_async(&session, &plan);
    await_condition("query to go live", || service.engine().in_flight_queries() == 1);
    let refused = session.try_submit(&plan).expect_err("busy session refuses try_submit");
    assert!(matches!(refused, EngineError::Overloaded { .. }), "got {refused}");
    // The refusal came back while the running submission is still inside
    // the engine: try_submit did not wait for the turn.
    assert_eq!(service.engine().in_flight_queries(), 1, "try_submit waited for the turn");
    assert!(!running.is_finished(), "try_submit waited for the turn");
    running.join().unwrap().expect("running submission completes");
    assert_eq!(service.stats().shed, 1);
}

#[test]
fn cancelled_submissions_never_reach_the_result_cache() {
    // A close that races a running submission cancels it; the cancelled
    // outcome must not be cached for the next client.
    let service = slow_service(20, 0);
    let session = service.connect();
    let plan = sum_plan(101);

    let running = submit_async(&session, &plan);
    await_condition("query to go live", || service.engine().in_flight_queries() == 1);
    session.close();
    assert_eq!(running.join().unwrap().unwrap_err(), EngineError::Cancelled);
    assert_eq!(service.result_cache_len(), 0, "cancelled outcome reached the result cache");

    // A fresh session re-executes and gets the true result.
    let fresh = service.connect();
    let response = fresh.submit(&plan).expect("fresh session executes");
    assert!(!response.result_cache_hit);
    assert!(matches!(response.output, QueryOutput::Scalar(ScalarValue::I64(_))));
}
