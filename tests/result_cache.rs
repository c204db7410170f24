//! The service's result cache, and repeated submissions of one column
//! through the service with that cache off (there is no scan sharing;
//! `docs/architecture.md` §10 says why).
//!
//! The contract under test:
//!
//! * **byte-identical** — many sessions over one column, and cold and warm
//!   repeats of one shape, all return what a plain reference engine
//!   returns, as built and cut into morsels; with the result cache off every
//!   submission executes and carries a profile,
//! * **failure isolation** — a submission that misses its deadline leaves
//!   its session usable,
//! * **invalidation flushes** — per-table invalidation drops the cached
//!   results computed from that table, and the next run re-executes.

use std::sync::Arc;
use std::time::Duration;

use adaptive_parallelization::engine::{
    Engine, EngineConfig, EngineError, OperatorSpec, Plan, QueryService, ServiceConfig,
};
use apq_columnar::{Catalog, ScalarValue, TableBuilder};
use apq_operators::{AggFunc, BinaryOp};

const WORKERS: usize = 4;
const MORSEL_ROWS: usize = 1_000;
const ROWS: usize = 20_000;

fn catalog() -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("t")
            .i64_column("v", (0..ROWS as i64).map(|x| (x * 7) % 1000).collect())
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

/// `SELECT sum(v * k) FROM t` — the scalar factor `k` makes each session's
/// plan signature distinct (no result-cache aliasing) while every plan scans
/// the identical column range.
fn scaled_sum(k: i64) -> Plan {
    let mut p = Plan::new();
    let scan = p.add(OperatorSpec::ScanColumn { table: "t".into(), column: "v".into() }, vec![]);
    let calc = p.add(
        OperatorSpec::Calc {
            op: BinaryOp::Mul,
            left_scalar: None,
            right_scalar: Some(ScalarValue::I64(k)),
        },
        vec![scan],
    );
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![calc]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    p
}

/// `plan` cut into morsels of [`MORSEL_ROWS`] rows.
fn morsels(plan: &Plan) -> Plan {
    plan.cut_into_morsels(MORSEL_ROWS)
}

fn config() -> ServiceConfig {
    ServiceConfig::with_engine(EngineConfig::with_workers(WORKERS))
}

/// A service whose every submission reaches the engine (result cache off).
fn uncached_service(catalog: &Arc<Catalog>) -> QueryService {
    QueryService::new(config().with_result_cache_capacity(0), Arc::clone(catalog))
}

#[test]
fn sixteen_uncached_sessions_match_the_reference() {
    // 16 sessions scanning the same column: each executes (a profile comes
    // back) and returns what the reference engine returns.
    let catalog = catalog();
    let reference = Engine::with_workers(WORKERS);
    let service = uncached_service(&catalog);
    for k in 1..=16i64 {
        let plan = scaled_sum(k);
        let expected = reference.execute(&plan, &catalog).expect("reference executes").output;
        let session = service.connect();
        let response = session.submit(&morsels(&plan)).expect("submission executes");
        assert_eq!(response.output, expected, "k={k}: diverged from the reference");
        assert!(response.profile.is_some(), "k={k}: executions carry a profile");
    }
}

#[test]
fn uncached_repeats_match_the_reference_under_both_plannings() {
    let catalog = catalog();
    let reference = Engine::with_workers(WORKERS);
    let service = uncached_service(&catalog);
    for k in [1, 3, 5] {
        let plan = scaled_sum(k);
        let expected = reference.execute(&plan, &catalog).expect("reference").output;
        for (form, plan) in [("as built", plan.clone()), ("morsels", morsels(&plan))] {
            // Twice: cold, then a warm repeat of the identical signature.
            for rep in 0..2 {
                let session = service.connect();
                let got = session.submit(&plan).expect("executes");
                assert_eq!(got.output, expected, "[{form}] k={k} rep {rep}: diverged");
                assert!(got.profile.is_some(), "[{form}] k={k} rep {rep}: did not execute");
            }
        }
    }
}

#[test]
fn uncached_scalar_repeat_re_executes_to_the_same_result() {
    let catalog = catalog();
    let service = uncached_service(&catalog);
    let plan = morsels(&scaled_sum(7));
    let expected = Engine::with_workers(WORKERS).execute(&plan, &catalog).expect("reference");
    let session = service.connect();
    let first = session.submit(&plan).expect("cold run executes");
    assert_eq!(first.output, expected.output, "cold run diverged from the reference");
    let second = session.submit(&plan).expect("warm run executes");
    assert_eq!(second.output, first.output, "the repeat changed the result");
    assert!(second.profile.is_some(), "warm run should have re-executed");
}

#[test]
fn uncached_fused_group_repeat_re_executes_to_the_same_result() {
    // A fused GroupAgg terminal, cold and warm: the partials merged in
    // morsel order equal the reference engine's whole-node aggregate.
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("g")
            .i64_column("k", (0..ROWS as i64).map(|x| x % 50).collect())
            .i64_column("v", (0..ROWS as i64).map(|x| (x * 3) % 101).collect())
            .build()
            .unwrap(),
    );
    let catalog = Arc::new(c);
    let service = uncached_service(&catalog);
    let mut p = Plan::new();
    let k = p.add(OperatorSpec::ScanColumn { table: "g".into(), column: "k".into() }, vec![]);
    let v = p.add(OperatorSpec::ScanColumn { table: "g".into(), column: "v".into() }, vec![]);
    let group = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![k, v]);
    p.set_root(group);

    let expected = Engine::with_workers(WORKERS).execute(&p, &catalog).expect("reference").output;
    let p = morsels(&p);
    let session = service.connect();
    let first = session.submit(&p).expect("cold run executes");
    assert_eq!(first.output, expected, "cold run diverged from the reference");
    let profile = first.profile.as_ref().expect("executions carry a profile");
    assert!(
        profile.fused_groupagg_pipelines() > 0,
        "groupagg over range-aligned scans should fuse"
    );
    let second = session.submit(&p).expect("warm run executes");
    assert_eq!(second.output, first.output, "the repeat changed the grouped result");
    let profile = second.profile.as_ref().expect("warm run should have re-executed");
    assert!(profile.fused_groupagg_pipelines() > 0, "warm run should fuse like the cold one");
}

#[test]
fn invalidating_a_table_drops_its_cached_result() {
    // What per-table invalidation flushes is the result cache.
    let catalog = catalog();
    let service = QueryService::new(config(), Arc::clone(&catalog));
    let plan = morsels(&scaled_sum(7));
    let session = service.connect();
    let expected = session.submit(&plan).expect("cold run executes").output;
    let warm = session.submit(&plan).expect("warm run is served from cache");
    assert!(warm.result_cache_hit, "warm run should hit the result cache");
    assert_eq!(warm.output, expected);

    // Flush: the next identical submission must re-execute from the table.
    let invalidated_before = service.stats().results_invalidated;
    let dropped = service.invalidate_table("t");
    assert!(dropped >= 1, "the cached result read table t");
    assert_eq!(service.stats().results_invalidated, invalidated_before + dropped as u64);
    let got = session.submit(&plan).expect("post-invalidation run executes");
    assert!(!got.result_cache_hit, "flushed result was served");
    assert!(got.profile.is_some(), "post-invalidation run should have re-executed");
    assert_eq!(got.output, expected, "invalidation changed the result");
}

#[test]
fn expired_deadline_leaves_the_session_usable() {
    // A submission failing out (expired deadline here) must not stall or
    // poison its session: the next submission still executes.
    let catalog = catalog();
    let service = uncached_service(&catalog);
    let session = service.connect();
    session.submit(&morsels(&scaled_sum(3))).expect("first submission executes");
    let err = session
        .submit_with_deadline(&morsels(&scaled_sum(4)), Duration::ZERO)
        .expect_err("expired deadline must fail");
    assert_eq!(err, EngineError::DeadlineExceeded);
    let reference = Engine::with_workers(WORKERS);
    let follow_up = scaled_sum(5);
    let expected = reference.execute(&follow_up, &catalog).expect("reference").output;
    let got =
        session.submit(&morsels(&follow_up)).expect("session survives a failed submission").output;
    assert_eq!(got, expected);
}
