//! Work-sharing acceptance suite: cooperative shared scans and
//! partial-aggregate reuse (`docs/architecture.md` §10).
//!
//! The contract under test:
//!
//! * **one table pass, not N** — N sessions scanning the same column cost
//!   roughly one private pass; every other morsel is served from the scan
//!   group's published windows (`ServiceStats::morsels_shared`),
//! * **byte-identical** — sharing changes who executes scan work, never
//!   what a query returns, in either execution mode,
//! * **invalidation flushes** — per-table invalidation drops cached
//!   partials alongside cached results,
//! * **cost-aware caching** — executions cheaper than
//!   [`ServiceConfig::min_cache_cost`] never claim a result-cache slot.

use std::sync::Arc;
use std::time::Duration;

use adaptive_parallelization::engine::{
    Engine, EngineConfig, EngineError, ExecutionMode, OperatorSpec, Plan, QueryService,
    ServiceConfig,
};
use apq_columnar::partition::RowRange;
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
/// plan signature distinct (no whole-query partial reuse, no result-cache
/// aliasing) while every plan scans the identical column range, which is
/// exactly the shape scan groups share.
fn scaled_sum(k: i64) -> Plan {
    let mut p = Plan::new();
    let scan = p.add(
        OperatorSpec::ScanColumn {
            table: "t".into(),
            column: "v".into(),
            range: RowRange::new(0, ROWS),
        },
        vec![],
    );
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

fn sharing_service(mode: ExecutionMode, catalog: &Arc<Catalog>) -> QueryService {
    QueryService::new(
        ServiceConfig::with_engine(
            EngineConfig::with_workers(WORKERS)
                .with_execution_mode(mode)
                .with_morsel_rows(MORSEL_ROWS),
        )
        .with_shared_scans(true)
        // The result cache would satisfy repeats without executing; this
        // suite needs every submission to reach the engine.
        .with_result_cache_capacity(0),
        Arc::clone(catalog),
    )
}

#[test]
fn sixteen_sessions_cost_one_table_pass() {
    // The headline acceptance criterion: 16 sessions scanning the same
    // table perform ~1 private pass over it; the other 15 passes are
    // served from shared windows — with byte-identical outputs.
    let catalog = catalog();
    let reference = Engine::with_workers(WORKERS);
    let service = sharing_service(ExecutionMode::MorselDriven, &catalog);
    for k in 1..=16i64 {
        let plan = scaled_sum(k);
        let expected = reference.execute(&plan, &catalog).expect("reference executes").output;
        let session = service.connect();
        let response = session.submit(&plan).expect("sharing submission executes");
        assert_eq!(response.output, expected, "k={k}: sharing changed the result");
        if k > 1 {
            // Every member after the first is fully served from the
            // group's published windows.
            let profile = response.profile.expect("executions carry a profile");
            assert!(
                profile.total_shared_morsels() > 0,
                "k={k}: expected shared morsels in the profile"
            );
        }
    }
    let stats = service.stats();
    assert_eq!(stats.scan_groups, 1, "one scanned column, one group");
    assert!(stats.morsels_private > 0 || stats.morsels_shared > 0);
    // One private pass (the first session), fifteen shared passes.
    assert_eq!(
        stats.morsels_shared,
        15 * stats.morsels_private,
        "expected 15 shared passes per private pass \
         (shared {}, private {})",
        stats.morsels_shared,
        stats.morsels_private
    );
}

#[test]
fn sharing_is_byte_identical_across_policies_and_modes() {
    let catalog = catalog();
    let reference = Engine::with_workers(WORKERS);
    for mode in [ExecutionMode::OperatorAtATime, ExecutionMode::MorselDriven] {
        let service = sharing_service(mode, &catalog);
        for k in [1, 3, 5] {
            let plan = scaled_sum(k);
            let expected = reference.execute(&plan, &catalog).expect("reference").output;
            // Twice: the repeat exercises window reuse AND whole-query
            // partial-aggregate reuse (identical signature).
            for rep in 0..2 {
                let session = service.connect();
                let got = session.submit(&plan).expect("executes").output;
                assert_eq!(got, expected, "[{mode:?}] k={k} rep {rep}: diverged");
            }
        }
    }
}

#[test]
fn repeated_aggregates_resume_from_cached_partials() {
    let catalog = catalog();
    let service = sharing_service(ExecutionMode::MorselDriven, &catalog);
    let plan = scaled_sum(7);
    let session = service.connect();
    let first = session.submit(&plan).expect("cold run executes").output;
    assert_eq!(service.stats().partials_reused, 0, "cold run cannot reuse partials");
    let second = session.submit(&plan).expect("warm run executes").output;
    assert_eq!(second, first, "partial reuse changed the result");
    assert!(
        service.stats().partials_reused > 0,
        "identical resubmission should resume from cached partials"
    );
}

#[test]
fn repeated_group_aggregates_resume_from_cached_partials() {
    // Fused GroupAgg terminals cache like scalar-aggregate terminals: the
    // partial cache is chunk-typed, so a `Chunk::Grouped` merged in morsel
    // order stores under the same catalog/grid/signature key and a repeat
    // of the shape skips the whole pipeline.
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("g")
            .i64_column("k", (0..ROWS as i64).map(|x| x % 50).collect())
            .i64_column("v", (0..ROWS as i64).map(|x| (x * 3) % 101).collect())
            .build()
            .unwrap(),
    );
    let catalog = Arc::new(c);
    let service = sharing_service(ExecutionMode::MorselDriven, &catalog);
    let mut p = Plan::new();
    let k = p.add(
        OperatorSpec::ScanColumn {
            table: "g".into(),
            column: "k".into(),
            range: RowRange::new(0, ROWS),
        },
        vec![],
    );
    let v = p.add(
        OperatorSpec::ScanColumn {
            table: "g".into(),
            column: "v".into(),
            range: RowRange::new(0, ROWS),
        },
        vec![],
    );
    let group = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![k, v]);
    let merge = p.add(OperatorSpec::MergeGrouped, vec![group]);
    p.set_root(merge);

    let session = service.connect();
    let first = session.submit(&p).expect("cold run executes");
    let profile = first.profile.as_ref().expect("executions carry a profile");
    assert!(
        profile.fused_groupagg_pipelines() > 0,
        "groupagg over range-aligned scans should fuse"
    );
    assert_eq!(service.stats().partials_reused, 0, "cold run cannot reuse partials");
    let second = session.submit(&p).expect("warm run executes");
    assert_eq!(second.output, first.output, "grouped partial reuse changed the result");
    assert!(
        service.stats().partials_reused > 0,
        "identical grouped resubmission should resume from the cached partial"
    );
}

#[test]
fn per_table_invalidation_flushes_partials_and_windows() {
    let catalog = catalog();
    let service = sharing_service(ExecutionMode::MorselDriven, &catalog);
    let plan = scaled_sum(7);
    let session = service.connect();
    let expected = session.submit(&plan).expect("cold run executes").output;
    session.submit(&plan).expect("warm run executes");
    let reused_before = service.stats().partials_reused;
    assert!(reused_before > 0, "warm run should have reused a partial");

    // Flush: the next identical submission must re-execute from the table
    // (no partial reuse, no shared windows left to serve from).
    service.invalidate_table("t");
    let shared_before = service.stats().morsels_shared;
    let got = session.submit(&plan).expect("post-invalidation run executes").output;
    assert_eq!(got, expected, "invalidation changed the result");
    let stats = service.stats();
    assert_eq!(stats.partials_reused, reused_before, "flushed partial was reused");
    assert_eq!(stats.morsels_shared, shared_before, "flushed windows served a morsel");
}

#[test]
fn cancellation_and_deadlines_leave_the_group_healthy() {
    // A member failing out (expired deadline here) must detach without
    // stalling or poisoning the group: the next member still executes and
    // still shares.
    let catalog = catalog();
    let service = sharing_service(ExecutionMode::MorselDriven, &catalog);
    let plan = scaled_sum(3);
    let session = service.connect();
    session.submit(&plan).expect("seed the scan group");
    let err = session
        .submit_with_deadline(&scaled_sum(4), Duration::ZERO)
        .expect_err("expired deadline must fail");
    assert_eq!(err, EngineError::DeadlineExceeded);
    let reference = Engine::with_workers(WORKERS);
    let follow_up = scaled_sum(5);
    let expected = reference.execute(&follow_up, &catalog).expect("reference").output;
    let got = session.submit(&follow_up).expect("group survives a failed member").output;
    assert_eq!(got, expected);
    assert!(service.stats().morsels_shared > 0, "surviving members still share");
}

#[test]
fn min_cache_cost_gates_result_cache_admission() {
    let catalog = catalog();
    let plan = scaled_sum(2);
    // A floor no sub-second query reaches: nothing is admitted, the warm
    // submission re-executes.
    let expensive_only = QueryService::new(
        ServiceConfig::with_engine(EngineConfig::with_workers(WORKERS))
            .with_min_cache_cost(Duration::from_secs(3_600)),
        Arc::clone(&catalog),
    );
    let session = expensive_only.connect();
    session.submit(&plan).expect("cold run executes");
    let warm = session.submit(&plan).expect("warm run executes");
    assert!(!warm.result_cache_hit, "a cheap execution claimed a cache slot");
    assert!(warm.profile.is_some(), "warm run should have re-executed");

    // The zero default admits everything, as before.
    let admit_all = QueryService::new(ServiceConfig::default(), Arc::clone(&catalog));
    let session = admit_all.connect();
    session.submit(&plan).expect("cold run executes");
    let warm = session.submit(&plan).expect("warm run is served from cache");
    assert!(warm.result_cache_hit, "zero floor should admit the cold result");
}
