//! Property test for the service layer: arbitrary interleavings of session
//! submit / close / reconnect with cache churn (a tiny cache bound, explicit
//! invalidation) must never change a result — every successful submission
//! returns exactly what a direct `Engine` execution of the same plan
//! returns, and closed sessions only ever fail with `SessionClosed`.

use std::sync::Arc;

use apq_columnar::{Catalog, TableBuilder};
use apq_engine::plan::{OperatorSpec, Plan};
use apq_engine::{Engine, EngineConfig, EngineError, QueryOutput, QueryService, ServiceConfig};
use apq_operators::{AggFunc, CmpOp, Predicate};
use proptest::prelude::*;

const ROWS: usize = 2_000;
const THRESHOLDS: [i64; 3] = [101, 353, 997];

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random op sequences over 3 sessions × 3 plans with a 2-entry cache:
    /// submissions (op 0–2), closes (op 3), reconnects (op 4) and
    /// table invalidation (op 5) interleave freely; results never drift
    /// from the direct-engine reference.
    #[test]
    fn interleaved_sessions_and_cache_churn_never_change_results(
        ops in prop::collection::vec((0usize..6, 0usize..3, 0usize..3), 1..24),
    ) {
        let cat = catalog();

        // Reference outputs from a plain engine, no service machinery.
        let reference_engine = Engine::with_workers(2);
        let reference: Vec<QueryOutput> = THRESHOLDS
            .iter()
            .map(|&t| reference_engine.execute(&sum_plan(t), &cat).unwrap().output)
            .collect();

        // A tiny cache so the op sequence constantly evicts and re-fills.
        let service = QueryService::new(
            ServiceConfig::with_engine(EngineConfig::with_workers(2))
                .with_result_cache_capacity(2),
            Arc::clone(&cat),
        );
        let mut sessions: Vec<_> = (0..3).map(|_| service.connect()).collect();

        for (op, s, q) in ops {
            match op {
                0..=2 => {
                    let result = sessions[s].submit(&sum_plan(THRESHOLDS[q]));
                    if sessions[s].is_closed() {
                        prop_assert_eq!(result.unwrap_err(), EngineError::SessionClosed);
                    } else {
                        let response = result.unwrap();
                        prop_assert_eq!(&response.output, &reference[q]);
                        // Cache hits must never hand back an executing
                        // profile, and vice versa.
                        prop_assert_eq!(
                            response.profile.is_none(),
                            response.result_cache_hit
                        );
                    }
                }
                3 => sessions[s].close(),
                4 => sessions[s] = service.connect(),
                _ => {
                    service.invalidate_table("t");
                }
            }
        }

        // The census drains: no reservations survive their submissions.
        prop_assert!(service.engine().reservations().is_empty());
        let stats = service.stats();
        prop_assert_eq!(
            stats.result_cache_hits + stats.result_cache_misses,
            stats.queries
        );
    }
}
