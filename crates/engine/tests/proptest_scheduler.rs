//! Property tests for the scheduler: under arbitrary partition counts,
//! worker counts and skews, dataflow dependency order is never violated and
//! the result matches an independently computed reference.
//!
//! Dependency order is checked two ways:
//! * structurally — the executor fails a query loudly ("scheduled before its
//!   input completed") if a consumer ever dispatches before a producer
//!   published its chunk, so a successful run *is* evidence;
//! * temporally — every operator's profiled start must lie at or after each
//!   of its producers' profiled end (both clocks share the query's start
//!   instant).

use std::sync::Arc;

use apq_columnar::{Catalog, ScalarValue, TableBuilder};
use apq_engine::plan::{Cuts, OperatorSpec};
use apq_engine::{Engine, Plan, QueryOutput};
use apq_operators::{AggFunc, CmpOp, Predicate};
use proptest::prelude::*;

fn catalog(rows: usize) -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("t")
            .i64_column("a", (0..rows as i64).map(|v| (v * 7919) % 1000).collect())
            .i64_column("b", (0..rows as i64).map(|v| v % 101).collect())
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

/// Partitioned select/fetch/sum plan over `rows` rows in `partitions`
/// parts of uneven sizes (the `skew` knob shifts the cut points): the
/// select is cut, the fetch and the aggregate adopt its parts.
fn partitioned_plan(rows: usize, partitions: usize, threshold: i64, skew: usize) -> Plan {
    let mut p = Plan::new();
    let b = p.add(OperatorSpec::ScanColumn { table: "t".into(), column: "b".into() }, vec![]);
    let mut at = Vec::new();
    let mut start = 0usize;
    for i in 0..partitions {
        let remaining = rows - start;
        let parts_left = partitions - i;
        let base = remaining / parts_left;
        // Uneven cuts: early partitions grow with `skew`, bounded so later
        // partitions keep at least one row.
        let len = if parts_left == 1 {
            remaining
        } else {
            (base + (skew % (base + 1))).min(remaining - (parts_left - 1))
        };
        start += len.max(1);
        if i + 1 < partitions {
            at.push(start);
        }
    }
    let scan = p.add(OperatorSpec::ScanColumn { table: "t".into(), column: "a".into() }, vec![]);
    let select = OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, threshold) };
    let sel = p.add(select, vec![scan]);
    let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
    p.node_mut(sel).unwrap().cuts = Cuts::At(at);
    for adopting in [fetch, agg] {
        p.node_mut(adopting).unwrap().cuts = Cuts::Adopt;
    }
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    p
}

fn expected_sum(catalog: &Catalog, rows: usize, threshold: i64) -> i64 {
    let t = catalog.table("t").unwrap();
    let a = t.column("a").unwrap().i64_values().unwrap();
    let b = t.column("b").unwrap().i64_values().unwrap();
    (0..rows).filter(|&i| a[i] < threshold).map(|i| b[i]).sum()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Work-stealing never violates dependency order: structurally (the run
    /// succeeds) and temporally (consumers start after producers end), for
    /// arbitrary partitioning, worker counts and skews.
    #[test]
    fn dependency_order_holds_under_stealing(rows in 500usize..4_000,
                                             partitions in 1usize..12,
                                             workers in 1usize..5,
                                             threshold in 1i64..1000,
                                             skew in 0usize..1000) {
        let cat = catalog(rows);
        let plan = partitioned_plan(rows, partitions.min(rows), threshold, skew);
        plan.validate().unwrap();
        let engine = Engine::with_workers(workers);
        let exec = engine.execute(&plan, &cat).unwrap();
        prop_assert_eq!(
            &exec.output,
            &QueryOutput::Scalar(ScalarValue::I64(expected_sum(&cat, rows, threshold)))
        );
        // Temporal dependency check over every profiled edge between steps;
        // the stages of one pipeline (the adopting fetch and sum fuse into
        // the select's) share their step's start and end.
        for node in plan.node_ids() {
            let consumer = exec.profile.operator(node).expect("every node profiled");
            for &input in &plan.node(node).unwrap().inputs {
                let producer = exec.profile.operator(input).expect("input profiled");
                if producer.step.is_some() && producer.step == consumer.step {
                    continue;
                }
                prop_assert!(
                    consumer.start_us >= producer.end_us,
                    "node {} started at {}us before its input {} finished at {}us",
                    node, consumer.start_us, input, producer.end_us
                );
            }
        }
    }
}
