//! Paper claims about plan shapes and counts, pinned at a fixed scale
//! factor and seed. These are deterministic; the claims about time live in
//! the examples (`examples/plan_trace.rs` prints table 5's adaptive column).
//!
//! Table 5: the heuristic Q14 plan clones every parallelizable operator
//! once per partition, so its operator counts grow with the partition count.
//! Its aggregates' combiners absorb the partitions directly, so it packs
//! nothing through an exchange union.
//!
//! The heuristic partitions the way the mutations do (paper §2.3: "marking
//! the boundary ranges … there is no data copying involved"): a partition is
//! a row window on the edge that reads a scan, so an HP plan scans what its
//! serial plan scans, once each, and never packs scan windows back together.

use adaptive_parallelization::baselines::heuristic_parallelize;
use adaptive_parallelization::engine::{
    Engine, EngineConfig, ExecutionMode, OperatorSpec, Plan, QueryOutput,
};
use adaptive_parallelization::workloads::tpcds::{self, TpcdsQuery, TpcdsScale};
use adaptive_parallelization::workloads::tpch::{self, queries::q14, TpchQuery, TpchScale};
use apq_columnar::Catalog;
use std::sync::Arc;

#[test]
fn heuristic_q14_plan_counts_match_table_5() {
    let catalog = tpch::generate(TpchScale::new(0.002), 42);
    let serial = q14(&catalog).expect("Q14 builds");
    let engine = Engine::with_workers(4);
    let expected = engine.execute(&serial, &catalog).expect("serial Q14 executes").output;
    // (partitions, selects, joins, fetches, unions, operators). Q14 scans
    // six columns; each is one whole scan whose clones read windows of it,
    // so W = 4 has 6 scans where one scan per partition made 18 (90 nodes),
    // and W = 8 has 6 where it made 34 (174 nodes).
    for (w, select, join, fetch, union, nodes) in [(4, 4, 4, 24, 0, 78), (8, 8, 8, 48, 0, 146)] {
        let hp = heuristic_parallelize(&serial, &catalog, w).expect("HP Q14 builds");
        let counts = [
            hp.count_of("select"),
            hp.count_of("join"),
            hp.count_of("fetch"),
            hp.count_of("union"),
            hp.node_count(),
        ];
        assert_eq!(counts, [select, join, fetch, union, nodes], "W = {w}");
        let out = engine.execute(&hp, &catalog).expect("HP Q14 executes").output;
        assert_eq!(out, expected, "W = {w}: the heuristic plan changed Q14's result");
    }
}

/// The plan's scans, as `table.column`, sorted.
fn scans(plan: &Plan) -> Vec<String> {
    let mut scans: Vec<String> = plan
        .node_ids()
        .into_iter()
        .map(|id| &plan.node(id).expect("live node").spec)
        .filter(|spec| matches!(spec, OperatorSpec::ScanColumn { .. }))
        .map(OperatorSpec::describe)
        .collect();
    scans.sort();
    scans
}

/// Ids of the plan's exchange unions whose every input is a scan.
fn unions_packing_scans(plan: &Plan) -> Vec<usize> {
    let is_scan =
        |id| matches!(plan.node(id).expect("live node").spec, OperatorSpec::ScanColumn { .. });
    plan.node_ids()
        .into_iter()
        .filter(|&id| {
            let node = plan.node(id).expect("live node");
            node.spec == OperatorSpec::ExchangeUnion && node.inputs.iter().all(|&i| is_scan(i))
        })
        .collect()
}

/// Checks `serial`'s heuristic plans at W = 2 and 8 against `expected`.
fn assert_heuristic_shape(
    label: &str,
    serial: &Plan,
    catalog: &Arc<Catalog>,
    expected: &QueryOutput,
) {
    let oat = Engine::with_workers(2);
    let morsel = Engine::new(
        EngineConfig::with_workers(2)
            .with_execution_mode(ExecutionMode::MorselDriven)
            .with_morsel_rows(1_000),
    );
    for w in [2, 8] {
        let hp = heuristic_parallelize(serial, catalog, w).expect("HP plan builds");
        let label = format!("{label} W = {w}:\n{}", hp.pretty());
        assert_eq!(scans(&hp), scans(serial), "{label}");
        assert_eq!(unions_packing_scans(&hp), Vec::<usize>::new(), "{label}");
        for engine in [&oat, &morsel] {
            let out = engine.execute(&hp, catalog).expect("HP plan executes").output;
            assert_eq!(&out, expected, "{label}");
        }
    }
}

#[test]
fn heuristic_plans_scan_what_serial_plans_scan_and_pack_no_scans() {
    let catalog = tpch::generate(TpchScale::new(0.01), 4242);
    let engine = Engine::with_workers(2);
    for query in TpchQuery::all() {
        let serial = query.build(&catalog).expect("query builds");
        let expected = engine.execute(&serial, &catalog).expect("serial executes").output;
        assert_heuristic_shape(&format!("{query:?}"), &serial, &catalog, &expected);
    }
    let catalog = tpcds::generate(TpcdsScale::new(0.01), 4242);
    for query in TpcdsQuery::all() {
        let serial = query.build(&catalog).expect("query builds");
        let expected = engine.execute(&serial, &catalog).expect("serial executes").output;
        assert_heuristic_shape(&format!("{query:?}"), &serial, &catalog, &expected);
    }
}
