//! Paper claims about plan shapes and counts, pinned at a fixed scale
//! factor and seed. These are deterministic; the claims about time live in
//! the examples (`examples/plan_trace.rs` prints table 5's adaptive column).
//!
//! Table 5: the heuristic Q14 plan runs every parallelizable operator once
//! per partition, so its operator counts — each node counting its parts —
//! grow with the partition count, as the paper's clones did. Its node count
//! does not: a partition is a part of a node's cuts, not a clone, and the
//! plan has no exchange union.
//!
//! The heuristic partitions the way the mutations do (paper §2.3: "marking
//! the boundary ranges … there is no data copying involved"): it sets cuts
//! and nothing else, so an HP plan has its serial plan's nodes and edges —
//! it scans what its serial plan scans, once each, and packs no scan.

use adaptive_parallelization::baselines::heuristic_parallelize;
use adaptive_parallelization::engine::{
    Engine, OperatorSpec, Plan, QueryOutput, DEFAULT_MORSEL_ROWS,
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
    // (partitions, selects, joins, fetches, unions), each node counting its
    // parts: the paper's clone counts, from a plan with the serial plan's
    // nodes.
    for (w, select, join, fetch, union) in [(4, 4, 4, 24, 0), (8, 8, 8, 48, 0)] {
        let hp = heuristic_parallelize(&serial, &catalog, w).expect("HP Q14 builds");
        let counts = [
            hp.count_of("select"),
            hp.count_of("join"),
            hp.count_of("fetch"),
            hp.count_of("union"),
            hp.node_count(),
        ];
        assert_eq!(counts, [select, join, fetch, union, serial.node_count()], "W = {w}");
        for plan in [hp.clone(), hp.cut_into_morsels(DEFAULT_MORSEL_ROWS)] {
            let exec = engine.execute(&plan, &catalog).expect("HP Q14 executes");
            assert_eq!(exec.output, expected, "W = {w}: the heuristic plan changed Q14's result");
            // No cut is folded away: each select and join runs one task per
            // part, whatever the parts' sizes.
            for op in &exec.profile.operators {
                if ["select", "join"].contains(&op.name) {
                    assert_eq!(op.tasks.len(), w, "W = {w}: node {} ({})", op.node, op.name);
                }
            }
        }
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

/// Each live node's operator and inputs, in id order: the plan without its
/// cuts.
fn nodes_and_edges(plan: &Plan) -> Vec<(usize, OperatorSpec, Vec<usize>)> {
    plan.node_ids()
        .into_iter()
        .map(|id| {
            let node = plan.node(id).expect("live node");
            (id, node.spec.clone(), node.inputs.clone())
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
    let engine = Engine::with_workers(2);
    for w in [2, 8] {
        let hp = heuristic_parallelize(serial, catalog, w).expect("HP plan builds");
        let label = format!("{label} W = {w}:\n{}", hp.pretty());
        assert_eq!(scans(&hp), scans(serial), "{label}");
        assert_eq!(nodes_and_edges(&hp), nodes_and_edges(serial), "{label}");
        for plan in [hp.clone(), hp.cut_into_morsels(1_000)] {
            let out = engine.execute(&plan, catalog).expect("HP plan executes").output;
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
