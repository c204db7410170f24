//! Paper claims about plan shapes and counts, pinned at a fixed scale
//! factor and seed. These are deterministic; the claims about time live in
//! the examples (`examples/plan_trace.rs` prints table 5's adaptive column).
//!
//! Table 5: the heuristic Q14 plan clones every parallelizable operator
//! once per partition, so its operator counts grow with the partition count.
//! Its aggregates' combiners absorb the partitions directly, so it packs
//! nothing through an exchange union.

use adaptive_parallelization::baselines::heuristic_parallelize;
use adaptive_parallelization::engine::Engine;
use adaptive_parallelization::workloads::tpch::{self, queries::q14, TpchScale};

#[test]
fn heuristic_q14_plan_counts_match_table_5() {
    let catalog = tpch::generate(TpchScale::new(0.002), 42);
    let serial = q14(&catalog).expect("Q14 builds");
    let engine = Engine::with_workers(4);
    let expected = engine.execute(&serial, &catalog).expect("serial Q14 executes").output;
    // (partitions, selects, joins, fetches, unions, operators)
    for (w, select, join, fetch, union, nodes) in [(4, 4, 4, 24, 0, 90), (8, 8, 8, 48, 0, 174)] {
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
