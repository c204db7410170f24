//! The structure each TPC-H shape executes as, pinned at a fixed scale
//! factor and seed under morsel planning on 2 workers: how many pipelines
//! it runs, how many morsels they cut, how many operators it profiles and
//! how many scheduler tasks it takes. These are deterministic; a change to
//! planning, fusion, plan building or the driver's task split moves them.

use adaptive_parallelization::engine::{Engine, EngineConfig, ExecutionMode};
use adaptive_parallelization::workloads::tpch::{self, TpchQuery, TpchScale};

#[test]
fn tpch_shapes_run_as_pinned_pipelines_morsels_operators_and_tasks() {
    let catalog = tpch::generate(TpchScale::new(0.05), 4242);
    // (query, pipelines, morsels, operator profiles, scheduler tasks)
    let pinned = [
        (TpchQuery::Q4, 4, 9, 16, 17),
        (TpchQuery::Q6, 3, 7, 12, 12),
        (TpchQuery::Q8, 10, 15, 30, 25),
        (TpchQuery::Q9, 7, 11, 29, 22),
        (TpchQuery::Q14, 9, 13, 27, 23),
        (TpchQuery::Q19, 7, 11, 26, 21),
        (TpchQuery::Q22, 6, 6, 14, 11),
    ];
    assert_eq!(pinned.map(|row| row.0), TpchQuery::all());
    for (query, pipelines, morsels, operators, tasks) in pinned {
        let plan = query.build(&catalog).expect("query builds");
        let engine = Engine::new(
            EngineConfig::with_workers(2).with_execution_mode(ExecutionMode::MorselDriven),
        );
        let before = engine.scheduler_stats().total_executed();
        let profile = engine.execute(&plan, &catalog).expect("query executes").profile;
        let executed = engine.scheduler_stats().total_executed() - before;
        let counts = [
            profile.pipelines.len(),
            profile.total_morsels(),
            profile.operators.len(),
            executed as usize,
        ];
        assert_eq!(counts, [pipelines, morsels, operators, tasks], "{query:?}");
    }
}
