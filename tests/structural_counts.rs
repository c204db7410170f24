//! The structure each TPC-H shape executes as, pinned at a fixed scale
//! factor and seed, cut into morsels on 2 workers: how many pipelines
//! it runs, how many morsels they cut, how many operators it profiles and
//! how many scheduler tasks it takes. These are deterministic; a change to
//! planning, fusion, plan building or the driver's task split moves them.
//!
//! The second test holds the same shapes' profiles to their task records:
//! every operator number is folded from them when its step publishes.
//!
//! The third test holds the structure the adaptive mutations leave: a
//! partition is a part of a node's cuts, so a mutated plan has its serial
//! plan's nodes — it scans what its serial plan scans and has no slice
//! node — and returns its serial result as built and cut into morsels.

use adaptive_parallelization::adaptive::{mutate_most_expensive, AdaptiveConfig};
use adaptive_parallelization::engine::plan::OperatorSpec;
use adaptive_parallelization::engine::{Engine, DEFAULT_MORSEL_ROWS};
use adaptive_parallelization::workloads::tpch::{self, TpchQuery, TpchScale};

#[test]
fn tpch_shapes_run_as_pinned_pipelines_morsels_operators_and_tasks() {
    let catalog = tpch::generate(TpchScale::new(0.05), 4242);
    // (query, pipelines, morsels, operator profiles, scheduler tasks)
    //
    // A key set runs in parts and ends the chain it joins: Q4's joins its
    // calc → select → fetch chain, so it takes no task of its own and adds
    // no morsel, and Q22's streams `o_custkey`'s two morsels as a pipeline
    // of its own.
    let pinned = [
        (TpchQuery::Q4, 4, 9, 16, 16),
        (TpchQuery::Q6, 3, 7, 12, 12),
        (TpchQuery::Q8, 10, 15, 30, 25),
        (TpchQuery::Q9, 7, 11, 29, 22),
        (TpchQuery::Q14, 9, 13, 27, 23),
        (TpchQuery::Q19, 7, 11, 26, 21),
        (TpchQuery::Q22, 7, 8, 14, 12),
    ];
    assert_eq!(pinned.map(|row| row.0), TpchQuery::all());
    for (query, pipelines, morsels, operators, tasks) in pinned {
        let plan =
            query.build(&catalog).expect("query builds").cut_into_morsels(DEFAULT_MORSEL_ROWS);
        let engine = Engine::with_workers(2);
        let before = engine.scheduler_stats().total_executed();
        let profile = engine.execute(&plan, &catalog).expect("query executes").profile;
        let executed = engine.scheduler_stats().total_executed() - before;
        // A streaming step is named by its terminal, which names itself.
        let steps = profile.operators.iter().filter(|o| o.step == Some(o.node)).count();
        let counts = [steps, profile.total_morsels(), profile.operators.len(), executed as usize];
        assert_eq!(counts, [pipelines, morsels, operators, tasks], "{query:?}");
        // Q4's key set builds one part per morsel of the lineitem stream
        // its chain cuts, and publishes one key set over all of them.
        if query == TpchQuery::Q4 {
            let key_set = profile
                .operators
                .iter()
                .find(|op| plan.node(op.node).is_ok_and(|node| node.spec == OperatorSpec::KeySet));
            let key_set = key_set.expect("Q4 builds a key set");
            let lineitem = catalog.table("lineitem").expect("TPC-H has lineitem").row_count();
            assert_eq!(key_set.tasks.len(), lineitem.div_ceil(DEFAULT_MORSEL_ROWS));
            assert_eq!(key_set.step, Some(key_set.node));
        }
    }
}

#[test]
fn tpch_shapes_fold_every_operator_number_from_its_task_records() {
    let catalog = tpch::generate(TpchScale::new(0.05), 4242);
    let engine = Engine::with_workers(2);
    for query in TpchQuery::all() {
        let plan =
            query.build(&catalog).expect("query builds").cut_into_morsels(DEFAULT_MORSEL_ROWS);
        let profile = engine.execute(&plan, &catalog).expect("query executes").profile;
        for op in &profile.operators {
            let label = format!("{query:?} node {} ({})", op.node, op.name);
            let start = op.tasks.iter().map(|task| task.start_us).min();
            assert_eq!(Some(op.start_us), start, "{label}");
            for task in &op.tasks {
                assert!(task.start_us + task.us <= op.end_us, "{label}: {task:?}");
            }
            let busy: u64 = op.tasks.iter().map(|task| task.us).sum();
            let terminal = op.step.is_none_or(|step| step == op.node);
            if terminal {
                assert!(op.duration_us >= busy, "{label}");
            } else {
                assert_eq!(op.duration_us, busy, "{label}");
                // A fused stage's output is what the next stage streamed:
                // the stage that reads it in the same step.
                let next = profile.operators.iter().find(|next| {
                    next.step == op.step
                        && plan.node(next.node).is_ok_and(|n| n.inputs.contains(&op.node))
                });
                let next = next.expect("a fused stage feeds a later stage");
                let streamed: usize = next.tasks.iter().map(|task| task.range.len()).sum();
                assert_eq!(op.rows_out, streamed, "{label}");
            }
        }
    }
}

#[test]
fn tpch_mutants_keep_their_scans_add_no_slices_and_match_serial_under_both_plannings() {
    let catalog = tpch::generate(TpchScale::new(0.01), 4242);
    let engine = Engine::with_workers(2);
    // Small partitions, so every shape takes all six steps at this scale.
    let config = AdaptiveConfig::for_cores(2).with_min_partition_rows(64);
    for query in TpchQuery::all() {
        let serial = query.build(&catalog).expect("query builds");
        let expected = engine.execute(&serial, &catalog).expect("serial executes").output;
        let mut plan = serial.clone();
        let mut profile = engine.execute(&plan, &catalog).expect("serial executes").profile;
        for step in 0..6 {
            // Rank by rows rather than by time, so the sequence is the same
            // on every run.
            for op in &mut profile.operators {
                for task in &mut op.tasks {
                    task.us = task.range.len() as u64;
                }
            }
            let mutated = mutate_most_expensive(&mut plan, &profile, &config).expect("mutates");
            assert!(mutated.is_some(), "{query:?} step {step}: nothing left to mutate");
            plan.validate().expect("a mutant is valid");
            let label = format!("{query:?} step {step}:\n{}", plan.pretty());
            assert_eq!(plan.node_count(), serial.node_count(), "{label}");
            assert_eq!(plan.count_of("scan"), serial.count_of("scan"), "{label}");
            assert_eq!(plan.count_of("slice"), 0, "{label}");
            // Morsels smaller than most partitions, on the nodes the
            // mutations left whole.
            let morsels = plan.cut_into_morsels(1_000);
            let fused = engine.execute(&morsels, &catalog).expect("mutant executes").output;
            assert_eq!(fused, expected, "{label}");
            let exec = engine.execute(&plan, &catalog).expect("mutant executes");
            assert_eq!(exec.output, expected, "{label}");
            profile = exec.profile;
        }
    }
}
