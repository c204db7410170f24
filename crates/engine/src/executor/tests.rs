//! Engine-level tests of the one execution runtime, over plans as built and
//! cut into morsels.

use std::sync::Arc;

use apq_columnar::{Catalog, ScalarValue, TableBuilder};
use apq_operators::{AggFunc, BinaryOp, CmpOp, Predicate};

use super::*;
use crate::error::EngineError;
use crate::pipeline::PipelinePlan;
use crate::plan::{Cuts, NodeId, OperatorSpec, DEFAULT_MORSEL_ROWS};

fn catalog(rows: usize) -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("t")
            .i64_column("a", (0..rows as i64).collect())
            .i64_column("b", (0..rows as i64).map(|v| v * 2).collect())
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

fn scan(col: &str) -> OperatorSpec {
    OperatorSpec::ScanColumn { table: "t".into(), column: col.into() }
}

/// Serial plan: sum(b) where a < threshold.
fn filter_sum_plan(threshold: i64) -> Plan {
    let mut p = Plan::new();
    let a = p.add(scan("a"), vec![]);
    let sel =
        p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, threshold) }, vec![a]);
    let b = p.add(scan("b"), vec![]);
    let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    p
}

/// A hand-rolled heuristic partitioning of [`filter_sum_plan`]: the select
/// cut into `parts` equal parts of the scan's `rows`, the fetch and the
/// aggregate adopting them.
fn partitioned_filter_sum_plan(rows: usize, threshold: i64, parts: usize) -> Plan {
    let mut p = filter_sum_plan(threshold);
    p.node_mut(1).unwrap().cuts = Cuts::At((1..parts).map(|i| i * rows / parts).collect());
    for adopting in [3, 4] {
        p.node_mut(adopting).unwrap().cuts = Cuts::Adopt;
    }
    p
}

/// The stages of each streaming step ([`crate::OperatorProfile::step`]) in
/// node order, the steps in their terminals' order.
fn steps(profile: &QueryProfile) -> Vec<Vec<NodeId>> {
    let ops = &profile.operators;
    let stages = |t: NodeId| ops.iter().filter(|o| o.step == Some(t)).map(|o| o.node).collect();
    ops.iter().filter(|t| t.step == Some(t.node)).map(|t| stages(t.node)).collect()
}

#[test]
fn executes_serial_plan() {
    let engine = Engine::with_workers(2);
    let cat = catalog(1000);
    let plan = filter_sum_plan(10);
    let exec = engine.execute(&plan, &cat).unwrap();
    // sum of b over a in [0,10) = 2 * (0+..+9) = 90.
    assert_eq!(exec.output, QueryOutput::Scalar(ScalarValue::I64(90)));
    assert_eq!(exec.profile.operators.len(), 6);
    assert!(exec.profile.wall_us() > 0);
    // Every task's dispatch is recorded by the scheduler.
    assert_eq!(engine.scheduler_stats().total_executed(), 6);
}

#[test]
fn parallel_partitioned_plan_gives_same_answer() {
    let engine = Engine::with_workers(4);
    let cat = catalog(10_000);
    let serial = filter_sum_plan(500);
    let serial_out = engine.execute(&serial, &cat).unwrap().output;

    // Hand-built two-partition version of the same query.
    let p = partitioned_filter_sum_plan(10_000, 500, 2);

    let exec = engine.execute(&p, &cat).unwrap();
    assert_eq!(exec.output, serial_out);
    // Every node was profiled once, each cut one with a task per part.
    assert_eq!(exec.profile.operators.len(), 6);
    let tasks: Vec<usize> = exec.profile.operators.iter().map(|o| o.tasks.len()).collect();
    assert_eq!(tasks, [1, 2, 1, 2, 2, 1]);
}

#[test]
fn concurrent_queries_share_the_pool() {
    let engine = Arc::new(Engine::with_workers(3));
    let cat = catalog(5_000);
    let mut handles = Vec::new();
    for i in 0..8 {
        let engine = Arc::clone(&engine);
        let cat = Arc::clone(&cat);
        handles.push(std::thread::spawn(move || {
            let plan = filter_sum_plan(100 + i);
            engine.execute(&plan, &cat).unwrap().output
        }));
    }
    for (i, h) in handles.into_iter().enumerate() {
        let out = h.join().unwrap();
        let threshold = 100 + i as i64;
        let expected: i64 = (0..threshold).map(|v| v * 2).sum();
        assert_eq!(out, QueryOutput::Scalar(ScalarValue::I64(expected)));
    }
}

#[test]
fn execution_errors_are_propagated() {
    let engine = Engine::with_workers(2);
    let cat = catalog(10);
    // Division by zero in a calc node.
    let mut p = Plan::new();
    let a = p.add(scan("a"), vec![]);
    let div = p.add(
        OperatorSpec::Calc {
            op: BinaryOp::Div,
            left_scalar: None,
            right_scalar: Some(ScalarValue::I64(0)),
        },
        vec![a],
    );
    p.set_root(div);
    let err = engine.execute(&p, &cat).unwrap_err();
    assert!(matches!(err, EngineError::Operator(_)));

    // `i64::MIN / -1` fails the query with the operator's error, not a
    // caught panic.
    let mut extremes = Catalog::new();
    extremes.register(TableBuilder::new("t").i64_column("a", vec![7, i64::MIN]).build().unwrap());
    let mut p = Plan::new();
    let a = p.add(scan("a"), vec![]);
    let div = p.add(
        OperatorSpec::Calc {
            op: BinaryOp::Div,
            left_scalar: None,
            right_scalar: Some(ScalarValue::I64(-1)),
        },
        vec![a],
    );
    p.set_root(div);
    let err = engine.execute(&p, &Arc::new(extremes)).unwrap_err();
    assert!(
        matches!(&err, EngineError::Operator(apq_operators::OperatorError::InvalidCalc(m)) if m.contains("overflow")),
        "{err}"
    );

    // Unknown table surfaces as a storage error.
    let mut p = Plan::new();
    let bad =
        p.add(OperatorSpec::ScanColumn { table: "missing".into(), column: "x".into() }, vec![]);
    p.set_root(bad);
    assert!(engine.execute(&p, &cat).is_err());

    // Invalid plans are rejected before execution.
    let p = Plan::new();
    assert!(matches!(engine.execute(&p, &cat), Err(EngineError::InvalidPlan(_))));
}

#[test]
fn a_calc_over_fewer_columns_than_its_operands_is_refused_before_dispatch() {
    let engine = Engine::with_workers(2);
    let cat = catalog(100);
    let mut p = Plan::new();
    let a = p.add(scan("a"), vec![]);
    let calc = OperatorSpec::Calc { op: BinaryOp::Add, left_scalar: None, right_scalar: None };
    let c = p.add(calc, vec![a]);
    p.set_root(c);
    let err = engine.execute(&p, &cat).unwrap_err();
    assert!(
        matches!(&err, EngineError::InvalidPlan(m) if m.contains(&format!("node {c} (calc)"))),
        "{err}"
    );
    assert_eq!(engine.scheduler_stats().total_executed(), 0);
}

#[test]
fn injected_delay_inflates_operator_times() {
    let cat = catalog(100);
    let plan = filter_sum_plan(50);
    let quiet = Engine::with_workers(2);
    let slow =
        Engine::new(EngineConfig::with_workers(2).with_faults(FaultConfig::fixed_delay(500)));
    let q = quiet.execute(&plan, &cat).unwrap();
    let s = slow.execute(&plan, &cat).unwrap();
    assert_eq!(q.output, s.output);
    assert!(s.profile.total_cpu_us() > q.profile.total_cpu_us() + 1_000);
    assert_eq!(quiet.fault_stats().delays, 0);
    assert_eq!(slow.fault_stats().delays, 6, "one delay per executed operator");

    // Random jitter instead of a fixed cost: still timing-only.
    let jitter = FaultConfig { delay_probability: 1.0, max_delay_us: 300, ..FaultConfig::quiet(7) };
    let noisy = Engine::new(EngineConfig::with_workers(2).with_faults(jitter));
    let n = noisy.execute(&plan, &cat).unwrap();
    assert_eq!(n.output, q.output);
    assert!(noisy.fault_stats().delays > 0);
}

#[test]
fn engine_debug_and_config() {
    let engine = Engine::with_workers(2);
    assert_eq!(engine.n_workers(), 2);
    assert!(format!("{engine:?}").contains("n_workers"));
    assert!(engine.config().faults.is_none());
    let default_cfg = EngineConfig::default();
    assert!(default_cfg.n_workers >= 1);
}

#[test]
fn queue_wait_is_profiled() {
    // One worker, a plan with independent scans: whichever scan runs
    // second must have waited in the queue while the first executed.
    let engine = Engine::with_workers(1);
    let cat = catalog(50_000);
    let plan = filter_sum_plan(1_000);
    let exec = engine.execute(&plan, &cat).unwrap();
    let total_wait: u64 = exec.profile.operators.iter().map(|o| o.queue_wait_us).sum();
    assert!(
        total_wait > 0,
        "no queue wait recorded on a single-worker engine: {:?}",
        exec.profile.operators
    );
    assert_eq!(exec.profile.total_queue_wait_us(), total_wait);
}

#[test]
fn cancellation_aborts_the_query() {
    let engine = Engine::with_workers(2);
    let cat = catalog(1_000);
    let plan = Arc::new(filter_sum_plan(10));
    let handle = engine.register_query(0);
    handle.cancel();
    let err = engine.execute_with_handle(&plan, &cat, handle).unwrap_err();
    assert_eq!(err, EngineError::Cancelled);
}

#[test]
fn admitted_dop_throttles_but_preserves_results() {
    let engine = Engine::with_workers(4);
    let cat = catalog(10_000);
    let plan = Arc::new(filter_sum_plan(500));
    let expected = engine.execute_shared(&plan, &cat).unwrap().output;
    let handle = engine.register_query(1);
    let exec = engine.execute_with_handle(&plan, &cat, handle).unwrap();
    assert_eq!(exec.output, expected, "throttled run diverged");
}

#[test]
fn shared_plan_execution_avoids_replanning() {
    let engine = Engine::with_workers(2);
    let cat = catalog(2_000);
    let plan = Arc::new(filter_sum_plan(20));
    let first = engine.execute_shared(&plan, &cat).unwrap().output;
    for _ in 0..3 {
        assert_eq!(engine.execute_shared(&plan, &cat).unwrap().output, first);
    }
}

#[test]
fn morsels_match_the_plan_as_built() {
    let cat = catalog(10_000);
    let plan = filter_sum_plan(500);
    let engine = Engine::with_workers(2);
    let reference = engine.execute(&plan, &cat).unwrap();
    let exec = engine.execute(&plan.cut_into_morsels(1_000), &cat).unwrap();
    assert_eq!(exec.output, reference.output, "morsels diverged");
    // Every live node still gets a profile.
    assert_eq!(exec.profile.operators.len(), reference.profile.operators.len());
    // The scan→select→fetch→agg chain fused: 10 morsels of 1000 rows.
    assert_eq!(steps(&exec.profile), [vec![1, 3, 4]]);
    assert_eq!(exec.profile.operator(4).unwrap().tasks.len(), 10);
    // Its producer, the scan of `a` (node 0), published all 10,000 rows.
    assert_eq!(exec.profile.operator(0).unwrap().rows_out, 10_000);
    assert_eq!(exec.profile.total_morsels(), 10);
    assert_eq!(
        exec.profile.morsels_by_worker().iter().sum::<u64>(),
        10,
        "morsel worker counters incomplete"
    );
}

#[test]
fn a_zero_worker_count_runs_and_reports_one_worker() {
    let cat = catalog(10_000);
    let plan = filter_sum_plan(500);
    let engine = Engine::new(EngineConfig { n_workers: 0, ..EngineConfig::default() });
    assert_eq!(engine.n_workers(), 1);
    assert_eq!(engine.config().n_workers, 1);
    let exec = engine.execute(&plan.cut_into_morsels(1_000), &cat).unwrap();
    assert_eq!(exec.profile.n_workers, 1);
    assert_eq!(exec.profile.total_morsels(), 10);
    assert_eq!(exec.profile.operator(4).unwrap().tasks.len(), 10);
    assert_eq!(exec.profile.multi_core_utilization(), 1.0);
}

#[test]
fn morsels_handle_errors_and_cancellation() {
    let engine = Engine::with_workers(2);
    let morsels = |plan: Plan| plan.cut_into_morsels(DEFAULT_MORSEL_ROWS);
    let cat = catalog(100);
    // Division by zero inside a fused stage fails the query cleanly.
    let mut p = Plan::new();
    let a = p.add(scan("a"), vec![]);
    let div = p.add(
        OperatorSpec::Calc {
            op: BinaryOp::Div,
            left_scalar: None,
            right_scalar: Some(ScalarValue::I64(0)),
        },
        vec![a],
    );
    p.set_root(div);
    assert!(matches!(engine.execute(&morsels(p), &cat), Err(EngineError::Operator(_))));

    // Cancellation before submission aborts the query.
    let plan = Arc::new(morsels(filter_sum_plan(10)));
    let handle = engine.register_query(0);
    handle.cancel();
    let err = engine.execute_with_handle(&plan, &cat, handle).unwrap_err();
    assert_eq!(err, EngineError::Cancelled);

    // And the engine still executes healthy queries afterwards.
    let ok = engine.execute(&morsels(filter_sum_plan(10)), &cat).unwrap();
    assert_eq!(ok.output, QueryOutput::Scalar(ScalarValue::I64(90)));
}

#[test]
fn morsels_respect_admitted_dop() {
    let engine = Engine::with_workers(4);
    let cat = catalog(10_000);
    let plan = Arc::new(filter_sum_plan(500).cut_into_morsels(512));
    let expected = engine.execute_shared(&plan, &cat).unwrap().output;
    let handle = engine.register_query(1);
    let exec = engine.execute_with_handle(&plan, &cat, handle).unwrap();
    assert_eq!(exec.output, expected, "throttled morsel run diverged");
}

#[test]
fn work_stealing_records_locality() {
    let engine = Engine::with_workers(2);
    let cat = catalog(20_000);
    // A serial chain: every follow-up is produced on a worker, so local
    // hits must appear.
    let plan = filter_sum_plan(500);
    engine.execute(&plan, &cat).unwrap();
    let stats = engine.scheduler_stats();
    assert_eq!(stats.total_executed(), 6);
    assert!(stats.total_local_hits() > 0, "chained operators never hit the local deque: {stats:?}");
}

#[test]
fn cut_nodes_profile_every_operator_with_a_task_per_part() {
    // The per-operator shape `mutate_most_expensive` reads: the cut select
    // heads a step that the adopting fetch and sum join, each task runs
    // all three over one part, and each stage records every task's range of
    // its own stream with its time there.
    let (rows, parts) = (80_000, 8);
    let cat = catalog(rows);
    let plan = partitioned_filter_sum_plan(rows, 4_000, parts);
    let expected = Engine::with_workers(2).execute(&filter_sum_plan(4_000), &cat).unwrap();
    let engine = Engine::with_workers(1);
    let exec = engine.execute(&plan, &cat).unwrap();
    assert_eq!(exec.output, expected.output);
    let pipelines = steps(&exec.profile);
    assert_eq!(pipelines, [vec![1, 3, 4]], "the adopting nodes join the cut select's step");
    let mut nodes: Vec<_> = exec.profile.operators.iter().map(|o| o.node).collect();
    nodes.sort_unstable();
    assert_eq!(nodes, plan.node_ids(), "one profile per live node");
    // Two scans and the finalize, and one task per part for the chain.
    assert_eq!(engine.scheduler_stats().total_executed(), 3 + parts as u64);
    assert!(exec.profile.operators.iter().all(|o| o.worker == 0));
    for op in &exec.profile.operators {
        assert_eq!(op.tasks.len(), plan.parts(op.node), "node {}", op.node);
        let total: u64 = op.tasks.iter().map(|t| t.us).sum();
        assert!(total <= op.duration_us, "node {}: tasks outlast the operator", op.node);
    }
    let ranges = |node: NodeId| -> Vec<(usize, usize)> {
        let op = exec.profile.operator(node).unwrap();
        op.tasks.iter().map(|t| (t.range.start, t.range.end)).collect()
    };
    // The select's tasks tile the scan's rows at its cuts; the fetch's and
    // the sum's tile the 4,000 rows it selects, all from the first part.
    let at = |i: usize| i * rows / parts;
    assert_eq!(ranges(1), (0..parts).map(|i| (at(i), at(i + 1))).collect::<Vec<_>>());
    let selected: Vec<_> = (0..parts).map(|i| (4_000 * i.min(1), 4_000)).collect();
    assert_eq!(ranges(3), selected);
    assert_eq!(ranges(4), selected);
    // One worker, 11 tasks: queueing is spread over the operators.
    let waited = exec.profile.operators.iter().filter(|o| o.queue_wait_us > 0).count();
    assert!(waited >= 2, "queue wait on {waited} operators only");
}

#[test]
fn an_adopting_node_fuses_into_its_producers_step() {
    // The cut select and the adopting fetch and sum: the fetch and the sum
    // once ran as steps of their own, one task per part each. Fused, the
    // plan takes one step and `parts` tasks fewer, publishes the same
    // answer, and profiles each stage with the tasks it ran alone.
    let (rows, parts) = (20_000, 4);
    let cat = catalog(rows);
    let fused = partitioned_filter_sum_plan(rows, 15_000, parts);
    // The same parts with the sum cut at the fetch's part ends instead of
    // adopting them: it cannot join, so it runs as a step of its own.
    let mut apart = fused.clone();
    apart.node_mut(4).unwrap().cuts = Cuts::At(vec![5_000, 10_000, 15_000]);
    let engine = Engine::with_workers(1);
    let run = |plan: &Plan| {
        let before = engine.scheduler_stats().total_executed();
        let exec = engine.execute(plan, &cat).unwrap();
        (exec, engine.scheduler_stats().total_executed() - before)
    };
    let (fused_exec, fused_tasks) = run(&fused);
    let (apart_exec, apart_tasks) = run(&apart);
    assert_eq!(fused_exec.output, apart_exec.output);
    assert_eq!(fused_exec.output, engine.execute(&filter_sum_plan(15_000), &cat).unwrap().output);
    assert_eq!(steps(&fused_exec.profile), [vec![1, 3, 4]]);
    assert_eq!(steps(&apart_exec.profile), [vec![1, 3], vec![4]]);
    assert_eq!(apart_tasks - fused_tasks, parts as u64);
    for node in fused.node_ids() {
        let tasks = |exec: &QueryExecution| -> Vec<_> {
            let op = exec.profile.operator(node).unwrap();
            op.tasks.iter().map(|t| (t.range.start, t.range.end)).collect()
        };
        assert_eq!(tasks(&fused_exec), tasks(&apart_exec), "node {node}");
    }
}

#[test]
fn fused_stage_time_is_cpu_time_bounded_by_wall_times_workers() {
    // Fused stages add up per-morsel time across workers, so a stage's
    // `duration_us` — and with it `total_cpu_us` — may exceed the query's
    // wall time; what bounds it is wall time × workers.
    let cat = catalog(200_000);
    let plan = Arc::new(filter_sum_plan(150_000).cut_into_morsels(2_000));
    let engine = Engine::with_workers(2);
    for _ in 0..5 {
        let profile = engine.execute_shared(&plan, &cat).unwrap().profile;
        assert_eq!(profile.total_morsels(), 100);
        // +1: `wall_us` and every stage sum are truncated to whole µs.
        let bound = (profile.wall_us() + 1) * profile.n_workers as u64;
        assert!(
            profile.total_cpu_us() <= bound,
            "{} µs of operator time in {} µs × {} workers",
            profile.total_cpu_us(),
            profile.wall_us(),
            profile.n_workers
        );
        assert!(profile.operators.iter().all(|o| o.duration_us <= bound));
        assert!(profile.parallelism_usage() <= 1.0);
    }
}

#[test]
fn refused_submission_still_drains_and_reports_shutdown() {
    // The scheduler refuses work only once shut down (normally from
    // `Engine::drop`). The refusal must leave through the common tail:
    // error surfaced, nothing of the query left in the pool.
    let plan = filter_sum_plan(10);
    for plan in [plan.clone(), plan.cut_into_morsels(DEFAULT_MORSEL_ROWS)] {
        let engine = Engine::with_workers(2);
        engine.scheduler.shutdown();
        let handle = engine.register_query(0);
        let label = plan.pretty();
        let err = engine.execute_with_handle(&Arc::new(plan), &catalog(1_000), Arc::clone(&handle));
        assert_eq!(err.unwrap_err(), EngineError::EngineShutDown, "{label}");
        assert_eq!(handle.inflight_tasks(), 0, "{label}: refused task still counted");
        assert_eq!(handle.running(), 0);
        assert_eq!(engine.in_flight_queries(), 0);
    }
}

/// `sum(a × a)` over `rows` rows, the sum cut in halves: the scan is read
/// twice by `calc(a, a)`, the square once by the cut sum.
fn square_halves_plan(rows: usize) -> (Plan, [NodeId; 3]) {
    let mut p = Plan::new();
    let a = p.add(scan("a"), vec![]);
    let mul = OperatorSpec::Calc {
        op: apq_operators::BinaryOp::Mul,
        left_scalar: None,
        right_scalar: None,
    };
    let square = p.add(mul, vec![a, a]);
    let sum = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![square]);
    p.node_mut(sum).unwrap().cuts = Cuts::At(vec![rows / 2]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![sum]);
    p.set_root(fin);
    (p, [a, square, fin])
}

#[test]
fn a_double_edge_counts_as_two_readers() {
    let (plan, [a, square, fin]) = square_halves_plan(1_000);
    for plan in [plan.clone(), plan.cut_into_morsels(DEFAULT_MORSEL_ROWS)] {
        let graph = PipelinePlan::analyze(&plan, &plan.validated_order().unwrap()).unwrap();
        let readers = graph.readers();
        let of = |node: NodeId| readers[graph.step_of[node].unwrap()];
        let label = plan.pretty();
        // `calc(a, a)` reads the scan through two edges; each is a read.
        assert_eq!(of(a), 2, "{label}");
        // The cut sum reads the square once, whatever its parts.
        assert_eq!(of(square), 1, "{label}");
        // The root is read by nothing, so no step releases it.
        assert_eq!(of(fin), 0, "{label}");
        // Every read is an input edge some step counts down.
        let counted: usize = graph.in_edges.iter().flatten().map(|&(_, n)| n).sum();
        assert_eq!(counted, readers.iter().sum::<usize>(), "{label}");
    }
}

#[test]
fn released_chunks_are_never_read_again() {
    // The aggregate reads the square in halves, or in morsels of 256 rows,
    // one task each; a chunk released before its last reader finished would
    // surface as "scheduled before its input completed".
    let rows = 10_000;
    let cat = catalog(rows);
    let (halves, _) = square_halves_plan(rows);
    let mut morsels = halves.clone();
    morsels.node_mut(2).unwrap().cuts = Cuts::Every(256);
    let expected: i64 = (0..rows as i64).map(|v| v * v).sum();
    let engine = Engine::with_workers(2);
    for plan in [halves, morsels] {
        for _ in 0..20 {
            let exec = engine.execute(&plan, &cat).unwrap();
            let label = plan.pretty();
            assert_eq!(exec.output, QueryOutput::Scalar(ScalarValue::I64(expected)), "{label}");
        }
    }
}

mod part_lists {
    //! The part-list invariant: every read of a published list equals the
    //! same read of the chunk the exchange union packs from it.

    use apq_columnar::{Column, Oid};
    use apq_operators::JoinHashTable;

    use super::super::driver::ranges;
    use super::super::parts::{pieces, Folder, Parts};
    use super::*;
    use crate::chunk::Chunk;
    use crate::interpreter::{exchange_union, execute_node};
    use crate::plan::JoinSide;

    const MORSEL: usize = 64;

    fn label(chunk: &Chunk) -> Oid {
        match chunk {
            Chunk::Column(c) => c.base_oid(),
            Chunk::Oids(v) => v.stream_base(),
            Chunk::Join(v) => v.stream_base(),
            other => panic!("{} has no position label", other.kind()),
        }
    }

    /// Same kind, same values, same position label.
    fn assert_same(actual: &Chunk, expected: &Chunk, what: &str) {
        assert_eq!(actual.kind(), expected.kind(), "{what}");
        assert_eq!(actual.to_output(), expected.to_output(), "{what}");
        assert_eq!(label(actual), label(expected), "{what}: position label");
    }

    /// Part `i` of `parts` is `packed.slice(offset_i, len_i)`, and the parts
    /// cover the packed chunk.
    fn assert_parts_are_slices_of(parts: &Parts, packed: &Chunk, what: &str) {
        let mut offset = 0;
        for (i, part) in parts.chunks().iter().enumerate() {
            let slice = packed.slice(offset, part.rows()).unwrap();
            assert_same(part, &slice, &format!("{what}: part {i} at row {offset}"));
            offset += part.rows();
        }
        assert_eq!(offset, packed.rows(), "{what}: the parts cover the pack");
    }

    /// What the tasks of a streaming step over `stream` leave: `spec` run on
    /// every `MORSEL`-row window of it, with `shared` inputs read whole.
    fn morsel_outputs(spec: &OperatorSpec, stream: &Chunk, shared: &[Chunk]) -> Vec<Chunk> {
        let cat = Catalog::new();
        (0..stream.rows().div_ceil(MORSEL))
            .map(|m| {
                let mut inputs = vec![stream.slice(m * MORSEL, MORSEL).unwrap()];
                inputs.extend(shared.iter().cloned());
                execute_node(0, spec, &inputs, &cat).unwrap()
            })
            .collect()
    }

    /// Publishes `outputs` (every part kept) and checks the invariant against
    /// their pack, which must also be what the whole-node step computes.
    fn published(outputs: Vec<Chunk>, whole: &Chunk, what: &str) -> (Parts, Chunk) {
        let packed = exchange_union(0, &outputs).unwrap();
        assert_same(&packed, whole, &format!("{what}: the pack is the whole-node output"));
        let parts = Parts::publish(0, outputs, Some(1)).unwrap();
        assert!(parts.chunks().len() > 1, "{what}: more than one part");
        assert!(parts.chunks().iter().all(|p| p.rows() > 0), "{what}: an empty part");
        assert_parts_are_slices_of(&parts, &packed, what);
        (parts, packed)
    }

    fn values(rows: i64) -> Chunk {
        Chunk::Column(Column::from_i64((0..rows).map(|v| (v * 7_919) % 100).collect()))
    }

    fn whole(spec: &OperatorSpec, inputs: &[Chunk]) -> Chunk {
        execute_node(0, spec, inputs, &Catalog::new()).unwrap()
    }

    #[test]
    fn fresh_stream_parts_are_slices_of_their_pack() {
        // A select and a probe number each morsel's rows from 0: every part
        // is a fresh stream until it is published.
        let column = values(1_000);
        let select = OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 30i64) };
        let outputs = morsel_outputs(&select, &column, &[]);
        assert!(outputs.iter().all(|o| label(o) == 0));
        published(outputs, &whole(&select, std::slice::from_ref(&column)), "select");

        let keys = Column::from_i64((0..40).collect());
        let hash = Chunk::Hash(Arc::new(JoinHashTable::build(&keys).unwrap()));
        let probe = OperatorSpec::HashProbe;
        let outputs = morsel_outputs(&probe, &column, std::slice::from_ref(&hash));
        published(outputs, &whole(&probe, &[column, hash]), "probe");
    }

    #[test]
    fn stream_window_parts_are_slices_of_their_pack() {
        // A fetch over windows of a candidate stream, and a join side over
        // windows of a join: each part carries its window's stream offset.
        let column = values(1_000);
        let select = OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 60i64) };
        let cands = whole(&select, std::slice::from_ref(&column));
        let fetch = OperatorSpec::Fetch;
        let outputs = morsel_outputs(&fetch, &cands, std::slice::from_ref(&column));
        published(outputs, &whole(&fetch, &[cands.clone(), column.clone()]), "fetch");

        let keys = Column::from_i64((0..40).collect());
        let hash = Chunk::Hash(Arc::new(JoinHashTable::build(&keys).unwrap()));
        let join = whole(&OperatorSpec::HashProbe, &[column.clone(), hash]);
        for side in [JoinSide::Outer, JoinSide::Inner] {
            let project = OperatorSpec::ProjectJoinSide { side };
            let outputs = morsel_outputs(&project, &join, &[]);
            published(outputs, &whole(&project, std::slice::from_ref(&join)), "join side");
        }

        // A calc over windows of a base column keeps absolute oids.
        let add = OperatorSpec::Calc {
            op: BinaryOp::Add,
            left_scalar: None,
            right_scalar: Some(ScalarValue::I64(1)),
        };
        let window = column.slice(100, 700).unwrap();
        let outputs = morsel_outputs(&add, &window, &[]);
        published(outputs, &whole(&add, &[window]), "calc");
    }

    #[test]
    fn windows_across_part_boundaries_equal_the_packed_slice() {
        let column = values(1_000);
        let select = OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 60i64) };
        let outputs = morsel_outputs(&select, &column, &[]);
        let (parts, packed) = published(outputs, &whole(&select, &[column]), "select");
        let ends: Vec<usize> = parts.ends().collect();
        let rows = packed.rows();
        let boundary = ends[1];
        for (start, len) in [
            (0, rows),
            (boundary - 5, 10),
            (boundary, 0),
            (boundary, ends[2] - boundary),
            (3, rows - 7),
            (rows - 2, 50),
            (rows + 3, 4),
        ] {
            let what = format!("window ({start}, {len})");
            let mut window = parts.window(start, len).unwrap();
            let expected = packed.slice(start, len).unwrap();
            // A window cuts the parts it covers, zero-copy ...
            let mut offset = 0;
            for part in window.chunks() {
                let slice = packed.slice(start + offset, part.rows()).unwrap();
                assert_same(part, &slice, &what);
                offset += part.rows();
            }
            // ... and reads as one chunk, whether it needs a pack or not.
            assert_same(&window.pack(0).unwrap(), &expected, &what);
            if let Some(piece) = parts.piece(start, len) {
                assert_same(&piece, &expected, &what);
            }
        }
        assert!(parts.piece(boundary - 5, 10).is_none(), "a piece never straddles parts");
        // A window on a non-positional list is refused, as `Chunk::slice` is.
        let scalar = Parts::publish(0, vec![Chunk::Scalar(ScalarValue::I64(1))], Some(1)).unwrap();
        assert!(scalar.window(0, 1).is_none());
    }

    #[test]
    fn small_parts_are_packed_cell_by_cell_on_the_readers_grid() {
        let column = values(1_000);
        let select =
            |below: i64| OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, below) };
        // About 13 rows a morsel: packed into 64-row cells, cut zero-copy
        // where a part crosses a cell's edge.
        let outputs = morsel_outputs(&select(20), &column, &[]);
        let packed = exchange_union(0, &outputs).unwrap();
        let parts = Parts::publish(0, outputs.clone(), Some(MORSEL)).unwrap();
        let sizes: Vec<usize> = parts.chunks().iter().map(Chunk::rows).collect();
        let (last, cells) = sizes.split_last().unwrap();
        assert!(cells.iter().all(|&rows| rows == MORSEL), "{sizes:?}");
        assert!(*last > 0 && *last <= MORSEL, "{sizes:?}");
        assert_parts_are_slices_of(&parts, &packed, "cells");
        // About 38 rows a morsel: at least half a cell, each part stays.
        let outputs = morsel_outputs(&select(60), &column, &[]);
        let packed = exchange_union(0, &outputs).unwrap();
        let n_outputs = outputs.len();
        let parts = Parts::publish(0, outputs.clone(), Some(MORSEL)).unwrap();
        assert_eq!(parts.chunks().len(), n_outputs);
        assert_parts_are_slices_of(&parts, &packed, "kept");
        // A list only ever read whole is one pack.
        let parts = Parts::publish(0, outputs, None).unwrap();
        assert_eq!(parts.chunks().len(), 1);
        assert_parts_are_slices_of(&parts, &packed, "packed");
        // Empty outputs leave one empty part, labelled like the empty pack.
        let outputs = morsel_outputs(&select(-1), &column, &[]);
        let packed = exchange_union(0, &outputs).unwrap();
        let parts = Parts::publish(0, outputs, Some(MORSEL)).unwrap();
        assert_eq!(parts.chunks().len(), 1);
        assert_parts_are_slices_of(&parts, &packed, "empty");
    }

    #[test]
    fn small_parts_are_never_packed_across_a_cut_and_every_cut_range_keeps_a_part() {
        // About 13 rows a morsel, with a cut before morsels 3 and 9: the
        // cells restart at each cut, and no cell takes rows from both sides.
        let column = values(1_000);
        let select = OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 20i64) };
        let outputs = morsel_outputs(&select, &column, &[]);
        let packed = exchange_union(0, &outputs).unwrap();
        let mut folder = Folder::new(0, Some(MORSEL));
        let mut cut_at = Vec::new();
        let mut rows = 0;
        for (morsel, chunk) in outputs.into_iter().enumerate() {
            if morsel == 3 || morsel == 9 {
                folder.cut().unwrap();
                cut_at.push(rows);
            }
            rows += chunk.rows();
            folder.push(chunk).unwrap();
        }
        let parts = folder.finish().unwrap();
        assert_parts_are_slices_of(&parts, &packed, "cut cells");
        let ends: Vec<usize> = parts.ends().collect();
        for at in cut_at {
            assert!(ends.contains(&at), "a part straddles the cut at {at}: {ends:?}");
        }

        // Three ranges, the middle one empty: three parts, one of them
        // empty, labelled where the pack's empty slice would be.
        let stream = column.slice(0, 10).unwrap();
        let ranges =
            [stream.slice(0, 4).unwrap(), stream.slice(4, 0).unwrap(), stream.slice(4, 6).unwrap()];
        let mut folder = Folder::new(0, Some(MORSEL));
        for (k, range) in ranges.into_iter().enumerate() {
            if k > 0 {
                folder.cut().unwrap();
            }
            folder.push(range).unwrap();
        }
        let parts = folder.finish().unwrap();
        assert_eq!(parts.ends().collect::<Vec<_>>(), [4, 4, 10]);
        assert_parts_are_slices_of(&parts, &stream, "an empty range");
    }

    /// The grid the driver once cut every streaming step's ranges on under
    /// morsel planning, over a node without cuts: the reference
    /// [`Cuts::Every`] is held to.
    fn grid_ranges_reference(source: &Parts, grid: usize) -> Vec<(usize, usize, bool)> {
        let (rows, mut at, mut ranges) = (source.rows(), 0, Vec::new());
        while let Some(next) = Some((at / grid + 1) * grid).filter(|&next| next < rows) {
            ranges.push((at, next - at, false));
            at = next;
        }
        ranges.push((at, rows - at, false));
        ranges
    }

    #[test]
    fn a_steps_ranges_follow_its_cuts_and_its_stream() {
        let list = |lens: &[usize]| {
            let column = Chunk::Column(Column::from_i64((0..100).collect()));
            let mut at = 0;
            let mut chunks = Vec::new();
            for &len in lens {
                chunks.push(column.slice(at, len).unwrap());
                at += len;
            }
            Parts::publish(0, chunks, Some(1)).unwrap()
        };
        let source = list(&[20]);
        let at = |offsets: &[usize]| Cuts::At(offsets.to_vec());
        assert_eq!(ranges(&Cuts::default(), &source), [(0, 20, false)]);
        assert_eq!(ranges(&at(&[5, 12]), &source), [(0, 5, false), (5, 7, true), (12, 8, true)]);
        // Offsets past the end cut there.
        assert_eq!(ranges(&at(&[30]), &source), [(0, 20, false), (20, 0, true)]);
        // Morsels cut every so many rows of the stream, whatever its parts,
        // and no cut separates them: the old grid over a node without cuts.
        assert_eq!(
            ranges(&Cuts::Every(8), &source),
            [(0, 8, false), (8, 8, false), (16, 4, false)]
        );
        let multi = list(&[3, 0, 40, 17]);
        for source in [list(&[0]), source, multi] {
            for every in [1, 3, 7, 8, 20, 21, 64] {
                let expected = grid_ranges_reference(&source, every);
                assert_eq!(ranges(&Cuts::Every(every), &source), expected, "every {every}");
            }
        }
        // Adoption takes one range per part of the stream, empty ones too.
        let mut folder = Folder::new(0, Some(MORSEL));
        let column = Chunk::Column(Column::from_i64((0..7).collect()));
        for (k, (start, len)) in [(0, 3), (3, 0), (3, 4)].into_iter().enumerate() {
            if k > 0 {
                folder.cut().unwrap();
            }
            folder.push(column.slice(start, len).unwrap()).unwrap();
        }
        let adopted = folder.finish().unwrap();
        assert_eq!(ranges(&Cuts::Adopt, &adopted), [(0, 3, false), (3, 0, true), (3, 4, true)]);
    }

    #[test]
    fn pieces_cut_at_every_boundary_of_the_stream_and_the_aligned_inputs() {
        assert_eq!(pieces(10, [3, 7, 10]), vec![(0, 3), (3, 4), (7, 3)]);
        assert_eq!(pieces(10, [3, 7, 10, 5, 10, 3]), vec![(0, 3), (3, 2), (5, 2), (7, 3)]);
        assert_eq!(pieces(10, []), vec![(0, 10)]);
        assert_eq!(pieces(0, [0, 0]), vec![(0, 0)]);

        // A stream and a range-aligned input of 100 rows, parted differently
        // by the steps that published them, both windowed to one morsel.
        let list = |cuts: &[usize]| {
            let column = Chunk::Column(Column::from_i64((0..100).collect()));
            let bounds: Vec<usize> = [0].iter().chain(cuts).chain(&[100]).copied().collect();
            let chunks =
                bounds.windows(2).map(|w| column.slice(w[0], w[1] - w[0]).unwrap()).collect();
            Parts::publish(0, chunks, Some(1)).unwrap()
        };
        let stream = list(&[30, 55, 80]).window(20, 64).unwrap();
        let aligned = list(&[10, 50, 90]).window(20, 64).unwrap();
        let cut = pieces(64, stream.ends().chain(aligned.ends()));
        // Rows 20..84: the stream ends parts at 30, 55 and 80, the aligned
        // input at 50.
        assert_eq!(cut, vec![(0, 10), (10, 20), (30, 5), (35, 25), (60, 4)]);
        for &(start, len) in &cut {
            let s = stream.piece(start, len).expect("the stream holds each piece in one part");
            let a = aligned.piece(start, len).expect("the aligned input likewise");
            assert_same(&s, &a, "stream and aligned pieces zip row for row");
        }
    }
}
