//! Morsel equivalence: a plan cut into morsels must produce byte-identical
//! results to the plan as built, for every evaluated query.
//!
//! This is the execution-layer analogue of `integration_correctness.rs`:
//! plan mutation changes *what the plan computes in parallel*, morsels
//! change *how finely a fixed plan is dispatched* — neither may change what
//! a query returns. Serial plans exercise pipelines cutting a scan's column
//! slice; the heuristically parallelized plans exercise cut scans and
//! probes that adopt their streams' parts (the `stream_base` alignment
//! invariant, also load-bearing for morsel slicing).

use std::sync::Arc;

use adaptive_parallelization::baselines::heuristic_parallelize;
use adaptive_parallelization::engine::{
    Engine, EngineConfig, EngineError, OperatorSpec, Plan, QueryExecution, QueryOutput,
    QueryService, ServiceConfig,
};
use adaptive_parallelization::workloads::tpcds::{self, TpcdsQuery, TpcdsScale};
use adaptive_parallelization::workloads::tpch::{self, TpchQuery, TpchScale};
use apq_columnar::{Catalog, ScalarValue, TableBuilder};
use apq_operators::{AggFunc, BinaryOp, CmpOp, Predicate};

const WORKERS: usize = 4;
/// Small enough that the ~12k-row sample workloads split into many morsels.
const MORSEL_ROWS: usize = 1_000;

/// `plan` cut into morsels of [`MORSEL_ROWS`] rows.
fn morsels(plan: &Plan) -> Plan {
    plan.cut_into_morsels(MORSEL_ROWS)
}

/// Executes `plan` cut into morsels on a fresh engine.
fn execute_morsels(plan: &Plan, catalog: &Arc<Catalog>) -> Result<QueryExecution, EngineError> {
    Engine::with_workers(WORKERS).execute(&morsels(plan), catalog)
}

/// Executes `plan` as built, then cut into morsels, asserting identical
/// outputs.
fn assert_morsels_agree(
    label: &str,
    plan: &Plan,
    catalog: &Arc<Catalog>,
    reference: &Engine,
) -> QueryOutput {
    let expected = reference.execute(plan, catalog).expect("the plan as built executes").output;
    let exec = execute_morsels(plan, catalog).expect("morsels execute");
    assert_eq!(exec.output, expected, "{label}: morsels diverged");
    // The morsels really ran: profiles carry pipelines and every executed
    // node is profiled exactly once.
    assert_eq!(
        exec.profile.operators.len(),
        plan.node_count(),
        "{label}: missing operator profiles"
    );
    assert_eq!(
        exec.profile.morsels_by_worker().iter().sum::<u64>() as usize,
        exec.profile.total_morsels(),
        "{label}: per-worker morsel counters do not add up"
    );
    expected
}

#[test]
fn tpch_serial_and_heuristic_plans_match_across_modes() {
    let catalog = tpch::generate(TpchScale::new(0.002), 1234);
    let reference = Engine::with_workers(WORKERS);
    for query in TpchQuery::all() {
        let serial = query.build(&catalog).expect("serial plan builds");
        let expected =
            assert_morsels_agree(&format!("{query} serial"), &serial, &catalog, &reference);

        // Heuristic plans cut every reader of the driver table's scans and
        // have the nodes downstream adopt the parts.
        let hp = heuristic_parallelize(&serial, &catalog, WORKERS).expect("HP rewrite");
        let hp_out = assert_morsels_agree(&format!("{query} HP"), &hp, &catalog, &reference);
        assert_eq!(hp_out, expected, "{query}: HP plan diverged from serial");
    }
}

#[test]
fn tpcds_serial_and_heuristic_plans_match_across_modes() {
    let catalog = tpcds::generate(TpcdsScale::new(0.002), 77);
    let reference = Engine::with_workers(WORKERS);
    for query in TpcdsQuery::all() {
        let serial = query.build(&catalog).expect("serial plan builds");
        let expected =
            assert_morsels_agree(&format!("{query} serial"), &serial, &catalog, &reference);

        let hp = heuristic_parallelize(&serial, &catalog, WORKERS).expect("HP rewrite");
        let hp_out = assert_morsels_agree(&format!("{query} HP"), &hp, &catalog, &reference);
        assert_eq!(hp_out, expected, "{query}: HP plan diverged from serial");
    }
}

/// Catalog for the two-aligned-input fused shapes: two value columns of a
/// row count that does not divide the morsel size (ragged last morsel).
fn two_column_catalog(rows: usize) -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("t")
            .i64_column("a", (0..rows as i64).map(|v| (v * 7) % 1000).collect())
            .i64_column("b", (0..rows as i64).map(|v| (v * 13) % 97 - 48).collect())
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

fn scan_t(p: &mut Plan, col: &str) -> usize {
    p.add(OperatorSpec::ScanColumn { table: "t".into(), column: col.into() }, vec![])
}

/// scan a, scan b → calc(a ⊗ b) → sum: the col⊗col calc fuses into scan a's
/// pipeline with b sliced on the same morsel grid. Returns (plan, calc node).
fn calc_col_col_plan() -> (Plan, usize) {
    let mut p = Plan::new();
    let a = scan_t(&mut p, "a");
    let b = scan_t(&mut p, "b");
    let calc = p.add(
        OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None },
        vec![a, b],
    );
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![calc]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    (p, calc)
}

/// scan a → mask(a < 500), scan b → ifthenelse(mask, b, 0) → sum: the
/// guarded projection fuses behind the mask with b grid-sliced.
fn if_then_else_plan() -> (Plan, usize) {
    let mut p = Plan::new();
    let a = scan_t(&mut p, "a");
    let mask =
        p.add(OperatorSpec::PredMask { predicate: Predicate::cmp(CmpOp::Lt, 500i64) }, vec![a]);
    let b = scan_t(&mut p, "b");
    let ite = p.add(OperatorSpec::IfThenElse { otherwise: ScalarValue::I64(0) }, vec![mask, b]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![ite]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    (p, ite)
}

#[test]
fn two_aligned_input_fused_stages_match_across_modes() {
    // The two-range-aligned-input shapes (Calc col⊗col, IfThenElse) must
    // stay byte-identical as built and in morsels — and must actually have
    // fused: the two-input stage appears inside a multi-morsel pipeline.
    let rows = 12_345; // ragged last morsel at MORSEL_ROWS = 1_000
    let catalog = two_column_catalog(rows);
    let reference = Engine::with_workers(WORKERS);
    let (calc_plan, calc_node) = calc_col_col_plan();
    let (ite_plan, ite_node) = if_then_else_plan();
    for (label, plan, fused_node) in
        [("calc col⊗col", &calc_plan, calc_node), ("ifthenelse", &ite_plan, ite_node)]
    {
        assert_morsels_agree(label, plan, &catalog, &reference);
        // The stage really fused and morsel-ran.
        let exec = execute_morsels(plan, &catalog).expect("morsels execute");
        let stage = exec.profile.operator(fused_node).expect("profiled");
        assert!(stage.step.is_some(), "{label}: stage {fused_node} not in any pipeline");
        assert!(stage.tasks.len() > 1, "{label}: fused pipeline ran a single morsel");
    }
}

/// scan a, scan b → groupagg(a, b): the grouped aggregate fuses as the key
/// scan's pipeline terminal, with b grid-sliced on the same morsel grid. Returns (plan, groupagg node).
fn group_agg_plan(func: AggFunc) -> (Plan, usize) {
    let mut p = Plan::new();
    let k = scan_t(&mut p, "a");
    let v = scan_t(&mut p, "b");
    let group = p.add(OperatorSpec::GroupAgg { func }, vec![k, v]);
    p.set_root(group);
    (p, group)
}

#[test]
fn fused_group_agg_matches_across_modes() {
    // GroupAgg fuses as a pipeline terminal over range-aligned keys/values
    // inputs: each morsel yields a partial grouped aggregate and the driver
    // merges them in morsel order. Results must stay byte-identical to
    // the plan as built on a row count that does not divide the morsel
    // size (ragged last morsel).
    let rows = 12_345;
    let catalog = two_column_catalog(rows);
    let reference = Engine::with_workers(WORKERS);
    for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Count] {
        let label = format!("groupagg {}", func.name());
        let (plan, group_node) = group_agg_plan(func);
        assert_morsels_agree(&label, &plan, &catalog, &reference);
        // The aggregate really fused and morsel-ran, and the profile
        // says so.
        let exec = execute_morsels(&plan, &catalog).expect("morsels execute");
        let group = exec.profile.operator(group_node).expect("profiled");
        assert_eq!(group.step, Some(group_node), "{label}: groupagg ends no pipeline");
        assert!(group.tasks.len() > 1, "{label}: groupagg ran a single morsel");
        assert_eq!(exec.profile.fused_groupagg_pipelines(), 1, "{label}");
    }
}

#[test]
fn fused_group_agg_handles_empty_and_tiny_inputs() {
    // Empty inputs still run one morsel and publish an empty grouped
    // result; single-morsel inputs run one morsel. Both must agree with
    // the plan as built.
    let reference = Engine::with_workers(WORKERS);
    for rows in [0, 1, MORSEL_ROWS - 1, MORSEL_ROWS] {
        let catalog = two_column_catalog(rows);
        let (plan, _) = group_agg_plan(AggFunc::Sum);
        assert_morsels_agree(&format!("groupagg over {rows} rows"), &plan, &catalog, &reference);
    }
}

#[test]
fn mismatched_aligned_input_errors_like_operator_at_a_time() {
    // A col⊗col calc whose inputs disagree on length must fail identically
    // as built and in morsels (never silently zip morsel-sized slices that happen to
    // agree): the executor checks the whole-input length before slicing.
    let mut catalog = Catalog::clone(&two_column_catalog(4_000));
    catalog.register(TableBuilder::new("u").i64_column("b", vec![1; 2_000]).build().unwrap());
    let catalog = Arc::new(catalog);
    let mut p = Plan::new();
    let a = scan_t(&mut p, "a");
    let b = p.add(OperatorSpec::ScanColumn { table: "u".into(), column: "b".into() }, vec![]);
    let calc = p.add(
        OperatorSpec::Calc { op: BinaryOp::Add, left_scalar: None, right_scalar: None },
        vec![a, b], // a shorter aligned input
    );
    p.set_root(calc);
    let whole_err = Engine::with_workers(WORKERS)
        .execute(&p, &catalog)
        .expect_err("the plan as built rejects mismatched lengths")
        .to_string();
    let morsel_err =
        execute_morsels(&p, &catalog).expect_err("morsels reject mismatched lengths").to_string();
    assert_eq!(morsel_err, whole_err, "error mismatch between the plan as built and morsels");
}

#[test]
fn uncached_service_repeats_match_cold_execution_across_modes() {
    // With the result cache off a repeated submission re-executes its own
    // copy of the plan and must stay byte-identical to the cold run and to
    // the direct-engine reference — as built and cut into morsels.
    let catalog = tpch::generate(TpchScale::new(0.002), 1234);
    let reference = Engine::with_workers(WORKERS);
    for query in TpchQuery::all() {
        let plan = query.build(&catalog).expect("serial plan builds");
        let expected = reference.execute(&plan, &catalog).expect("reference executes").output;
        for (form, plan) in [("as built", plan.clone()), ("morsels", morsels(&plan))] {
            let service = QueryService::new(
                ServiceConfig::with_engine(EngineConfig::with_workers(WORKERS))
                    .with_result_cache_capacity(0),
                Arc::clone(&catalog),
            );
            let session = service.connect();
            let cold = session.submit(&plan).expect("cold submission executes");
            assert_eq!(
                cold.output, expected,
                "{query} [{form}]: service diverged from direct engine"
            );
            let repeat = session.submit(&plan).expect("repeat submission executes");
            assert!(repeat.profile.is_some(), "{query} [{form}]: an uncached repeat executes");
            assert_eq!(repeat.output, expected, "{query} [{form}]: a repeat changed the result");
        }
    }
}

#[test]
fn repeated_executions_stay_byte_identical_across_modes() {
    // Every workload query stays byte-identical to the reference as built
    // and cut into morsels — on a cold engine AND on a repeat over the same
    // engine, which must not carry state from the first run.
    let catalog = tpch::generate(TpchScale::new(0.002), 1234);
    let reference = Engine::with_workers(WORKERS);
    for query in TpchQuery::all() {
        let serial = query.build(&catalog).expect("serial plan builds");
        let hp = heuristic_parallelize(&serial, &catalog, WORKERS).expect("HP rewrite");
        for (label, plan) in [("serial", &serial), ("HP", &hp)] {
            let expected = reference.execute(plan, &catalog).expect("reference executes").output;
            for (form, plan) in [("as built", plan.clone()), ("morsels", morsels(plan))] {
                let engine = Engine::with_workers(WORKERS);
                for rep in 0..2 {
                    let exec = engine.execute(&plan, &catalog).expect("executes");
                    assert_eq!(
                        exec.output, expected,
                        "{query} {label} [{form}] rep {rep}: diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn tpch_refining_selects_stream_and_key_sets_refuse_probes_across_modes() {
    // Q6's and Q19's candidate-refining selects stream the candidates of
    // the select before them: each sits in the same multi-morsel pipeline
    // as its candidate input, and the results match the plan as built.
    let catalog = tpch::generate(TpchScale::new(0.002), 1234);
    let reference = Engine::with_workers(WORKERS);
    for query in [TpchQuery::Q6, TpchQuery::Q19] {
        let plan = query.build(&catalog).expect("serial plan builds");
        assert_morsels_agree(&format!("{query} serial"), &plan, &catalog, &reference);
        let exec = execute_morsels(&plan, &catalog).expect("morsels execute");
        let refining: Vec<(usize, usize)> = plan
            .node_ids()
            .into_iter()
            .filter_map(|id| {
                let node = plan.node(id).unwrap();
                matches!(node.spec, OperatorSpec::Select { .. })
                    .then(|| node.inputs.get(1).map(|&cands| (id, cands)))
                    .flatten()
            })
            .collect();
        assert_eq!(refining.len(), 2, "{query}");
        for (select, cands) in refining {
            let step = |node| exec.profile.operator(node).expect("profiled").step;
            assert!(step(select).is_some(), "{query}: refining select {select} did not stream");
            assert_eq!(step(cands), step(select), "{query}: {cands} runs apart from {select}");
            let tasks = exec.profile.operator(select).unwrap().tasks.len();
            assert!(tasks > 1, "{query}: one morsel");
        }
    }

    // Q4 and Q22 build key sets for their existence joins; a probe over one
    // is refused before anything runs, identically as built and in morsels.
    for query in [TpchQuery::Q4, TpchQuery::Q22] {
        let mut plan = query.build(&catalog).expect("serial plan builds");
        let sets: Vec<usize> = plan
            .node_ids()
            .into_iter()
            .filter(|&id| plan.node(id).unwrap().spec == OperatorSpec::KeySet)
            .collect();
        let [set] = sets[..] else { panic!("{query}: key sets {sets:?}") };
        assert_eq!(plan.count_of("hashbuild"), 1, "{query}: a key set counts as a hash build");
        let reader =
            plan.node_ids().into_iter().find(|&id| plan.node(id).unwrap().inputs.contains(&set));
        let outer = plan.node(reader.expect("the key set is read")).unwrap().inputs[0];
        let probe = plan.add(OperatorSpec::HashProbe, vec![outer, set]);
        plan.set_root(probe);
        let whole = reference.execute(&plan, &catalog).expect_err("refused").to_string();
        let morsel = execute_morsels(&plan, &catalog).expect_err("refused").to_string();
        assert_eq!(morsel, whole, "{query}");
        assert!(whole.contains(&format!("probes key set {set}")), "{query}: {whole}");
    }
}

#[test]
fn morsel_mode_is_deterministic_across_repeats() {
    // Scheduling is nondeterministic; results must not be. Repeat a query
    // whose pipelines see heavy inter-worker stealing.
    let catalog = tpch::generate(TpchScale::new(0.002), 99);
    let serial = TpchQuery::Q14.build(&catalog).expect("Q14 builds");
    let engine = Engine::with_workers(WORKERS);
    let plan = Arc::new(morsels(&serial));
    let first = engine.execute_shared(&plan, &catalog).expect("executes").output;
    for _ in 0..5 {
        assert_eq!(
            engine.execute_shared(&plan, &catalog).expect("executes").output,
            first,
            "Q14 cut into morsels varied across repeats"
        );
    }
}
