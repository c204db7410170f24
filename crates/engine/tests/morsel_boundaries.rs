//! Morsel-boundary regression tests.
//!
//! A plan cut into morsels cuts pipeline inputs at fixed row counts, so the
//! dangerous inputs are the ones whose sizes do *not* divide evenly: the
//! last morsel is short, single-morsel pipelines run one task, and the parts
//! of a cut stream start at offsets that are not multiples of the morsel
//! size. Every case must produce byte-identical results to the plan as
//! built — including the `stream_base` candidate-stream alignment
//! invariant: a pipeline fusing `fetch → probe` over a partition of a
//! candidate stream must label its outputs with absolute stream positions,
//! not morsel-local ones.

use std::sync::Arc;

use apq_columnar::{Catalog, TableBuilder};
use apq_engine::plan::{Cuts, JoinSide, OperatorSpec, Plan};
use apq_engine::{Engine, EngineError, QueryExecution, QueryOutput};
use apq_operators::{AggFunc, BinaryOp, CmpOp, Predicate};

fn catalog(rows: usize) -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("fact")
            .i64_column("fk", (0..rows as i64).map(|v| (v * 13) % 50).collect())
            .i64_column("measure", (0..rows as i64).map(|v| v % 1000).collect())
            .i64_column("grp", (0..rows as i64).map(|v| (v * 7) % 5).collect())
            .build()
            .unwrap(),
    );
    c.register(TableBuilder::new("dim").i64_column("key", (0..20).collect()).build().unwrap());
    Arc::new(c)
}

/// Executes `plan` cut into morsels of `rows` rows on 3 workers.
fn execute_morsels(
    plan: &Plan,
    cat: &Arc<Catalog>,
    rows: usize,
) -> apq_engine::Result<QueryExecution> {
    Engine::with_workers(3).execute(&plan.cut_into_morsels(rows), cat)
}

/// Each streaming step of a run, as its stages in node order and the number
/// of ranges it ran: the operators that name one terminal as their step,
/// and that terminal's tasks.
fn steps(exec: &QueryExecution) -> Vec<(Vec<usize>, usize)> {
    let ops = &exec.profile.operators;
    let terminals = ops.iter().filter(|t| t.step == Some(t.node));
    let stages = |t: usize| ops.iter().filter(|o| o.step == Some(t)).map(|o| o.node).collect();
    terminals.map(|t| (stages(t.node), t.tasks.len())).collect()
}

/// Select → fetch → group-sum over the fact table.
fn grouped_sum_plan() -> Plan {
    let mut p = Plan::new();
    let scan = |col: &str| OperatorSpec::ScanColumn { table: "fact".into(), column: col.into() };
    let grp = p.add(scan("grp"), vec![]);
    let cands =
        p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 4i64) }, vec![grp]);
    let measure = p.add(scan("measure"), vec![]);
    let fetched_measure = p.add(OperatorSpec::Fetch, vec![cands, measure]);
    let fetched_grp = p.add(OperatorSpec::Fetch, vec![cands, grp]);
    let grouped =
        p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![fetched_grp, fetched_measure]);
    p.set_root(grouped);
    p
}

/// The PR-1 stream-alignment shape: a hash probe adopting the parts of a
/// candidate stream's fetch, cut at `k`.
fn probe_over_stream_plan(split: Option<usize>) -> Plan {
    let mut p = Plan::new();
    let scan = |col: &str| OperatorSpec::ScanColumn { table: "fact".into(), column: col.into() };

    let grp = p.add(scan("grp"), vec![]);
    let cands =
        p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 4i64) }, vec![grp]);
    let fk_col = p.add(scan("fk"), vec![]);
    let measure_col = p.add(scan("measure"), vec![]);
    let measure_stream = p.add(OperatorSpec::Fetch, vec![cands, measure_col]);
    let grp_stream = p.add(OperatorSpec::Fetch, vec![cands, grp]);

    let dim_key =
        p.add(OperatorSpec::ScanColumn { table: "dim".into(), column: "key".into() }, vec![]);
    let hash = p.add(OperatorSpec::HashBuild, vec![dim_key]);

    let fk_stream = p.add(OperatorSpec::Fetch, vec![cands, fk_col]);
    let join = p.add(OperatorSpec::HashProbe, vec![fk_stream, hash]);
    if let Some(k) = split {
        p.node_mut(fk_stream).unwrap().cuts = Cuts::At(vec![k]);
        p.node_mut(join).unwrap().cuts = Cuts::Adopt;
    }

    let outer = p.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Outer }, vec![join]);
    let grp_j = p.add(OperatorSpec::Fetch, vec![outer, grp_stream]);
    let measure_j = p.add(OperatorSpec::Fetch, vec![outer, measure_stream]);
    let grouped = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![grp_j, measure_j]);
    p.set_root(grouped);
    p
}

#[test]
fn non_divisible_morsel_sizes_match_operator_at_a_time() {
    // 4_001 rows is prime-ish on purpose: no morsel size below divides it.
    let rows = 4_001;
    let cat = catalog(rows);
    let plan = grouped_sum_plan();
    let expected = Engine::with_workers(3).execute(&plan, &cat).unwrap().output;
    assert!(matches!(expected, QueryOutput::Groups(ref g) if !g.is_empty()));

    for morsel in [7, 13, 100, 1_000, 3_999, 4_001, 1 << 20] {
        let exec = execute_morsels(&plan, &cat, morsel).unwrap();
        assert_eq!(exec.output, expected, "morsel {morsel}: morsels diverged");
        // The fan-out covered every source row. Each pipeline's head (the
        // select or a fetch) streams its first input.
        for (stages, n_morsels) in steps(&exec) {
            let producer = plan.node(stages[0]).unwrap().inputs[0];
            let source_rows = exec.profile.operator(producer).unwrap().rows_out;
            assert_eq!(
                n_morsels,
                source_rows.div_ceil(morsel).max(1),
                "morsel {morsel}: wrong fan-out"
            );
        }
    }
}

#[test]
fn a_cut_past_the_table_end_is_clamped() {
    // A select over a 10_000-row table's scan cut at 3_000 and 12_000 runs
    // the ranges [0, 3_000), [3_000, 10_000) and an empty [10_000, 10_000),
    // the fetch and the aggregate fused behind it in morsels of 1_000 rows
    // that run over the select's ranges, whose oids stay absolute. The summed values are the row ids
    // themselves, so a range cut at the wrong offset cannot add up to the
    // same total.
    let rows = 10_000i64;
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("seq")
            .i64_column("m", (0..rows).map(|v| (v * 7_919) % 1_009).collect())
            .i64_column("v", (0..rows).collect())
            .build()
            .unwrap(),
    );
    let cat = Arc::new(c);
    let scan =
        |column: &str| OperatorSpec::ScanColumn { table: "seq".into(), column: column.into() };
    let mut p = Plan::new();
    let m = p.add(scan("m"), vec![]);
    let select = OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 250i64) };
    let sel = p.add(select, vec![m]);
    p.node_mut(sel).unwrap().cuts = Cuts::At(vec![3_000, 12_000]);
    let v = p.add(scan("v"), vec![]);
    let fetched = p.add(OperatorSpec::Fetch, vec![sel, v]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetched]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);

    let expected = Engine::with_workers(3).execute(&p, &cat).unwrap().output;
    let by_hand: i64 = (0..rows).filter(|r| (r * 7_919) % 1_009 < 250).sum();
    assert_eq!(expected, QueryOutput::Scalar(apq_columnar::ScalarValue::I64(by_hand)));

    let exec = execute_morsels(&p, &cat, 1_000).unwrap();
    assert_eq!(exec.output, expected, "morsels diverged over a clamped cut");
    // One step, over the select's three ranges, the empty one too.
    assert_eq!(steps(&exec), [(vec![sel, fetched, agg], 3)]);
    assert_eq!(exec.profile.total_morsels(), 3);
    let ranges = exec.profile.operator(sel).unwrap().tasks.iter();
    let ranges: Vec<_> = ranges.map(|t| (t.range.start, t.range.end)).collect();
    assert_eq!(ranges, [(0, 3_000), (3_000, 10_000), (10_000, 10_000)]);
    // Its producer, the scan, published the whole column.
    assert_eq!(exec.profile.operator(m).unwrap().rows_out, 10_000);
    let mut profiled: Vec<_> = exec.profile.operators.iter().map(|o| o.node).collect();
    profiled.sort_unstable();
    assert_eq!(profiled, p.node_ids(), "one profile per live node");
}

#[test]
fn stream_partitions_keep_alignment_under_morsel_execution() {
    // The parts of a candidate stream start at offsets that are not
    // multiples of the morsel size; the fused fetch → probe chains over
    // each part must emit absolute stream positions (stream_base).
    let rows = 4_000;
    let cat = catalog(rows);
    let whole = probe_over_stream_plan(None);
    let expected = Engine::with_workers(3).execute(&whole, &cat).unwrap().output;

    for (cut, morsel) in [(1, 100), (7, 64), (100, 77), (1_000, 512), (2_000, 4_096)] {
        let split = probe_over_stream_plan(Some(cut));
        let out = execute_morsels(&split, &cat, morsel).unwrap().output;
        assert_eq!(
            out, expected,
            "probe over stream cut at {cut} (morsels of {morsel}) \
             redistributed rows"
        );
        // The unsplit plan must agree too.
        let out = execute_morsels(&whole, &cat, morsel).unwrap().output;
        assert_eq!(out, expected, "unsplit plan diverged under morsels");
    }
}

#[test]
fn position_emitters_after_in_pipeline_selections_stay_global() {
    // Regression: scan → select → fetch → semijoin. The select compacts each
    // morsel into a fresh candidate stream, so a semijoin fused behind it
    // would emit positions wrapping back to 0 at every morsel boundary.
    // The analysis must split the chain so the semijoin runs over the
    // globally assembled stream, and the output must match the plan as
    // built exactly.
    let rows = 4_000;
    let cat = catalog(rows);
    let mut p = Plan::new();
    let grp =
        p.add(OperatorSpec::ScanColumn { table: "fact".into(), column: "grp".into() }, vec![]);
    let sel = p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 4i64) }, vec![grp]);
    let fk = p.add(OperatorSpec::ScanColumn { table: "fact".into(), column: "fk".into() }, vec![]);
    let fetched = p.add(OperatorSpec::Fetch, vec![sel, fk]);
    let dim = p.add(OperatorSpec::ScanColumn { table: "dim".into(), column: "key".into() }, vec![]);
    let hash = p.add(OperatorSpec::HashBuild, vec![dim]);
    let semi = p.add(OperatorSpec::SemiJoin, vec![fetched, hash]);
    p.set_root(semi);

    let expected = Engine::with_workers(3).execute(&p, &cat).unwrap().output;
    let QueryOutput::Oids(ref oids) = expected else { panic!("semijoin returns oids") };
    assert!(!oids.is_empty());
    // Sanity: positions are a strictly increasing global sequence.
    assert!(oids.windows(2).all(|w| w[0] < w[1]), "reference positions not global");

    for morsel in [100, 500, 777, 4_096] {
        let out = execute_morsels(&p, &cat, morsel).unwrap().output;
        assert_eq!(
            out, expected,
            "morsel {morsel}: semijoin after in-pipeline select \
             emitted morsel-local positions"
        );
    }
}

#[test]
fn tiny_and_empty_inputs_execute_as_single_morsels() {
    let cat = catalog(10);
    // Input much smaller than a morsel.
    let plan = grouped_sum_plan();
    let expected = Engine::with_workers(2).execute(&plan, &cat).unwrap().output;
    let exec = execute_morsels(&plan, &cat, 1 << 16).unwrap();
    assert_eq!(exec.output, expected);
    assert!(steps(&exec).iter().all(|&(_, n_morsels)| n_morsels == 1));

    // A selection that keeps nothing: empty streams still flow through.
    let mut p = Plan::new();
    let grp =
        p.add(OperatorSpec::ScanColumn { table: "fact".into(), column: "grp".into() }, vec![]);
    let none =
        p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, -1i64) }, vec![grp]);
    let fetched = p.add(OperatorSpec::Fetch, vec![none, grp]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Count }, vec![fetched]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Count }, vec![agg]);
    p.set_root(fin);
    let expected = Engine::with_workers(2).execute(&p, &cat).unwrap().output;
    assert_eq!(execute_morsels(&p, &cat, 1 << 16).unwrap().output, expected);
}

fn fact_scan(p: &mut Plan, column: &str) -> usize {
    p.add(OperatorSpec::ScanColumn { table: "fact".into(), column: column.into() }, vec![])
}

fn select(p: &mut Plan, inputs: Vec<usize>, predicate: Predicate) -> usize {
    p.add(OperatorSpec::Select { predicate }, inputs)
}

/// Runs `plan` as built and cut into every morsel size, asserting the
/// same output, and that `stages` ran as one pipeline whose morsels covered
/// `producer`, the chunk its head streams. Returns the reference output.
fn assert_streams_as_one_pipeline(
    cat: &Arc<Catalog>,
    plan: &Plan,
    producer: usize,
    stages: &[usize],
    morsel_sizes: &[usize],
) -> QueryOutput {
    let expected = Engine::with_workers(3).execute(plan, cat).unwrap().output;
    for &morsel in morsel_sizes {
        let exec = execute_morsels(plan, cat, morsel).unwrap();
        assert_eq!(exec.output, expected, "morsel {morsel}: morsels diverged");
        let (nodes, n_morsels) = steps(&exec)
            .into_iter()
            .find(|(nodes, _)| nodes.first() == stages.first())
            .unwrap_or_else(|| panic!("no pipeline starts at {:?}", stages.first()));
        assert_eq!(nodes, stages, "morsel {morsel}");
        let source_rows = exec.profile.operator(producer).unwrap().rows_out;
        assert_eq!(n_morsels, source_rows.div_ceil(morsel).max(1));
    }
    expected
}

#[test]
fn refining_selects_stream_candidates_past_empty_morsels() {
    // scan measure → select(< 100) → select(grp, ·) → select(fk, ·) → fetch
    // → sum: one chain. The first select keeps rows 0..100 of every 1,000,
    // so most small morsels hand the refining selects no candidates at all.
    let rows = 4_001;
    let cat = catalog(rows);
    let mut p = Plan::new();
    let measure = fact_scan(&mut p, "measure");
    let low = select(&mut p, vec![measure], Predicate::cmp(CmpOp::Lt, 100i64));
    let grp = fact_scan(&mut p, "grp");
    let in_grp = select(&mut p, vec![grp, low], Predicate::cmp(CmpOp::Lt, 4i64));
    let fk = fact_scan(&mut p, "fk");
    let keyed = select(&mut p, vec![fk, in_grp], Predicate::cmp(CmpOp::Ge, 10i64));
    let fetched = p.add(OperatorSpec::Fetch, vec![keyed, measure]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetched]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    let chain = [low, in_grp, keyed, fetched, agg];
    let expected = assert_streams_as_one_pipeline(&cat, &p, measure, &chain, &[7, 100, 777, 4_096]);
    let by_hand: i64 = (0..rows as i64)
        .filter(|v| v % 1000 < 100 && (v * 7) % 5 < 4 && (v * 13) % 50 >= 10)
        .map(|v| v % 1000)
        .sum();
    assert_eq!(expected, QueryOutput::Scalar(apq_columnar::ScalarValue::I64(by_hand)));
}

#[test]
fn refining_select_candidates_may_name_rows_of_any_morsel() {
    // probe fk ⋈ dim → inner side → select(dim.key, ·) → fetch(dim.key) →
    // sum. Each morsel of the probe's outer column hands the refining select
    // dimension oids from all over its column, unsorted and repeated: the
    // column is shared whole, so no candidate is lost to a morsel's window.
    let rows = 4_001;
    let cat = catalog(rows);
    let mut p = Plan::new();
    let fk = fact_scan(&mut p, "fk");
    let dim_key =
        p.add(OperatorSpec::ScanColumn { table: "dim".into(), column: "key".into() }, vec![]);
    let hash = p.add(OperatorSpec::HashBuild, vec![dim_key]);
    let join = p.add(OperatorSpec::HashProbe, vec![fk, hash]);
    let dim_side = p.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Inner }, vec![join]);
    let odd = select(&mut p, vec![dim_key, dim_side], Predicate::InI64(vec![1, 3, 5, 13, 19]));
    let keys = p.add(OperatorSpec::Fetch, vec![odd, dim_key]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![keys]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    let chain = [join, dim_side, odd, keys, agg];
    let expected = assert_streams_as_one_pipeline(&cat, &p, fk, &chain, &[13, 100, 1_000]);
    let by_hand: i64 =
        (0..rows as i64).map(|v| (v * 13) % 50).filter(|k| [1, 3, 5, 13, 19].contains(k)).sum();
    assert_eq!(expected, QueryOutput::Scalar(apq_columnar::ScalarValue::I64(by_hand)));
}

#[test]
fn a_refining_select_over_an_intermediate_column_keeps_stream_positions() {
    // select(grp < 4) → fetch measure and fk into its candidate stream; a
    // select over the fetched measure emits stream positions, and a
    // refining select over the fetched fk filters them: both columns are
    // intermediates whose rows are stream positions, not table rows.
    let rows = 4_000;
    let cat = catalog(rows);
    let mut p = Plan::new();
    let grp = fact_scan(&mut p, "grp");
    let cands = select(&mut p, vec![grp], Predicate::cmp(CmpOp::Lt, 4i64));
    let measure = fact_scan(&mut p, "measure");
    let fk = fact_scan(&mut p, "fk");
    let measure_f = p.add(OperatorSpec::Fetch, vec![cands, measure]);
    let fk_f = p.add(OperatorSpec::Fetch, vec![cands, fk]);
    let cheap = select(&mut p, vec![measure_f], Predicate::cmp(CmpOp::Lt, 500i64));
    let keyed = select(&mut p, vec![fk_f, cheap], Predicate::cmp(CmpOp::Ge, 25i64));
    let picked = p.add(OperatorSpec::Fetch, vec![keyed, measure_f]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![picked]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    let chain = [cheap, keyed, picked, agg];
    let expected =
        assert_streams_as_one_pipeline(&cat, &p, measure_f, &chain, &[7, 64, 999, 4_096]);
    let by_hand: i64 = (0..rows as i64)
        .filter(|v| (v * 7) % 5 < 4 && v % 1000 < 500 && (v * 13) % 50 >= 25)
        .map(|v| v % 1000)
        .sum();
    assert_eq!(expected, QueryOutput::Scalar(apq_columnar::ScalarValue::I64(by_hand)));
}

#[test]
fn a_probe_over_a_key_set_is_refused_at_validate_under_both_plannings() {
    let rows = 1_000;
    let cat = catalog(rows);
    let mut p = Plan::new();
    let fk = fact_scan(&mut p, "fk");
    let keys = fact_scan(&mut p, "grp");
    let set = p.add(OperatorSpec::KeySet, vec![keys]);
    let semi = p.add(OperatorSpec::SemiJoin, vec![fk, set]);
    p.set_root(semi);
    let expected: Vec<u64> = (0..rows as u64).filter(|v| (v * 13) % 50 < 5).collect();
    assert_eq!(execute_morsels(&p, &cat, 100).unwrap().output, QueryOutput::Oids(expected));

    let probe = p.add(OperatorSpec::HashProbe, vec![fk, set]);
    p.set_root(probe);
    let refusal = format!("invalid plan: node {probe} (join) probes key set {set}");
    for plan in [p.clone(), p.cut_into_morsels(100)] {
        let err = Engine::with_workers(3).execute(&plan, &cat).unwrap_err().to_string();
        assert!(err.starts_with(&refusal), "{err}");
    }
}

#[test]
fn a_cut_hash_build_is_refused_under_both_plannings() {
    let cat = catalog(100);
    let mut p = Plan::new();
    let keys = fact_scan(&mut p, "grp");
    let table = p.add(OperatorSpec::HashBuild, vec![keys]);
    p.node_mut(table).unwrap().cuts = Cuts::At(vec![10]);
    let outer = fact_scan(&mut p, "fk");
    let semi = p.add(OperatorSpec::SemiJoin, vec![outer, table]);
    p.set_root(semi);
    for plan in [p.clone(), p.cut_into_morsels(10)] {
        let err = Engine::with_workers(3).execute(&plan, &cat).unwrap_err();
        let refusal = format!("node {table} (hashbuild) is cut but cannot run in parts");
        assert_eq!(err, EngineError::InvalidPlan(refusal));
    }
}

/// TPC-H Q9's fan-out in miniature. A probe's outer side is fetched into
/// twice, for a col⊗col calc, and once more for a second probe, whose
/// outer positions then fetch from the calc and whose inner side gives the
/// group keys. Every intermediate between the first probe and the group-by
/// is read by a step that streams it or zips it, so each is published as
/// parts; the second probe emits positions from its column's labels, so a
/// part labelled at the wrong stream offset fetches the wrong revenue.
fn q9_shaped_plan() -> (Plan, [usize; 4]) {
    let mut p = Plan::new();
    let dim = |p: &mut Plan| {
        p.add(OperatorSpec::ScanColumn { table: "dim".into(), column: "key".into() }, vec![])
    };
    let fk = fact_scan(&mut p, "fk");
    let dim_key = dim(&mut p);
    let hash = p.add(OperatorSpec::HashBuild, vec![dim_key]);
    let join = p.add(OperatorSpec::HashProbe, vec![fk, hash]);
    let outer = p.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Outer }, vec![join]);
    let measure = fact_scan(&mut p, "measure");
    let grp = fact_scan(&mut p, "grp");
    let price = p.add(OperatorSpec::Fetch, vec![outer, measure]);
    let weight = p.add(OperatorSpec::Fetch, vec![outer, grp]);
    let mul = OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None };
    let revenue = p.add(mul, vec![price, weight]);

    let grp_f = p.add(OperatorSpec::Fetch, vec![outer, grp]);
    let dim_key2 = dim(&mut p);
    let hash2 = p.add(OperatorSpec::HashBuild, vec![dim_key2]);
    let join2 = p.add(OperatorSpec::HashProbe, vec![grp_f, hash2]);
    let outer2 = p.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Outer }, vec![join2]);
    let inner2 = p.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Inner }, vec![join2]);
    let revenue_j = p.add(OperatorSpec::Fetch, vec![outer2, revenue]);
    let keys = p.add(OperatorSpec::Fetch, vec![inner2, dim_key2]);
    let by_key = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![keys, revenue_j]);
    p.set_root(by_key);
    (p, [inner2, keys, by_key, revenue])
}

#[test]
fn a_q9_shaped_fan_out_over_parted_intermediates_matches_operator_at_a_time() {
    let rows = 4_001;
    let cat = catalog(rows);
    let (plan, [inner, keys, by_key, revenue]) = q9_shaped_plan();
    let expected = Engine::with_workers(3).execute(&plan, &cat).unwrap().output;
    let QueryOutput::Groups(ref groups) = expected else { panic!("a group-by returns groups") };
    assert_eq!(groups.len(), 5, "one group per `grp` value");
    for morsel in [7, 100, 777, 4_096] {
        let exec = execute_morsels(&plan, &cat, morsel).unwrap();
        assert_eq!(exec.output, expected, "morsel {morsel}: morsels diverged");
        // The group-by zips the fetched revenue's parts against its keys'.
        let steps = steps(&exec);
        let (nodes, _) = steps.iter().find(|(nodes, _)| nodes.contains(&by_key)).unwrap();
        assert_eq!(nodes, &[inner, keys, by_key], "morsel {morsel}");
        assert!(steps.iter().any(|(nodes, _)| nodes.last() == Some(&revenue)));
    }
}
