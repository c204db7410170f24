//! Regression test for candidate-stream alignment under plan mutation.
//!
//! The adaptive optimizer's mutations may run a position-emitting consumer
//! (a hash probe) in parts of a *candidate stream* (a fetch output ordered
//! by an oid list rather than by base-table position). The seed engine
//! forgot each partition's offset within the stream: the probe on partition
//! 2 emitted outer oids starting at 0 instead of at the partition boundary,
//! so downstream fetches paired rows from the wrong partition — group sums
//! silently redistributed across groups (observed as a rare
//! `ResultMismatch` on TPC-DS Q42-shape queries, reachable only through
//! contention-skewed mutation sequences).
//!
//! The fix threads a `stream_base` through `Chunk::Oids` / `Chunk::Join` and
//! into fetch outputs' base oids. This test executes the exact pre-/post-
//! mutation plan shapes deterministically — the mutated ones with cuts, the
//! consumers adopting their producers' parts — and asserts identical
//! results.
//!
//! The last two tests put the two position emitters added with the one-pass
//! kernels through the same treatment: the anti-join (`probe_anti` emits
//! `base + row` like every probe) and `ProjectJoinSide`, whose output is now
//! the join window itself seen through one side's backing — it must carry
//! the window's stream offset, not restart at 0.

use std::sync::Arc;

use apq_columnar::{Catalog, ScalarValue, TableBuilder};
use apq_engine::plan::{Cuts, JoinSide, OperatorSpec, Plan};
use apq_engine::{Engine, QueryOutput};
use apq_operators::{AggFunc, BinaryOp, CmpOp, GroupKey, Predicate};

/// Catalog with a fact table whose `fk` joins a small dimension, plus a
/// per-row measure and group key.
fn catalog(rows: usize) -> Arc<Catalog> {
    catalog_with_fk((0..rows as i64).map(|v| (v * 13) % 50).collect())
}

/// The same catalog with the fact table's `fk` column given row by row.
fn catalog_with_fk(fk: Vec<i64>) -> Arc<Catalog> {
    let rows = fk.len();
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("fact")
            .i64_column("fk", fk)
            .i64_column("measure", (0..rows as i64).map(|v| v % 1000).collect())
            .i64_column("grp", (0..rows as i64).map(|v| (v * 7) % 5).collect())
            .build()
            .unwrap(),
    );
    c.register(
        TableBuilder::new("dim")
            .i64_column("key", (0..20).collect()) // matches fk values 0..20
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

/// Plan mirroring the fatal TPC-DS shape. `split` controls the mutated
/// variant: `None` probes the whole candidate stream in one part; `Some(k)`
/// cuts the fetch of the fk stream at `k` and has the probe adopt its two
/// parts (what the medium mutation produces).
fn probe_over_stream_plan(selected_max: i64, split: Option<usize>) -> Plan {
    let mut p = Plan::new();
    let scan = |col: &str| OperatorSpec::ScanColumn { table: "fact".into(), column: col.into() };

    // Candidate stream: rows with grp < selected_max, in base order.
    let grp = p.add(scan("grp"), vec![]);
    let cands = p.add(
        OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, selected_max) },
        vec![grp],
    );

    // Streams fetched through the candidate list (positionally aligned).
    let fk_col = p.add(scan("fk"), vec![]);
    let measure_col = p.add(scan("measure"), vec![]);
    let measure_stream = p.add(OperatorSpec::Fetch, vec![cands, measure_col]);
    let grp_stream = p.add(OperatorSpec::Fetch, vec![cands, grp]);

    // Dimension hash.
    let dim_key =
        p.add(OperatorSpec::ScanColumn { table: "dim".into(), column: "key".into() }, vec![]);
    let hash = p.add(OperatorSpec::HashBuild, vec![dim_key]);

    // Probe the fk stream — whole, or in two parts of the *candidate list*
    // (the exact shape the medium mutation produces: the fetch is cut, and
    // the probe adopts its parts).
    let fk_stream = p.add(OperatorSpec::Fetch, vec![cands, fk_col]);
    let join = p.add(OperatorSpec::HashProbe, vec![fk_stream, hash]);
    if let Some(k) = split {
        p.node_mut(fk_stream).unwrap().cuts = Cuts::At(vec![k]);
        p.node_mut(join).unwrap().cuts = Cuts::Adopt;
    }

    // Surviving stream positions → pair group keys with measures.
    let outer = p.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Outer }, vec![join]);
    let grp_j = p.add(OperatorSpec::Fetch, vec![outer, grp_stream]);
    let measure_j = p.add(OperatorSpec::Fetch, vec![outer, measure_stream]);
    let grouped = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![grp_j, measure_j]);
    p.set_root(grouped);
    p
}

#[test]
fn probe_cloned_over_stream_partitions_matches_the_unsplit_plan() {
    let rows = 4_000;
    let cat = catalog(rows);
    let engine = Engine::with_workers(3);

    let whole = probe_over_stream_plan(4, None);
    let expected = engine.execute(&whole, &cat).expect("unsplit plan executes").output;
    assert!(matches!(expected, QueryOutput::Groups(ref g) if !g.is_empty()));

    // Several cut points, including lopsided ones.
    for k in [1, 7, 100, 1_000, 2_000] {
        let split = probe_over_stream_plan(4, Some(k));
        split.validate().expect("split plan is valid");
        let out = engine.execute(&split, &cat).expect("split plan executes").output;
        assert_eq!(
            out, expected,
            "probe cloned over stream partitions (cut at {k}) redistributed rows"
        );
    }
}

#[test]
fn sliced_join_results_keep_their_stream_offset() {
    // The same invariant one level up: slicing a *join result* and projecting
    // its sides must agree with projecting the whole result.
    let rows = 2_000;
    let cat = catalog(rows);
    let engine = Engine::with_workers(2);

    let mut whole = Plan::new();
    let fk =
        whole.add(OperatorSpec::ScanColumn { table: "fact".into(), column: "fk".into() }, vec![]);
    let dim =
        whole.add(OperatorSpec::ScanColumn { table: "dim".into(), column: "key".into() }, vec![]);
    let hash = whole.add(OperatorSpec::HashBuild, vec![dim]);
    let join = whole.add(OperatorSpec::HashProbe, vec![fk, hash]);
    let outer = whole.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Outer }, vec![join]);
    let measure = whole
        .add(OperatorSpec::ScanColumn { table: "fact".into(), column: "measure".into() }, vec![]);
    let fetched = whole.add(OperatorSpec::Fetch, vec![outer, measure]);
    let agg = whole.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetched]);
    let fin = whole.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    whole.set_root(fin);
    let expected = engine.execute(&whole, &cat).expect("whole executes").output;

    // Same pipeline, but the projection cuts the join result in two, and
    // the fetch and the sum adopt its parts.
    let mut split = whole.clone();
    split.node_mut(outer).unwrap().cuts = Cuts::At(vec![123]);
    for adopting in [fetched, agg] {
        split.node_mut(adopting).unwrap().cuts = Cuts::Adopt;
    }
    split.validate().expect("split plan is valid");

    let out = engine.execute(&split, &cat).expect("split executes").output;
    assert_eq!(out, expected, "sliced join windows lost their stream offsets");
}

/// Fact rows of the candidate stream (`grp < selected_max`) whose `fk` has no
/// dimension match, summed per group — with the anti-join run over the whole
/// stream, or in the two parts of the fk fetch cut at `split`.
fn anti_join_over_stream_plan(selected_max: i64, split: Option<usize>) -> Plan {
    let mut p = Plan::new();
    let scan = |col: &str| OperatorSpec::ScanColumn { table: "fact".into(), column: col.into() };
    let grp = p.add(scan("grp"), vec![]);
    let cands = p.add(
        OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, selected_max) },
        vec![grp],
    );
    let fk_col = p.add(scan("fk"), vec![]);
    let measure_col = p.add(scan("measure"), vec![]);
    let measure_stream = p.add(OperatorSpec::Fetch, vec![cands, measure_col]);
    let grp_stream = p.add(OperatorSpec::Fetch, vec![cands, grp]);
    let dim_key =
        p.add(OperatorSpec::ScanColumn { table: "dim".into(), column: "key".into() }, vec![]);
    let hash = p.add(OperatorSpec::HashBuild, vec![dim_key]);

    // Stream positions without a match.
    let fk_stream = p.add(OperatorSpec::Fetch, vec![cands, fk_col]);
    let unmatched = p.add(OperatorSpec::AntiJoin, vec![fk_stream, hash]);
    if let Some(k) = split {
        p.node_mut(fk_stream).unwrap().cuts = Cuts::At(vec![k]);
        p.node_mut(unmatched).unwrap().cuts = Cuts::Adopt;
    }
    let grp_u = p.add(OperatorSpec::Fetch, vec![unmatched, grp_stream]);
    let measure_u = p.add(OperatorSpec::Fetch, vec![unmatched, measure_stream]);
    let grouped = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![grp_u, measure_u]);
    p.set_root(grouped);
    p
}

#[test]
fn anti_join_cloned_over_stream_partitions_matches_the_unsplit_plan() {
    let rows = 4_000;
    let cat = catalog(rows);
    let engine = Engine::with_workers(3);
    let expected = engine
        .execute(&anti_join_over_stream_plan(4, None), &cat)
        .expect("unsplit plan executes")
        .output;
    assert!(matches!(expected, QueryOutput::Groups(ref g) if !g.is_empty()));
    for k in [1, 7, 100, 1_000, 2_000] {
        let split = anti_join_over_stream_plan(4, Some(k));
        split.validate().expect("split plan is valid");
        let out = engine.execute(&split, &cat).expect("split plan executes").output;
        assert_eq!(out, expected, "anti-join over stream partitions (cut at {k}) mislabelled rows");
    }
}

/// The probe works through its outer rows a block (256) at a time and, for an
/// anti-join, compacts each block's unmatched rows afterwards. Here the only
/// unmatched stream positions are two runs that straddle block edges of the
/// *second* part — edges that sit at `cut + 256` and `cut + 512`
/// of the stream, nowhere near a multiple of 256 — so a survivor numbered
/// within its block, or within its partition, lands on another row's group.
#[test]
fn anti_join_misses_spanning_a_probe_block_edge_keep_their_stream_offset() {
    let (rows, cut) = (1_500, 100);
    let missing =
        |p: usize| (cut + 250..cut + 262).contains(&p) || p == cut + 511 || p == cut + 512;
    // `grp = (v * 7) % 5 < 4` drops the rows with `v % 5 == 2`; walk the rows
    // and give the surviving stream positions their keys (dim holds 0..20).
    let mut position = 0;
    let mut expected = std::collections::BTreeMap::new();
    let fk: Vec<i64> = (0..rows as i64)
        .map(|v| {
            if (v * 7) % 5 == 4 {
                return 0;
            }
            let p = position;
            position += 1;
            if missing(p) {
                *expected.entry((v * 7) % 5).or_insert(0) += v % 1000;
                20 + v % 30
            } else {
                v % 20
            }
        })
        .collect();
    assert!(position > cut + 600, "the stream reaches past the second block edge");
    let expected: Vec<_> =
        expected.into_iter().map(|(g, sum)| (GroupKey::I64(g), ScalarValue::I64(sum))).collect();

    let cat = catalog_with_fk(fk);
    let engine = Engine::with_workers(2);
    for split in [None, Some(cut)] {
        let plan = anti_join_over_stream_plan(4, split);
        plan.validate().expect("plan is valid");
        let out = engine.execute(&plan, &cat).expect("plan executes").output;
        assert_eq!(out, QueryOutput::Groups(expected.clone()), "anti-join split at {split:?}");
    }
}

/// Join-stream positions whose fact `measure` is below 500, grouped: the
/// selection runs over the measure fetched through the projected outer side —
/// of the whole join result, or of its parts when the projection is cut at
/// `cuts` and the fetch and the selection adopt them. A projected part that
/// forgot its stream offset would select positions from 0 again.
/// `side_only` instead returns the projected outer side itself, whole or
/// packed from its parts.
fn project_over_join_stream_plan(cuts: &[usize], side_only: bool) -> Plan {
    let mut p = Plan::new();
    let scan = |col: &str| OperatorSpec::ScanColumn { table: "fact".into(), column: col.into() };
    let fk = p.add(scan("fk"), vec![]);
    let dim = p.add(OperatorSpec::ScanColumn { table: "dim".into(), column: "key".into() }, vec![]);
    let hash = p.add(OperatorSpec::HashBuild, vec![dim]);
    let join = p.add(OperatorSpec::HashProbe, vec![fk, hash]);
    let outer = p.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Outer }, vec![join]);
    let measure = p.add(scan("measure"), vec![]);
    let grp = p.add(scan("grp"), vec![]);
    // Columns aligned with the whole join stream.
    let measure_j = p.add(OperatorSpec::Fetch, vec![outer, measure]);
    let grp_j = p.add(OperatorSpec::Fetch, vec![outer, grp]);

    let below = OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 500i64) };
    let side = p.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Outer }, vec![join]);
    p.node_mut(side).unwrap().cuts = Cuts::At(cuts.to_vec());
    if side_only {
        p.set_root(side);
        return p;
    }
    let selected = if cuts.is_empty() {
        p.add(below, vec![measure_j])
    } else {
        let m = p.add(OperatorSpec::Fetch, vec![side, measure]);
        let selected = p.add(below, vec![m]);
        for adopting in [m, selected] {
            p.node_mut(adopting).unwrap().cuts = Cuts::Adopt;
        }
        selected
    };
    let grp_s = p.add(OperatorSpec::Fetch, vec![selected, grp_j]);
    let measure_s = p.add(OperatorSpec::Fetch, vec![selected, measure_j]);
    let grouped = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![grp_s, measure_s]);
    p.set_root(grouped);
    p
}

#[test]
fn projected_join_sides_of_stream_windows_keep_their_stream_offset() {
    let rows = 3_000;
    let cat = catalog(rows);
    let engine = Engine::with_workers(2);
    let run = |plan: Plan| {
        plan.validate().expect("plan is valid");
        engine.execute(&plan, &cat).expect("plan executes").output
    };
    let expected = run(project_over_join_stream_plan(&[], false));
    assert!(matches!(expected, QueryOutput::Groups(ref g) if !g.is_empty()));
    let whole_side = run(project_over_join_stream_plan(&[], true));
    assert!(matches!(whole_side, QueryOutput::Oids(ref o) if o.len() > 1_000));
    for cuts in [&[1][..], &[123], &[600, 601], &[5, 700, 1_100]] {
        assert_eq!(
            run(project_over_join_stream_plan(cuts, false)),
            expected,
            "selection over projected join parts (cuts {cuts:?}) restarted its positions"
        );
        // Side views of consecutive parts reassemble into the whole side.
        assert_eq!(run(project_over_join_stream_plan(cuts, true)), whole_side);
    }
}

/// TPC-H Q9's fan-out over a candidate stream: the first probe runs over
/// the fetched `fk` stream, whole or cut in two parts of it; both
/// join sides are read, a col⊗col calc zips two fetches through the outer
/// side, a second probe over a third such fetch emits join-stream positions,
/// and the group-by zips keys from its inner side against revenue fetched by
/// its outer positions.
fn q9_shaped_over_stream_plan(split: Option<usize>) -> Plan {
    let mut p = Plan::new();
    let scan = |col: &str| OperatorSpec::ScanColumn { table: "fact".into(), column: col.into() };
    let dim = || OperatorSpec::ScanColumn { table: "dim".into(), column: "key".into() };
    let grp = p.add(scan("grp"), vec![]);
    let cands =
        p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 4i64) }, vec![grp]);
    let fk_col = p.add(scan("fk"), vec![]);
    let fk_stream = p.add(OperatorSpec::Fetch, vec![cands, fk_col]);
    let measure = p.add(scan("measure"), vec![]);
    let measure_stream = p.add(OperatorSpec::Fetch, vec![cands, measure]);
    let grp_stream = p.add(OperatorSpec::Fetch, vec![cands, grp]);
    let dim_key = p.add(dim(), vec![]);
    let hash = p.add(OperatorSpec::HashBuild, vec![dim_key]);
    let join = p.add(OperatorSpec::HashProbe, vec![fk_stream, hash]);
    p.node_mut(join).unwrap().cuts = Cuts::At(split.into_iter().collect());
    let outer = p.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Outer }, vec![join]);
    let price = p.add(OperatorSpec::Fetch, vec![outer, measure_stream]);
    let weight = p.add(OperatorSpec::Fetch, vec![outer, grp_stream]);
    let mul = OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None };
    let revenue = p.add(mul, vec![price, weight]);
    let grp_j = p.add(OperatorSpec::Fetch, vec![outer, grp_stream]);
    let dim_key2 = p.add(dim(), vec![]);
    let hash2 = p.add(OperatorSpec::HashBuild, vec![dim_key2]);
    let join2 = p.add(OperatorSpec::HashProbe, vec![grp_j, hash2]);
    let outer2 = p.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Outer }, vec![join2]);
    let inner2 = p.add(OperatorSpec::ProjectJoinSide { side: JoinSide::Inner }, vec![join2]);
    let revenue_j = p.add(OperatorSpec::Fetch, vec![outer2, revenue]);
    let keys = p.add(OperatorSpec::Fetch, vec![inner2, dim_key2]);
    let by_key = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![keys, revenue_j]);
    p.set_root(by_key);
    p
}

#[test]
fn a_q9_shaped_fan_out_over_stream_windows_matches_the_unsplit_plan_under_morsels() {
    let rows = 4_000;
    let cat = catalog(rows);
    let expected = Engine::with_workers(3)
        .execute(&q9_shaped_over_stream_plan(None), &cat)
        .expect("unsplit plan executes")
        .output;
    assert!(matches!(expected, QueryOutput::Groups(ref g) if g.len() == 4));
    let engine = Engine::with_workers(3);
    for morsel in [7, 100, 777, 4_096] {
        for split in [None, Some(1), Some(333), Some(1_500)] {
            let plan = q9_shaped_over_stream_plan(split).cut_into_morsels(morsel);
            plan.validate().expect("plan is valid");
            let out = engine.execute(&plan, &cat).expect("plan executes").output;
            assert_eq!(out, expected, "morsels of {morsel} rows, probe split at {split:?}");
        }
    }
}
