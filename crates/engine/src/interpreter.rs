//! Node interpreter: executes one plan node given its materialized inputs.
//!
//! The paper's run-time environment has "an interpreter per CPU core
//! \[that\] executes the scheduled operators" (§2). [`execute_node`] is that
//! interpreter's body: it dispatches an [`OperatorSpec`] over the input
//! [`Chunk`]s and materializes the output chunk. It is a pure function —
//! all scheduling, profiling and threading lives in the executor, which
//! also cuts each input to its plan edge's row window before calling it.

use std::sync::Arc;

use apq_columnar::{Catalog, Column, DataType, Oid, ScalarValue};
use apq_operators::{
    calc_col_col, calc_col_scalar, calc_scalar_col, fetch, grouped_agg, merge_grouped, scalar_agg,
    select, select_with_candidates, AggFunc, AggState, BinaryOp, JoinHashTable, JoinResult,
    KeySetPart, OperatorError,
};

use crate::chunk::{Chunk, JoinView, OidsView};
use crate::error::{EngineError, Result};
use crate::plan::{NodeId, OperatorSpec};

fn input_error(node: NodeId, expected: &'static str, found: &Chunk) -> EngineError {
    EngineError::InvalidInput { node, expected, found: found.kind() }
}

fn as_column(node: NodeId, chunk: &Chunk) -> Result<&Column> {
    match chunk {
        Chunk::Column(c) => Ok(c),
        other => Err(input_error(node, "column", other)),
    }
}

/// Returns the candidate-list view (visible oids + derived stream offset).
fn as_oids(node: NodeId, chunk: &Chunk) -> Result<&OidsView> {
    match chunk {
        Chunk::Oids(view) => Ok(view),
        other => Err(input_error(node, "oids", other)),
    }
}

fn as_hash(node: NodeId, chunk: &Chunk) -> Result<&Arc<JoinHashTable>> {
    match chunk {
        Chunk::Hash(h) => Ok(h),
        other => Err(input_error(node, "hash", other)),
    }
}

/// Returns the join-result view (visible pairs + derived stream offset).
fn as_join(node: NodeId, chunk: &Chunk) -> Result<&JoinView> {
    match chunk {
        Chunk::Join(view) => Ok(view),
        other => Err(input_error(node, "join", other)),
    }
}

fn as_scalar(node: NodeId, chunk: &Chunk) -> Result<&ScalarValue> {
    match chunk {
        Chunk::Scalar(s) => Ok(s),
        other => Err(input_error(node, "scalar", other)),
    }
}

/// Executes one operator over its inputs.
///
/// `node` is only used to label errors; `catalog` resolves `ScanColumn`
/// leaves.
pub fn execute_node(
    node: NodeId,
    spec: &OperatorSpec,
    inputs: &[Chunk],
    catalog: &Catalog,
) -> Result<Chunk> {
    match execute_part(node, spec, inputs, catalog)? {
        Chunk::KeySet(part) => Ok(Chunk::Hash(Arc::new(Arc::unwrap_or_clone(part).finish()?))),
        chunk => Ok(chunk),
    }
}

/// Executes one operator over one part of its inputs: the driver's call for
/// every stage it runs. The output is [`execute_node`]'s but for a key set,
/// whose part is a [`KeySetPart`] of its keys ([`Chunk::KeySet`]): the
/// driver merges a step's parts as it folds its pieces and publishes the
/// finished key set, so a key set runs in parts like any streaming stage.
pub(crate) fn execute_part(
    node: NodeId,
    spec: &OperatorSpec,
    inputs: &[Chunk],
    catalog: &Catalog,
) -> Result<Chunk> {
    match spec {
        OperatorSpec::ScanColumn { table, column } => {
            Ok(Chunk::Column(catalog.table(table)?.column(column)?.clone()))
        }

        OperatorSpec::Select { predicate } => {
            let col = as_column(node, &inputs[0])?;
            let oids = if inputs.len() > 1 {
                let cands = as_oids(node, &inputs[1])?;
                select_with_candidates(col, predicate, cands.as_slice())?
            } else {
                select(col, predicate)?
            };
            // A selection compacts its input into a new candidate stream.
            Ok(Chunk::oids(oids))
        }

        OperatorSpec::PredMask { predicate } => {
            let col = as_column(node, &inputs[0])?;
            // Element-wise outputs stay oid-aligned with their input so that
            // downstream selections keep producing absolute oids even when the
            // input is a base-column partition (paper §2.3 alignment).
            Ok(Chunk::Column(
                Column::from_bool(predicate.eval_mask(col)?).with_base_oid(col.base_oid()),
            ))
        }

        OperatorSpec::IfThenElse { otherwise } => {
            let cond = as_column(node, &inputs[0])?;
            let then = as_column(node, &inputs[1])?;
            Ok(Chunk::Column(
                if_then_else(node, cond, then, otherwise)?.with_base_oid(cond.base_oid()),
            ))
        }

        OperatorSpec::Fetch => {
            let oids = as_oids(node, &inputs[0])?;
            let col = as_column(node, &inputs[1])?;
            // The fetched values are positionally aligned with the candidate
            // stream, so the output column starts at the oid view's stream
            // offset. This is what lets a position-emitting consumer (probe,
            // select) be cloned over windows of a stream: each window's
            // fetch output knows where in the stream it sits.
            Ok(Chunk::Column(fetch(col, oids.as_slice())?.with_base_oid(oids.stream_base())))
        }

        OperatorSpec::HashBuild => {
            let col = as_column(node, &inputs[0])?;
            Ok(Chunk::Hash(Arc::new(JoinHashTable::build(col)?)))
        }

        OperatorSpec::KeySet => {
            let col = as_column(node, &inputs[0])?;
            Ok(Chunk::KeySet(Arc::new(KeySetPart::new(col)?)))
        }

        OperatorSpec::HashProbe => {
            let outer = as_column(node, &inputs[0])?;
            let hash = as_hash(node, &inputs[1])?;
            Ok(Chunk::join(hash.probe(outer)?))
        }

        OperatorSpec::SemiJoin => {
            let outer = as_column(node, &inputs[0])?;
            let hash = as_hash(node, &inputs[1])?;
            Ok(Chunk::oids(hash.probe_semi(outer)?))
        }

        OperatorSpec::AntiJoin => {
            let outer = as_column(node, &inputs[0])?;
            let hash = as_hash(node, &inputs[1])?;
            Ok(Chunk::oids(hash.probe_anti(outer)?))
        }

        OperatorSpec::ProjectJoinSide { side } => {
            // The join window seen through one side's backing: it inherits
            // the window's offset within the join-result stream.
            Ok(Chunk::Oids(as_join(node, &inputs[0])?.side(*side)))
        }

        OperatorSpec::OidsFromColumn => {
            let col = as_column(node, &inputs[0])?;
            let oids = match col.data_type() {
                DataType::Int64 => {
                    values_as_oids(node, col.i64_values().map_err(OperatorError::from)?)?
                }
                DataType::Int32 => {
                    values_as_oids(node, col.i32_values().map_err(OperatorError::from)?)?
                }
                other => {
                    return Err(EngineError::InvalidPlan(format!(
                        "node {node}: cannot interpret a {other} column as oids"
                    )))
                }
            };
            Ok(Chunk::oids_at(oids, col.base_oid()))
        }

        OperatorSpec::Calc { op, left_scalar, right_scalar } => {
            let first = as_column(node, &inputs[0])?;
            let out = match (left_scalar, right_scalar) {
                (Some(s), None) => calc_scalar_col(*op, s, first)?,
                (None, Some(s)) => calc_col_scalar(*op, first, s)?,
                (None, None) => {
                    let second = as_column(node, &inputs[1])?;
                    calc_col_col(*op, first, second)?
                }
                (Some(_), Some(_)) => {
                    return Err(EngineError::InvalidPlan(format!(
                        "node {node}: calc with two scalar operands has no column input"
                    )))
                }
            };
            // `batcalc` outputs stay aligned with their (first) column input.
            Ok(Chunk::Column(out.with_base_oid(first.base_oid())))
        }

        OperatorSpec::ScalarAgg { func } => {
            let col = as_column(node, &inputs[0])?;
            Ok(Chunk::AggPartial(scalar_agg(*func, col)?))
        }

        OperatorSpec::FinalizeAgg { func } => {
            Ok(Chunk::Scalar(merge_agg_partials(node, *func, inputs)?.finish()))
        }

        OperatorSpec::GroupAgg { func } => {
            let keys = as_column(node, &inputs[0])?;
            let values = as_column(node, &inputs[1])?;
            Ok(Chunk::Grouped(Arc::new(grouped_agg(*func, keys, values)?)))
        }

        OperatorSpec::CalcScalars { op } => {
            let a = as_scalar(node, &inputs[0])?;
            let b = as_scalar(node, &inputs[1])?;
            Ok(Chunk::Scalar(calc_scalars(*op, a, b)?))
        }
    }
}

/// An integer column's values as oids. A negative value names no row: it is
/// refused, naming the node and the first such value, instead of being read
/// as some row.
fn values_as_oids<T: Copy + Into<i64>>(node: NodeId, values: &[T]) -> Result<Vec<Oid>> {
    values
        .iter()
        .map(|&v| {
            let v = v.into();
            Oid::try_from(v).map_err(|_| {
                EngineError::InvalidPlan(format!(
                    "node {node}: the negative value {v} is not an oid"
                ))
            })
        })
        .collect()
}

/// `out[i] = cond[i] ? then[i] : otherwise`.
fn if_then_else(
    node: NodeId,
    cond: &Column,
    then: &Column,
    otherwise: &ScalarValue,
) -> Result<Column> {
    if cond.len() != then.len() {
        return Err(EngineError::Operator(OperatorError::LengthMismatch {
            left: cond.len(),
            right: then.len(),
        }));
    }
    let mask = cond.bool_values().map_err(OperatorError::from)?;
    match then.data_type() {
        DataType::Int64 => {
            let vals = then.i64_values().map_err(OperatorError::from)?;
            let other = otherwise.as_i64().ok_or_else(|| {
                EngineError::InvalidPlan(format!(
                    "node {node}: ifthenelse otherwise must be an integer"
                ))
            })?;
            Ok(Column::from_i64(
                mask.iter().zip(vals).map(|(&m, &v)| if m { v } else { other }).collect(),
            ))
        }
        DataType::Float64 => {
            let vals = then.f64_values().map_err(OperatorError::from)?;
            let other = otherwise.as_f64().ok_or_else(|| {
                EngineError::InvalidPlan(format!(
                    "node {node}: ifthenelse otherwise must be numeric"
                ))
            })?;
            Ok(Column::from_f64(
                mask.iter().zip(vals).map(|(&m, &v)| if m { v } else { other }).collect(),
            ))
        }
        other => Err(EngineError::InvalidPlan(format!(
            "node {node}: ifthenelse over {other} column is not supported"
        ))),
    }
}

/// True when `(stream_base, len)` parts can be packed in argument order
/// without mislabeling stream positions: either every part is a fresh stream
/// (all bases 0 — the pack forms a new stream), or the parts are consecutive
/// windows of one stream (each base continues where the previous part ended).
fn stream_order_is_consistent(bases: &[(Oid, usize)]) -> bool {
    bases.iter().all(|&(b, _)| b == 0) || bases.windows(2).all(|w| w[1].0 == w[0].0 + w[0].1 as Oid)
}

/// Debug-only wrapper building the `(stream_base, len)` pairs for the
/// stream-order assertion, so the release hot path does not materialize them.
fn stream_order_check<T>(views: &[&T], base_len: impl Fn(&T) -> (Oid, usize)) -> bool {
    let bases: Vec<(Oid, usize)> = views.iter().map(|v| base_len(v)).collect();
    stream_order_is_consistent(&bases)
}

/// The exchange union: packs same-kind chunks in argument order, and merges
/// partial aggregates (scalar or grouped) in that order.
///
/// It is the driver's packer and merger: a step's part list is exactly what
/// this union packs from its parts, so the driver merges partial aggregates,
/// packs runs of small parts and answers a whole read with it, and a node
/// run in parts stays byte-identical to the same node run whole.
///
/// Stream parts (oid lists, join results) take a **zero-copy fast path**
/// when every part is the window immediately following its predecessor in
/// one shared backing — the common case when the parts of one stream are
/// packed: the union is then just the parent window (an `Arc` clone), no
/// packing. Heterogeneous parts fall back to packing, borrowing each part's
/// visible slice directly (one allocation total, no per-part intermediate
/// clones).
pub fn exchange_union(node: NodeId, inputs: &[Chunk]) -> Result<Chunk> {
    let first = inputs.first().ok_or(EngineError::Operator(OperatorError::EmptyInput("union")))?;
    match first {
        Chunk::Oids(_) => {
            let mut views = Vec::with_capacity(inputs.len());
            for chunk in inputs {
                views.push(as_oids(node, chunk)?);
            }
            // Parts must be packed in stream order: either every part is a
            // fresh stream (base 0 — the packed list is then itself a new
            // stream) or the parts are consecutive windows of one stream. An
            // out-of-order pack would mislabel positions — the silent
            // row-redistribution class the stream_base plumbing exists to
            // prevent — so it is asserted rather than silently accepted.
            debug_assert!(
                stream_order_check(&views, |v| (v.stream_base(), v.len())),
                "node {node}: exchange-union inputs are not in stream order"
            );
            let total: usize = views.iter().map(|v| v.len()).sum();
            if views.windows(2).all(|w| w[0].is_contiguous_with(w[1])) {
                // Consecutive windows of one backing: reassemble by widening
                // the first window over all of them — no copying.
                return Ok(Chunk::Oids(views[0].widened(total)));
            }
            let parts: Vec<&[Oid]> = views.iter().map(|v| v.as_slice()).collect();
            Ok(Chunk::oids_at(apq_operators::pack_oids(&parts), views[0].stream_base()))
        }
        Chunk::Column(first_col) => {
            let mut parts = Vec::with_capacity(inputs.len());
            for chunk in inputs {
                parts.push(as_column(node, chunk)?.clone());
            }
            // Base oids follow the same rule as stream bases: all 0 (fresh
            // intermediates) or consecutive windows of one row space.
            debug_assert!(
                stream_order_check(&parts.iter().collect::<Vec<_>>(), |c| (c.base_oid(), c.len())),
                "node {node}: exchange-union column inputs are not in stream order"
            );
            // Clones are packed in partition (mutation-sequence) order, so the
            // packed column's rows start at the first partition's base oid.
            Ok(Chunk::Column(
                apq_operators::pack_columns(&parts)?.with_base_oid(first_col.base_oid()),
            ))
        }
        Chunk::Join(_) => {
            let mut views = Vec::with_capacity(inputs.len());
            for chunk in inputs {
                views.push(as_join(node, chunk)?);
            }
            debug_assert!(
                stream_order_check(&views, |v| (v.stream_base(), v.len())),
                "node {node}: exchange-union join inputs are not in stream order"
            );
            let total: usize = views.iter().map(|v| v.len()).sum();
            if views.windows(2).all(|w| w[0].is_contiguous_with(w[1])) {
                return Ok(Chunk::Join(views[0].widened(total)));
            }
            let parts: Vec<(&[Oid], &[Oid])> =
                views.iter().map(|v| (v.outer(), v.inner())).collect();
            Ok(Chunk::join_at(JoinResult::concat_parts(&parts), views[0].stream_base()))
        }
        Chunk::AggPartial(first_state) => {
            Ok(Chunk::AggPartial(merge_agg_partials(node, first_state.func(), inputs)?))
        }
        Chunk::Grouped(_) => {
            let parts = inputs
                .iter()
                .map(|chunk| match chunk {
                    Chunk::Grouped(g) => Ok(&**g),
                    other => Err(input_error(node, "grouped", other)),
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(Chunk::Grouped(Arc::new(merge_grouped(parts)?)))
        }
        other => Err(input_error(node, "packable chunk", other)),
    }
}

/// Merges partial scalar aggregates of `func` in argument order: the
/// exchange union's merge, and `FinalizeAgg`'s over its one partial.
fn merge_agg_partials(node: NodeId, func: AggFunc, inputs: &[Chunk]) -> Result<AggState> {
    let mut state = AggState::new(func);
    for chunk in inputs {
        match chunk {
            Chunk::AggPartial(p) => state.merge(p)?,
            other => return Err(input_error(node, "agg-partial", other)),
        }
    }
    Ok(state)
}

/// Scalar-scalar arithmetic for final result expressions.
fn calc_scalars(op: BinaryOp, a: &ScalarValue, b: &ScalarValue) -> Result<ScalarValue> {
    let float =
        matches!(a, ScalarValue::F64(_)) || matches!(b, ScalarValue::F64(_)) || op == BinaryOp::Div;
    if float {
        let (x, y) = match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => (x, y),
            _ => {
                return Err(EngineError::Operator(OperatorError::InvalidCalc(format!(
                    "cannot apply {} to {a} and {b}",
                    op.symbol()
                ))))
            }
        };
        let v = match op {
            BinaryOp::Add => x + y,
            BinaryOp::Sub => x - y,
            BinaryOp::Mul => x * y,
            BinaryOp::Div => {
                if y == 0.0 {
                    return Err(EngineError::Operator(OperatorError::DivisionByZero));
                }
                x / y
            }
        };
        Ok(ScalarValue::F64(v))
    } else {
        let (x, y) = match (a.as_i64(), b.as_i64()) {
            (Some(x), Some(y)) => (x, y),
            _ => {
                return Err(EngineError::Operator(OperatorError::InvalidCalc(format!(
                    "cannot apply {} to {a} and {b}",
                    op.symbol()
                ))))
            }
        };
        let v = match op {
            BinaryOp::Add => x.wrapping_add(y),
            BinaryOp::Sub => x.wrapping_sub(y),
            BinaryOp::Mul => x.wrapping_mul(y),
            BinaryOp::Div => unreachable!("division handled in the float branch"),
        };
        Ok(ScalarValue::I64(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinSide;
    use apq_columnar::TableBuilder;
    use apq_operators::{AggFunc, CmpOp, Predicate};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("t")
                .i64_column("a", (0..100).collect())
                .i64_column("b", (0..100).map(|v| v * 10).collect())
                .str_column(
                    "s",
                    (0..100).map(|v| if v % 2 == 0 { "even" } else { "odd" }).collect(),
                )
                .build()
                .unwrap(),
        );
        c
    }

    fn scan(column: &str) -> OperatorSpec {
        OperatorSpec::ScanColumn { table: "t".into(), column: column.into() }
    }

    #[test]
    fn scan_select_fetch_pipeline() {
        let cat = catalog();
        let col = execute_node(0, &scan("a"), &[], &cat).unwrap();
        assert_eq!(col.rows(), 100);
        let oids = execute_node(
            1,
            &OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) },
            std::slice::from_ref(&col),
            &cat,
        )
        .unwrap();
        assert_eq!(oids.rows(), 5);
        let b = execute_node(2, &scan("b"), &[], &cat).unwrap();
        let fetched = execute_node(3, &OperatorSpec::Fetch, &[oids, b], &cat).unwrap();
        match &fetched {
            Chunk::Column(c) => assert_eq!(c.i64_values().unwrap(), &[0, 10, 20, 30, 40]),
            other => panic!("unexpected chunk {other:?}"),
        }
    }

    #[test]
    fn scan_of_a_missing_table_fails() {
        let cat = catalog();
        let missing = execute_node(
            0,
            &OperatorSpec::ScanColumn { table: "nope".into(), column: "a".into() },
            &[],
            &cat,
        );
        assert!(missing.is_err());
    }

    #[test]
    fn select_with_candidates_and_union() {
        let cat = catalog();
        let col = execute_node(0, &scan("a"), &[], &cat).unwrap();
        let cands = Chunk::oids(vec![1, 3, 50, 99]);
        let sel = OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Ge, 50i64) };
        let out = execute_node(1, &sel, &[col, cands], &cat).unwrap();
        match &out {
            Chunk::Oids(view) => assert_eq!(view.as_slice(), &[50, 99]),
            other => panic!("unexpected {other:?}"),
        }
        let packed = exchange_union(2, &[Chunk::oids(vec![1, 2]), out]).unwrap();
        assert_eq!(packed.rows(), 4);
    }

    #[test]
    fn hash_join_and_projection() {
        let cat = catalog();
        let inner = Chunk::Column(Column::from_i64(vec![2, 4, 6]));
        let hash = execute_node(0, &OperatorSpec::HashBuild, &[inner], &cat).unwrap();
        let outer = Chunk::Column(Column::from_i64(vec![1, 2, 4, 4]));
        let join = execute_node(1, &OperatorSpec::HashProbe, &[outer.clone(), hash.clone()], &cat)
            .unwrap();
        assert_eq!(join.rows(), 3);
        let outer_side = execute_node(
            2,
            &OperatorSpec::ProjectJoinSide { side: JoinSide::Outer },
            std::slice::from_ref(&join),
            &cat,
        )
        .unwrap();
        assert_eq!(outer_side.to_output(), crate::chunk::QueryOutput::Oids(vec![1, 2, 3]));
        let inner_side = execute_node(
            3,
            &OperatorSpec::ProjectJoinSide { side: JoinSide::Inner },
            &[join],
            &cat,
        )
        .unwrap();
        assert_eq!(inner_side.to_output(), crate::chunk::QueryOutput::Oids(vec![0, 1, 1]));

        let semi =
            execute_node(4, &OperatorSpec::SemiJoin, &[outer.clone(), hash.clone()], &cat).unwrap();
        assert_eq!(semi.to_output(), crate::chunk::QueryOutput::Oids(vec![1, 2, 3]));
        let anti = execute_node(5, &OperatorSpec::AntiJoin, &[outer, hash], &cat).unwrap();
        assert_eq!(anti.to_output(), crate::chunk::QueryOutput::Oids(vec![0]));
    }

    #[test]
    fn a_key_set_feeds_semi_and_anti_joins() {
        let cat = catalog();
        let inner = Chunk::Column(Column::from_i64(vec![2, 4, 6]));
        let set = execute_node(0, &OperatorSpec::KeySet, &[inner], &cat).unwrap();
        match &set {
            Chunk::Hash(table) => assert_eq!(table.directory(), "bits"),
            other => panic!("unexpected {other:?}"),
        }
        let outer = Chunk::Column(Column::from_i64(vec![1, 2, 4, 4]));
        let semi =
            execute_node(1, &OperatorSpec::SemiJoin, &[outer.clone(), set.clone()], &cat).unwrap();
        assert_eq!(semi.to_output(), crate::chunk::QueryOutput::Oids(vec![1, 2, 3]));
        let anti =
            execute_node(2, &OperatorSpec::AntiJoin, &[outer.clone(), set.clone()], &cat).unwrap();
        assert_eq!(anti.to_output(), crate::chunk::QueryOutput::Oids(vec![0]));
        // Executed anyway, a probe over it fails rather than pairing.
        let err = execute_node(3, &OperatorSpec::HashProbe, &[outer, set], &cat).unwrap_err();
        assert_eq!(err, EngineError::Operator(OperatorError::KeySetHasNoPairs));
    }

    #[test]
    fn oids_from_column_refuses_negative_values() {
        let cat = catalog();
        let spec = OperatorSpec::OidsFromColumn;
        let fine = Chunk::Column(Column::from_i32(vec![3, 0, 7]).with_base_oid(5));
        let oids = execute_node(1, &spec, &[fine], &cat).unwrap();
        assert_eq!(oids.to_output(), crate::chunk::QueryOutput::Oids(vec![3, 0, 7]));
        for (column, value) in [
            (Column::from_i64(vec![4, -1, -9]), -1i64),
            (Column::from_i32(vec![i32::MIN, 2]), i32::MIN as i64),
        ] {
            let err = execute_node(11, &spec, &[Chunk::Column(column)], &cat).unwrap_err();
            assert_eq!(
                err.to_string(),
                EngineError::InvalidPlan(format!(
                    "node 11: the negative value {value} is not an oid"
                ))
                .to_string()
            );
        }
    }

    #[test]
    fn calc_mask_ifthenelse() {
        let cat = catalog();
        let prices = Chunk::Column(Column::from_i64(vec![100, 200, 300]));
        let discounts = Chunk::Column(Column::from_i64(vec![10, 20, 30]));
        let one_minus = execute_node(
            0,
            &OperatorSpec::Calc {
                op: BinaryOp::Sub,
                left_scalar: Some(ScalarValue::I64(100)),
                right_scalar: None,
            },
            &[discounts],
            &cat,
        )
        .unwrap();
        let raw = execute_node(
            1,
            &OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None },
            &[prices, one_minus],
            &cat,
        )
        .unwrap();
        let rev = execute_node(
            2,
            &OperatorSpec::Calc {
                op: BinaryOp::Div,
                left_scalar: None,
                right_scalar: Some(ScalarValue::I64(100)),
            },
            &[raw],
            &cat,
        )
        .unwrap();
        match &rev {
            Chunk::Column(c) => assert_eq!(c.i64_values().unwrap(), &[90, 160, 210]),
            other => panic!("unexpected {other:?}"),
        }

        // The first three rows of `s`, as the first part of a cut reads them.
        let s = execute_node(3, &scan("s"), &[], &cat).unwrap().slice(0, 3).expect("in bounds");
        let mask = execute_node(
            4,
            &OperatorSpec::PredMask { predicate: Predicate::cmp(CmpOp::Eq, "even") },
            &[s],
            &cat,
        )
        .unwrap();
        let guarded = execute_node(
            5,
            &OperatorSpec::IfThenElse { otherwise: ScalarValue::I64(0) },
            &[mask, rev],
            &cat,
        )
        .unwrap();
        match &guarded {
            Chunk::Column(c) => assert_eq!(c.i64_values().unwrap(), &[90, 0, 210]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn integer_division_overflow_fails_the_node_with_invalid_calc() {
        let cat = catalog();
        let min = Chunk::Column(Column::from_i64(vec![1, i64::MIN]));
        let minus_one = Chunk::Column(Column::from_i64(vec![1, -1]));
        let div = |left_scalar, right_scalar| OperatorSpec::Calc {
            op: BinaryOp::Div,
            left_scalar,
            right_scalar,
        };
        for (spec, inputs) in [
            (div(None, None), vec![min.clone(), minus_one.clone()]),
            (div(None, Some(ScalarValue::I64(-1))), vec![min]),
            (div(Some(ScalarValue::I64(i64::MIN)), None), vec![minus_one]),
        ] {
            let err = execute_node(9, &spec, &inputs, &cat).unwrap_err();
            assert!(
                matches!(&err, EngineError::Operator(OperatorError::InvalidCalc(m)) if m.contains("overflow")),
                "{err}"
            );
        }
    }

    #[test]
    fn aggregates_and_scalars() {
        let cat = catalog();
        let col = Chunk::Column(Column::from_i64(vec![1, 2, 3, 4]));
        let partial = execute_node(
            0,
            &OperatorSpec::ScalarAgg { func: AggFunc::Sum },
            std::slice::from_ref(&col),
            &cat,
        )
        .unwrap();
        let partial2 =
            execute_node(1, &OperatorSpec::ScalarAgg { func: AggFunc::Sum }, &[col], &cat).unwrap();
        let merged = exchange_union(2, &[partial, partial2]).unwrap();
        let total =
            execute_node(2, &OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, &[merged], &cat)
                .unwrap();
        assert_eq!(total.to_output(), crate::chunk::QueryOutput::Scalar(ScalarValue::I64(20)));

        let keys = Chunk::Column(Column::from_strings(["a", "b", "a"]));
        let vals = Chunk::Column(Column::from_i64(vec![1, 2, 3]));
        let grouped =
            execute_node(3, &OperatorSpec::GroupAgg { func: AggFunc::Sum }, &[keys, vals], &cat)
                .unwrap();
        let merged = exchange_union(4, &[grouped.clone(), grouped]).unwrap();
        match merged.to_output() {
            crate::chunk::QueryOutput::Groups(g) => {
                assert_eq!(g.len(), 2);
                assert_eq!(g[0].1, ScalarValue::I64(8));
            }
            other => panic!("unexpected {other:?}"),
        }

        let ratio = execute_node(
            5,
            &OperatorSpec::CalcScalars { op: BinaryOp::Div },
            &[Chunk::Scalar(ScalarValue::I64(50)), Chunk::Scalar(ScalarValue::I64(200))],
            &cat,
        )
        .unwrap();
        assert_eq!(ratio.to_output(), crate::chunk::QueryOutput::Scalar(ScalarValue::F64(0.25)));
        let sum = execute_node(
            6,
            &OperatorSpec::CalcScalars { op: BinaryOp::Add },
            &[Chunk::Scalar(ScalarValue::I64(1)), Chunk::Scalar(ScalarValue::I64(2))],
            &cat,
        )
        .unwrap();
        assert_eq!(sum.to_output(), crate::chunk::QueryOutput::Scalar(ScalarValue::I64(3)));
    }

    #[test]
    fn type_errors_are_reported_with_node_ids() {
        let cat = catalog();
        let scalar = Chunk::Scalar(ScalarValue::I64(1));
        let err = execute_node(
            42,
            &OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 1i64) },
            std::slice::from_ref(&scalar),
            &cat,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::InvalidInput { node: 42, .. }));
        let err = exchange_union(7, &[scalar]).unwrap_err();
        assert!(matches!(err, EngineError::InvalidInput { node: 7, .. }));
        let err = exchange_union(8, &[]).unwrap_err();
        assert!(matches!(err, EngineError::Operator(_)));
    }
}
