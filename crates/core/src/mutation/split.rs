//! Helpers shared by the mutation schemes: input splitting, length lookup,
//! clone recombination, orphan cleanup.
//!
//! Adaptive parallelization partitions "the base or the intermediate column"
//! (paper §2.3). Base columns are partitioned by splitting the `ScanColumn`
//! range (keeping the boundaries aligned on the base column, Fig. 8);
//! intermediates are partitioned positionally with `SlicePart` nodes, using
//! the row counts observed by the profiler in the previous run.

use apq_engine::plan::{NodeId, OperatorSpec, Plan};
use apq_engine::QueryProfile;

use crate::error::{CoreError, Result};

/// Number of rows node `id` produces: statically known for scans and slices,
/// otherwise taken from the previous run's profile.
pub fn output_len(plan: &Plan, profile: &QueryProfile, id: NodeId) -> Option<usize> {
    match &plan.node(id).ok()?.spec {
        OperatorSpec::ScanColumn { range, .. } => Some(range.len()),
        OperatorSpec::SlicePart { len, .. } => Some(*len),
        _ => profile.operator(id).map(|p| p.rows_out),
    }
}

/// The aligned (range-partitionable) inputs of a node, deduplicated, in input order.
pub fn aligned_inputs(plan: &Plan, id: NodeId) -> Result<Vec<NodeId>> {
    let node = plan.node(id).map_err(CoreError::from)?;
    let flags = node.spec.aligned_inputs(node.inputs.len());
    let mut out = Vec::new();
    for (input, aligned) in node.inputs.iter().zip(flags) {
        if aligned && !out.contains(input) {
            out.push(*input);
        }
    }
    Ok(out)
}

/// True when every aligned input of `id` covers at least `2 × min_rows` rows,
/// i.e. splitting it would not create partitions below the minimum size.
pub fn can_split(plan: &Plan, profile: &QueryProfile, id: NodeId, min_rows: usize) -> bool {
    match aligned_inputs(plan, id) {
        Ok(inputs) if !inputs.is_empty() => inputs.iter().all(|&input| {
            output_len(plan, profile, input).is_some_and(|len| len >= 2 * min_rows.max(1))
        }),
        _ => false,
    }
}

/// Splits the output of `input` in two halves, returning the node ids that
/// produce the first and second half.
///
/// * `ScanColumn` ranges are split at their midpoint — the new boundaries stay
///   aligned to the base column.
/// * `SlicePart` windows are split into two windows over the same producer.
/// * Any other node is split positionally by inserting two `SlicePart` nodes
///   over it, sized from the profiled row count.
pub fn split_input(
    plan: &mut Plan,
    profile: &QueryProfile,
    input: NodeId,
) -> Result<(NodeId, NodeId)> {
    let spec = plan.node(input).map_err(CoreError::from)?.spec.clone();
    match spec {
        OperatorSpec::ScanColumn { table, column, range } => {
            if range.len() < 2 {
                return Err(CoreError::Mutation(format!(
                    "scan over [{}, {}) is too small to split",
                    range.start, range.end
                )));
            }
            let halves = range.split_even(2);
            let (a, b) = (halves[0], halves[1]);
            let first = plan.add(
                OperatorSpec::ScanColumn { table: table.clone(), column: column.clone(), range: a },
                vec![],
            );
            let second = plan.add(OperatorSpec::ScanColumn { table, column, range: b }, vec![]);
            Ok((first, second))
        }
        OperatorSpec::SlicePart { start, len } => {
            if len < 2 {
                return Err(CoreError::Mutation(format!(
                    "slice of {len} rows is too small to split"
                )));
            }
            let producer = plan.node(input).map_err(CoreError::from)?.inputs[0];
            let half = len.div_ceil(2);
            let first = plan.add(OperatorSpec::SlicePart { start, len: half }, vec![producer]);
            let second = plan.add(
                OperatorSpec::SlicePart { start: start + half, len: len - half },
                vec![producer],
            );
            Ok((first, second))
        }
        _ => {
            let len = output_len(plan, profile, input).ok_or_else(|| {
                CoreError::Mutation(format!(
                    "no profiled row count for intermediate node {input}; cannot partition it"
                ))
            })?;
            if len < 2 {
                return Err(CoreError::Mutation(format!(
                    "intermediate of {len} rows is too small to split"
                )));
            }
            let half = len.div_ceil(2);
            let first = plan.add(OperatorSpec::SlicePart { start: 0, len: half }, vec![input]);
            let second =
                plan.add(OperatorSpec::SlicePart { start: half, len: len - half }, vec![input]);
            Ok((first, second))
        }
    }
}

/// Puts `clones` in the place of `target` and returns the node combining
/// them: `target`'s sole consumer absorbs them in `target`'s input position
/// when it is a combiner (an exchange union or `FinalizeAgg`), or else a new
/// exchange union over them takes `target`'s place, as the root too.
pub(crate) fn combine_clones(plan: &mut Plan, target: NodeId, clones: &[NodeId]) -> Result<NodeId> {
    let consumers = plan.consumers(target);
    if let [consumer] = consumers[..] {
        if plan.node(consumer).map_err(CoreError::from)?.spec.is_combiner() {
            plan.splice_input(consumer, target, clones).map_err(CoreError::from)?;
            return Ok(consumer);
        }
    }
    let union = plan.add(OperatorSpec::ExchangeUnion, clones.to_vec());
    for consumer in consumers {
        plan.replace_input(consumer, target, union).map_err(CoreError::from)?;
    }
    if plan.root() == Some(target) {
        plan.set_root(union);
    }
    Ok(union)
}

/// Removes `id` if nothing consumes it any more and it is not the plan root.
/// Returns true when the node was removed.
pub fn remove_if_orphan(plan: &mut Plan, id: NodeId) -> bool {
    if plan.contains(id) && plan.root() != Some(id) && plan.consumers(id).is_empty() {
        plan.remove(id).expect("checked live");
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::partition::RowRange;
    use apq_engine::profiler::OperatorProfile;
    use apq_operators::{AggFunc, CmpOp, Predicate};
    use std::time::Duration;

    fn scan(rows: usize) -> OperatorSpec {
        OperatorSpec::ScanColumn {
            table: "t".into(),
            column: "a".into(),
            range: RowRange::new(0, rows),
        }
    }

    fn profile_with(rows: &[(NodeId, usize)]) -> QueryProfile {
        QueryProfile {
            wall_time: Duration::from_micros(100),
            n_workers: 2,
            pipelines: vec![],
            dop_timeline: vec![],
            operators: rows
                .iter()
                .map(|&(node, rows_out)| OperatorProfile {
                    node,
                    name: "select",
                    start_us: 0,
                    duration_us: 10,
                    queue_wait_us: 0,
                    worker: 0,
                    rows_out,
                    bytes_out: rows_out * 8,
                })
                .collect(),
        }
    }

    #[test]
    fn output_len_prefers_static_info() {
        let mut p = Plan::new();
        let s = p.add(scan(100), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![s]);
        let slice = p.add(OperatorSpec::SlicePart { start: 10, len: 40 }, vec![sel]);
        p.set_root(slice);
        let prof = profile_with(&[(sel, 37)]);
        assert_eq!(output_len(&p, &prof, s), Some(100));
        assert_eq!(output_len(&p, &prof, sel), Some(37));
        assert_eq!(output_len(&p, &prof, slice), Some(40));
        assert_eq!(output_len(&p, &prof, 99), None);
    }

    #[test]
    fn aligned_inputs_respect_operator_metadata() {
        let mut p = Plan::new();
        let a = p.add(scan(100), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        let b = p.add(scan(100), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        p.set_root(agg);
        // Fetch: the oid list is aligned, the fetched column is broadcast.
        assert_eq!(aligned_inputs(&p, fetch).unwrap(), vec![sel]);
        assert_eq!(aligned_inputs(&p, sel).unwrap(), vec![a]);
        assert_eq!(aligned_inputs(&p, agg).unwrap(), vec![fetch]);
        // Calc with the same node on both sides deduplicates.
        let calc = p.add(
            OperatorSpec::Calc {
                op: apq_operators::BinaryOp::Mul,
                left_scalar: None,
                right_scalar: None,
            },
            vec![fetch, fetch],
        );
        assert_eq!(aligned_inputs(&p, calc).unwrap(), vec![fetch]);
    }

    #[test]
    fn can_split_honours_minimum_partition_size() {
        let mut p = Plan::new();
        let a = p.add(scan(100), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        p.set_root(sel);
        let prof = profile_with(&[(sel, 50)]);
        assert!(can_split(&p, &prof, sel, 50));
        assert!(!can_split(&p, &prof, sel, 51));
        // Scans have no aligned inputs at all.
        assert!(!can_split(&p, &prof, a, 1));
    }

    #[test]
    fn splitting_scans_slices_and_intermediates() {
        let mut p = Plan::new();
        let a = p.add(scan(101), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        p.set_root(sel);
        let prof = profile_with(&[(sel, 33)]);

        // Scan split: ranges [0,51) and [51,101).
        let (s1, s2) = split_input(&mut p, &prof, a).unwrap();
        match (&p.node(s1).unwrap().spec, &p.node(s2).unwrap().spec) {
            (
                OperatorSpec::ScanColumn { range: r1, .. },
                OperatorSpec::ScanColumn { range: r2, .. },
            ) => {
                assert_eq!((r1.start, r1.end), (0, 51));
                assert_eq!((r2.start, r2.end), (51, 101));
            }
            other => panic!("unexpected specs {other:?}"),
        }

        // Intermediate split: SlicePart [0,17) and [17,33) over the select.
        let (i1, i2) = split_input(&mut p, &prof, sel).unwrap();
        match (&p.node(i1).unwrap().spec, &p.node(i2).unwrap().spec) {
            (
                OperatorSpec::SlicePart { start: 0, len: 17 },
                OperatorSpec::SlicePart { start: 17, len: 16 },
            ) => {}
            other => panic!("unexpected specs {other:?}"),
        }
        assert_eq!(p.node(i1).unwrap().inputs, vec![sel]);

        // Slice split: halves of an existing window, same producer.
        let (j1, j2) = split_input(&mut p, &prof, i1).unwrap();
        match (&p.node(j1).unwrap().spec, &p.node(j2).unwrap().spec) {
            (
                OperatorSpec::SlicePart { start: 0, len: 9 },
                OperatorSpec::SlicePart { start: 9, len: 8 },
            ) => {}
            other => panic!("unexpected specs {other:?}"),
        }
        assert_eq!(p.node(j1).unwrap().inputs, vec![sel]);
    }

    #[test]
    fn splitting_degenerate_inputs_fails() {
        let mut p = Plan::new();
        let tiny = p.add(scan(1), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![tiny]);
        p.set_root(sel);
        let prof = profile_with(&[(sel, 1)]);
        assert!(split_input(&mut p, &prof, tiny).is_err());
        assert!(split_input(&mut p, &prof, sel).is_err());
        // Unprofiled intermediate cannot be split either.
        let prof_empty = profile_with(&[]);
        assert!(split_input(&mut p, &prof_empty, sel).is_err());
    }

    #[test]
    fn orphan_removal() {
        let mut p = Plan::new();
        let a = p.add(scan(10), vec![]);
        let b = p.add(scan(10), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        p.set_root(sel);
        assert!(!remove_if_orphan(&mut p, a)); // still consumed
        assert!(!remove_if_orphan(&mut p, sel)); // root
        assert!(remove_if_orphan(&mut p, b)); // dead leaf
        assert!(!p.contains(b));
        assert!(!remove_if_orphan(&mut p, b)); // already gone
    }
}
