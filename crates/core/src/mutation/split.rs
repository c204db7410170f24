//! Helpers shared by the mutation schemes: edge windows and lengths.
//!
//! Adaptive parallelization partitions "the base or the intermediate column"
//! (paper §2.3), and both the same way: a partition is a row window on the
//! plan edge that reads the column, "marking the boundary ranges … there is
//! no data copying involved". The producer stays in the plan whole — a scan
//! publishes its whole column, an intermediate its node's output — and the
//! executor cuts that output to each edge's window. An edge without a window
//! covers its producer's output: the row count the profiler observed in the
//! previous run.

use apq_columnar::partition::RowRange;
use apq_engine::plan::{Edge, NodeId, Plan};
use apq_engine::QueryProfile;

use crate::error::{CoreError, Result};

/// Number of rows node `id` produced in the previous run, as its profile
/// records it (a scan's is its column's length).
pub fn output_len(plan: &Plan, profile: &QueryProfile, id: NodeId) -> Option<usize> {
    profile.operator(id).filter(|_| plan.contains(id)).map(|p| p.rows_out)
}

/// The rows an edge reads, as a window on its producer's output: the edge's
/// own window, or all of [`output_len`] when it has none.
pub fn edge_window(plan: &Plan, profile: &QueryProfile, (input, window): Edge) -> Option<RowRange> {
    window.or_else(|| output_len(plan, profile, input).map(|len| RowRange::new(0, len)))
}

/// The aligned (range-partitionable) input edges of a node, deduplicated, in
/// input order.
pub fn aligned_inputs(plan: &Plan, id: NodeId) -> Result<Vec<Edge>> {
    let node = plan.node(id).map_err(CoreError::from)?;
    let flags = node.spec.aligned_inputs(node.inputs.len());
    let mut out = Vec::new();
    for (edge, aligned) in node.edges().zip(flags) {
        if aligned && !out.contains(&edge) {
            out.push(edge);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::partition::RowRange;
    use apq_engine::plan::OperatorSpec;
    use apq_engine::profiler::OperatorProfile;
    use apq_operators::{AggFunc, CmpOp, Predicate};
    use std::time::Duration;

    fn scan() -> OperatorSpec {
        OperatorSpec::ScanColumn { table: "t".into(), column: "a".into() }
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
    fn output_len_is_the_profiled_row_count() {
        let mut p = Plan::new();
        let s = p.add(scan(), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![s]);
        p.set_root(sel);
        let prof = profile_with(&[(s, 100), (sel, 37)]);
        assert_eq!(output_len(&p, &prof, s), Some(100));
        assert_eq!(output_len(&p, &prof, sel), Some(37));
        assert_eq!(output_len(&p, &prof, 99), None);
        // An edge reads its window, or all of its producer's output.
        assert_eq!(edge_window(&p, &prof, (s, None)), Some(RowRange::new(0, 100)));
        assert_eq!(edge_window(&p, &prof, (sel, None)), Some(RowRange::new(0, 37)));
        let window = Some(RowRange::new(10, 50));
        assert_eq!(edge_window(&p, &prof, (sel, window)), window);
        assert_eq!(edge_window(&p, &profile_with(&[]), (sel, None)), None);
    }

    #[test]
    fn aligned_inputs_respect_operator_metadata() {
        let mut p = Plan::new();
        let a = p.add(scan(), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        let b = p.add(scan(), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        p.set_root(agg);
        // Fetch: the oid list is aligned, the fetched column is broadcast.
        assert_eq!(aligned_inputs(&p, fetch).unwrap(), vec![(sel, None)]);
        assert_eq!(aligned_inputs(&p, sel).unwrap(), vec![(a, None)]);
        assert_eq!(aligned_inputs(&p, agg).unwrap(), vec![(fetch, None)]);
        // Calc with the same edge on both sides deduplicates; the same
        // producer through two different windows is two edges.
        let mul = OperatorSpec::Calc {
            op: apq_operators::BinaryOp::Mul,
            left_scalar: None,
            right_scalar: None,
        };
        let calc = p.add(mul.clone(), vec![fetch, fetch]);
        assert_eq!(aligned_inputs(&p, calc).unwrap(), vec![(fetch, None)]);
        let (head, tail) = (Some(RowRange::new(0, 5)), Some(RowRange::new(5, 10)));
        let zipped = p.add_edges(mul, [(fetch, head), (fetch, tail)]);
        assert_eq!(aligned_inputs(&p, zipped).unwrap(), vec![(fetch, head), (fetch, tail)]);
    }
}
