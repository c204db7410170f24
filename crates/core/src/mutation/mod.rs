//! Plan mutation: morphing a plan into a faster one by parallelizing its
//! most expensive operator (paper §2.1).
//!
//! The paper clones an operator over two partitions and recombines the
//! clones with an exchange union, and removes a union that turns out
//! expensive by propagating its inputs onto its consumer. Here a partition
//! is a part of a node's cuts ([`apq_engine::plan::Cuts`]): the driver runs one task per part
//! and a reader that needs the node's output whole packs the parts — the
//! union's work — in its own time. So each scheme is a statement about cuts,
//! and none adds or removes a node:
//!
//! * **Basic** ([`basic::cut_dearest_part`]) — the node gets a new cut that
//!   halves its dearest part: the paper's two clones over the split
//!   partition.
//! * **Advanced** (same entry point) — the same for a non-filtering operator
//!   (grouped or scalar aggregation), whose parts' partials merge as they
//!   are published.
//! * **Medium** ([`medium::adopt_stream`]) — a node that reads a multi-part
//!   stream whole, packing it as the paper's expensive union did, adopts its
//!   stream's parts instead: the union's inputs propagate onto its consumer.
//!
//! [`mutate_most_expensive`] is the driver used by the optimizer: it ranks
//! the operators of the previous run by their dearest part (the "most
//! expensive operator" heuristic, paper §2.1, at the grain a mutation acts
//! on) and mutates the first operator a mutation fits.

pub mod basic;
pub mod medium;

use apq_engine::plan::{NodeId, Plan};
use apq_engine::QueryProfile;

use crate::config::AdaptiveConfig;
use crate::error::Result;

pub use basic::cut_dearest_part;
pub use medium::adopt_stream;

/// Which mutation scheme was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// A new cut in a filtering or pipeline operator's dearest part.
    Basic,
    /// A node that packed its multi-part stream adopts its parts.
    Medium,
    /// A new cut in an aggregation's dearest part; its partials merge.
    Advanced,
}

impl std::fmt::Display for MutationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MutationKind::Basic => "basic",
            MutationKind::Medium => "medium",
            MutationKind::Advanced => "advanced",
        };
        f.write_str(s)
    }
}

/// Description of one applied mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationOutcome {
    /// Which scheme was applied.
    pub kind: MutationKind,
    /// The node whose cuts changed.
    pub target: NodeId,
}

/// Mutates `plan` by parallelizing the most expensive operator observed in
/// `profile`: the operators still in the plan are tried by the time of
/// their dearest part ([`apq_engine::OperatorProfile::tasks`]), descending,
/// ties by ascending node id, and the first one a mutation applies to is
/// mutated — by [`adopt_stream`] when it reads a multi-part stream whole,
/// else by [`cut_dearest_part`]. Returns `Ok(None)` when no operator can be
/// parallelized any further — the plan has reached its maximal useful
/// degree of parallelism.
pub fn mutate_most_expensive(
    plan: &mut Plan,
    profile: &QueryProfile,
    config: &AdaptiveConfig,
) -> Result<Option<MutationOutcome>> {
    let dearest = |op: &&apq_engine::OperatorProfile| op.tasks.iter().map(|t| t.us).max();
    let mut ops: Vec<_> = profile.operators.iter().filter(|op| plan.contains(op.node)).collect();
    ops.sort_by(|a, b| dearest(b).cmp(&dearest(a)).then(a.node.cmp(&b.node)));
    for op in ops {
        let outcome = match adopt_stream(plan, op.node)? {
            Some(outcome) => Some(outcome),
            None => cut_dearest_part(plan, op, config)?,
        };
        if outcome.is_some() {
            return Ok(outcome);
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::partition::RowRange;
    use apq_columnar::ScalarValue;
    use apq_engine::plan::{Cuts, OperatorSpec};
    use apq_engine::profiler::{OperatorProfile, TaskRecord};
    use apq_operators::{AggFunc, BinaryOp, CmpOp, Predicate};
    use std::time::Duration;

    fn scan(column: &str) -> OperatorSpec {
        OperatorSpec::ScanColumn { table: "t".into(), column: column.into() }
    }

    /// sum(b) where a < 10: scans 0 and 2, select 1, fetch 3, sum 4,
    /// finalize 5.
    fn plan_filter_sum() -> Plan {
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 10i64) }, vec![a]);
        let b = p.add(scan("b"), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        p
    }

    /// A task's `(start, end, µs)`.
    type Task = (usize, usize, u64);

    /// A profile whose node `n` ran the tasks of `parts`.
    fn profile(parts: &[(NodeId, &[Task])]) -> QueryProfile {
        QueryProfile {
            wall_time: Duration::from_micros(1000),
            n_workers: 4,
            dop_timeline: vec![],
            operators: parts
                .iter()
                .map(|&(node, tasks)| OperatorProfile {
                    node,
                    name: "op",
                    start_us: 0,
                    end_us: 0,
                    duration_us: tasks.iter().map(|t| t.2).sum(),
                    queue_wait_us: 0,
                    worker: 0,
                    rows_out: 0,
                    tasks: tasks
                        .iter()
                        .map(|&(s, e, us)| TaskRecord {
                            range: RowRange::new(s, e),
                            start_us: 0,
                            us,
                            worker: 0,
                        })
                        .collect(),
                    step: None,
                })
                .collect(),
        }
    }

    fn mutate(p: &mut Plan, prof: &QueryProfile, min_rows: usize) -> Option<MutationOutcome> {
        let cfg = AdaptiveConfig::for_cores(4).with_min_partition_rows(min_rows);
        mutate_most_expensive(p, prof, &cfg).unwrap()
    }

    fn cuts(p: &Plan, node: NodeId) -> Cuts {
        p.node(node).unwrap().cuts.clone()
    }

    #[test]
    fn a_basic_mutation_halves_the_dearest_part_of_the_dearest_node() {
        let mut p = plan_filter_sum();
        let serial = p.clone();
        let prof =
            profile(&[(0, &[(0, 1_001, 5_000)]), (1, &[(0, 1_001, 900)]), (3, &[(0, 40, 100)])]);
        // The scan costs most but cannot run in parts; the select can.
        let outcome = mutate(&mut p, &prof, 16).unwrap();
        assert_eq!((outcome.kind, outcome.target), (MutationKind::Basic, 1));
        // The left half takes the odd row.
        assert_eq!(cuts(&p, 1), Cuts::At(vec![501]));
        p.validate().unwrap();
        assert_eq!((p.node_count(), p.count_of("select")), (serial.node_count(), 2));

        // The next cut halves the dearer part and keeps the other cut.
        let prof = profile(&[(1, &[(0, 501, 100), (501, 1_001, 300)])]);
        mutate(&mut p, &prof, 16).unwrap();
        assert_eq!(cuts(&p, 1), Cuts::At(vec![501, 751]));
    }

    #[test]
    fn nodes_rank_by_their_dearest_part_not_their_total() {
        let mut p = plan_filter_sum();
        p.node_mut(1).unwrap().cuts = Cuts::At(vec![500]);
        // The select's total (800 µs) exceeds the fetch's, but its dearest
        // part (400 µs) does not; equal parts go to the lower id.
        let prof = profile(&[(1, &[(0, 500, 400), (500, 1_000, 400)]), (4, &[(0, 600, 500)])]);
        assert_eq!(mutate(&mut p.clone(), &prof, 16).unwrap().target, 4);
        let tie = profile(&[(1, &[(0, 500, 400), (500, 1_000, 500)]), (4, &[(0, 600, 500)])]);
        assert_eq!(mutate(&mut p, &tie, 16).unwrap().target, 1);
    }

    #[test]
    fn a_node_reading_a_multi_part_stream_whole_adopts_it() {
        let mut p = plan_filter_sum();
        p.node_mut(1).unwrap().cuts = Cuts::At(vec![500]);
        let prof = profile(&[(1, &[(0, 500, 10), (500, 1_000, 10)]), (3, &[(0, 40, 900)])]);
        let outcome = mutate(&mut p, &prof, 1).unwrap();
        assert_eq!((outcome.kind, outcome.target), (MutationKind::Medium, 3));
        assert_eq!((cuts(&p, 3), p.parts(3), p.count_of("fetch")), (Cuts::Adopt, 2, 2));
        // Adopted again downstream; a finalize never runs in parts.
        let prof = profile(&[(4, &[(0, 30, 10), (30, 40, 900)]), (5, &[(0, 1, 5_000)])]);
        let outcome = mutate(&mut p, &prof, 1).unwrap();
        assert_eq!((outcome.kind, outcome.target, p.parts(4)), (MutationKind::Medium, 4, 2));

        // A cut in an adopted part keeps the adopted cuts, explicit now:
        // an advanced mutation, since the node aggregates.
        let outcome = mutate(&mut p, &prof, 1).unwrap();
        assert_eq!((outcome.kind, outcome.target), (MutationKind::Advanced, 4));
        assert_eq!(cuts(&p, 4), Cuts::At(vec![30, 35]));
        p.validate().unwrap();
        assert_eq!(p.node_count(), plan_filter_sum().node_count());
    }

    #[test]
    fn a_whole_reader_of_a_morsel_producer_adopts_its_morsels() {
        // sum((a + 1)²): scan 0, calc 1, calc(1, 1) 2, sum 3, finalize 4.
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let add_one = OperatorSpec::Calc {
            op: BinaryOp::Add,
            left_scalar: None,
            right_scalar: Some(ScalarValue::I64(1)),
        };
        let c = p.add(add_one, vec![a]);
        let square =
            OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None };
        let sq = p.add(square, vec![c, c]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![sq]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        let mut p = p.cut_into_morsels(64);
        // The rewrite leaves the calc reading its stream twice whole, and the
        // plan counts its morsel producer as one part.
        assert_eq!((cuts(&p, c), cuts(&p, sq), p.parts(c)), (Cuts::Every(64), Cuts::default(), 1));
        let prof = profile(&[(c, &[(0, 64, 10), (64, 100, 10)]), (sq, &[(0, 100, 900)])]);
        let outcome = mutate(&mut p, &prof, 1).unwrap();
        assert_eq!((outcome.kind, outcome.target), (MutationKind::Medium, sq));
        assert_eq!(cuts(&p, sq), Cuts::Adopt);
        p.validate().unwrap();
        assert_eq!(cuts(&p, agg), Cuts::Every(64), "the sum keeps its morsels");
    }

    #[test]
    fn a_whole_reader_of_an_adopting_morsel_reader_adopts_too() {
        // sum((a + 1)⁴): scan 0, calc 1, calc(1, 1) 2, calc(2, 2) 3, sum 4,
        // finalize 5. Both squares read their stream twice, so the morsel
        // rewrite leaves them whole.
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let add_one = OperatorSpec::Calc {
            op: BinaryOp::Add,
            left_scalar: None,
            right_scalar: Some(ScalarValue::I64(1)),
        };
        let c = p.add(add_one, vec![a]);
        let square =
            OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None };
        let sq = p.add(square.clone(), vec![c, c]);
        let fourth = p.add(square, vec![sq, sq]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fourth]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        let mut p = p.cut_into_morsels(64);
        let prof = profile(&[(c, &[(0, 64, 10), (64, 100, 10)]), (sq, &[(0, 100, 900)])]);
        assert_eq!(mutate(&mut p, &prof, 1).unwrap().target, sq);
        // The square runs in its producer's morsels, which the plan counts
        // as one part; its reader still adopts them rather than cutting.
        assert_eq!((cuts(&p, sq), p.parts(sq), p.in_parts(sq)), (Cuts::Adopt, 1, true));
        let prof = profile(&[(sq, &[(0, 64, 10), (64, 100, 10)]), (fourth, &[(0, 100, 900)])]);
        let outcome = mutate(&mut p, &prof, 1).unwrap();
        assert_eq!((outcome.kind, outcome.target), (MutationKind::Medium, fourth));
        assert_eq!(cuts(&p, fourth), Cuts::Adopt);
        p.validate().unwrap();
    }

    #[test]
    fn small_parts_and_unprofiled_nodes_are_not_mutated() {
        let mut p = plan_filter_sum();
        let prof = profile(&[(1, &[(0, 100, 1_000)]), (3, &[])]);
        // Each half must hold `min_partition_rows` rows.
        assert_eq!(mutate(&mut p.clone(), &prof, 51), None);
        assert_eq!(mutate(&mut p.clone(), &prof, 50).unwrap().target, 1);
        // Dead profile entries are skipped, and a refusal leaves the plan
        // as it was.
        let dead = profile(&[(77, &[(0, 1_000, 9_999)]), (3, &[])]);
        assert_eq!(mutate(&mut p, &dead, 1), None);
        assert_eq!(p.signature(), plan_filter_sum().signature());
        assert!(cut_dearest_part(&mut p, &dead.operators[0], &AdaptiveConfig::default()).is_err());
    }

    #[test]
    fn kind_display() {
        assert_eq!(MutationKind::Basic.to_string(), "basic");
        assert_eq!(MutationKind::Medium.to_string(), "medium");
        assert_eq!(MutationKind::Advanced.to_string(), "advanced");
    }
}
