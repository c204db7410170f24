//! Plan mutation: morphing a plan into a faster one by parallelizing its
//! most expensive operator (paper §2.1).
//!
//! Three mutation schemes cover all cases:
//!
//! * **Basic** ([`basic::clone_over_partitions`]) — the expensive operator is
//!   a filtering / pipeline operator; it is replaced by two clones over the
//!   split partition and an exchange union.
//! * **Advanced** (same entry point) — the expensive operator does not filter
//!   (grouped or scalar aggregation); the clones feed a *merging* combiner.
//! * **Medium** ([`medium::propagate_union`]) — the expensive operator is an
//!   exchange union; its inputs are propagated onto its consumer, which is
//!   cloned per input.
//!
//! Every scheme places its clones through one step, [`Plan::recombine`]: a
//! combiner reading the replaced node whole takes them in its place, every
//! other reader reads a union over them.
//!
//! [`mutate_most_expensive`] is the driver used by the optimizer: it walks
//! the operators of the previous run in descending execution-time order
//! (the "most expensive operator" heuristic, paper §2.1) and mutates the
//! first operator a mutation fits.

pub mod basic;
pub mod medium;
pub mod split;

use apq_engine::plan::{NodeId, OperatorSpec, Plan};
use apq_engine::QueryProfile;

use crate::config::AdaptiveConfig;
use crate::error::Result;

pub use basic::clone_over_partitions;
pub use medium::propagate_union;

/// Which mutation scheme was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Cloning of a filtering operator, combined by an exchange union.
    Basic,
    /// Removal of an expensive exchange union by propagating its inputs.
    Medium,
    /// Cloning of a non-filtering operator (aggregation), combined by a merge.
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
    /// The node that was parallelized (it no longer exists afterwards).
    pub target: NodeId,
    /// The cloned operator nodes introduced by the mutation.
    pub clones: Vec<NodeId>,
    /// The node combining the clones for the target's readers (an existing
    /// or new union, or a `FinalizeAgg`); `None` when nothing read the
    /// target ([`Plan::recombine`]).
    pub combiner: Option<NodeId>,
}

/// Mutates `plan` by parallelizing the most expensive operator observed in
/// `profile`: the operators still in the plan are tried by descending
/// execution time, ties by ascending node id, and the first one a mutation
/// applies to is mutated — an exchange union by [`propagate_union`], any
/// other operator by [`clone_over_partitions`]. Returns `Ok(None)` when no
/// operator can be parallelized any further — the plan has reached its
/// maximal useful degree of parallelism.
pub fn mutate_most_expensive(
    plan: &mut Plan,
    profile: &QueryProfile,
    config: &AdaptiveConfig,
) -> Result<Option<MutationOutcome>> {
    let mut ops: Vec<_> = profile.operators.iter().filter(|op| plan.contains(op.node)).collect();
    ops.sort_by(|a, b| b.duration_us.cmp(&a.duration_us).then(a.node.cmp(&b.node)));
    for op in ops {
        let outcome = match plan.node(op.node)?.spec {
            OperatorSpec::ExchangeUnion => propagate_union(plan, profile, op.node)?,
            _ => clone_over_partitions(plan, profile, config, op.node)?,
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
    use apq_engine::profiler::OperatorProfile;
    use apq_operators::{AggFunc, CmpOp, Predicate};
    use medium::UNION_INPUT_THRESHOLD;
    use std::time::Duration;

    fn scan(column: &str) -> OperatorSpec {
        OperatorSpec::ScanColumn { table: "t".into(), column: column.into() }
    }

    fn plan_filter_sum() -> (Plan, NodeId, NodeId) {
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 10i64) }, vec![a]);
        let b = p.add(scan("b"), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        (p, sel, fetch)
    }

    fn profile(plan: &Plan, costs: &[(NodeId, u64, usize)]) -> QueryProfile {
        QueryProfile {
            wall_time: Duration::from_micros(1000),
            n_workers: 4,
            pipelines: vec![],
            dop_timeline: vec![],
            operators: costs
                .iter()
                .map(|&(node, duration_us, rows_out)| OperatorProfile {
                    node,
                    name: plan.node(node).map(|n| n.spec.name()).unwrap_or("dead"),
                    start_us: 0,
                    duration_us,
                    queue_wait_us: 0,
                    worker: 0,
                    rows_out,
                    bytes_out: rows_out * 8,
                })
                .collect(),
        }
    }

    #[test]
    fn mutates_the_most_expensive_operator_first() {
        let (mut p, sel, fetch) = plan_filter_sum();
        let prof =
            profile(&p, &[(0, 1, 10_000), (sel, 900, 5_000), (fetch, 100, 5_000), (4, 10, 1)]);
        let cfg = AdaptiveConfig::for_cores(4).with_min_partition_rows(16);
        let outcome = mutate_most_expensive(&mut p, &prof, &cfg).unwrap().unwrap();
        assert_eq!(outcome.kind, MutationKind::Basic);
        assert_eq!(outcome.target, sel);
        p.validate().unwrap();
        assert_eq!(p.count_of("select"), 2);
    }

    #[test]
    fn falls_back_to_the_next_candidate_when_the_first_cannot_split() {
        let (mut p, sel, fetch) = plan_filter_sum();
        // The select is the most expensive but its scan input is "too small"
        // given an absurd minimum partition size — actually make fetch's
        // candidate list large enough while the scan is not splittable by
        // reporting tiny rows for the select's scan via min_partition_rows.
        let prof = profile(&p, &[(sel, 900, 50_000), (fetch, 800, 50_000)]);
        let mut cfg = AdaptiveConfig::for_cores(4);
        cfg.min_partition_rows = 6_000; // scan of 10k rows < 2*6000 -> select not splittable
        let outcome = mutate_most_expensive(&mut p, &prof, &cfg).unwrap().unwrap();
        // The fetch's aligned input (the select output, 50k rows) is splittable.
        assert_eq!(outcome.target, fetch);
        p.validate().unwrap();
    }

    #[test]
    fn returns_none_when_nothing_can_be_parallelized() {
        let (mut p, sel, fetch) = plan_filter_sum();
        let prof = profile(&p, &[(sel, 900, 50), (fetch, 100, 50)]);
        let mut cfg = AdaptiveConfig::for_cores(4);
        cfg.min_partition_rows = 1_000_000;
        assert!(mutate_most_expensive(&mut p, &prof, &cfg).unwrap().is_none());
        // The plan is untouched.
        assert_eq!(p.count_of("select"), 1);
    }

    /// The target `mutate_most_expensive` picks on a copy of `plan`, if any.
    fn target_of(plan: &Plan, prof: &QueryProfile, cfg: &AdaptiveConfig) -> Option<NodeId> {
        let mut plan = plan.clone();
        let outcome = mutate_most_expensive(&mut plan, prof, cfg).unwrap();
        outcome.map(|outcome| outcome.target)
    }

    #[test]
    fn ranks_by_execution_time_skipping_scans_and_finalizers() {
        let (p, sel, fetch) = plan_filter_sum();
        let (a, agg, fin) = (0, 4, 5);
        let cfg = AdaptiveConfig::for_cores(4);
        // The scan and the finalize cost the most but cannot be cloned; the
        // select is the most expensive of the rest.
        let costs = |sel_us, fetch_us| {
            let costs = [
                (a, 5_000, 100_000),
                (sel, sel_us, 40_000),
                (fetch, fetch_us, 40_000),
                (agg, 100, 1),
                (fin, 5_000, 1),
            ];
            profile(&p, &costs)
        };
        assert_eq!(target_of(&p, &costs(3_000, 2_000), &cfg), Some(sel));
        assert_eq!(target_of(&p, &costs(50, 2_000), &cfg), Some(fetch));
        assert_eq!(target_of(&p, &costs(50, 40), &cfg), Some(agg));
        // Equal times go to the lower node id.
        assert_eq!(target_of(&p, &costs(2_000, 2_000), &cfg), Some(sel));
    }

    #[test]
    fn small_partitions_are_not_mutated() {
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        p.set_root(sel);
        let prof = profile(&p, &[(a, 10, 100), (sel, 1_000, 50)]);
        let cfg = AdaptiveConfig::for_cores(4); // min_partition_rows = 1024 > 100/2
        assert_eq!(target_of(&p, &prof, &cfg), None);
        assert_eq!(target_of(&p, &prof, &cfg.with_min_partition_rows(10)), Some(sel));
    }

    #[test]
    fn a_union_wider_than_the_guard_is_skipped() {
        let cfg = AdaptiveConfig::for_cores(4).with_min_partition_rows(10);
        for (n_inputs, removed) in
            [(UNION_INPUT_THRESHOLD, true), (UNION_INPUT_THRESHOLD + 1, false)]
        {
            // n selects over 100-row windows of `a`, packed, then fetched into.
            let mut p = Plan::new();
            let a = p.add(scan("a"), vec![]);
            let pred = Predicate::cmp(CmpOp::Lt, 5i64);
            let selects: Vec<NodeId> = (0..n_inputs)
                .map(|i| {
                    let window = Some(RowRange::new(i * 100, (i + 1) * 100));
                    p.add_edges(OperatorSpec::Select { predicate: pred.clone() }, [(a, window)])
                })
                .collect();
            let union = p.add(OperatorSpec::ExchangeUnion, selects.clone());
            let b = p.add(scan("b"), vec![]);
            let fetch = p.add(OperatorSpec::Fetch, vec![union, b]);
            p.set_root(fetch);
            let mut costs: Vec<_> = selects.iter().map(|&s| (s, 10, 10)).collect();
            costs.extend([(union, 9_000, n_inputs * 10), (a, 100, 10_000), (fetch, 500, 100)]);
            let mut mutated = p.clone();
            let outcome = mutate_most_expensive(&mut mutated, &profile(&p, &costs), &cfg).unwrap();
            let outcome = outcome.expect("something is mutated");
            let expected =
                if removed { (MutationKind::Medium, union) } else { (MutationKind::Basic, fetch) };
            assert_eq!((outcome.kind, outcome.target), expected, "{n_inputs} inputs");
        }
    }

    #[test]
    fn dead_profile_entries_are_ignored() {
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        p.set_root(sel);
        let prof = profile(&p, &[(a, 10, 10_000), (sel, 1_000, 5_000), (77, 9_999, 5_000)]);
        let cfg = AdaptiveConfig::for_cores(4).with_min_partition_rows(10);
        assert_eq!(target_of(&p, &prof, &cfg), Some(sel));
    }

    #[test]
    fn kind_display() {
        assert_eq!(MutationKind::Basic.to_string(), "basic");
        assert_eq!(MutationKind::Medium.to_string(), "medium");
        assert_eq!(MutationKind::Advanced.to_string(), "advanced");
    }
}
