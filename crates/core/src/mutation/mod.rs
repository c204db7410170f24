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
//! [`mutate_most_expensive`] is the driver used by the optimizer: it walks
//! the operators of the previous run in descending execution-time order
//! (the "most expensive operator" heuristic) and applies the first mutation
//! that is structurally possible.

pub mod basic;
pub mod medium;
pub mod split;

use apq_engine::plan::{NodeId, Plan};
use apq_engine::QueryProfile;

use crate::config::AdaptiveConfig;
use crate::error::Result;
use crate::expensive::{ranked_candidates, TargetAction};

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
    /// The node combining the clones (an existing or new union / merger).
    pub combiner: NodeId,
}

/// Mutates `plan` by parallelizing the most expensive operator observed in
/// `profile`. Returns `Ok(None)` when no operator can be parallelized any
/// further — the plan has reached its maximal useful degree of parallelism.
pub fn mutate_most_expensive(
    plan: &mut Plan,
    profile: &QueryProfile,
    config: &AdaptiveConfig,
) -> Result<Option<MutationOutcome>> {
    for candidate in ranked_candidates(plan, profile, config) {
        let attempt = match candidate.action {
            TargetAction::CloneOverPartitions => {
                // A failure here is a structural impossibility: try the next
                // most expensive candidate.
                clone_over_partitions(plan, profile, candidate.node).ok()
            }
            TargetAction::PropagateUnion => propagate_union(plan, profile, candidate.node)?,
        };
        if let Some(outcome) = attempt {
            return Ok(Some(outcome));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_engine::plan::OperatorSpec;
    use apq_engine::profiler::OperatorProfile;
    use apq_operators::{AggFunc, CmpOp, Predicate};
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
                    name: plan.node(node).unwrap().spec.name(),
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

    #[test]
    fn kind_display() {
        assert_eq!(MutationKind::Basic.to_string(), "basic");
        assert_eq!(MutationKind::Medium.to_string(), "medium");
        assert_eq!(MutationKind::Advanced.to_string(), "advanced");
    }
}
