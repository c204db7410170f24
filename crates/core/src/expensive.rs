//! Expensive-operator identification.
//!
//! "An operator is considered expensive if its execution time is the highest
//! amongst all operators" (paper §2.1). The adaptive parallelizer does not
//! blindly take the single most expensive operator though: the chosen
//! operator must also be *mutable* (parallelizable and still splittable, or a
//! removable exchange union), so the candidates are ranked by execution time
//! and the first applicable one wins.

use apq_engine::plan::{NodeId, OperatorSpec, Plan};
use apq_engine::QueryProfile;

use crate::config::AdaptiveConfig;
use crate::mutation::{medium::UNION_INPUT_THRESHOLD, split::can_split};

/// What kind of mutation a candidate operator calls for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetAction {
    /// Basic / advanced mutation: clone the operator over two partitions.
    CloneOverPartitions,
    /// Medium mutation: remove the exchange union by propagating its inputs.
    PropagateUnion,
}

/// One mutation candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The plan node to mutate.
    pub node: NodeId,
    /// Its execution time in the profiled run (microseconds).
    pub duration_us: u64,
    /// Which mutation applies.
    pub action: TargetAction,
}

/// Ranks the mutable operators of the profiled run by execution time
/// (descending). The head of the list is "the most expensive operator".
pub fn ranked_candidates(
    plan: &Plan,
    profile: &QueryProfile,
    config: &AdaptiveConfig,
) -> Vec<Candidate> {
    let mut ops: Vec<_> = profile.operators.iter().collect();
    ops.sort_by(|a, b| b.duration_us.cmp(&a.duration_us).then(a.node.cmp(&b.node)));

    let mut out = Vec::new();
    for op in ops {
        if !plan.contains(op.node) {
            continue;
        }
        let spec = &plan.node(op.node).expect("live node").spec;
        match spec {
            OperatorSpec::ExchangeUnion => {
                let n_inputs = plan.node(op.node).expect("live node").inputs.len();
                if n_inputs <= UNION_INPUT_THRESHOLD {
                    out.push(Candidate {
                        node: op.node,
                        duration_us: op.duration_us,
                        action: TargetAction::PropagateUnion,
                    });
                }
            }
            spec if spec.is_parallelizable()
                && can_split(plan, profile, op.node, config.min_partition_rows) =>
            {
                out.push(Candidate {
                    node: op.node,
                    duration_us: op.duration_us,
                    action: TargetAction::CloneOverPartitions,
                });
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_engine::profiler::OperatorProfile;
    use apq_operators::{AggFunc, CmpOp, Predicate};
    use std::time::Duration;

    fn scan() -> OperatorSpec {
        OperatorSpec::ScanColumn { table: "t".into(), column: "a".into() }
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
    fn ranks_by_execution_time_and_filters_unmutable_operators() {
        let mut p = Plan::new();
        let a = p.add(scan(), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        let b = p.add(scan(), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        let cfg = AdaptiveConfig::for_cores(4);
        // The scan is the most expensive but not parallelizable; the finalize
        // is not parallelizable either; select > fetch among the rest.
        let prof = profile(
            &p,
            &[
                (a, 5_000, 100_000),
                (sel, 3_000, 40_000),
                (fetch, 2_000, 40_000),
                (agg, 100, 1),
                (fin, 5_000, 1),
            ],
        );
        let ranked = ranked_candidates(&p, &prof, &cfg);
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].node, sel);
        assert_eq!(ranked[0].action, TargetAction::CloneOverPartitions);
        assert_eq!(ranked[1].node, fetch);
        assert_eq!(ranked[2].node, agg);
    }

    #[test]
    fn small_partitions_drop_out_of_the_ranking() {
        let mut p = Plan::new();
        let a = p.add(scan(), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        p.set_root(sel);
        let prof = profile(&p, &[(a, 10, 100), (sel, 1_000, 50)]);
        let cfg = AdaptiveConfig::for_cores(4); // min_partition_rows = 1024 > 100/2
        assert!(ranked_candidates(&p, &prof, &cfg).is_empty());
        let cfg_small = cfg.with_min_partition_rows(10);
        assert_eq!(ranked_candidates(&p, &prof, &cfg_small).len(), 1);
    }

    #[test]
    fn unions_are_medium_candidates_unless_too_wide() {
        let cfg = AdaptiveConfig::for_cores(4);
        for (n_inputs, candidate) in
            [(UNION_INPUT_THRESHOLD, true), (UNION_INPUT_THRESHOLD + 1, false)]
        {
            let mut p = Plan::new();
            let a = p.add(scan(), vec![]);
            let pred = Predicate::cmp(CmpOp::Lt, 5i64);
            let selects: Vec<NodeId> = (0..n_inputs)
                .map(|_| p.add(OperatorSpec::Select { predicate: pred.clone() }, vec![a]))
                .collect();
            let union = p.add(OperatorSpec::ExchangeUnion, selects);
            p.set_root(union);
            let prof = profile(&p, &[(union, 9_000, 100), (a, 100, 10_000)]);
            let ranked = ranked_candidates(&p, &prof, &cfg);
            assert_eq!(ranked.iter().any(|c| c.node == union), candidate, "{n_inputs} inputs");
            if candidate {
                assert_eq!(ranked[0].node, union);
                assert_eq!(ranked[0].action, TargetAction::PropagateUnion);
            }
        }
    }

    #[test]
    fn dead_nodes_are_ignored() {
        let mut p = Plan::new();
        let a = p.add(scan(), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        p.set_root(sel);
        let prof = profile(&p, &[(a, 10, 10_000), (sel, 1_000, 5_000), (77, 9_999, 5_000)]);
        let cfg = AdaptiveConfig::for_cores(4).with_min_partition_rows(10);
        let ranked = ranked_candidates(&p, &prof, &cfg);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].node, sel);
    }
}
