//! Basic and advanced mutation: clone the expensive operator over two
//! partitions of its input and combine the clones.
//!
//! Paper §2.1: "Basic mutation involves parallelization of an expensive
//! operator by introducing two new operators of the same type ... The cloned
//! operators work on the expensive operator's partitioned data ... An
//! exchange union operator (either a newly introduced or an existing one)
//! combines the result of the cloned operators."
//!
//! The *advanced* mutation is the same cloning step applied to non-filtering
//! operators (grouped aggregation, scalar aggregation); their clones are
//! combined by a merging combiner instead of a plain pack. In this
//! implementation that is the exchange union itself, which merges partial
//! aggregate chunks, or the already-present `FinalizeAgg` of a scalar
//! aggregate.

use apq_engine::plan::{NodeId, OperatorSpec, Plan};
use apq_engine::QueryProfile;

use crate::config::AdaptiveConfig;
use crate::error::{CoreError, Result};
use crate::mutation::split::{aligned_inputs, edge_window};
use crate::mutation::{MutationKind, MutationOutcome};

/// Applies the basic / advanced mutation to `target`: every aligned input
/// edge's window is halved, and one clone reads each half.
///
/// Returns `Ok(None)` when the mutation does not apply: the operator cannot
/// be cloned, or its aligned inputs have no profiled length, differ in
/// length, or hold fewer than two partitions of
/// [`AdaptiveConfig::min_partition_rows`]. `Err` means `target` is not in
/// the plan.
pub fn clone_over_partitions(
    plan: &mut Plan,
    profile: &QueryProfile,
    config: &AdaptiveConfig,
    target: NodeId,
) -> Result<Option<MutationOutcome>> {
    let node = plan.node(target).map_err(CoreError::from)?.clone();
    if !node.spec.is_parallelizable() {
        return Ok(None);
    }

    // All aligned inputs must be equally long, otherwise the clones would
    // mis-align (paper Fig. 9 hazards), and long enough for two partitions.
    let aligned = aligned_inputs(plan, target)?;
    let Some(windows) =
        aligned.iter().map(|&edge| edge_window(plan, profile, edge)).collect::<Option<Vec<_>>>()
    else {
        return Ok(None);
    };
    let min_len = 2 * config.min_partition_rows.max(1);
    match windows.first() {
        Some(first) if windows.iter().all(|w| w.len() == first.len() && w.len() >= min_len) => {}
        _ => return Ok(None),
    }

    // One clone per half of every aligned edge's window (the same edge may
    // appear at several aligned positions); other edges are shared as they are.
    let flags = node.spec.aligned_inputs(node.inputs.len());
    let clones: Vec<NodeId> = (0..2)
        .map(|half| {
            let edges: Vec<_> = node
                .edges()
                .zip(&flags)
                .map(|(edge, &is_aligned)| match aligned.iter().position(|&a| a == edge) {
                    Some(at) if is_aligned => (edge.0, Some(windows[at].split_even(2)[half])),
                    _ => edge,
                })
                .collect();
            plan.add_edges(node.spec.clone(), edges)
        })
        .collect();
    let parts: Vec<_> = clones.iter().map(|&clone| (clone, None)).collect();
    let combiner = plan.recombine(target, &parts)?;

    let kind = match node.spec {
        OperatorSpec::ScalarAgg { .. } | OperatorSpec::GroupAgg { .. } => MutationKind::Advanced,
        _ => MutationKind::Basic,
    };
    Ok(Some(MutationOutcome { kind, target, clones, combiner }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::partition::RowRange;
    use apq_engine::profiler::OperatorProfile;
    use apq_operators::{AggFunc, CmpOp, Predicate};
    use std::time::Duration;

    fn scan(column: &str) -> OperatorSpec {
        OperatorSpec::ScanColumn { table: "t".into(), column: column.into() }
    }

    /// Every scan published `scan_rows` rows, every other node `rows`.
    fn profile_for(plan: &Plan, scan_rows: usize, rows: usize) -> QueryProfile {
        QueryProfile {
            wall_time: Duration::from_micros(1000),
            n_workers: 4,
            pipelines: vec![],
            dop_timeline: vec![],
            operators: plan
                .node_ids()
                .into_iter()
                .map(|node| {
                    let spec = &plan.node(node).unwrap().spec;
                    let scan = matches!(spec, OperatorSpec::ScanColumn { .. });
                    let rows_out = if scan { scan_rows } else { rows };
                    OperatorProfile {
                        node,
                        name: spec.name(),
                        start_us: 0,
                        duration_us: 10,
                        queue_wait_us: 0,
                        worker: 0,
                        rows_out,
                        bytes_out: rows_out * 8,
                    }
                })
                .collect(),
        }
    }

    /// sum(b) where a < k — the plan every other test builds on.
    fn filter_sum_plan() -> (Plan, NodeId, NodeId, NodeId) {
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 10i64) }, vec![a]);
        let b = p.add(scan("b"), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        (p, sel, fetch, agg)
    }

    /// Clones `target` over halves as small as one row.
    fn mutate(p: &mut Plan, prof: &QueryProfile, target: NodeId) -> MutationOutcome {
        let config = AdaptiveConfig::for_cores(4).with_min_partition_rows(1);
        clone_over_partitions(p, prof, &config, target).unwrap().expect("the mutation applies")
    }

    /// The windows node `id`'s edges read, in input order.
    fn windows(p: &Plan, id: NodeId) -> Vec<Option<RowRange>> {
        p.node(id).unwrap().windows.clone()
    }

    fn window(start: usize, end: usize) -> Option<RowRange> {
        Some(RowRange::new(start, end))
    }

    #[test]
    fn basic_mutation_of_a_select_windows_the_scan() {
        let (mut p, sel, fetch, _) = filter_sum_plan();
        let prof = profile_for(&p, 1_000, 500);
        let before_scans = p.count_of("scan");
        let outcome = mutate(&mut p, &prof, sel);
        assert_eq!(outcome.kind, MutationKind::Basic);
        assert_eq!(outcome.target, sel);
        assert_eq!(outcome.clones.len(), 2);
        p.validate().unwrap();
        // The original select is gone, two clones exist, a union was added.
        assert!(!p.contains(sel));
        assert_eq!(p.count_of("select"), 2);
        assert_eq!(p.count_of("union"), 1);
        // The scan of `a` stays whole: no scan or slice node is added.
        assert_eq!(p.count_of("scan"), before_scans);
        assert_eq!(p.count_of("slice"), 0);
        // The fetch now reads from the union.
        assert!(p.node(fetch).unwrap().inputs.contains(&outcome.combiner.unwrap()));
        // The two clones read adjacent windows covering the scan's output.
        for (&clone, half) in outcome.clones.iter().zip([window(0, 500), window(500, 1000)]) {
            assert_eq!(p.node(clone).unwrap().inputs, vec![0]);
            assert_eq!(windows(&p, clone), vec![half]);
        }
    }

    #[test]
    fn halving_scans_intermediates_and_windows() {
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        let b = p.add(scan("b"), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        p.set_root(fetch);
        let prof = profile_for(&p, 101, 33);

        // A scan edge starts from the scan's profiled length: [0, 51) and
        // [51, 101).
        let selects = mutate(&mut p, &prof, sel).clones;
        assert_eq!(windows(&p, selects[0]), vec![window(0, 51)]);
        assert_eq!(windows(&p, selects[1]), vec![window(51, 101)]);

        // An intermediate's edge starts from its profiled length: the fetch
        // reads the union of the selects, 33 rows, as [0, 17) and [17, 33);
        // its broadcast column stays whole.
        let union = p.node(fetch).unwrap().inputs[0];
        let prof = profile_for(&p, 101, 33);
        let fetches = mutate(&mut p, &prof, fetch).clones;
        assert_eq!(p.node(fetches[0]).unwrap().inputs, vec![union, b]);
        assert_eq!(windows(&p, fetches[0]), vec![window(0, 17), None]);
        assert_eq!(windows(&p, fetches[1]), vec![window(17, 33), None]);

        // A window is halved in place, over the same producer.
        let quarters = mutate(&mut p, &prof, fetches[0]).clones;
        assert_eq!(p.node(quarters[0]).unwrap().inputs, vec![union, b]);
        assert_eq!(windows(&p, quarters[0]), vec![window(0, 9), None]);
        assert_eq!(windows(&p, quarters[1]), vec![window(9, 17), None]);
        p.validate().unwrap();
        assert_eq!(p.count_of("scan"), 2);
    }

    #[test]
    fn repeated_mutation_reuses_the_existing_union() {
        let (mut p, sel, _, _) = filter_sum_plan();
        let prof = profile_for(&p, 1_000, 500);
        let first = mutate(&mut p, &prof, sel);
        // Parallelize one of the clones: its consumer is the union created above.
        let prof2 = profile_for(&p, 1_000, 250);
        let second = mutate(&mut p, &prof2, first.clones[0]);
        p.validate().unwrap();
        assert_eq!(second.combiner, first.combiner, "existing union must be reused");
        assert_eq!(p.count_of("union"), 1);
        assert_eq!(p.count_of("select"), 3);
        // Union input order preserves the mutation sequence order: the two new
        // clones replaced the first clone in place.
        let union_inputs = &p.node(first.combiner.unwrap()).unwrap().inputs;
        assert_eq!(union_inputs.len(), 3);
        assert_eq!(union_inputs[0], second.clones[0]);
        assert_eq!(union_inputs[1], second.clones[1]);
        assert_eq!(union_inputs[2], first.clones[1]);
    }

    #[test]
    fn fetch_mutation_windows_the_candidate_list() {
        let (mut p, sel, fetch, _) = filter_sum_plan();
        let prof = profile_for(&p, 1_000, 600);
        let outcome = mutate(&mut p, &prof, fetch);
        p.validate().unwrap();
        assert_eq!(outcome.kind, MutationKind::Basic);
        // The select survives (the clones read it), and no slice node appears.
        assert!(p.contains(sel));
        assert_eq!(p.count_of("slice"), 0);
        assert_eq!(p.count_of("fetch"), 2);
        // The windows cover [0, 300) and [300, 600) of the candidate list.
        for (&clone, half) in outcome.clones.iter().zip([window(0, 300), window(300, 600)]) {
            assert_eq!(p.node(clone).unwrap().inputs, vec![sel, 2]);
            assert_eq!(windows(&p, clone), vec![half, None]);
        }
    }

    #[test]
    fn advanced_mutation_of_scalar_agg_feeds_existing_finalizer() {
        let (mut p, _, _, agg) = filter_sum_plan();
        let fin = p.root().unwrap();
        let prof = profile_for(&p, 1_000, 400);
        let outcome = mutate(&mut p, &prof, agg);
        p.validate().unwrap();
        assert_eq!(outcome.kind, MutationKind::Advanced);
        assert_eq!(outcome.combiner, Some(fin), "clones must feed the existing FinalizeAgg");
        assert_eq!(p.node(fin).unwrap().inputs.len(), 2);
        assert_eq!(p.count_of("aggregate"), 2);
        assert_eq!(p.count_of("union"), 0);
    }

    #[test]
    fn advanced_mutation_of_group_agg() {
        let mut p = Plan::new();
        let keys = p.add(scan("k"), vec![]);
        let vals = p.add(scan("v"), vec![]);
        let group = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![keys, vals]);
        p.set_root(group);
        let prof = profile_for(&p, 1_000, 1_000);
        let outcome = mutate(&mut p, &prof, group);
        p.validate().unwrap();
        assert_eq!(outcome.kind, MutationKind::Advanced);
        // The exchange union that merges grouped partials takes the root.
        assert_eq!(p.root(), outcome.combiner);
        assert!(matches!(p.node(p.root().unwrap()).unwrap().spec, OperatorSpec::ExchangeUnion));
        assert_eq!(p.count_of("groupby"), 2);
        // Both scans are read in halves, at the same windows.
        assert_eq!(p.count_of("scan"), 2);
        for (&clone, half) in outcome.clones.iter().zip([window(0, 500), window(500, 1000)]) {
            assert_eq!(p.node(clone).unwrap().inputs, vec![keys, vals]);
            assert_eq!(windows(&p, clone), vec![half, half]);
        }
    }

    #[test]
    fn mutation_of_root_operator_moves_the_root() {
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 10i64) }, vec![a]);
        p.set_root(sel);
        let prof = profile_for(&p, 100, 50);
        let outcome = mutate(&mut p, &prof, sel);
        p.validate().unwrap();
        assert_eq!(p.root(), outcome.combiner);
        assert!(matches!(p.node(p.root().unwrap()).unwrap().spec, OperatorSpec::ExchangeUnion));
    }

    #[test]
    fn partitions_below_the_minimum_size_are_refused() {
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let select = || OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) };
        let sel = p.add(select(), vec![a]);
        // A windowed edge counts its window's rows.
        let part = p.add_edges(select(), [(a, window(10, 30))]);
        let union = p.add(OperatorSpec::ExchangeUnion, vec![sel, part]);
        p.set_root(union);
        let prof = profile_for(&p, 100, 50);
        let min = |rows| AdaptiveConfig::for_cores(4).with_min_partition_rows(rows);
        // Each target splits into two partitions of `half` rows, no more.
        for (target, half) in [(sel, 50), (part, 10)] {
            let nodes = p.node_count();
            assert_eq!(clone_over_partitions(&mut p, &prof, &min(half + 1), target), Ok(None));
            assert_eq!(p.node_count(), nodes);
            assert!(clone_over_partitions(&mut p, &prof, &min(half), target).unwrap().is_some());
        }
    }

    #[test]
    fn rejects_unsplittable_targets() {
        let any = AdaptiveConfig::for_cores(4).with_min_partition_rows(1);
        let (mut p, _, _, _) = filter_sum_plan();
        let nodes = p.node_count();
        // Scan nodes cannot be mutated.
        let prof = profile_for(&p, 1_000, 500);
        assert_eq!(clone_over_partitions(&mut p, &prof, &any, 0), Ok(None));
        // A select over a single-row scan cannot be split.
        let (mut tiny, tiny_sel, _, _) = filter_sum_plan();
        let tiny_prof = profile_for(&tiny, 1, 1);
        assert_eq!(clone_over_partitions(&mut tiny, &tiny_prof, &any, tiny_sel), Ok(None));
        // Neither can a fetch over a one-row intermediate.
        let (mut p3, _, fetch3, _) = filter_sum_plan();
        let one_row = profile_for(&p3, 1_000, 1);
        assert_eq!(clone_over_partitions(&mut p3, &one_row, &any, fetch3), Ok(None));
        // Fetch whose candidate list was never profiled cannot be split.
        let (mut p2, _, fetch2, _) = filter_sum_plan();
        let empty_prof = QueryProfile {
            wall_time: Duration::from_micros(1),
            n_workers: 1,
            pipelines: vec![],
            dop_timeline: vec![],
            operators: vec![],
        };
        assert_eq!(clone_over_partitions(&mut p2, &empty_prof, &any, fetch2), Ok(None));
        // A refusal leaves the plan as it was; only an unknown node is an error.
        for plan in [&p, &tiny, &p3, &p2] {
            assert_eq!(plan.node_count(), nodes);
        }
        assert!(clone_over_partitions(&mut p, &prof, &any, 999).is_err());
    }
}
