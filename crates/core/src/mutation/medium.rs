//! Medium mutation: removing an expensive exchange-union operator by
//! propagating its inputs onto its data-flow dependent operator.
//!
//! Paper §2.1: "Medium mutation handles plan parallelization when the
//! exchange union operator (U) itself turns out to be expensive, as a result
//! of intermediate data copying due to low selectivity input. ... The
//! mutation process involves propagating the inputs to the exchange union
//! operator, to its data flow dependent operators. The data flow dependent
//! operators are cloned to match the exchange union operator's input. Finally
//! a newly introduced exchange union operator combines the result of the
//! cloned operator's output."
//!
//! §2.3 adds the plan-explosion guard: "The growth of large plans is
//! suppressed by not removing the exchange union operator if its input
//! parameters cross a certain threshold" (15 in the paper, configurable
//! here).

use std::collections::HashMap;

use apq_engine::plan::{NodeId, OperatorSpec, Plan};
use apq_engine::QueryProfile;

use crate::error::{CoreError, Result};
use crate::mutation::split::{combine_clones, output_len};
use crate::mutation::{MutationKind, MutationOutcome};

/// §2.3's plan-explosion guard: a union with more inputs is not removed.
pub const UNION_INPUT_THRESHOLD: usize = 15;

/// Attempts the medium mutation on the exchange-union node `union_id`.
///
/// Returns `Ok(None)` when the mutation is not applicable (too many union
/// inputs, multiple consumers, the consumer cannot be cloned, or the
/// intermediate sizes needed for re-slicing are unknown); the caller then
/// falls back to the next most expensive operator.
pub fn propagate_union(
    plan: &mut Plan,
    profile: &QueryProfile,
    union_id: NodeId,
) -> Result<Option<MutationOutcome>> {
    let union_node = plan.node(union_id).map_err(CoreError::from)?.clone();
    if !matches!(union_node.spec, OperatorSpec::ExchangeUnion) {
        return Err(CoreError::Mutation(format!("node {union_id} is not an exchange union")));
    }
    if union_node.inputs.len() > UNION_INPUT_THRESHOLD {
        return Ok(None);
    }
    let consumers = plan.consumers(union_id);
    if consumers.len() != 1 {
        return Ok(None);
    }
    let consumer_id = consumers[0];
    let consumer = plan.node(consumer_id).map_err(CoreError::from)?.clone();

    // Union feeding another combiner: simply inline the inputs ("the
    // exchange union operator is removed" without cloning anything).
    if consumer.spec.is_combiner() {
        plan.splice_input(consumer_id, union_id, &union_node.inputs).map_err(CoreError::from)?;
        plan.remove(union_id).map_err(CoreError::from)?;
        return Ok(Some(MutationOutcome {
            kind: MutationKind::Medium,
            target: union_id,
            clones: Vec::new(),
            combiner: consumer_id,
        }));
    }

    if !consumer.spec.is_parallelizable() {
        return Ok(None);
    }

    // The union must feed an aligned (range-partitionable) input position of
    // the consumer, otherwise propagating partitions makes no sense.
    let aligned_flags = consumer.spec.aligned_inputs(consumer.inputs.len());
    let feeds_aligned = consumer
        .inputs
        .iter()
        .zip(&aligned_flags)
        .any(|(&input, &aligned)| input == union_id && aligned);
    if !feeds_aligned {
        return Ok(None);
    }

    // Row counts of every union input (needed both for slicing the consumer's
    // other aligned inputs and for sanity-checking alignment).
    let mut part_lens = Vec::with_capacity(union_node.inputs.len());
    for &input in &union_node.inputs {
        match output_len(plan, profile, input) {
            Some(len) => part_lens.push(len),
            None => return Ok(None),
        }
    }
    let total: usize = part_lens.iter().sum();

    // Any other aligned input of the consumer must be positionally aligned
    // with the union's packed output, i.e. have the same total length.
    let other_aligned: Vec<NodeId> = consumer
        .inputs
        .iter()
        .zip(&aligned_flags)
        .filter(|&(&input, &aligned)| aligned && input != union_id)
        .map(|(&input, _)| input)
        .collect();
    for &other in &other_aligned {
        match output_len(plan, profile, other) {
            Some(len) if len == total => {}
            _ => return Ok(None),
        }
    }

    // Clone the consumer once per union input. Other aligned inputs are
    // re-sliced with the partition offsets; broadcast inputs are shared.
    let mut offsets = Vec::with_capacity(part_lens.len());
    let mut acc = 0usize;
    for &len in &part_lens {
        offsets.push(acc);
        acc += len;
    }
    let mut slices: HashMap<(NodeId, usize), NodeId> = HashMap::new();
    let mut clones = Vec::with_capacity(union_node.inputs.len());
    for (i, &part) in union_node.inputs.iter().enumerate() {
        let mut inputs = Vec::with_capacity(consumer.inputs.len());
        for (&input, &aligned) in consumer.inputs.iter().zip(&aligned_flags) {
            if input == union_id {
                inputs.push(part);
            } else if aligned {
                let slice = *slices.entry((input, i)).or_insert_with(|| {
                    plan.add(
                        OperatorSpec::SlicePart { start: offsets[i], len: part_lens[i] },
                        vec![input],
                    )
                });
                inputs.push(slice);
            } else {
                inputs.push(input);
            }
        }
        clones.push(plan.add(consumer.spec.clone(), inputs));
    }

    let combiner = combine_clones(plan, consumer_id, &clones)?;

    plan.remove(consumer_id).map_err(CoreError::from)?;
    plan.remove(union_id).map_err(CoreError::from)?;

    Ok(Some(MutationOutcome { kind: MutationKind::Medium, target: union_id, clones, combiner }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::partition::RowRange;
    use apq_engine::profiler::OperatorProfile;
    use apq_operators::{AggFunc, CmpOp, Predicate};
    use std::time::Duration;

    fn scan(column: &str, rows: usize) -> OperatorSpec {
        OperatorSpec::ScanColumn {
            table: "t".into(),
            column: column.into(),
            range: RowRange::new(0, rows),
        }
    }

    fn profile_with(rows: &[(NodeId, usize)]) -> QueryProfile {
        QueryProfile {
            wall_time: Duration::from_micros(1000),
            n_workers: 4,
            pipelines: vec![],
            dop_timeline: vec![],
            operators: rows
                .iter()
                .map(|&(node, rows_out)| OperatorProfile {
                    node,
                    name: "x",
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

    /// Plan shaped like the paper's Fig. 5: two selects packed by a union,
    /// whose output is fetched into and then aggregated.
    ///   select(a[0,500)) ─┐
    ///                     union ── fetch(b) ── sum ── finalize
    ///   select(a[500,1000))┘
    fn union_plan() -> (Plan, NodeId, NodeId, NodeId, NodeId) {
        let mut p = Plan::new();
        let a0 = p.add(scan("a", 500), vec![]);
        let a1 = p.add(
            OperatorSpec::ScanColumn {
                table: "t".into(),
                column: "a".into(),
                range: RowRange::new(500, 1000),
            },
            vec![],
        );
        let pred = Predicate::cmp(CmpOp::Lt, 100i64);
        let s0 = p.add(OperatorSpec::Select { predicate: pred.clone() }, vec![a0]);
        let s1 = p.add(OperatorSpec::Select { predicate: pred }, vec![a1]);
        let union = p.add(OperatorSpec::ExchangeUnion, vec![s0, s1]);
        let b = p.add(scan("b", 1000), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![union, b]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        (p, s0, s1, union, fetch)
    }

    #[test]
    fn medium_mutation_clones_the_consumer_per_union_input() {
        let (mut p, s0, s1, union, fetch) = union_plan();
        let prof = profile_with(&[(s0, 60), (s1, 40), (union, 100), (fetch, 100)]);
        let outcome = propagate_union(&mut p, &prof, union).unwrap().unwrap();
        p.validate().unwrap();
        assert_eq!(outcome.kind, MutationKind::Medium);
        assert_eq!(outcome.clones.len(), 2);
        // Union and the original fetch are gone; two fetch clones read the
        // selects directly; their partial results feed a new union... no —
        // the fetch clones' outputs are columns packed by a fresh union whose
        // only consumer is the aggregate.
        assert!(!p.contains(union));
        assert!(!p.contains(fetch));
        assert_eq!(p.count_of("fetch"), 2);
        assert_eq!(p.count_of("union"), 1);
        for &clone in &outcome.clones {
            let inputs = &p.node(clone).unwrap().inputs;
            assert!(inputs.contains(&s0) || inputs.contains(&s1));
        }
    }

    #[test]
    fn union_feeding_an_aggregate_is_propagated_without_new_union() {
        // select0/select1 -> union -> sum -> finalize: cloning the sum per
        // union input reuses the finalizer as the combiner.
        let mut p = Plan::new();
        let a0 = p.add(scan("a", 500), vec![]);
        let a1 = p.add(
            OperatorSpec::ScanColumn {
                table: "t".into(),
                column: "a".into(),
                range: RowRange::new(500, 1000),
            },
            vec![],
        );
        let f0 = p.add(OperatorSpec::Fetch, vec![a0, a0]); // placeholder value columns
        let f1 = p.add(OperatorSpec::Fetch, vec![a1, a1]);
        let union = p.add(OperatorSpec::ExchangeUnion, vec![f0, f1]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![union]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        let prof = profile_with(&[(f0, 500), (f1, 500), (union, 1000), (agg, 1)]);
        let outcome = propagate_union(&mut p, &prof, union).unwrap().unwrap();
        p.validate().unwrap();
        assert_eq!(outcome.combiner, fin);
        assert_eq!(p.count_of("aggregate"), 2);
        assert_eq!(p.count_of("union"), 0);
        assert_eq!(p.node(fin).unwrap().inputs.len(), 2);
    }

    /// `union_plan` with `n` selects over `n` 100-row scan partitions.
    fn wide_union_plan(n: usize) -> (Plan, NodeId, QueryProfile) {
        let mut p = Plan::new();
        let pred = Predicate::cmp(CmpOp::Lt, 100i64);
        let selects: Vec<NodeId> = (0..n)
            .map(|i| {
                let part = p.add(
                    OperatorSpec::ScanColumn {
                        table: "t".into(),
                        column: "a".into(),
                        range: RowRange::new(i * 100, (i + 1) * 100),
                    },
                    vec![],
                );
                p.add(OperatorSpec::Select { predicate: pred.clone() }, vec![part])
            })
            .collect();
        let union = p.add(OperatorSpec::ExchangeUnion, selects.clone());
        let b = p.add(scan("b", n * 100), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![union, b]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        let mut rows: Vec<(NodeId, usize)> = selects.iter().map(|&s| (s, 10)).collect();
        rows.extend([(union, n * 10), (fetch, n * 10)]);
        let prof = profile_with(&rows);
        (p, union, prof)
    }

    #[test]
    fn guard_suppresses_removal_of_wide_unions() {
        // §2.3: 16 inputs cross the threshold, 15 do not.
        let (mut p, union, prof) = wide_union_plan(UNION_INPUT_THRESHOLD + 1);
        let nodes = p.node_count();
        assert!(propagate_union(&mut p, &prof, union).unwrap().is_none());
        assert!(p.contains(union));
        assert_eq!(p.node_count(), nodes);

        let (mut p, union, prof) = wide_union_plan(UNION_INPUT_THRESHOLD);
        let outcome = propagate_union(&mut p, &prof, union).unwrap().unwrap();
        p.validate().unwrap();
        assert!(!p.contains(union));
        assert_eq!(outcome.clones.len(), UNION_INPUT_THRESHOLD);
        assert_eq!(p.count_of("fetch"), UNION_INPUT_THRESHOLD);
    }

    #[test]
    fn multiple_consumers_or_missing_profile_disable_the_mutation() {
        // Two consumers of the union.
        let (mut p, _, _, union, _) = union_plan();
        let b = p.add(scan("b", 1000), vec![]);
        let extra = p.add(OperatorSpec::Fetch, vec![union, b]);
        let _keep_alive = p.add(OperatorSpec::ExchangeUnion, vec![extra]);
        let prof = profile_with(&[(union, 100)]);
        assert!(propagate_union(&mut p, &prof, union).unwrap().is_none());

        // Missing row counts for the union inputs.
        let (mut p, _, _, union, _) = union_plan();
        let empty = profile_with(&[]);
        assert!(propagate_union(&mut p, &empty, union).unwrap().is_none());

        // Wrong target kind is a hard error.
        let (mut p, s0, _, _, _) = union_plan();
        let prof = profile_with(&[(s0, 10)]);
        assert!(propagate_union(&mut p, &prof, s0).is_err());
    }

    #[test]
    fn union_into_union_is_collapsed() {
        let mut p = Plan::new();
        let a0 = p.add(scan("a", 500), vec![]);
        let a1 = p.add(
            OperatorSpec::ScanColumn {
                table: "t".into(),
                column: "a".into(),
                range: RowRange::new(500, 1000),
            },
            vec![],
        );
        let pred = Predicate::cmp(CmpOp::Lt, 100i64);
        let s0 = p.add(OperatorSpec::Select { predicate: pred.clone() }, vec![a0]);
        let s1 = p.add(OperatorSpec::Select { predicate: pred.clone() }, vec![a1]);
        let inner = p.add(OperatorSpec::ExchangeUnion, vec![s0, s1]);
        let s2 = p.add(OperatorSpec::Select { predicate: pred }, vec![a0]);
        let outer = p.add(OperatorSpec::ExchangeUnion, vec![inner, s2]);
        p.set_root(outer);
        let prof = profile_with(&[(s0, 10), (s1, 10), (s2, 10), (inner, 20)]);
        let outcome = propagate_union(&mut p, &prof, inner).unwrap().unwrap();
        p.validate().unwrap();
        assert_eq!(outcome.combiner, outer);
        assert!(!p.contains(inner));
        assert_eq!(p.node(outer).unwrap().inputs, vec![s0, s1, s2]);
    }

    #[test]
    fn consumer_with_second_aligned_input_is_resliced() {
        // union (of two fetched halves) and another full-length column feed a
        // calc; the medium mutation must slice the other column per partition.
        let mut p = Plan::new();
        let a0 = p.add(scan("a", 600), vec![]);
        let a1 = p.add(
            OperatorSpec::ScanColumn {
                table: "t".into(),
                column: "a".into(),
                range: RowRange::new(600, 1000),
            },
            vec![],
        );
        let union = p.add(OperatorSpec::ExchangeUnion, vec![a0, a1]);
        let other = p.add(scan("b", 1000), vec![]);
        let calc = p.add(
            OperatorSpec::Calc {
                op: apq_operators::BinaryOp::Mul,
                left_scalar: None,
                right_scalar: None,
            },
            vec![union, other],
        );
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![calc]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        let prof = profile_with(&[(a0, 600), (a1, 400), (union, 1000), (calc, 1000)]);
        let outcome = propagate_union(&mut p, &prof, union).unwrap().unwrap();
        p.validate().unwrap();
        assert_eq!(outcome.clones.len(), 2);
        assert_eq!(p.count_of("slice"), 2);
        // The slices over `other` cover [0,600) and [600,1000).
        let mut windows = Vec::new();
        for id in p.node_ids() {
            if let OperatorSpec::SlicePart { start, len } = p.node(id).unwrap().spec {
                windows.push((start, len));
            }
        }
        windows.sort_unstable();
        assert_eq!(windows, vec![(0, 600), (600, 400)]);
    }
}
