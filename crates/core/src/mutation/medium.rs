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
//! parameters cross a certain threshold": [`UNION_INPUT_THRESHOLD`], the
//! paper's 15, read by [`propagate_union`] alone.

use apq_columnar::partition::RowRange;
use apq_engine::plan::{NodeId, OperatorSpec, Plan};
use apq_engine::QueryProfile;

use crate::error::{CoreError, Result};
use crate::mutation::split::edge_window;
use crate::mutation::{MutationKind, MutationOutcome};

/// §2.3's plan-explosion guard: a union with more inputs is not removed.
pub const UNION_INPUT_THRESHOLD: usize = 15;

/// Attempts the medium mutation on the exchange-union node `union_id`.
///
/// Returns `Ok(None)` when the mutation is not applicable (too many union
/// inputs, multiple consumers, a consumer reading a window of the union, a
/// consumer that cannot be cloned, or unknown intermediate sizes); the
/// caller then falls back to the next most expensive operator. `Err` means
/// `union_id` is not an exchange union of the plan.
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
    // The union's parts are parts of its whole output only.
    if consumer.edges().any(|(input, window)| input == union_id && window.is_some()) {
        return Ok(None);
    }

    // Union feeding another combiner: its inputs take the union's place,
    // each with its window ("the exchange union operator is removed" without
    // cloning anything).
    if consumer.spec.is_combiner() {
        let parts: Vec<_> = union_node.edges().collect();
        let combiner = plan.recombine(union_id, &parts)?;
        let outcome = MutationOutcome {
            kind: MutationKind::Medium,
            target: union_id,
            clones: Vec::new(),
            combiner,
        };
        return Ok(Some(outcome));
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

    // Row counts of every union input (needed both for windowing the
    // consumer's other aligned inputs and for sanity-checking alignment).
    let mut part_lens = Vec::with_capacity(union_node.inputs.len());
    for edge in union_node.edges() {
        match edge_window(plan, profile, edge) {
            Some(window) => part_lens.push(window.len()),
            None => return Ok(None),
        }
    }
    let total: usize = part_lens.iter().sum();

    // Any other aligned input of the consumer must be positionally aligned
    // with the union's packed output, i.e. have the same total length; the
    // clones read its rows through windows of the edge's window.
    let mut within = vec![None; consumer.inputs.len()];
    for (i, (edge, &aligned)) in consumer.edges().zip(&aligned_flags).enumerate() {
        if aligned && edge.0 != union_id {
            match edge_window(plan, profile, edge) {
                Some(window) if window.len() == total => within[i] = Some(window),
                _ => return Ok(None),
            }
        }
    }

    // Clone the consumer once per union input: it reads that part where it
    // read the union, each other aligned input at the part's offset, and
    // every broadcast input as before.
    let mut clones = Vec::with_capacity(union_node.inputs.len());
    let mut offset = 0usize;
    for (part, &len) in union_node.edges().zip(&part_lens) {
        let edges: Vec<_> = consumer
            .edges()
            .zip(&within)
            .map(|(edge, within)| match within {
                _ if edge.0 == union_id => part,
                Some(w) => (edge.0, Some(RowRange::new(w.start + offset, w.start + offset + len))),
                None => edge,
            })
            .collect();
        clones.push(plan.add_edges(consumer.spec.clone(), edges));
        offset += len;
    }

    let parts: Vec<_> = clones.iter().map(|&clone| (clone, None)).collect();
    let combiner = plan.recombine(consumer_id, &parts)?;
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

    fn scan(column: &str) -> OperatorSpec {
        OperatorSpec::ScanColumn { table: "t".into(), column: column.into() }
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

    /// The halves of `t.a`'s 1,000 rows, as windows on the edges reading it.
    const HEAD: Option<RowRange> = Some(RowRange { start: 0, end: 500 });
    const TAIL: Option<RowRange> = Some(RowRange { start: 500, end: 1000 });

    /// Plan shaped like the paper's Fig. 5: two selects packed by a union,
    /// whose output is fetched into and then aggregated.
    ///   select(a[0,500)) ─┐
    ///                     union ── fetch(b) ── sum ── finalize
    ///   select(a[500,1000))┘
    fn union_plan() -> (Plan, NodeId, NodeId, NodeId, NodeId) {
        let mut p = Plan::new();
        let (a0, a1) = (p.add(scan("a"), vec![]), p.add(scan("a"), vec![]));
        let pred = Predicate::cmp(CmpOp::Lt, 100i64);
        let s0 = p.add_edges(OperatorSpec::Select { predicate: pred.clone() }, [(a0, HEAD)]);
        let s1 = p.add_edges(OperatorSpec::Select { predicate: pred }, [(a1, TAIL)]);
        let union = p.add(OperatorSpec::ExchangeUnion, vec![s0, s1]);
        let b = p.add(scan("b"), vec![]);
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
        let (a0, a1) = (p.add(scan("a"), vec![]), p.add(scan("a"), vec![]));
        // placeholder value columns
        let f0 = p.add_edges(OperatorSpec::Fetch, [(a0, HEAD), (a0, HEAD)]);
        let f1 = p.add_edges(OperatorSpec::Fetch, [(a1, TAIL), (a1, TAIL)]);
        let union = p.add(OperatorSpec::ExchangeUnion, vec![f0, f1]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![union]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        let prof = profile_with(&[(f0, 500), (f1, 500), (union, 1000), (agg, 1)]);
        let outcome = propagate_union(&mut p, &prof, union).unwrap().unwrap();
        p.validate().unwrap();
        assert_eq!(outcome.combiner, Some(fin));
        assert_eq!(p.count_of("aggregate"), 2);
        assert_eq!(p.count_of("union"), 0);
        assert_eq!(p.node(fin).unwrap().inputs.len(), 2);
    }

    /// `union_plan` with `n` selects over `n` 100-row windows of scans.
    fn wide_union_plan(n: usize) -> (Plan, NodeId, QueryProfile) {
        let mut p = Plan::new();
        let pred = Predicate::cmp(CmpOp::Lt, 100i64);
        let selects: Vec<NodeId> = (0..n)
            .map(|i| {
                let a = p.add(scan("a"), vec![]);
                let window = Some(RowRange::new(i * 100, (i + 1) * 100));
                p.add_edges(OperatorSpec::Select { predicate: pred.clone() }, [(a, window)])
            })
            .collect();
        let union = p.add(OperatorSpec::ExchangeUnion, selects.clone());
        let b = p.add(scan("b"), vec![]);
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
        let b = p.add(scan("b"), vec![]);
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
        let (a0, a1) = (p.add(scan("a"), vec![]), p.add(scan("a"), vec![]));
        let select = || OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 100i64) };
        let s0 = p.add_edges(select(), [(a0, HEAD)]);
        let s1 = p.add_edges(select(), [(a1, TAIL)]);
        let inner = p.add(OperatorSpec::ExchangeUnion, vec![s0, s1]);
        let s2 = p.add_edges(select(), [(a0, HEAD)]);
        let outer = p.add(OperatorSpec::ExchangeUnion, vec![inner, s2]);
        p.set_root(outer);
        let prof = profile_with(&[(s0, 10), (s1, 10), (s2, 10), (inner, 20)]);
        let outcome = propagate_union(&mut p, &prof, inner).unwrap().unwrap();
        p.validate().unwrap();
        assert_eq!(outcome.combiner, Some(outer));
        assert!(!p.contains(inner));
        assert_eq!(p.node(outer).unwrap().inputs, vec![s0, s1, s2]);
    }

    /// `union(a[0, 600), a[600, 1000))` and a second column feeding a calc
    /// over both; the second column, `other_rows` long, is read through
    /// `other_window`.
    fn calc_over_union_plan(
        other_rows: usize,
        other_window: Option<RowRange>,
    ) -> (Plan, NodeId, QueryProfile) {
        let mut p = Plan::new();
        let (a0, a1) = (p.add(scan("a"), vec![]), p.add(scan("a"), vec![]));
        let (head, tail) = (RowRange::new(0, 600), RowRange::new(600, 1000));
        let union = p.add_edges(OperatorSpec::ExchangeUnion, [(a0, Some(head)), (a1, Some(tail))]);
        let other = p.add(scan("b"), vec![]);
        let calc = p.add_edges(
            OperatorSpec::Calc {
                op: apq_operators::BinaryOp::Mul,
                left_scalar: None,
                right_scalar: None,
            },
            [(union, None), (other, other_window)],
        );
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![calc]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        let prof = profile_with(&[(other, other_rows), (union, 1000), (calc, 1000)]);
        (p, union, prof)
    }

    #[test]
    fn consumer_with_second_aligned_input_is_windowed() {
        // union (of two scanned halves) and another column feed a calc; the
        // medium mutation must window the other column per partition.
        let (mut p, union, prof) = calc_over_union_plan(1000, None);
        let outcome = propagate_union(&mut p, &prof, union).unwrap().unwrap();
        p.validate().unwrap();
        assert_eq!(outcome.clones.len(), 2);
        assert_eq!(p.count_of("slice"), 0);
        assert_eq!(p.count_of("scan"), 3);
        // The clones read each part through its window and `other` over
        // [0,600) and [600,1000).
        let (head, tail) = (Some(RowRange::new(0, 600)), Some(RowRange::new(600, 1000)));
        let edges: Vec<Vec<_>> =
            outcome.clones.iter().map(|&c| p.node(c).unwrap().edges().collect()).collect();
        assert_eq!(edges, vec![vec![(0, head), (3, head)], vec![(1, tail), (3, tail)]]);
    }

    #[test]
    fn windows_compose_with_the_edge_window_and_stay_inside_it() {
        // `other` is read at [150, 1150): the parts' windows are offset into
        // it. A window that claims more rows than the union's total keeps
        // the mutation away.
        let (mut p, union, prof) = calc_over_union_plan(1200, Some(RowRange::new(150, 1150)));
        let outcome = propagate_union(&mut p, &prof, union).unwrap().unwrap();
        let windows: Vec<_> =
            outcome.clones.iter().map(|&c| p.node(c).unwrap().window(1)).collect();
        assert_eq!(windows, vec![Some(RowRange::new(150, 750)), Some(RowRange::new(750, 1150))]);

        let (mut p, union, prof) = calc_over_union_plan(1200, Some(RowRange::new(0, 1100)));
        assert!(propagate_union(&mut p, &prof, union).unwrap().is_none());
        // Unwindowed, `other` is its scan's 1,200 rows: not aligned either.
        let (mut p, union, prof) = calc_over_union_plan(1200, None);
        assert!(propagate_union(&mut p, &prof, union).unwrap().is_none());
    }

    #[test]
    fn a_windowed_read_of_the_union_is_left_alone_and_inlining_keeps_windows() {
        // The calc reads a window of the union: its parts are not windows of
        // that window, so nothing is propagated.
        let (mut p, union, prof) = calc_over_union_plan(1000, None);
        let calc = p.consumers(union)[0];
        p.node_mut(calc).unwrap().windows[0] = Some(RowRange::new(0, 500));
        let nodes = p.node_count();
        assert!(propagate_union(&mut p, &prof, union).unwrap().is_none());
        assert_eq!(p.node_count(), nodes);

        // A union of windows inlined into another union keeps each window.
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let pred = Predicate::cmp(CmpOp::Lt, 100i64);
        let sel = p.add(OperatorSpec::Select { predicate: pred }, vec![a]);
        let (head, tail) = (Some(RowRange::new(0, 10)), Some(RowRange::new(10, 99)));
        let inner = p.add_edges(OperatorSpec::ExchangeUnion, [(sel, head), (sel, tail)]);
        let outer = p.add(OperatorSpec::ExchangeUnion, vec![inner, a]);
        p.set_root(outer);
        let prof = profile_with(&[(sel, 99), (inner, 99)]);
        let outcome = propagate_union(&mut p, &prof, inner).unwrap().unwrap();
        p.validate().unwrap();
        assert_eq!(outcome.combiner, Some(outer));
        let edges: Vec<_> = p.node(outer).unwrap().edges().collect();
        assert_eq!(edges, vec![(sel, head), (sel, tail), (a, None)]);
    }
}
