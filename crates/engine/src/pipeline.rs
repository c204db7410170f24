//! Planning a query into steps: fused pipelines along the plan's cuts
//! (Leis et al., "Morsel-Driven Parallelism", adapted to this engine's plan
//! IR).
//!
//! The engine has one execution runtime (the driver behind
//! [`crate::Engine`]) and one planning of a plan into the step graph that
//! runtime executes, decided by the plan's cuts ([`crate::plan::Cuts`]).
//! Every step is a `Pipeline` — a non-empty chain of stages that the
//! driver's one task body runs — and a step either streams or it does not.
//! A **whole-node step** is the one-stage chain that does not stream: one
//! task over whole inputs. A streaming step has one source, its
//! **producer**: the earlier step whose published list its head streams,
//! one task per range of it.
//!
//! A node without cuts runs whole. A node with explicit cut offsets heads a
//! streaming step, one task per part. A node that adopts its stream's parts
//! or is cut into **morsels** ([`Cuts::Every`]; [`Plan::cut_into_morsels`]
//! cuts every node that may take them) *joins its producer's chain* wherever
//! the rules below allow, and heads a step of its own where they do not:
//! each range then flows through all fused stages while its data is
//! cache-hot, and the per-stage materialization disappears inside the
//! pipeline.
//!
//! Nor is a step's output packed back into one chunk. The driver publishes
//! an ordered list of parts, and a consumer that streams the list — or zips
//! it as a range-aligned input — runs its stages once per part it covers,
//! reading each part where it lies. Only partial aggregates and key sets
//! merge as they are published; a list some reader needs whole (a breaker's
//! input, a looked-up column, a build side, the root) is packed once, on
//! that read.
//!
//! ```text
//! plan as built (no cuts)            plan.cut_into_morsels(n)
//! ========================            ========================
//!
//!  scan ──► [whole chunk]            scan ──► [whole column] (whole-node step)
//!            select ──► [chunk]      pipeline: producer scan → select → fetch
//!                    fetch ─► [chunk]  morsel 0 ─► sel₀ fetch₀ ─► part 0 ─┐
//!                          calc ─► out morsel 1 ─► sel₁ fetch₁ ─► part 1 ─┤
//!                                      morsel 2 ─► sel₂ fetch₂ ─► part 2 ─┤
//!                                    pipeline: producer fetch → calc      │
//!                                      morsel 0 ─► calc once per part ◄───┘
//!  (one task per operator,           (one task per MORSEL, stages fused; a
//!   whole chunks between them)        morsel adopts the parts it covers)
//! ```
//!
//! # Which chains fuse
//!
//! A pipeline is a maximal linear chain of *streamable* stages — the
//! operators that may run in parts ([`crate::plan::OperatorSpec::is_parallelizable`]).
//! Each processes one input row-wise, the input it *streams*: its first,
//! except a **candidate-refining select** (`Select` over a column and a
//! candidate list), which streams its candidates and reads its column whole,
//! since its outputs are a subset of its candidates, not positions of its
//! input. Every other input is read whole — hash tables, columns being
//! fetched into — or, for the range-aligned second inputs of `Calc`
//! col⊗col, `IfThenElse` and `GroupAgg` keys⊗values, cut at the stream's
//! ranges ([`crate::plan::OperatorSpec::aligned_inputs`]); their whole row
//! count must equal the stream's, or the task reports the `LengthMismatch`
//! whole-node execution would. Breakers (hash build, finalize) run
//! whole between pipelines. Aggregates and key sets only *terminate* a
//! chain: each piece yields a partial that the driver merges in stream order
//! (`GroupAgg` and `KeySet` are enforced explicitly — see
//! `is_terminal_stage`). Every intermediate stage
//! has exactly one consumer, the next stage, and only the terminal's output
//! is published. A node with explicit cut offsets never joins a chain below
//! its head, since its offsets address its stream whole; one that adopts its
//! stream's parts may, since in a chain it runs once per piece anyway, and
//! so may one cut into morsels, which in a chain runs over its head's
//! ranges whatever its own morsel size.
//!
//! Two ordering constraints apply inside a chain, both triggered by a stage
//! that has *created a new stream* (a selection or join compacts its input,
//! so a morsel yields only morsel-local ranks, and morsel lengths become
//! data dependent):
//!
//! 1. no later stage whose output values are positions of its input (a
//!    selection over a column, a join) may fuse — its output bases would be
//!    morsel-local. A refining select may: its outputs are values of its
//!    candidates, correct in every morsel, and it marks the stream
//!    compacted in turn;
//! 2. no later stage with a second range-aligned input may fuse — the
//!    producer's ranges no longer describe the stream, so the cut of the
//!    shared input would zip against the wrong rows.
//!
//! Either stage instead starts its own pipeline over the published list,
//! whose parts carry their global stream positions (see `numbers_its_input`
//! / `has_aligned_second_input` below).
//!
//! # Result equivalence
//!
//! Every set of cuts produces **byte-identical** results whatever order the scheduler dispatches in, because
//! [`apq_columnar::Column::slice`] keeps absolute base oids, positional
//! slices of candidate/join streams carry their `stream_base` offset
//! ([`crate::chunk::Chunk::Oids`]), and a step publishes its pieces'
//! outputs in stream order, each relabelled so that it *is* the slice at its
//! offset of the chunk packing them would make. Partial aggregates merge in
//! stream order as they are published, so a `FinalizeAgg` reads one
//! partial whatever the parts of the aggregate before it.

use crate::error::Result;
use crate::plan::{Cuts, NodeId, OperatorSpec, Plan, Sorted};

/// One step of the plan: a chain of stages that one task body runs. A
/// whole-node step is the one-stage chain that does not stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Pipeline {
    /// `Some` when the step streams: the node whose published chunk (a
    /// scan's, a breaker's or another pipeline's terminal's — always in an
    /// earlier step) is cut into the head's ranges, always the input `stages[0]`
    /// streams ([`stream_input`]). `None` for a whole-node step.
    pub producer: Option<NodeId>,
    /// Stage nodes in chain order; each stage after the first streams its
    /// predecessor's output as the input [`stream_input`] names. Non-empty.
    pub stages: Vec<NodeId>,
}

impl Pipeline {
    /// The stage whose output is materialized and published to the plan.
    pub fn terminal(&self) -> NodeId {
        *self.stages.last().expect("pipeline has at least one stage")
    }
}

/// The step decomposition of a plan: a DAG of [`Pipeline`]s covering every
/// live node exactly once.
#[derive(Debug, Clone)]
pub(crate) struct PipelinePlan {
    /// The steps, in topological order; the driver orders execution by
    /// `deps`/`out_edges` alone.
    pub steps: Vec<Pipeline>,
    /// `step_of[node] == Some(step index)` for every live node.
    #[cfg(test)]
    pub step_of: Vec<Option<usize>>,
    /// Per step: number of input edges arriving from other steps.
    pub deps: Vec<usize>,
    /// Per step: `(consumer step, edge count)` pairs fed by this step's
    /// published node.
    pub out_edges: Vec<Vec<(usize, usize)>>,
    /// Per step: `(producer step, edge count)` pairs this step reads — the
    /// transpose of `out_edges`.
    pub in_edges: Vec<Vec<(usize, usize)>>,
}

/// The input a stage streams: a candidate-refining `Select`'s candidate
/// list (input 1) and every other stage's first input. A refining select is
/// a *filter*, not a position emitter: its outputs are a subset of its
/// candidates' values, so it can stream a window of them while its column
/// input is shared whole, never cut.
pub(crate) fn stream_input(spec: &OperatorSpec, n_inputs: usize) -> usize {
    usize::from(matches!(spec, OperatorSpec::Select { .. }) && n_inputs > 1)
}

/// True when the stage *terminates* any pipeline it joins: its output is a
/// pipeline-breaker chunk kind that no later stage could stream, so the
/// chain must stop extending once it is pushed. `GroupAgg` qualifies — each
/// morsel produces a partial [`apq_operators::GroupedAgg`]
/// (`Chunk::Grouped`) and the driver merges the partials in stream order,
/// keeping float results byte-exact — and so does `KeySet`: each piece
/// builds a [`apq_operators::KeySetPart`] (`Chunk::KeySet`), which the
/// driver ORs into the step's key set as it folds the pieces.
/// `ScalarAgg` is a de-facto terminal for the same reason but needs no
/// explicit rule: nothing fusible consumes its `AggPartial`.
fn is_terminal_stage(spec: &OperatorSpec) -> bool {
    matches!(spec, OperatorSpec::GroupAgg { .. } | OperatorSpec::KeySet)
}

/// True when the operator *compacts* its streamed input into a brand-new
/// stream (candidate list or join result): selections and the join family.
/// A morsel of the input yields only the morsel-local part, so morsel
/// lengths become data dependent and the stream's positions morsel-relative.
fn creates_stream(spec: &OperatorSpec) -> bool {
    matches!(
        spec,
        OperatorSpec::Select { .. }
            | OperatorSpec::HashProbe
            | OperatorSpec::SemiJoin
            | OperatorSpec::AntiJoin
    )
}

/// True when the operator's output *values* are positions of its streamed
/// input (base oid + local index): every stream creator but a
/// candidate-refining select, whose outputs are values of its candidates.
/// None of these may be fused after a stream creator: its input's base
/// would be a morsel-local 0 instead of the global stream position, and it
/// would silently emit morsel-relative positions (the bug class the
/// `stream_base` invariant exists to prevent). Value-transforming stages
/// (fetch, calc, predicate masks, join-side projections, partial
/// aggregates) and refining selects are safe anywhere: their values are
/// correct per morsel and their base labels reassemble to the
/// whole-node label (a fresh stream's base 0).
fn numbers_its_input(spec: &OperatorSpec, n_inputs: usize) -> bool {
    creates_stream(spec) && stream_input(spec, n_inputs) == 0
}

/// True when the operator zips a *second range-aligned input* against its
/// first (`Calc` col⊗col, `IfThenElse`): the executor slices that shared
/// input at the same ranges as the pipeline's producer. This is only
/// sound while the stream still *is* the producer's rows — once a stage has
/// compacted the stream ([`creates_stream`]), morsel lengths are data
/// dependent and the grid-aligned cut of the external input would zip
/// against the wrong (or wrongly sized) rows. Such a stage must then start
/// its own pipeline over the published list, where alignment is
/// re-established against the whole intermediate.
fn has_aligned_second_input(spec: &OperatorSpec, n_inputs: usize) -> bool {
    n_inputs > 1 && spec.aligned_inputs(n_inputs).iter().skip(1).any(|&a| a)
}

impl PipelinePlan {
    /// Plans a validated plan, in the order its validation sorted it in
    /// ([`Plan::validated_order`]), into steps along its cuts: a node without
    /// cuts is a whole-node step; a node with cuts heads a streaming step,
    /// unless it adopts its stream's parts or is cut into morsels and joins
    /// its producer's chain. Fusion is conservative: a chain only forms
    /// where the plan structure *guarantees* that intermediate outputs are
    /// consumed exactly once, by the next stage, as the input it streams.
    /// Everything else — multi-consumer fan-out, pipeline breakers, exotic
    /// arities — heads a step of its own.
    pub fn analyze(plan: &Plan, sorted: &Sorted) -> Result<PipelinePlan> {
        // Chain heads are found in topological order: a head's producer, and
        // the head of a chain a node joins, already belong to a step.
        let capacity = plan.capacity();
        let mut step_of: Vec<Option<usize>> = vec![None; capacity];
        let mut steps: Vec<Pipeline> = Vec::new();

        // `chain_next(n, stream_created)` = Some(c) when node n's output is
        // consumed exactly once, by c, as the input c streams, and c adopts
        // its stream's parts or is cut into morsels. Explicit offsets address
        // the stream whole, so a stage cut at them is never fed a
        // predecessor's piece: it heads a pipeline over the published list
        // instead. Once the chain has passed a stream-creating stage
        // (`stream_created`), a stage that numbers its input may not join
        // (its input bases would be range-local), nor may a stage zipping a
        // second aligned input. They instead start their own pipeline over
        // the published list, which is correct.
        let chain_next = |id: NodeId, stream_created: bool| -> Option<NodeId> {
            // One entry per input reference: a `calc(x, x)` reads `x` twice.
            let [consumer] = sorted.consumers[id].as_slice() else { return None };
            let node = plan.node(*consumer).ok()?;
            let n_inputs = node.inputs.len();
            let joins = matches!(node.cuts, Cuts::Adopt | Cuts::Every(_));
            if node.inputs[stream_input(&node.spec, n_inputs)] != id || !joins {
                return None;
            }
            let blocked = stream_created
                && (numbers_its_input(&node.spec, n_inputs)
                    || has_aligned_second_input(&node.spec, n_inputs));
            (!blocked).then_some(*consumer)
        };

        for &id in &sorted.order {
            if step_of[id].is_some() {
                continue;
            }
            let node = plan.node(id)?;
            let step = if node.cuts.is_whole() {
                Pipeline { producer: None, stages: vec![id] }
            } else {
                // The head streams over producer slices whose bases are
                // globally correct (column slices keep absolute oids, stream
                // slices keep `stream_base`), so the head itself may emit
                // positions; the constraint starts after the first
                // in-pipeline stream creator.
                let mut stages = vec![id];
                let mut stream_created = creates_stream(&node.spec);
                if !is_terminal_stage(&node.spec) {
                    while let Some(next) = chain_next(stages[stages.len() - 1], stream_created) {
                        let spec = &plan.node(next)?.spec;
                        stream_created |= creates_stream(spec);
                        stages.push(next);
                        if is_terminal_stage(spec) {
                            break;
                        }
                    }
                }
                Pipeline { producer: node.stream(), stages }
            };
            for &n in &step.stages {
                step_of[n] = Some(steps.len());
            }
            steps.push(step);
        }

        // Step-level dependency edges: count every input reference that
        // crosses a step boundary. Only published (terminal) nodes can be
        // referenced across steps, by construction.
        let mut deps = vec![0usize; steps.len()];
        let mut out_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); steps.len()];
        let mut in_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); steps.len()];
        fn count_edge(edges: &mut Vec<(usize, usize)>, other: usize) {
            match edges.iter_mut().find(|(s, _)| *s == other) {
                Some((_, count)) => *count += 1,
                None => edges.push((other, 1)),
            }
        }
        for (idx, step) in steps.iter().enumerate() {
            for &member in &step.stages {
                for &input in &plan.node(member)?.inputs {
                    let producer_step = step_of[input].expect("live input is assigned");
                    if producer_step != idx {
                        deps[idx] += 1;
                        count_edge(&mut out_edges[producer_step], idx);
                        count_edge(&mut in_edges[idx], producer_step);
                    }
                }
            }
        }

        Ok(PipelinePlan {
            steps,
            #[cfg(test)]
            step_of,
            deps,
            out_edges,
            in_edges,
        })
    }

    /// Per step: the cross-step edges that read its published chunk, each
    /// counted once — each edge of a node reading the chunk twice
    /// (`calc(x, x)`) too. The step finishing the last of
    /// them is the chunk's last reader.
    pub fn readers(&self) -> Vec<usize> {
        self.out_edges.iter().map(|edges| edges.iter().map(|&(_, n)| n).sum()).collect()
    }

    /// Number of streaming pipelines in the decomposition.
    #[cfg(test)]
    pub fn n_pipelines(&self) -> usize {
        self.steps.iter().filter(|s| s.producer.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DEFAULT_MORSEL_ROWS;
    use apq_columnar::ScalarValue;
    use apq_operators::{AggFunc, BinaryOp, CmpOp, Predicate};

    fn scan(col: &str) -> OperatorSpec {
        OperatorSpec::ScanColumn { table: "t".into(), column: col.into() }
    }

    /// scan(a) → select → fetch(b) → agg → finalize, with b scanned separately.
    fn filter_sum_plan() -> Plan {
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

    /// The whole-node step of `node`.
    fn whole(node: NodeId) -> Pipeline {
        Pipeline { producer: None, stages: vec![node] }
    }

    /// The pipeline streaming `producer`'s chunk through `stages`.
    fn streams(producer: NodeId, stages: &[NodeId]) -> Pipeline {
        Pipeline { producer: Some(producer), stages: stages.to_vec() }
    }

    /// The planning of a valid plan.
    fn plan_steps(plan: &Plan) -> PipelinePlan {
        PipelinePlan::analyze(plan, &plan.validated_order().unwrap()).unwrap()
    }

    /// The planning of `plan` cut into morsels — and, for every plan this
    /// module's tests build, the contract of a plan without cuts: exactly
    /// one whole-node step per live node, no pipeline, and a step graph that
    /// is the plan DAG edge for edge.
    fn analyze(plan: &Plan) -> PipelinePlan {
        let graph = plan_steps(plan);
        assert_eq!(graph.n_pipelines(), 0);
        for node in plan.node_ids() {
            let idx = graph.step_of[node].unwrap();
            assert_eq!(graph.steps[idx], whole(node));
            let inputs = &plan.node(node).unwrap().inputs;
            assert_eq!(graph.deps[idx], inputs.len(), "node {node}");
            let fed: usize = graph
                .out_edges
                .iter()
                .flatten()
                .filter(|&&(consumer, _)| consumer == idx)
                .map(|&(_, edges)| edges)
                .sum();
            assert_eq!(fed, inputs.len(), "node {node}: out_edges disagree with deps");
            for &input in inputs {
                let producer = graph.step_of[input].unwrap();
                assert!(graph.out_edges[producer].iter().any(|&(c, _)| c == idx));
            }
        }
        assert_eq!(graph.steps.len(), plan.node_count());
        plan_steps(&plan.cut_into_morsels(DEFAULT_MORSEL_ROWS))
    }

    #[test]
    fn fuses_scan_select_fetch_agg_chain() {
        let plan = filter_sum_plan();
        let fused = analyze(&plan);
        // Expected: scan a whole, producing for the fused [select, fetch,
        // agg]; scan b whole (feeds the fetch as a shared, unaligned input);
        // finalize whole.
        assert_eq!(fused.n_pipelines(), 1);
        assert_eq!(fused.steps[fused.step_of[0].unwrap()], whole(0));
        let pipeline = fused.steps.iter().find(|s| s.producer.is_some()).unwrap();
        assert_eq!(pipeline.producer, Some(0));
        assert_eq!(pipeline.stages, vec![1, 3, 4]);
        assert_eq!(pipeline.terminal(), 4);
        // Every live node is assigned to exactly one step.
        for id in plan.node_ids() {
            assert!(fused.step_of[id].is_some(), "node {id} unassigned");
        }
    }

    #[test]
    fn step_dependencies_count_cross_step_edges() {
        let plan = filter_sum_plan();
        let fused = analyze(&plan);
        let pipe_idx = fused.steps.iter().position(|s| s.producer.is_some()).unwrap();
        let scan_a_idx = fused.step_of[0].unwrap();
        let scan_b_idx = fused.step_of[2].unwrap();
        let fin_idx = fused.step_of[5].unwrap();
        assert_ne!(pipe_idx, scan_b_idx);
        // The pipeline waits for its producer, scan a, and for scan b
        // (fetch's shared input).
        assert_eq!(fused.deps[pipe_idx], 2);
        assert_eq!(fused.deps[scan_a_idx], 0);
        assert_eq!(fused.deps[scan_b_idx], 0);
        assert!(fused.out_edges[scan_a_idx].contains(&(pipe_idx, 1)));
        // Finalize waits for the pipeline's terminal aggregate.
        assert_eq!(fused.deps[fin_idx], 1);
        assert!(fused.out_edges[pipe_idx].contains(&(fin_idx, 1)));
        assert!(fused.out_edges[scan_b_idx].contains(&(pipe_idx, 1)));
    }

    #[test]
    fn multi_consumer_nodes_break_chains() {
        // scan a feeds two selects: no fusion across the fan-out.
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let s1 =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 5i64) }, vec![a]);
        let s2 =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Ge, 5i64) }, vec![a]);
        let fetch = p.add(OperatorSpec::Fetch, vec![s2, a]);
        p.set_root(fetch);
        let fused = analyze(&p);
        // The scan is a whole-node step; each select becomes its own
        // pipeline over the scan's chunk, the second with its fetch.
        assert_eq!(fused.step_of[a], Some(0));
        assert_eq!(fused.steps[0], whole(0));
        let s1_step = &fused.steps[fused.step_of[s1].unwrap()];
        assert!(
            *s1_step == streams(a, &[s1]),
            "select over a fan-out scan should stream the materialized chunk: {s1_step:?}"
        );
        assert_eq!(fused.steps[fused.step_of[fetch].unwrap()], streams(a, &[s2, fetch]));
    }

    #[test]
    fn candidate_refining_selects_extend_the_chain_through_their_candidates() {
        // scan a → select → select(b, ·) → select(c, ·) → fetch(d) → agg:
        // each refining select streams its predecessor's candidates and
        // shares its column whole, so the chain runs on past two stream
        // creators; the fetch, a value transform, joins it too.
        let sel = |p: &mut Plan, inputs: Vec<NodeId>| {
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 50i64) }, inputs)
        };
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let s1 = sel(&mut p, vec![a]);
        let b = p.add(scan("b"), vec![]);
        let s2 = sel(&mut p, vec![b, s1]);
        let c = p.add(scan("c"), vec![]);
        let s3 = sel(&mut p, vec![c, s2]);
        let d = p.add(scan("d"), vec![]);
        let fetched = p.add(OperatorSpec::Fetch, vec![s3, d]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetched]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        let fused = analyze(&p);
        assert_eq!(fused.n_pipelines(), 1);
        let chain_idx = fused.step_of[s1].unwrap();
        assert_eq!(fused.steps[chain_idx], streams(a, &[s1, s2, s3, fetched, agg]));
        // The producer and the three shared columns, whole-node steps each.
        assert_eq!(fused.deps[chain_idx], 4);
        for column in [b, c, d] {
            assert_eq!(fused.steps[fused.step_of[column].unwrap()], whole(column));
        }

        // A refining select whose candidates fan out heads its own pipeline
        // over them; a select over a column fetched after it numbers its
        // input, so it does not join the chain but streams the fetch.
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let s1 = sel(&mut p, vec![a]);
        let b = p.add(scan("b"), vec![]);
        let s2 = sel(&mut p, vec![b, s1]);
        let fetched = p.add(OperatorSpec::Fetch, vec![s2, b]);
        let s3 = sel(&mut p, vec![fetched]);
        p.add(OperatorSpec::Fetch, vec![s1, a]);
        p.set_root(s3);
        let fused = analyze(&p);
        assert_eq!(fused.steps[fused.step_of[s1].unwrap()], streams(a, &[s1]));
        assert_eq!(fused.steps[fused.step_of[s2].unwrap()], streams(s1, &[s2, fetched]));
        assert_eq!(fused.steps[fused.step_of[s3].unwrap()], streams(fetched, &[s3]));
    }

    #[test]
    fn cut_nodes_head_their_own_step_and_adopting_nodes_join_their_producers() {
        // scan a → select → fetch(·, a) → calc: the fetch, cut at 10, heads
        // a step over the select's list, since its offsets address that list
        // whole; a fetch that adopts its stream's parts joins the chain of a
        // select with cuts, and the calc behind it joins too when it adopts
        // them or takes morsels.
        let plan = |cuts: [Cuts; 3]| {
            let mut p = Plan::new();
            let a = p.add(scan("a"), vec![]);
            let select = OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 50i64) };
            let sel = p.add(select, vec![a]);
            let fetch = p.add(OperatorSpec::Fetch, vec![sel, a]);
            let add_one = OperatorSpec::Calc {
                op: BinaryOp::Add,
                left_scalar: None,
                right_scalar: Some(ScalarValue::I64(1)),
            };
            let calc = p.add(add_one, vec![fetch]);
            for (node, cuts) in [sel, fetch, calc].into_iter().zip(cuts) {
                p.node_mut(node).unwrap().cuts = cuts;
            }
            p.set_root(calc);
            (p, [a, sel, fetch, calc])
        };
        let steps = |p: &Plan| plan_steps(p).steps;
        let none = Cuts::default;
        let (cut, [a, sel, fetch, calc]) = plan([none(), Cuts::At(vec![10]), none()]);
        assert_eq!(steps(&cut), [whole(a), whole(sel), streams(sel, &[fetch]), whole(calc)]);
        let morsels = cut.cut_into_morsels(64);
        assert_eq!(steps(&morsels), [whole(a), streams(a, &[sel]), streams(sel, &[fetch, calc])]);

        // An adopting node whose producer runs whole heads its own step.
        let (adopting, _) = plan([none(), Cuts::Adopt, none()]);
        assert_eq!(steps(&adopting), [whole(a), whole(sel), streams(sel, &[fetch]), whole(calc)]);
        let morsels = adopting.cut_into_morsels(64);
        assert_eq!(steps(&morsels), [whole(a), streams(a, &[sel, fetch, calc])]);

        // Behind a head with cuts, adoption and morsels of any size fuse:
        // one step instead of three.
        for tail in [Cuts::Adopt, Cuts::Every(3), Cuts::Every(1 << 20)] {
            let (fused, _) = plan([Cuts::At(vec![10]), Cuts::Adopt, tail]);
            assert_eq!(steps(&fused), [whole(a), streams(a, &[sel, fetch, calc])]);
        }
        // A whole node ends the chain, and an adopting one behind it heads a
        // step of its own.
        let (stopped, _) = plan([Cuts::At(vec![10]), none(), Cuts::Adopt]);
        assert_eq!(
            steps(&stopped),
            [whole(a), streams(a, &[sel]), whole(fetch), streams(fetch, &[calc])]
        );
    }

    #[test]
    fn position_emitters_do_not_fuse_after_a_stream_creator() {
        // scan → select → fetch → semijoin: the select creates a new
        // candidate stream per morsel, so the semijoin (which emits stream
        // positions) must not join the chain — it gets its own pipeline
        // over the assembled fetch output.
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 3_995i64) }, vec![a]);
        let b = p.add(scan("b"), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let dim = p.add(scan("k"), vec![]);
        let hash = p.add(OperatorSpec::HashBuild, vec![dim]);
        let semi = p.add(OperatorSpec::SemiJoin, vec![fetch, hash]);
        p.set_root(semi);
        let fused = analyze(&p);

        let first = &fused.steps[fused.step_of[sel].unwrap()];
        assert!(
            *first == streams(a, &[sel, fetch]),
            "chain should stop before the semijoin: {first:?}"
        );
        let semi_step = &fused.steps[fused.step_of[semi].unwrap()];
        assert!(
            *semi_step == streams(fetch, &[semi]),
            "semijoin should start its own pipeline over the assembled chunk: {semi_step:?}"
        );

        // A probe directly over a base column (no prior stream creator)
        // still fuses, and value-transforming stages may follow it.
        let mut p2 = Plan::new();
        let outer = p2.add(scan("a"), vec![]);
        let dim = p2.add(scan("k"), vec![]);
        let hash = p2.add(OperatorSpec::HashBuild, vec![dim]);
        let join = p2.add(OperatorSpec::HashProbe, vec![outer, hash]);
        let side = p2
            .add(OperatorSpec::ProjectJoinSide { side: crate::plan::JoinSide::Outer }, vec![join]);
        let vals = p2.add(scan("b"), vec![]);
        let fetched = p2.add(OperatorSpec::Fetch, vec![side, vals]);
        let agg = p2.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetched]);
        let fin = p2.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p2.set_root(fin);
        let fused2 = analyze(&p2);
        let chain = &fused2.steps[fused2.step_of[join].unwrap()];
        assert!(
            *chain == streams(outer, &[join, side, fetched, agg]),
            "probe + value transforms should stay fused: {chain:?}"
        );
    }

    #[test]
    fn two_input_calc_fuses_on_the_source_grid() {
        // scan a → calc(a ⊗ b) → agg → finalize, b scanned separately: the
        // col⊗col calc fuses into the scan's pipeline; b stays a whole-node
        // step shared into it (and sliced per morsel by the executor).
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let b = p.add(scan("b"), vec![]);
        let calc = p.add(
            OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None },
            vec![a, b],
        );
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![calc]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        let fused = analyze(&p);
        let chain = &fused.steps[fused.step_of[calc].unwrap()];
        assert!(
            *chain == streams(a, &[calc, agg]),
            "col⊗col calc should fuse with its first-input scan: {chain:?}"
        );
        assert_eq!(fused.steps[fused.step_of[b].unwrap()], whole(b));
    }

    #[test]
    fn if_then_else_fuses_in_chain() {
        // scan mask → pred-mask → ifthenelse(mask, vals) → agg: the guarded
        // projection streams, its `vals` input sliced on the same grid.
        let mut p = Plan::new();
        let m = p.add(scan("a"), vec![]);
        let mask =
            p.add(OperatorSpec::PredMask { predicate: Predicate::cmp(CmpOp::Lt, 10i64) }, vec![m]);
        let vals = p.add(scan("b"), vec![]);
        let ite =
            p.add(OperatorSpec::IfThenElse { otherwise: ScalarValue::I64(0) }, vec![mask, vals]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![ite]);
        p.set_root(agg);
        let fused = analyze(&p);
        let chain = &fused.steps[fused.step_of[ite].unwrap()];
        assert!(
            *chain == streams(m, &[mask, ite, agg]),
            "ifthenelse should fuse behind the mask chain: {chain:?}"
        );
    }

    #[test]
    fn aligned_second_input_does_not_fuse_after_a_stream_creator() {
        // scan a → select → fetch(b) → calc(⊗ c): the select compacts the
        // stream, so the col⊗col calc's grid-aligned slice of c would no
        // longer line up — the calc must start its own pipeline over the
        // assembled fetch output.
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 10i64) }, vec![a]);
        let b = p.add(scan("b"), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let c = p.add(scan("c"), vec![]);
        let calc = p.add(
            OperatorSpec::Calc { op: BinaryOp::Add, left_scalar: None, right_scalar: None },
            vec![fetch, c],
        );
        p.set_root(calc);
        let fused = analyze(&p);
        let first = &fused.steps[fused.step_of[sel].unwrap()];
        assert!(
            *first == streams(a, &[sel, fetch]),
            "chain should stop before the two-input calc: {first:?}"
        );
        let calc_step = &fused.steps[fused.step_of[calc].unwrap()];
        assert!(
            *calc_step == streams(fetch, &[calc]),
            "two-input calc should restart over the assembled chunk: {calc_step:?}"
        );
    }

    #[test]
    fn group_agg_fuses_as_pipeline_terminal() {
        // scan k → groupagg(k, v), v scanned separately: the grouped
        // aggregate fuses into the key scan's pipeline as its terminal stage, with v grid-sliced per morsel by the executor.
        let mut p = Plan::new();
        let k = p.add(scan("k"), vec![]);
        let v = p.add(scan("v"), vec![]);
        let group = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![k, v]);
        p.set_root(group);
        let fused = analyze(&p);
        let chain = &fused.steps[fused.step_of[group].unwrap()];
        assert!(
            *chain == streams(k, &[group]),
            "groupagg should fuse with its key scan: {chain:?}"
        );
        assert_eq!(fused.steps[fused.step_of[v].unwrap()], whole(v));
    }

    #[test]
    fn group_agg_terminates_a_longer_chain() {
        // scan k → calc(k + 1) → groupagg(·, v): the aggregate joins at the
        // end of the calc chain and nothing may extend past it.
        let mut p = Plan::new();
        let k = p.add(scan("k"), vec![]);
        let shifted = p.add(
            OperatorSpec::Calc {
                op: BinaryOp::Add,
                left_scalar: None,
                right_scalar: Some(ScalarValue::I64(1)),
            },
            vec![k],
        );
        let v = p.add(scan("v"), vec![]);
        let group = p.add(OperatorSpec::GroupAgg { func: AggFunc::Min }, vec![shifted, v]);
        p.set_root(group);
        let fused = analyze(&p);
        let chain = &fused.steps[fused.step_of[group].unwrap()];
        assert!(
            *chain == streams(k, &[shifted, group]),
            "groupagg should terminate the calc chain: {chain:?}"
        );
    }

    #[test]
    fn group_agg_does_not_fuse_after_a_stream_creator() {
        // scan a → select → fetch(k) → groupagg(·, v): the select compacts
        // the stream, so the grid-aligned cut of v would zip against the
        // wrong rows — the aggregate must restart over the assembled chunk.
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 10i64) }, vec![a]);
        let k = p.add(scan("k"), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, k]);
        let v = p.add(scan("v"), vec![]);
        let group = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![fetch, v]);
        p.set_root(group);
        let fused = analyze(&p);
        let first = &fused.steps[fused.step_of[sel].unwrap()];
        assert!(
            *first == streams(a, &[sel, fetch]),
            "chain should stop before the groupagg: {first:?}"
        );
        let group_step = &fused.steps[fused.step_of[group].unwrap()];
        assert!(
            *group_step == streams(fetch, &[group]),
            "groupagg should restart over the assembled chunk: {group_step:?}"
        );
    }

    #[test]
    fn self_grouping_group_agg_stays_single() {
        // groupagg(x, x): inputs[0] occurs twice — neither chain nor head
        // rule admits it; it runs whole, as in a plan without cuts.
        let mut p = Plan::new();
        let x = p.add(scan("x"), vec![]);
        let group = p.add(OperatorSpec::GroupAgg { func: AggFunc::Count }, vec![x, x]);
        p.set_root(group);
        let fused = analyze(&p);
        assert_eq!(fused.steps[fused.step_of[group].unwrap()], whole(group));
    }

    #[test]
    fn self_zipping_calc_stays_single() {
        // calc(x, x): inputs[0] occurs twice, so neither the chain rule nor
        // the head rule admits it — it runs whole, as in a plan without cuts.
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sq = p.add(
            OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None },
            vec![a, a],
        );
        p.set_root(sq);
        let fused = analyze(&p);
        assert_eq!(fused.steps[fused.step_of[sq].unwrap()], whole(sq));
    }
}
