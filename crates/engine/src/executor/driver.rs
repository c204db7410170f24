//! The morsel driver: the engine's one execution runtime.
//!
//! The paper's run-time is a single dataflow rule — "an operator is
//! scheduled for execution once all its input sources are available" (§2) —
//! and this module is its single implementation. A validated plan is first
//! *planned* into a graph of [`Pipeline`] steps by [`PipelinePlan::analyze`]
//! along its cuts: a node with cuts heads a streaming step, one that adopts
//! its stream's parts or is cut into morsels joins its producer's chain
//! where it may, and every other node is a step of its own (see
//! [`crate::pipeline`]).
//!
//! The driver then runs whatever graph it was given. Dependency tracking is
//! at *step* granularity over the precomputed `deps`/`out_edges`: a step is
//! launched when its last cross-step input edge is satisfied. Every task,
//! whatever its step, runs one body ([`run_task`]), in the style of Leis et
//! al.'s morsel-driven model: push one range of the step's stream through
//! its chain of stages. A streaming step runs one task per range of its
//! producer's published list, one per part its head's cuts
//! ([`crate::plan::Cuts`]) make: its offsets, its stream's parts, or its
//! morsels. A base-table scan is a step like any other, so its ranges are
//! windows of its column with the same absolute oids. Every other step is
//! one task over whole inputs.
//!
//! A step publishes a [`Parts`] list, not one packed chunk. A task's range
//! splits into *pieces* wherever a part of its stream or of a range-aligned
//! input ends, and the task runs its chain once per piece, so every stage
//! reads zero-copy windows of one part each; each piece's terminal output
//! is one part of the step's list. A finishing task folds into the list
//! every output the stream order allows — its own, and those of later tasks
//! that finished first — relabelled so that every read of the list equals
//! the same read of their pack, which is what whole-node execution
//! publishes; the task that finishes the last range publishes it. Only
//! partial aggregates and key sets merge (a key set's pieces into their
//! worker's part, the workers' parts at publish), and parts under half a
//! morsel — a selective
//! producer's — are packed cell by cell on a morsel grid as they are folded,
//! within one cut range and never across a cut; a list no reader takes
//! piece by piece and whose head has no cut offsets and adopts nothing is
//! packed whole at publish, since it will be read whole. Everything else that needs the
//! whole chunk (a whole-node step's inputs, a shared input such as a
//! fetch's looked-up column or a probe's build side, the root) packs it on
//! first read, once, in the result slot, in the reader's time.
//!
//! Each task records, for every stage it ran, when it began the stage, its
//! time there, its worker and how many rows of the stage's stream it read
//! ([`TaskRecord`]). The fold places each record's range in the stage's own
//! stream, in stream order, fused or not: the parts the adaptive mutations
//! rank and cut. Publishing folds every [`OperatorProfile`] number from its
//! stage's records ([`OperatorProfile::tasks`]), and every stage of a
//! streaming step names the step by its terminal
//! ([`OperatorProfile::step`]).
//!
//! Consumer steps and task fan-outs are submitted from the completing
//! worker's task context, so they start on that worker's deque. Everything
//! the tasks share lives in the [`RunContext`].
//!
//! A published list lives only as long as something reads it: each step
//! counts the cross-step edges that read its list, and the step finishing
//! the last of them releases it ([`RunContext::release`]). The root's list
//! is the query's answer and is never released, so a query holds its live
//! set of intermediates rather than every one it made.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use apq_columnar::partition::RowRange;
use apq_columnar::Catalog;
use apq_operators::KeySetPart;

use super::parts::{absorb, is_positional, merged, pieces, Folder, Parts};
use super::run::{guarded_execute, RunContext};
use super::{Engine, QueryExecution};
use crate::chunk::Chunk;
use crate::error::{EngineError, Result};
use crate::pipeline::{stream_input, Pipeline, PipelinePlan};
use crate::plan::{Cuts, OperatorSpec, Plan, Sorted, DEFAULT_MORSEL_ROWS};
use crate::profiler::{OperatorProfile, TaskRecord};
use crate::scheduler::{QueryHandle, Task, TaskContext};
use crate::sync::lock;

/// Step-graph state of one query execution, shared by all of its tasks.
struct Driver {
    run: RunContext,
    graph: PipelinePlan,
    /// Remaining cross-step input edges per step.
    step_deps: Vec<AtomicUsize>,
    /// Remaining cross-step reads of each step's published list: the step
    /// that finishes the last one releases the list.
    readers: Vec<AtomicUsize>,
    /// Per step: the cells its published list is folded on
    /// ([`Parts::publish`]), `None` for one packed part ([`cell_rows`]).
    cells: Vec<Option<usize>>,
}

/// True when a task of a streaming step reads input `i` of the stage at
/// chain position `idx` one piece at a time: the head's stream, and a
/// range-aligned input zipped against a stream on the first input. A
/// refining select's column and every other input are read whole.
fn read_by_piece(spec: &OperatorSpec, n_inputs: usize, idx: usize, i: usize) -> bool {
    let stream = stream_input(spec, n_inputs);
    if i == stream {
        idx == 0
    } else {
        stream == 0 && spec.aligned_inputs(n_inputs)[i]
    }
}

/// Per step: the cells it folds its published parts on, or `None` when it
/// publishes one packed chunk. It keeps parts when some streaming step
/// reads its list one piece at a time ([`read_by_piece`]), and when its head
/// has cut offsets or adopts its stream's parts, whose parts a whole read
/// packs in the reader's time. Otherwise every reader reads it whole, and
/// it packs at publish: kept parts that the first whole read packs measured
/// slower (`docs/architecture.md` §2.1). The cells are its head's morsels,
/// else [`DEFAULT_MORSEL_ROWS`] rows.
fn cell_rows(plan: &Plan, graph: &PipelinePlan) -> Result<Vec<Option<usize>>> {
    let mut step_of_terminal = vec![None; plan.capacity()];
    let (mut by_pieces, mut cells) = (Vec::new(), Vec::new());
    for (step, pipeline) in graph.steps.iter().enumerate() {
        step_of_terminal[pipeline.terminal()] = Some(step);
        let (keeps, rows) = match plan.node(pipeline.stages[0])?.cuts {
            Cuts::Every(rows) => (false, rows),
            ref cuts => (!cuts.is_whole(), DEFAULT_MORSEL_ROWS),
        };
        by_pieces.push(keeps);
        cells.push(rows);
    }
    for pipeline in graph.steps.iter().filter(|p| p.producer.is_some()) {
        for (idx, &stage) in pipeline.stages.iter().enumerate() {
            let node = plan.node(stage)?;
            for (i, &input) in node.inputs.iter().enumerate() {
                if read_by_piece(&node.spec, node.inputs.len(), idx, i) {
                    if let Some(producer) = step_of_terminal[input] {
                        by_pieces[producer] = true;
                    }
                }
            }
        }
    }
    Ok(by_pieces.into_iter().zip(cells).map(|(keeps, rows)| keeps.then_some(rows)).collect())
}

/// Executes a plan `sorted` by its validation: plans it into steps, seeds
/// the runnable ones and blocks until the query's last task is done.
pub(super) fn execute(
    engine: &Engine,
    plan: &Arc<Plan>,
    sorted: &Sorted,
    catalog: &Arc<Catalog>,
    handle: Arc<QueryHandle>,
) -> Result<QueryExecution> {
    let graph = PipelinePlan::analyze(plan, sorted)?;
    let state = Arc::new(Driver {
        run: RunContext::new(engine, plan, catalog, handle),
        step_deps: graph.deps.iter().map(|&d| AtomicUsize::new(d)).collect(),
        readers: graph.readers().into_iter().map(AtomicUsize::new).collect(),
        cells: cell_rows(plan, &graph)?,
        graph,
    });

    // Seed every step with no remaining cross-step dependencies.
    // Seeding consults the *static* (pre-launch) dependency counts, not the
    // atomic counters: workers already run seeded steps concurrently with
    // this loop and may drive another step's counter to zero before the
    // loop reaches it, which would double-launch that step.
    let submit = |task: Task| {
        let accepted = engine.scheduler.submit(task);
        if !accepted {
            // `Task::new` counted the task as in flight; the scheduler
            // dropped it unrun, so balance the count or `RunContext::wait`
            // could never return.
            state.run.handle.task_completed();
        }
        accepted
    };
    for (step, &n_deps) in state.graph.deps.iter().enumerate() {
        if n_deps == 0 && !launch_step(&state, step, &submit) {
            // A refused submission is a failure like any other: tasks
            // already handed over are waited for by the common tail.
            state.run.fail(EngineError::EngineShutDown);
            break;
        }
    }
    state.run.wait()
}

/// The shared state of a streaming step over a positional source: its
/// ranges, and its part list as its tasks fold their outputs in, until the
/// last one publishes it. A step run as one task over whole inputs needs
/// none: it publishes straight from that task.
struct Fanout {
    /// The part list the head stage streams; every cut range-aligned input
    /// must match its rows.
    source: Parts,
    /// Each task's `(start, len, after_cut)` ([`ranges`]).
    ranges: Vec<(usize, usize, bool)>,
    morsels: Mutex<Morsels>,
    /// For a step whose terminal is a key set, one part per worker: a task
    /// merges its pieces' key-set parts into its worker's, and the
    /// publishing task merges one part per worker, OR-ing bitmaps. The set
    /// does not depend on which worker took which range. Empty for every
    /// other step.
    key_sets: Vec<Mutex<Option<KeySetPart>>>,
}

struct Morsels {
    /// Terminal outputs and stage records of tasks done before an earlier
    /// one was, waiting for the gap to close.
    waiting: Vec<Option<(Vec<Chunk>, Vec<TaskRecord>)>>,
    /// The first range whose outputs the folder has not taken.
    next: usize,
    /// The step's part list so far: every output of the ranges before
    /// `next`, in stream order.
    folder: Folder,
    /// Per stage, in chain order, the records of the ranges before `next`,
    /// laid end to end in the stage's own stream.
    tasks: Vec<Vec<TaskRecord>>,
    remaining: usize,
    /// The tasks' queue waits and their folding time, summed.
    queue_wait_us: u64,
    fold_us: u64,
}

/// The ranges `(start, len, after_cut)` a streaming step's tasks run over
/// its source: one per part of the head's `cuts` — its offsets, the ends of
/// the source's parts when it adopts them, or every so many rows.
/// `after_cut` marks a range a cut precedes: the folder keeps the outputs on
/// either side apart, while morsels are a grid it may pack across. Empty
/// parts stay: a range with no rows still runs and publishes its (empty)
/// part.
pub(super) fn ranges(cuts: &Cuts, source: &Parts) -> Vec<(usize, usize, bool)> {
    let rows = source.rows();
    let (ends, cut): (Vec<usize>, bool) = match cuts {
        Cuts::At(at) => (at.iter().map(|&at| at.min(rows)).chain([rows]).collect(), true),
        Cuts::Adopt => (source.ends().collect(), true),
        &Cuts::Every(every) => {
            ((1..rows.div_ceil(every)).map(|k| k * every).chain([rows]).collect(), false)
        }
    };
    let mut start = 0;
    let ranges = ends.into_iter().enumerate().map(|(k, end)| {
        let range = (start, end - start, cut && k > 0);
        start = end;
        range
    });
    ranges.collect()
}

/// Launches a runnable step: one task per range of a streaming step over a
/// positional source, one task over whole inputs for every other step.
///
/// Returns `false` only when the scheduler refused a submission (engine shut
/// down). Query-level failures are routed through [`RunContext::fail`] and
/// return `true` — the engine is alive, the query is not.
fn launch_step(state: &Arc<Driver>, step: usize, submit: &dyn Fn(Task) -> bool) -> bool {
    let task = |cut: Option<(Arc<Fanout>, usize)>| {
        let st = Arc::clone(state);
        Task::new(Arc::clone(&state.run.handle), move |ctx| run_task(st, ctx, step, cut))
    };
    let pipeline = &state.graph.steps[step];
    // The producer's list as the head stage streams it, cut into ranges.
    // Non-positional chunks (hash tables, scalars, partials) cannot be cut;
    // a pipeline over one still runs, as a single task.
    let source = pipeline.producer.map(|_| {
        let head = state.run.plan.node(pipeline.stages[0])?;
        let source =
            state.run.parts(pipeline.stages[0], stream_input(&head.spec, head.inputs.len()))?;
        Ok((source, &head.cuts))
    });
    let (source, cuts) = match source {
        Some(Ok((source, cuts))) if source.is_positional() => (source, cuts),
        Some(Err(e)) => {
            state.run.fail(e);
            return true;
        }
        _ => return submit(task(None)),
    };
    let ranges = ranges(cuts, &source);
    let n_ranges = ranges.len();
    let key_set = state.run.plan.node(pipeline.terminal()).map(|n| &n.spec);
    let workers = if key_set == Ok(&OperatorSpec::KeySet) { state.run.n_workers } else { 0 };
    let fanout = Arc::new(Fanout {
        source,
        ranges,
        morsels: Mutex::new(Morsels {
            waiting: (0..n_ranges).map(|_| None).collect(),
            next: 0,
            folder: Folder::new(pipeline.terminal(), state.cells[step]),
            tasks: pipeline.stages.iter().map(|_| Vec::with_capacity(n_ranges)).collect(),
            remaining: n_ranges,
            queue_wait_us: 0,
            fold_us: 0,
        }),
        key_sets: (0..workers).map(|_| Mutex::new(None)).collect(),
    });
    (0..n_ranges).all(|range| submit(task(Some((Arc::clone(&fanout), range)))))
}

/// The one task body: runs range `cut` of `step` — or, with `cut` `None`,
/// the step's whole inputs — through every stage, then advances the step
/// graph if this task published the step.
fn run_task(
    state: Arc<Driver>,
    ctx: &TaskContext<'_>,
    step: usize,
    cut: Option<(Arc<Fanout>, usize)>,
) {
    let cut = cut.as_ref().map(|(fanout, morsel)| (&**fanout, *morsel));
    match run_stages(&state, ctx, step, cut) {
        Ok(true) => complete_step(&state, ctx, step),
        Ok(false) => {}
        Err(e) => state.run.fail(e),
    }
}

/// How a stage of a task reads one of its inputs.
enum Feed {
    /// The predecessor stage's output, the stream of every stage but the
    /// head.
    Stream,
    /// The task's window of a part list — the head's stream, or a
    /// range-aligned input zipped against the stream — read one piece at a
    /// time.
    Cut(Parts),
    /// The whole chunk, shared by every piece; read at the stage's first
    /// checkpoint.
    Whole(Option<Chunk>),
}

/// Streams the task's range through the step's stages while it is
/// cache-hot, one piece at a time: the range splits wherever a part of its
/// stream or of a range-aligned input ends, so each stage reads zero-copy
/// windows of one part each. Returns whether this task published the step:
/// `false` when a [`RunContext::checkpoint`] stopped it or other ranges are
/// outstanding.
fn run_stages(
    state: &Driver,
    ctx: &TaskContext<'_>,
    step: usize,
    cut: Option<(&Fanout, usize)>,
) -> Result<bool> {
    let (run, pipeline) = (&state.run, &state.graph.steps[step]);
    let n_stages = pipeline.stages.len();
    // This task's range of the source, as `(start, len)`.
    let cut = cut.map(|(fanout, index)| {
        let (start, len, _) = fanout.ranges[index];
        (fanout, index, start, len)
    });
    let mut nodes = Vec::with_capacity(n_stages);
    let mut feeds: Vec<Vec<Feed>> = Vec::with_capacity(n_stages);
    for (idx, &stage) in pipeline.stages.iter().enumerate() {
        let node = run.plan.node(stage)?;
        let n_inputs = node.inputs.len();
        // The stage streams one input: the producer's window (or whole
        // list) at the head, its predecessor's output further down.
        let stream = stream_input(&node.spec, n_inputs);
        let mut stage_feeds = Vec::with_capacity(n_inputs);
        for i in 0..n_inputs {
            stage_feeds.push(match cut {
                _ if idx > 0 && i == stream => Feed::Stream,
                Some((fanout, _, start, len)) if i == stream => {
                    Feed::Cut(fanout.source.window(start, len).expect("a positional source"))
                }
                // A range-aligned secondary input (Calc col⊗col, IfThenElse,
                // GroupAgg values) zips positionally against the stream, so
                // it is cut at the same range; the analyzer only fuses such
                // stages while nothing upstream has compacted the stream.
                // Cuts keep absolute oids for columns and the `stream_base`
                // alignment for streams (see `crate::chunk::Chunk::Oids`). A
                // whole-length mismatch is reported as whole-node execution
                // would report it, rather than zipping range-sized windows
                // that happen to agree.
                Some((fanout, _, start, len)) if read_by_piece(&node.spec, n_inputs, idx, i) => {
                    let parts = run.parts(stage, i)?;
                    match parts.window(start, len) {
                        Some(_) if parts.rows() != fanout.source.rows() => {
                            return Err(apq_operators::OperatorError::LengthMismatch {
                                left: fanout.source.rows(),
                                right: parts.rows(),
                            }
                            .into());
                        }
                        Some(cut) => Feed::Cut(cut),
                        None => Feed::Whole(None),
                    }
                }
                _ => Feed::Whole(None),
            });
        }
        nodes.push(node);
        feeds.push(stage_feeds);
    }
    let cut_ends = feeds.iter().flatten().filter_map(|feed| match feed {
        Feed::Cut(parts) => Some(parts.ends()),
        _ => None,
    });
    // A task over whole inputs is one piece.
    let cut_pieces;
    let pieces: &[(usize, usize)] = match cut {
        Some((_, _, _, len)) => {
            cut_pieces = pieces(len, cut_ends.flatten());
            &cut_pieces
        }
        None => &[(0, 0)],
    };

    let mut outputs = Vec::with_capacity(pieces.len());
    let mut panics = Vec::with_capacity(n_stages);
    // One record per stage. Its range is `0..` the rows of the stage's
    // stream the task read — its range of the source at the head, its
    // predecessor's outputs further down, all of a whole-node step's stream
    // (its output, for a scan) — until the fold places it in that stream.
    let record = TaskRecord { range: RowRange::new(0, 0), start_us: 0, us: 0, worker: ctx.worker };
    let mut records = vec![record; n_stages];
    for (piece, &(start, len)) in pieces.iter().enumerate() {
        let mut out = None;
        for (idx, (&stage, node)) in pipeline.stages.iter().zip(&nodes).enumerate() {
            // The checkpoint, and the whole reads behind it, once per stage
            // per task: at the stage's first piece. A whole read that packs
            // a part list counts in the stage's time.
            let started = Instant::now();
            if piece == 0 {
                records[idx].start_us = started.duration_since(run.started).as_micros() as u64;
                let Some(inject_panic) = run.checkpoint(stage) else { return Ok(false) };
                panics.push(inject_panic);
                for (i, feed) in feeds[idx].iter_mut().enumerate() {
                    if let Feed::Whole(whole @ None) = feed {
                        *whole = Some(run.input(stage, i)?);
                    }
                }
            }
            let inputs: Vec<Chunk> = feeds[idx]
                .iter()
                .map(|feed| match feed {
                    Feed::Stream => out.take().expect("the predecessor ran"),
                    Feed::Cut(parts) => {
                        parts.piece(start, len).expect("a piece lies within one part")
                    }
                    Feed::Whole(chunk) => chunk.clone().expect("read at the first piece"),
                })
                .collect();
            let chunk = guarded_execute(stage, &node.spec, &inputs, &run.catalog, panics[idx])?;
            let record = &mut records[idx];
            record.us += started.elapsed().as_micros() as u64;
            let stream = inputs.get(stream_input(&node.spec, inputs.len()));
            record.range.end += stream.map_or(chunk.rows(), Chunk::rows);
            out = Some(chunk);
        }
        outputs.push(out.expect("a step has at least one stage"));
    }
    // Once per task, keyed on the terminal, counted in its time.
    let delay = Instant::now();
    run.inject_delay(pipeline.terminal());
    records[n_stages - 1].us += delay.elapsed().as_micros() as u64;
    let queue_wait_us = ctx.queue_wait.as_micros() as u64;

    let Some((fanout, index, _, _)) = cut else {
        let parts = Parts::publish(pipeline.terminal(), outputs, state.cells[step])?;
        let tasks = records.into_iter().map(|record| vec![record]).collect();
        publish(run, ctx, pipeline, parts, tasks, queue_wait_us, 0)?;
        return Ok(true);
    };
    // A key set's pieces merge into the part of the worker that ran them:
    // their keys' bits are set there, in the key set's time, while the keys
    // are in this worker's cache and off the step's lock.
    if let Some(merged) = fanout.key_sets.get(ctx.worker) {
        let setting = Instant::now();
        let mut merged = lock(merged);
        for chunk in std::mem::take(&mut outputs) {
            let Chunk::KeySet(part) = chunk else { unreachable!("a key set yields its parts") };
            absorb(&mut merged, part);
        }
        records[n_stages - 1].us += setting.elapsed().as_micros() as u64;
    }
    // The task merges its own pieces' partial aggregates, in parallel with
    // the other tasks, so the publishing task merges one per range.
    let folding = Instant::now();
    if outputs.first().is_some_and(|chunk| !is_positional(chunk)) {
        outputs = merged(pipeline.terminal(), outputs)?;
    }
    let mut guard = lock(&fanout.morsels);
    let morsels = &mut *guard;
    // Fold every output the stream order now allows: this range's, and
    // those of later ranges that finished first. The folding (relabelling,
    // and packing a selective producer's small parts cell by cell) runs
    // here, while other ranges still execute, not all in the last task.
    // Each stage's record continues its stream where the last one ended.
    morsels.waiting[index] = Some((outputs, records));
    while let Some((outputs, records)) =
        morsels.waiting.get_mut(morsels.next).and_then(Option::take)
    {
        if fanout.ranges[morsels.next].2 {
            morsels.folder.cut()?;
        }
        morsels.next += 1;
        for chunk in outputs {
            morsels.folder.push(chunk)?;
        }
        for (tasks, mut record) in morsels.tasks.iter_mut().zip(records) {
            let at = tasks.last().map_or(0, |last| last.range.end);
            record.range = RowRange::new(at, at + record.range.end);
            tasks.push(record);
        }
    }
    morsels.queue_wait_us += queue_wait_us;
    morsels.fold_us += folding.elapsed().as_micros() as u64;
    morsels.remaining -= 1;
    if morsels.remaining > 0 {
        return Ok(false);
    }
    let mut folder = std::mem::replace(&mut morsels.folder, Folder::new(pipeline.terminal(), None));
    let tasks = std::mem::take(&mut morsels.tasks);
    let (queue_wait_us, fold_us) = (morsels.queue_wait_us, morsels.fold_us);
    drop(guard);
    // The pieces' outputs in stream order are the step's part list: every
    // read of it equals the same read of their pack, so the published
    // result is byte-identical to whole-node execution. Partial aggregates
    // merge here, in the same order, and a list only ever read whole is
    // packed here.
    let assembly = Instant::now();
    for merged in &fanout.key_sets {
        if let Some(part) = lock(merged).take() {
            folder.push(Chunk::KeySet(Arc::new(part)))?;
        }
    }
    let published = folder.finish()?;
    let fold_us = fold_us + assembly.elapsed().as_micros() as u64;
    publish(run, ctx, pipeline, published, tasks, queue_wait_us, fold_us)?;
    Ok(true)
}

/// Publishes a finished step from the task that finished it: the
/// terminal's part list, and every stage's profile, folded from its task
/// records (`tasks`, per stage in chain order). The terminal's time adds
/// `fold_us`, the step's folding and publish, and its queue wait is the
/// step's `queue_wait_us`, so query totals count both once.
fn publish(
    run: &RunContext,
    ctx: &TaskContext<'_>,
    pipeline: &Pipeline,
    parts: Parts,
    tasks: Vec<Vec<TaskRecord>>,
    queue_wait_us: u64,
    fold_us: u64,
) -> Result<()> {
    let terminal = pipeline.terminal();
    let end_us = run.started.elapsed().as_micros() as u64;
    // A fused stage's output is the next stage's stream; the terminal's is
    // the published list.
    let streamed = |tasks: &Vec<TaskRecord>| tasks.iter().map(|task| task.range.len()).sum();
    let rows_out: Vec<usize> = tasks[1..].iter().map(streamed).chain([parts.rows()]).collect();
    for ((&node, tasks), rows_out) in pipeline.stages.iter().zip(tasks).zip(rows_out) {
        let (fold_us, queue_wait_us) =
            if node == terminal { (fold_us, queue_wait_us) } else { (0, 0) };
        let profile = OperatorProfile {
            node,
            name: run.plan.node(node)?.spec.name(),
            start_us: tasks.iter().map(|task| task.start_us).min().unwrap_or_default(),
            end_us,
            duration_us: tasks.iter().map(|task| task.us).sum::<u64>() + fold_us,
            queue_wait_us,
            worker: ctx.worker,
            rows_out,
            tasks,
            step: pipeline.producer.map(|_| terminal),
        };
        if run.profiles[node].set(profile).is_err() {
            return Err(EngineError::InvalidPlan(format!("node {node} executed twice")));
        }
    }
    run.set_result(terminal, parts)
}

/// Marks a step complete. First it releases every input list this step
/// was the last reader of, so a query holds only the lists some step still
/// has to read. Then it launches consumer steps whose dependencies are now
/// all satisfied. Their tasks go through the task context, so the scheduler
/// keeps them on the publishing worker's deque, where the parts are
/// cache-hot; and they are spawned before this task leaves the scheduler,
/// so the query's task count cannot touch zero between two steps.
fn complete_step(state: &Arc<Driver>, ctx: &TaskContext<'_>, step: usize) {
    let graph = &state.graph;
    for &(producer, edges) in &graph.in_edges[step] {
        if state.readers[producer].fetch_sub(edges, Ordering::AcqRel) == edges {
            state.run.release(graph.steps[producer].terminal());
        }
    }
    for &(consumer, edges) in &graph.out_edges[step] {
        if state.step_deps[consumer].fetch_sub(edges, Ordering::AcqRel) == edges {
            launch_step(state, consumer, &|task| {
                ctx.submit(task);
                true
            });
        }
    }
}
