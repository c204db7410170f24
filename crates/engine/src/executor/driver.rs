//! The morsel driver: the engine's one execution runtime.
//!
//! The paper's run-time is a single dataflow rule — "an operator is
//! scheduled for execution once all its input sources are available" (§2) —
//! and this module is its single implementation. A validated plan is first
//! *planned* into a graph of [`Pipeline`] steps by [`PipelinePlan::analyze`],
//! and that call is the only place [`ExecutionMode`](crate::ExecutionMode) is
//! consulted: operator-at-a-time planning yields one whole-node step per
//! live node, morsel-driven planning additionally fuses streamable chains
//! (see [`crate::pipeline`]).
//!
//! The driver then runs whatever graph it was given. Dependency tracking is
//! at *step* granularity over the precomputed `deps`/`out_edges`: a step is
//! launched when its last cross-step input edge is satisfied. Every task,
//! whatever its step, runs one body ([`run_task`]), in the style of Leis et
//! al.'s morsel-driven model: push one morsel through the step's chain of
//! stages. A streaming step over a positional chunk is cut into one morsel
//! per `morsel_rows` window of its producer's published chunk — a base-table
//! scan is a step like any other, so its morsels are windows of its column
//! slice with the same absolute oids. Every other step is a single morsel:
//! one task over whole inputs, which for a whole-node step is
//! operator-at-a-time execution. The task that finishes a step's last morsel
//! assembles the partial outputs in morsel order and publishes the terminal
//! chunk exactly where whole-node execution would have published it.
//! Consumer steps and morsel fan-outs are submitted from the completing
//! worker's task context, so they start on that worker's deque. Everything
//! the tasks share lives in the [`RunContext`].
//!
//! A published chunk lives only as long as something reads it: each step
//! counts the cross-step edges that read its chunk, and the step finishing
//! the last of them releases it ([`RunContext::release`]). The root's chunk
//! is the query's answer and is never released, so a query holds its live
//! set of intermediates rather than every one it made.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use apq_columnar::Catalog;

use super::run::{guarded_execute, RunContext};
use super::{Engine, QueryExecution};
use crate::chunk::Chunk;
use crate::error::{EngineError, Result};
use crate::interpreter::exchange_union;
use crate::pipeline::{morsel_count, stream_input, Pipeline, PipelinePlan};
use crate::plan::{OperatorSpec, Plan};
use crate::profiler::{OperatorProfile, PipelineProfile};
use crate::scheduler::{QueryHandle, Task, TaskContext};
use crate::sync::lock;

/// Step-graph state of one query execution, shared by all of its tasks.
struct Driver {
    run: RunContext,
    graph: PipelinePlan,
    /// Remaining cross-step input edges per step.
    step_deps: Vec<AtomicUsize>,
    /// Remaining cross-step reads of each step's published chunk: the step
    /// that finishes the last one releases the chunk.
    readers: Vec<AtomicUsize>,
    /// The engine's morsel size, in rows: every pipeline's slicing and
    /// fan-out cut on this grid.
    morsel_rows: usize,
}

/// Executes a validated plan: plans it into steps, seeds the runnable ones
/// and blocks in [`RunContext::wait`] until the query's last task is done.
pub(super) fn execute(
    engine: &Engine,
    plan: &Arc<Plan>,
    catalog: &Arc<Catalog>,
    handle: Arc<QueryHandle>,
) -> Result<QueryExecution> {
    let graph = PipelinePlan::analyze(plan, engine.config.execution_mode)?;
    let state = Arc::new(Driver {
        run: RunContext::new(engine, plan, catalog, handle),
        step_deps: graph.deps.iter().map(|&d| AtomicUsize::new(d)).collect(),
        readers: graph.readers().into_iter().map(AtomicUsize::new).collect(),
        morsel_rows: engine.config.morsel_rows.max(1),
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

/// What one task measured — or, merged over its morsels, one step.
struct Tally {
    /// Execution start in µs since the query started; the earliest once
    /// merged.
    start_us: u64,
    queue_wait_us: u64,
    /// `[time µs, rows, bytes]` of every stage but the terminal, in chain
    /// order (empty for a one-stage step, so it never allocates there).
    stages: Vec<[u64; 3]>,
    /// The terminal's time, injected delay (and assembly) included; its rows
    /// and bytes are the published chunk's.
    terminal_us: u64,
    /// Morsels run per worker; empty unless the step streams.
    morsels_by_worker: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.start_us = self.start_us.min(other.start_us);
        self.queue_wait_us += other.queue_wait_us;
        self.terminal_us += other.terminal_us;
        for (sum, stage) in self.stages.iter_mut().zip(other.stages) {
            sum.iter_mut().zip(stage).for_each(|(s, v)| *s += v);
        }
        self.morsels_by_worker.iter_mut().zip(other.morsels_by_worker).for_each(|(s, v)| *s += v);
    }
}

/// The shared state of a step cut into more than one morsel. A step run as
/// one task needs none: it publishes straight from that task.
struct Fanout {
    /// Rows the head stage reads of the producer's chunk (its edge's window
    /// when it has one), which every cut range-aligned input must match.
    source_rows: usize,
    morsels: Mutex<Morsels>,
}

struct Morsels {
    /// Terminal partial output per morsel, assembled in morsel order.
    parts: Vec<Option<Chunk>>,
    remaining: usize,
    tally: Option<Tally>,
}

/// True for chunks addressed by row position, which [`Chunk::slice`] can
/// cut on a morsel grid.
fn is_positional(chunk: &Chunk) -> bool {
    matches!(chunk, Chunk::Column(_) | Chunk::Oids(_) | Chunk::Join(_))
}

/// Launches a runnable step: one task per morsel of a streaming step over a
/// positional chunk, one task over whole inputs for every other step.
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
    // The producer's chunk as the head stage streams it: windowed first when
    // its edge has a window, then cut on the morsel grid. Non-positional
    // chunks (hash tables, scalars, partials) cannot be sliced; a pipeline
    // over one still runs, as a single morsel.
    let source = pipeline.producer.map(|_| {
        let head = state.run.plan.node(pipeline.stages[0])?;
        state.run.input(pipeline.stages[0], stream_input(&head.spec, head.inputs.len()))
    });
    let source_rows = match source {
        Some(Ok(source)) if is_positional(&source) => source.rows(),
        Some(Err(e)) => {
            state.run.fail(e);
            return true;
        }
        _ => return submit(task(None)),
    };
    let n_morsels = morsel_count(source_rows, state.morsel_rows);
    if n_morsels == 1 {
        return submit(task(None));
    }
    let fanout = Arc::new(Fanout {
        source_rows,
        morsels: Mutex::new(Morsels {
            parts: (0..n_morsels).map(|_| None).collect(),
            remaining: n_morsels,
            tally: None,
        }),
    });
    (0..n_morsels).all(|morsel| submit(task(Some((Arc::clone(&fanout), morsel)))))
}

/// The one task body: runs morsel `cut` of `step` — or, with `cut` `None`,
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

/// Streams the task's window through the step's stages while it is
/// cache-hot. Returns whether this task published the step: `false` when a
/// [`RunContext::checkpoint`] stopped it or other morsels are outstanding.
fn run_stages(
    state: &Driver,
    ctx: &TaskContext<'_>,
    step: usize,
    cut: Option<(&Fanout, usize)>,
) -> Result<bool> {
    let (run, pipeline) = (&state.run, &state.graph.steps[step]);
    let mut tally = Tally {
        start_us: 0,
        queue_wait_us: ctx.queue_wait.as_micros() as u64,
        stages: Vec::new(),
        terminal_us: 0,
        morsels_by_worker: match pipeline.producer {
            Some(_) => (0..run.n_workers).map(|w| u64::from(w == ctx.worker)).collect(),
            None => Vec::new(),
        },
    };
    let mut out = None;
    for (idx, &stage) in pipeline.stages.iter().enumerate() {
        let Some(inject_panic) = run.checkpoint(stage) else { return Ok(false) };
        let node = run.plan.node(stage)?;
        // The stage streams one input: the producer's window (or whole
        // chunk) at the head, its predecessor's output further down.
        let stream = stream_input(&node.spec, node.inputs.len());
        // Only a cut task cuts other inputs, and only alongside a stream on
        // the first input, which the aligned mask describes (a refining
        // select's column is shared whole); `Vec::new` does not allocate.
        let aligned = match cut {
            Some(_) if stream == 0 => node.spec.aligned_inputs(node.inputs.len()),
            _ => Vec::new(),
        };
        let mut inputs: Vec<Chunk> = Vec::with_capacity(node.inputs.len());
        for i in 0..node.inputs.len() {
            if let Some(streamed) = out.take_if(|_| i == stream) {
                inputs.push(streamed);
                continue;
            }
            // Already cut to the edge's window, if it has one.
            let chunk = run.input(stage, i)?;
            inputs.push(match cut {
                // The streamed input is the producer's chunk. A
                // range-aligned secondary input (Calc col⊗col, IfThenElse,
                // GroupAgg values) zips positionally against the stream, so
                // it is cut at the same morsel; the analyzer only fuses such
                // stages while nothing upstream has compacted the stream.
                // `Chunk::slice` keeps absolute oids for columns and the
                // `stream_base` alignment for streams (see
                // `crate::chunk::Chunk::Oids`). A whole-length mismatch is
                // reported as whole-node execution would report it, rather
                // than zipping morsel-sized slices that happen to agree.
                Some((fanout, morsel))
                    if (i == stream || aligned.get(i) == Some(&true)) && is_positional(&chunk) =>
                {
                    if chunk.rows() != fanout.source_rows {
                        return Err(apq_operators::OperatorError::LengthMismatch {
                            left: fanout.source_rows,
                            right: chunk.rows(),
                        }
                        .into());
                    }
                    let start = morsel * state.morsel_rows;
                    chunk.slice(start, state.morsel_rows).expect("a positional chunk slices")
                }
                _ => chunk,
            });
        }
        let started = Instant::now();
        if idx == 0 {
            tally.start_us = started.duration_since(run.started).as_micros() as u64;
        }
        let chunk = guarded_execute(stage, &node.spec, &inputs, &run.catalog, inject_panic)?;
        if idx + 1 == pipeline.stages.len() {
            // Once per task, keyed on the terminal, counted in its time.
            run.inject_delay(stage);
            tally.terminal_us = started.elapsed().as_micros() as u64;
        } else {
            let micros = started.elapsed().as_micros() as u64;
            tally.stages.push([micros, chunk.rows() as u64, chunk.byte_size() as u64]);
        }
        out = Some(chunk);
    }
    let part = out.expect("a step has at least one stage");

    let Some((fanout, morsel)) = cut else {
        publish(run, ctx, pipeline, part, tally)?;
        return Ok(true);
    };
    let mut morsels = lock(&fanout.morsels);
    morsels.parts[morsel] = Some(part);
    match &mut morsels.tally {
        Some(sum) => sum.merge(tally),
        sum @ None => *sum = Some(tally),
    }
    morsels.remaining -= 1;
    if morsels.remaining > 0 {
        return Ok(false);
    }
    let parts: Vec<Chunk> = morsels.parts.drain(..).flatten().collect();
    let mut tally = morsels.tally.take().expect("every morsel merged its tally");
    drop(morsels);
    // Packing the partial outputs in morsel order is the exchange-union
    // recombination, so the published chunk is byte-identical to
    // whole-node execution.
    let assembly = Instant::now();
    let chunk = exchange_union(pipeline.terminal(), &parts)?;
    tally.terminal_us += assembly.elapsed().as_micros() as u64;
    publish(run, ctx, pipeline, chunk, tally)?;
    Ok(true)
}

/// Publishes a finished step from the task that finished it: every stage's
/// profile, the pipeline profile of a streaming step, and the terminal chunk.
fn publish(
    run: &RunContext,
    ctx: &TaskContext<'_>,
    pipeline: &Pipeline,
    chunk: Chunk,
    tally: Tally,
) -> Result<()> {
    let terminal = pipeline.terminal();
    let last = [tally.terminal_us, chunk.rows() as u64, chunk.byte_size() as u64];
    let measured = tally.stages.iter().copied().chain([last]);
    for (&node, [duration_us, rows, bytes]) in pipeline.stages.iter().zip(measured) {
        let profile = OperatorProfile {
            node,
            name: run.plan.node(node)?.spec.name(),
            start_us: tally.start_us,
            duration_us,
            // A streaming step's queue wait, summed over its morsels, is the
            // terminal's, so query totals count it once.
            queue_wait_us: if node == terminal { tally.queue_wait_us } else { 0 },
            worker: ctx.worker,
            rows_out: rows as usize,
            bytes_out: bytes as usize,
        };
        if run.profiles[node].set(profile).is_err() {
            return Err(EngineError::InvalidPlan(format!("node {node} executed twice")));
        }
    }
    if pipeline.producer.is_some() {
        lock(&run.pipeline_profiles).push(PipelineProfile {
            nodes: pipeline.stages.clone(),
            n_morsels: tally.morsels_by_worker.iter().sum::<u64>() as usize,
            morsels_by_worker: tally.morsels_by_worker,
            groupagg_fused: matches!(run.plan.node(terminal)?.spec, OperatorSpec::GroupAgg { .. }),
        });
    }
    run.set_result(terminal, chunk)
}

/// Marks a step complete. First it releases every input chunk this step
/// was the last reader of, so a query holds only the chunks some step still
/// has to read. Then it launches consumer steps whose dependencies are now
/// all satisfied. Their tasks go through the task context, so the scheduler
/// keeps them on the publishing worker's deque, where the chunk is
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
