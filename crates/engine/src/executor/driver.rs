//! The morsel driver: the engine's one execution runtime.
//!
//! The paper's run-time is a single dataflow rule — "an operator is
//! scheduled for execution once all its input sources are available" (§2) —
//! and this module is its single implementation. A validated plan is first
//! *planned* into a step graph by [`PipelinePlan::analyze`], and that call is
//! the only place [`ExecutionMode`](crate::ExecutionMode) is consulted:
//!
//! * operator-at-a-time planning yields one [`Step::Single`] per live node —
//!   every operator runs whole, as one task, exactly the model the paper's
//!   adaptive optimizer was measured on;
//! * morsel-driven planning additionally fuses streamable chains into
//!   [`Step::Fused`] pipelines (see [`crate::pipeline`]).
//!
//! The driver then runs whatever graph it was given. Dependency tracking is
//! at *step* granularity over the precomputed `deps`/`out_edges`: a step is
//! launched when its last cross-step input edge is satisfied. A single step
//! is one task ([`run_single_step`]); a fused step fans out into one task
//! per morsel ([`run_morsel`]). A morsel is a zero-copy window of the chunk
//! the pipeline's producer published — a base-table scan is a single step
//! like any other, so its morsels are windows of its column slice with the
//! same absolute oids. The last morsel to finish assembles the partial
//! outputs in morsel order and publishes the terminal chunk exactly where
//! whole-node execution would have published it. Consumer steps and morsel
//! fan-outs are submitted from the completing worker's task context, so
//! they start on that worker's deque. Everything the tasks share lives in
//! the [`RunContext`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use apq_columnar::Catalog;

use super::run::{guarded_execute, RunContext};
use super::{Engine, QueryExecution};
use crate::chunk::Chunk;
use crate::error::{EngineError, Result};
use crate::interpreter::{exchange_union, slice_part};
use crate::pipeline::{morsel_count, Pipeline, PipelinePlan, Step};
use crate::plan::{NodeId, OperatorSpec, Plan};
use crate::profiler::{OperatorProfile, PipelineProfile};
use crate::scheduler::{QueryHandle, Task, TaskContext};
use crate::sync::lock;

/// Step-graph state of one query execution, shared by all of its tasks.
struct Driver {
    run: RunContext,
    graph: PipelinePlan,
    /// Remaining cross-step input edges per step.
    step_deps: Vec<AtomicUsize>,
    /// Morsel bookkeeping per step; set when a fused step is launched.
    fused_runs: Vec<OnceLock<Arc<FusedRun>>>,
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
    let n_steps = graph.steps.len();
    let morsel_rows = engine.config.morsel_rows.max(1);
    let run = RunContext::new(engine, plan, catalog, handle);

    let state = Arc::new(Driver {
        run,
        step_deps: graph.deps.iter().map(|&d| AtomicUsize::new(d)).collect(),
        fused_runs: (0..n_steps).map(|_| OnceLock::new()).collect(),
        morsel_rows,
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

/// Per-pipeline morsel bookkeeping, created when the pipeline is launched
/// (its fan-out depends on the size of the producer's published chunk).
struct FusedRun {
    /// The producer's published chunk, cut into the morsels.
    source: Chunk,
    n_morsels: usize,
    /// Terminal partial output per morsel, assembled in morsel order.
    parts: Vec<OnceLock<Chunk>>,
    remaining: AtomicUsize,
    /// Accumulated per-stage execution time / output rows / output bytes,
    /// indexed like `Pipeline::stages`.
    stage_time_us: Vec<AtomicU64>,
    stage_rows: Vec<AtomicU64>,
    stage_bytes: Vec<AtomicU64>,
    /// Morsels executed per worker — the locality signal fig19 reports.
    morsels_by_worker: Vec<AtomicU64>,
    queue_wait_us: AtomicU64,
    /// Offset since query start when the pipeline became runnable.
    start_us: u64,
}

impl FusedRun {
    /// Sizes a runnable pipeline's morsel fan-out from its producer's chunk.
    fn open(state: &Driver, pipeline: &Pipeline) -> Result<FusedRun> {
        let run = &state.run;
        let source = run.input(pipeline.stages[0], pipeline.producer)?.clone();
        // Non-positional chunks (hash tables, scalars, partials) cannot be
        // sliced; the pipeline still runs, as a single morsel covering the
        // whole input.
        let n_morsels =
            if is_positional(&source) { morsel_count(source.rows(), state.morsel_rows) } else { 1 };
        let counters = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let n_stages = pipeline.stages.len();
        Ok(FusedRun {
            source,
            n_morsels,
            parts: (0..n_morsels).map(|_| OnceLock::new()).collect(),
            remaining: AtomicUsize::new(n_morsels),
            stage_time_us: counters(n_stages),
            stage_rows: counters(n_stages),
            stage_bytes: counters(n_stages),
            morsels_by_worker: counters(run.n_workers),
            queue_wait_us: AtomicU64::new(0),
            start_us: run.started.elapsed().as_micros() as u64,
        })
    }

    fn record_stage(&self, stage: usize, started: Instant, chunk: &Chunk) {
        self.stage_time_us[stage]
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.stage_rows[stage].fetch_add(chunk.rows() as u64, Ordering::Relaxed);
        self.stage_bytes[stage].fetch_add(chunk.byte_size() as u64, Ordering::Relaxed);
    }
}

/// True for chunks addressed by row position, which `slice_part` can cut
/// on a morsel grid.
fn is_positional(chunk: &Chunk) -> bool {
    matches!(chunk, Chunk::Column(_) | Chunk::Oids(_) | Chunk::Join(_))
}

/// Launches a runnable step: submits the single-node task, or computes the
/// morsel fan-out and submits one task per morsel.
///
/// Returns `false` only when the scheduler refused a submission (engine shut
/// down). Query-level failures (bad catalog references, double launches) are
/// routed through [`RunContext::fail`] and return `true` — the engine is
/// alive, the query is not.
fn launch_step(state: &Arc<Driver>, step: usize, submit: &dyn Fn(Task) -> bool) -> bool {
    let handle = &state.run.handle;
    match &state.graph.steps[step] {
        Step::Single(node) => {
            let (st, node) = (Arc::clone(state), *node);
            submit(Task::new(Arc::clone(handle), move |ctx| run_single_step(st, ctx, step, node)))
        }
        Step::Fused(pipeline) => {
            let opened = FusedRun::open(state, pipeline).and_then(|run| {
                let n_morsels = run.n_morsels;
                match state.fused_runs[step].set(Arc::new(run)) {
                    Ok(()) => Ok(n_morsels),
                    Err(_) => Err(EngineError::InvalidPlan(format!("step {step} launched twice"))),
                }
            });
            let n_morsels = match opened {
                Ok(n_morsels) => n_morsels,
                Err(e) => {
                    state.run.fail(e);
                    return true;
                }
            };
            (0..n_morsels).all(|morsel| {
                let st = Arc::clone(state);
                submit(Task::new(Arc::clone(handle), move |ctx| run_morsel(st, ctx, step, morsel)))
            })
        }
    }
}

/// Executes a single-node step whole — operator-at-a-time execution — then
/// advances the step graph.
fn run_single_step(state: Arc<Driver>, ctx: &TaskContext<'_>, step: usize, node: NodeId) {
    let Some(inject_panic) = state.run.checkpoint(node) else { return };
    if let Err(e) = state.run.execute_and_publish(ctx, node, inject_panic) {
        return state.run.fail(e);
    }
    complete_step(&state, ctx, step);
}

/// Executes one morsel of a fused step and stores its terminal partial
/// output. The last morsel to finish assembles and publishes.
fn run_morsel(state: Arc<Driver>, ctx: &TaskContext<'_>, step: usize, morsel: usize) {
    let Step::Fused(pipeline) = &state.graph.steps[step] else {
        return state.run.fail(EngineError::InvalidPlan(format!("step {step} is not a pipeline")));
    };
    let run = Arc::clone(
        state.fused_runs[step].get().expect("morsel dispatched before its step was launched"),
    );
    let part = match stream_morsel(&state, pipeline, &run, morsel) {
        Ok(Some(part)) => part,
        Ok(None) => return,
        Err(e) => return state.run.fail(e),
    };
    run.morsels_by_worker[ctx.worker].fetch_add(1, Ordering::Relaxed);
    run.queue_wait_us.fetch_add(ctx.queue_wait.as_micros() as u64, Ordering::Relaxed);
    if run.parts[morsel].set(part).is_err() {
        return state.run.fail(EngineError::InvalidPlan(format!(
            "morsel {morsel} of step {step} executed twice"
        )));
    }
    if run.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        match assemble_pipeline(&state, ctx, pipeline, &run) {
            Ok(()) => complete_step(&state, ctx, step),
            Err(e) => state.run.fail(e),
        }
    }
}

/// Cuts the producer's published chunk at `morsel` and streams the window
/// through every fused stage while it is cache-hot, returning the terminal
/// stage's partial output — or `None` when a [`RunContext::checkpoint`]
/// stopped the task.
fn stream_morsel(
    state: &Driver,
    pipeline: &Pipeline,
    run: &FusedRun,
    morsel: usize,
) -> Result<Option<Chunk>> {
    let (ctx, morsel_rows) = (&state.run, state.morsel_rows);
    let offset = morsel * morsel_rows;
    // Windows go through `slice_part`, which keeps absolute oids for columns
    // and the `stream_base` alignment invariant for streams (see
    // `crate::chunk::Chunk::Oids`).
    let mut cur = if run.n_morsels == 1 {
        run.source.clone()
    } else {
        slice_part(pipeline.producer, &run.source, offset, morsel_rows)?
    };

    for (idx, &stage) in pipeline.stages.iter().enumerate() {
        let node_ref = ctx.plan.node(stage)?;
        let aligned = node_ref.spec.aligned_inputs(node_ref.inputs.len());
        let mut inputs: Vec<Chunk> = Vec::with_capacity(node_ref.inputs.len());
        inputs.push(cur);
        for (i, &input) in node_ref.inputs.iter().enumerate().skip(1) {
            let chunk = ctx.input(stage, input)?;
            // A range-aligned secondary input (Calc col⊗col, IfThenElse,
            // GroupAgg values) zips positionally against the pipeline
            // stream, so it must be cut at the same relative window as the
            // producer's morsel. The analyzer only fuses these stages when
            // nothing upstream has compacted the stream, so the producer's
            // morsel grid applies verbatim. A whole-length mismatch is
            // surfaced here exactly as whole-node execution would report
            // it; without this check each morsel-sized slice pair could
            // happen to agree and silently diverge from the serial
            // semantics.
            if run.n_morsels > 1 && aligned[i] && is_positional(chunk) {
                if chunk.rows() != run.source.rows() {
                    return Err(apq_operators::OperatorError::LengthMismatch {
                        left: run.source.rows(),
                        right: chunk.rows(),
                    }
                    .into());
                }
                inputs.push(slice_part(input, chunk, offset, morsel_rows)?);
            } else {
                inputs.push(chunk.clone());
            }
        }
        let Some(inject_panic) = ctx.checkpoint(stage) else { return Ok(None) };
        let started = Instant::now();
        cur = guarded_execute(stage, &node_ref.spec, &inputs, &ctx.catalog, inject_panic)?;
        run.record_stage(idx, started, &cur);
    }

    // The injected delay applies once per morsel (the dispatch unit here,
    // as the operator is for single steps), keyed on the pipeline terminal.
    ctx.inject_delay(pipeline.terminal());
    Ok(Some(cur))
}

/// Runs on the worker that finished a pipeline's last morsel: packs the
/// partial outputs in morsel order (the exchange-union recombination, so the
/// published chunk is byte-identical to whole-node execution) and publishes
/// the terminal chunk and the per-node/per-pipeline profiles.
fn assemble_pipeline(
    state: &Driver,
    ctx: &TaskContext<'_>,
    pipeline: &Pipeline,
    run: &FusedRun,
) -> Result<()> {
    let terminal = pipeline.terminal();
    let terminal_idx = pipeline.stages.len() - 1;

    let assembly_started = Instant::now();
    let final_chunk = if run.n_morsels == 1 {
        run.parts[0].get().cloned().expect("single morsel completed")
    } else {
        let parts: Vec<Chunk> =
            run.parts.iter().map(|p| p.get().cloned().expect("all morsels completed")).collect();
        exchange_union(terminal, &parts)?
    };
    run.stage_time_us[terminal_idx]
        .fetch_add(assembly_started.elapsed().as_micros() as u64, Ordering::Relaxed);

    for (i, &node) in pipeline.stages.iter().enumerate() {
        let spec = &state.run.plan.node(node)?.spec;
        let is_terminal = i == terminal_idx;
        let profile = OperatorProfile {
            node,
            name: spec.name(),
            start_us: run.start_us,
            duration_us: run.stage_time_us[i].load(Ordering::Relaxed),
            // The pipeline's accumulated morsel queue wait is attributed to
            // the terminal stage so query-level totals stay meaningful
            // without double counting per fused stage.
            queue_wait_us: if is_terminal { run.queue_wait_us.load(Ordering::Relaxed) } else { 0 },
            worker: ctx.worker,
            rows_out: if is_terminal {
                final_chunk.rows()
            } else {
                run.stage_rows[i].load(Ordering::Relaxed) as usize
            },
            bytes_out: if is_terminal {
                final_chunk.byte_size()
            } else {
                run.stage_bytes[i].load(Ordering::Relaxed) as usize
            },
        };
        if state.run.profiles[node].set(profile).is_err() {
            return Err(EngineError::InvalidPlan(format!("node {node} executed twice")));
        }
    }

    lock(&state.run.pipeline_profiles).push(PipelineProfile {
        nodes: pipeline.stages.clone(),
        n_morsels: run.n_morsels,
        source_rows: run.source.rows(),
        morsels_by_worker: run
            .morsels_by_worker
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        groupagg_fused: matches!(
            state.run.plan.node(terminal)?.spec,
            OperatorSpec::GroupAgg { .. }
        ),
    });

    if state.run.results[terminal].set(final_chunk).is_err() {
        return Err(EngineError::InvalidPlan(format!("node {terminal} produced two results")));
    }
    Ok(())
}

/// Marks a step complete: launches consumer steps whose dependencies are now
/// all satisfied. Their tasks go through the task context, so the scheduler
/// keeps them on the publishing worker's deque, where the chunk is
/// cache-hot; and they are spawned before this task leaves the scheduler,
/// so the query's task count cannot touch zero between two steps.
fn complete_step(state: &Arc<Driver>, ctx: &TaskContext<'_>, step: usize) {
    for &(consumer, edges) in &state.graph.out_edges[step] {
        if state.step_deps[consumer].fetch_sub(edges, Ordering::AcqRel) == edges {
            launch_step(state, consumer, &|task| {
                ctx.submit(task);
                true
            });
        }
    }
}
