//! The execution engine: a dataflow scheduler over a fixed worker pool.
//!
//! The paper's run-time environment consists of "a scheduler, an interpreter,
//! and a profiler. The scheduler uses a data-flow graph based scheduling
//! policy, where an operator is scheduled for execution once all its input
//! sources are available. While an interpreter per CPU core executes the
//! scheduled operators, the profiler gathers performance data on an executed
//! operator basis." (§2)
//!
//! This module is the engine and its census: [`EngineConfig`], the
//! [`Engine`] that owns the worker pool ("interpreter per CPU core") and
//! census reservations ([`ReservedQuery`]), whose admitted DOP follows the
//! live population. A submission ([`Engine::execute`]) is validated and
//! handed to the one execution runtime, which lives in two private
//! submodules:
//!
//! * `driver` — plans the query into steps along its cuts, each a chain of
//!   stages ([`crate::pipeline`]), and runs the step graph by dependency
//!   counting: a step becomes runnable when all its producers have finished
//!   and is then handed to the engine's [`Scheduler`] as one task per part,
//!   every task running the same body;
//! * `run` — the per-query run context every task shares: result and
//!   profile slots, the failure latch, the operator checkpoint and the
//!   wait-then-collect tail every submission returns through.
//!
//! *Which* worker runs a task *when* is the scheduler's choice — see
//! [`crate::scheduler`] (per-worker deques with local-first pop, a shared
//! injector, single-task steals). Because the pool is shared by *all*
//! concurrently submitted queries, a heavy concurrent workload creates
//! exactly the resource contention the paper studies; per-task queue-wait
//! times are recorded in the profile so downstream consumers can tell
//! operator cost from scheduler interference.

mod driver;
mod parts;
mod run;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use apq_columnar::Catalog;

use crate::chunk::QueryOutput;
use crate::error::Result;
use crate::fault::{FaultConfig, FaultInjector, FaultStats};
use crate::plan::{Plan, DEFAULT_MORSEL_ROWS};
use crate::profiler::{DopPhase, QueryProfile};
use crate::scheduler::{QueryHandle, Scheduler, SchedulerStats};
use crate::sync::lock;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads ("interpreters"). The paper's machines have
    /// 32 / 96 hardware threads; experiments here scale this down.
    pub n_workers: usize,
    /// Deterministic fault injection ([`crate::fault`]): seeded operator
    /// panics, spurious cancellations and delays, all fired at the driver's
    /// operator executions. Also the engine's one injected-latency
    /// mechanism: a fixed per-operator delay ([`FaultConfig::fixed_delay`])
    /// makes every operator deliberately slow. `None` (default) disables
    /// the layer.
    pub faults: Option<FaultConfig>,
    /// Benchmark link compatibility only ([`ExecutionMode`]).
    execution_mode: ExecutionMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            faults: None,
            execution_mode: Default::default(),
        }
    }
}

impl EngineConfig {
    /// Configuration with an explicit worker count and defaults otherwise.
    pub fn with_workers(n_workers: usize) -> Self {
        EngineConfig { n_workers: n_workers.max(1), ..EngineConfig::default() }
    }

    /// Enables deterministic fault injection (builder style); see
    /// [`crate::fault`] for the chaos-layer specification.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// Benchmark link compatibility only, ignored: `benchmark/src/sut.rs` names
/// both variants and [`EngineConfig::with_scheduler`], and may not be
/// edited outside a `[benchmark]` PR. The next `[benchmark]` PR drops this
/// enum and that method together with `Runtime::MorselGlobal` and the
/// `scheduler.stealing_vs_global_ratio` rung.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    GlobalQueue,
    WorkStealing,
}

/// Benchmark link compatibility only: `benchmark/src/sut.rs` names
/// `MorselDriven` and [`EngineConfig::with_execution_mode`], and may not be
/// edited outside a `[benchmark]` PR. An engine set to `MorselDriven` runs
/// each plan it is given cut into morsels of [`DEFAULT_MORSEL_ROWS`] rows
/// ([`Plan::cut_into_morsels`]), the step graphs the benchmark's morsel
/// runtimes have always run. The next `[benchmark]` PR drops this enum,
/// that method and the field they set together with [`SchedulerPolicy`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    #[default]
    OperatorAtATime,
    MorselDriven,
}

impl ExecutionMode {
    /// `plan` as an engine set to this mode runs it.
    fn planned(self, plan: &Arc<Plan>) -> Arc<Plan> {
        match self {
            ExecutionMode::OperatorAtATime => Arc::clone(plan),
            ExecutionMode::MorselDriven => Arc::new(plan.cut_into_morsels(DEFAULT_MORSEL_ROWS)),
        }
    }
}

impl EngineConfig {
    /// Benchmark link compatibility only, ignored — see [`SchedulerPolicy`].
    #[doc(hidden)]
    pub fn with_scheduler(self, _: SchedulerPolicy) -> Self {
        self
    }

    /// Benchmark link compatibility only — see [`ExecutionMode`].
    #[doc(hidden)]
    pub fn with_execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.execution_mode = mode;
        self
    }
}

/// Result of one query execution: the final value plus its profile.
#[derive(Debug, Clone)]
pub struct QueryExecution {
    /// Canonical result value (comparable across plans of the same query).
    pub output: QueryOutput,
    /// Per-operator and per-query performance data.
    pub profile: QueryProfile,
}

/// The census the pool is split over. One lock guards it, so a
/// reservation's admit-time share and its peers' re-grants are computed from
/// the same population. Lock order is registry → a handle's DOP timeline,
/// never the reverse.
struct Registry {
    /// Worker count: the pool the census divides.
    pool: usize,
    /// The reservations of [`Engine::reserve_admitted`]; each holds
    /// [`Registry::share`].
    census: Vec<Arc<QueryHandle>>,
}

impl Registry {
    /// The equal share of the pool among `n` census members.
    fn share(&self, n: usize) -> usize {
        (self.pool / n.max(1)).max(1)
    }

    /// Brings every census member's cap to the current share, writing (and
    /// recording a [`DopPhase::Regrant`]) only where it differs. Called
    /// wherever the census changes: [`Engine::reserve_admitted`] and
    /// [`ReservedQuery`]'s drop.
    fn regrant(&self) {
        let share = self.share(self.census.len());
        for handle in &self.census {
            if handle.admitted_dop() != share {
                handle.set_admitted_dop(share);
            }
        }
    }
}

/// A census reservation: a [`QueryHandle`] entered into the engine's census
/// *before* submission ([`Engine::reserve_admitted`]), so the pending client
/// counts from issue time — a ticket *is* a census entry, not a side
/// counter.
///
/// Dropping the reservation releases the slot and re-grants the remaining
/// reservations under the same registry lock. The reservation does not cancel
/// a submission already in flight — cancellation stays with
/// [`QueryHandle::cancel`] — and a query still executing when its
/// reservation is dropped simply keeps the cap it holds.
pub struct ReservedQuery {
    handle: Arc<QueryHandle>,
    registry: Arc<Mutex<Registry>>,
}

impl ReservedQuery {
    /// The reservation's query handle — pass it to
    /// [`Engine::execute_with_handle`] to submit under this census slot.
    pub fn handle(&self) -> Arc<QueryHandle> {
        Arc::clone(&self.handle)
    }

    /// Engine-assigned query id of the reserved slot.
    pub fn id(&self) -> u64 {
        self.handle.id()
    }
}

impl std::fmt::Debug for ReservedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReservedQuery")
            .field("id", &self.handle.id())
            .field("admitted_dop", &self.handle.admitted_dop())
            .finish()
    }
}

impl Drop for ReservedQuery {
    fn drop(&mut self) {
        let mut registry = lock(&self.registry);
        registry.census.retain(|h| h.id() != self.handle.id());
        registry.regrant();
    }
}

/// The shared execution engine (worker pool + task scheduler).
pub struct Engine {
    config: EngineConfig,
    scheduler: Arc<Scheduler>,
    workers: Vec<JoinHandle<()>>,
    next_query_id: AtomicU64,
    /// Queries currently inside `execute_with_handle` (all clients).
    in_flight: AtomicUsize,
    /// The census the pool is split over.
    registry: Arc<Mutex<Registry>>,
    /// Chaos layer ([`crate::fault`]); `None` when disabled.
    faults: Option<Arc<FaultInjector>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("n_workers", &self.config.n_workers).finish()
    }
}

impl Engine {
    /// Creates an engine with the given configuration, spawning the worker
    /// pool. A worker count of 0 runs, and reads back, as one worker.
    pub fn new(mut config: EngineConfig) -> Self {
        config.n_workers = config.n_workers.max(1);
        let n_workers = config.n_workers;
        let faults = config.faults.clone().map(|c| Arc::new(FaultInjector::new(c)));
        let scheduler = Arc::new(Scheduler::new(n_workers));
        let mut workers = Vec::with_capacity(n_workers);
        for worker_idx in 0..n_workers {
            let sched = Arc::clone(&scheduler);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("apq-worker-{worker_idx}"))
                    .spawn(move || sched.run_worker(worker_idx))
                    .expect("failed to spawn worker thread"),
            );
        }
        let registry = Arc::new(Mutex::new(Registry { pool: n_workers, census: Vec::new() }));
        Engine {
            config,
            scheduler,
            workers,
            next_query_id: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            registry,
            faults,
        }
    }

    /// Engine with `n` workers and default settings otherwise.
    pub fn with_workers(n: usize) -> Self {
        Engine::new(EngineConfig::with_workers(n))
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.config.n_workers
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Snapshot of the scheduler's dispatch counters, summed over its
    /// workers (cumulative since the engine was created).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Number of queries currently executing on this engine (all clients).
    pub fn in_flight_queries(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Handles of the live [`Engine::reserve_admitted`] reservations — the
    /// census the pool is split over — in arrival order. A handle from
    /// [`Engine::register_query`] is never in it.
    pub fn reservations(&self) -> Vec<Arc<QueryHandle>> {
        lock(&self.registry).census.clone()
    }

    /// Cumulative fault-injection counters of the chaos layer
    /// ([`crate::fault`]); all zeros when injection is disabled.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// Registers a query with the scheduler, returning its handle: at most
    /// `admitted_dop` of its tasks execute at once (`0` = unlimited). The
    /// handle can be passed to [`Engine::execute_with_handle`] and retained
    /// by the caller for mid-flight control (cancellation, DOP re-grants).
    pub fn register_query(&self, admitted_dop: usize) -> Arc<QueryHandle> {
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        Arc::new(QueryHandle::new(id, admitted_dop))
    }

    /// Reserves a census slot with an *admission-controlled* DOP grant: the
    /// equal share `max(1, workers / n)` of the pool among the `n` live
    /// reservations made through this call, the newcomer included. The
    /// census changes in exactly two places — here and where a
    /// [`ReservedQuery`] drops — and both bring every member to the new
    /// share under the one registry lock: an arrival claws its peers back,
    /// a release re-grants the survivors ([`DopPhase::Regrant`] in their
    /// timelines). The scheduler re-reads the cap at every slot
    /// acquisition, so a raise reaches already-queued tasks and a cap below
    /// the running-task count just stops granting slots until tasks drain.
    ///
    /// The reservation is RAII: dropping it leaves the census. Executing
    /// via [`Engine::execute_with_handle`] with the reservation's handle
    /// records a [`DopPhase::Submit`] timeline event; the slot stays held
    /// across repeated submissions until the client drops it.
    ///
    /// ```
    /// use apq_engine::{DopPhase, Engine};
    ///
    /// let engine = Engine::with_workers(4);
    /// let first = engine.reserve_admitted();
    /// assert_eq!(first.handle().admitted_dop(), 4); // alone: whole pool
    /// let second = engine.reserve_admitted();
    /// assert_eq!(second.handle().admitted_dop(), 2); // equal share of 2
    /// assert_eq!(first.handle().admitted_dop(), 2); // clawed back
    /// // Both are census-visible before any submission:
    /// assert_eq!(engine.reservations().len(), 2);
    /// drop(first);
    /// assert_eq!(second.handle().admitted_dop(), 4); // re-granted
    /// assert_eq!(second.handle().dop_timeline().last().unwrap().phase, DopPhase::Regrant);
    /// ```
    pub fn reserve_admitted(&self) -> ReservedQuery {
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        let mut registry = lock(&self.registry);
        let share = registry.share(registry.census.len() + 1);
        let handle = Arc::new(QueryHandle::with_phase(id, share, DopPhase::Reserve));
        registry.census.push(Arc::clone(&handle));
        registry.regrant();
        drop(registry);
        ReservedQuery { handle, registry: Arc::clone(&self.registry) }
    }

    /// Executes a plan against a catalog, blocking until the result is ready.
    ///
    /// May be called concurrently from many client threads; all queries share
    /// the same worker pool.
    pub fn execute(&self, plan: &Plan, catalog: &Arc<Catalog>) -> Result<QueryExecution> {
        self.execute_shared(&Arc::new(plan.clone()), catalog)
    }

    /// Like [`Engine::execute`] but borrows an already-shared plan, avoiding
    /// the deep plan clone per run — the hot path for repeated executions of
    /// the same plan (benchmark loops, background workloads).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use apq_columnar::{Catalog, ScalarValue, TableBuilder};
    /// use apq_engine::plan::{OperatorSpec, Plan};
    /// use apq_engine::{Engine, QueryOutput};
    /// use apq_operators::{AggFunc, CmpOp, Predicate};
    ///
    /// // A tiny table and the plan for `SELECT sum(v) FROM t WHERE v < 3`.
    /// let mut catalog = Catalog::new();
    /// catalog.register(
    ///     TableBuilder::new("t").i64_column("v", vec![0, 1, 2, 3, 4]).build()?,
    /// );
    /// let catalog = Arc::new(catalog);
    ///
    /// let mut plan = Plan::new();
    /// let scan = plan.add(
    ///     OperatorSpec::ScanColumn { table: "t".into(), column: "v".into() },
    ///     vec![],
    /// );
    /// let sel = plan.add(
    ///     OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 3i64) },
    ///     vec![scan],
    /// );
    /// let fetch = plan.add(OperatorSpec::Fetch, vec![sel, scan]);
    /// let agg = plan.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
    /// let fin = plan.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    /// plan.set_root(fin);
    ///
    /// // Share the plan once, execute it many times without re-cloning it.
    /// let engine = Engine::with_workers(2);
    /// let plan = Arc::new(plan);
    /// for _ in 0..3 {
    ///     let exec = engine.execute_shared(&plan, &catalog)?;
    ///     assert_eq!(exec.output, QueryOutput::Scalar(ScalarValue::I64(3)));
    /// }
    /// # Ok::<(), apq_engine::EngineError>(())
    /// ```
    pub fn execute_shared(
        &self,
        plan: &Arc<Plan>,
        catalog: &Arc<Catalog>,
    ) -> Result<QueryExecution> {
        let handle = self.register_query(0);
        self.execute_with_handle(plan, catalog, handle)
    }

    /// Executes a plan under an explicit [`QueryHandle`] (from
    /// [`Engine::register_query`] or [`ReservedQuery::handle`]), giving the
    /// caller per-query scheduling control: admitted degree of parallelism,
    /// cancellation, deadline. Takes no registry lock: the census is
    /// changed only by reservations, and [`Engine::in_flight_queries`]
    /// counts the executing queries.
    pub fn execute_with_handle(
        &self,
        plan: &Arc<Plan>,
        catalog: &Arc<Catalog>,
        handle: Arc<QueryHandle>,
    ) -> Result<QueryExecution> {
        let plan = &self.config.execution_mode.planned(plan);
        let sorted = plan.validated_order()?;

        // The guard keeps the in-flight gauge balanced on error returns.
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        struct InFlightGuard<'a>(&'a AtomicUsize);
        impl Drop for InFlightGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _in_flight = InFlightGuard(&self.in_flight);
        handle.mark_submitted();

        // Pre-dispatch liveness gate: a query submitted already cancelled or
        // with an expired deadline fails here, before a single task reaches
        // the scheduler — no morsel is dispatched for work that cannot
        // complete.
        if let Some(err) = run::liveness_error(&handle) {
            return Err(err);
        }

        driver::execute(self, plan, &sorted, catalog, handle)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Shutting the scheduler down lets the workers drain remaining tasks
        // and exit.
        self.scheduler.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests;
