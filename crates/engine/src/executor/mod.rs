//! The execution engine: a dataflow scheduler over a fixed worker pool.
//!
//! The paper's run-time environment consists of "a scheduler, an interpreter,
//! and a profiler. The scheduler uses a data-flow graph based scheduling
//! policy, where an operator is scheduled for execution once all its input
//! sources are available. While an interpreter per CPU core executes the
//! scheduled operators, the profiler gathers performance data on an executed
//! operator basis." (§2)
//!
//! This module is the engine and its live-query registry: [`EngineConfig`],
//! the [`Engine`] that owns the worker pool ("interpreter per CPU core"),
//! census reservations ([`ReservedQuery`]) and the supervised controller
//! thread. A submission ([`Engine::execute`]) is validated, entered into the
//! registry and handed to the one execution runtime, which lives in two
//! private submodules:
//!
//! * `driver` — plans the query into steps
//!   ([`ExecutionMode`] picks the *planning*: one whole-node step per
//!   operator, or fused morsel pipelines) and runs the step graph by
//!   dependency counting: a step becomes runnable when all its producers
//!   have finished and is then handed to the engine's [`Scheduler`];
//! * `run` — the per-query run context every task shares: result and
//!   profile slots, the failure latch, the operator checkpoint and the
//!   wait-drain-collect tail every submission returns through.
//!
//! *Which* worker runs a task *when* is the scheduler's choice — see
//! [`crate::scheduler`] (per-worker deques with local-first pop, shared
//! injectors, single-task steals). Because the pool is shared by *all*
//! concurrently submitted queries, a heavy concurrent workload creates
//! exactly the resource contention the paper studies; per-task queue-wait
//! times are recorded in the profile so downstream consumers can tell
//! operator cost from scheduler interference.

mod driver;
mod run;
#[cfg(test)]
mod tests;

use std::collections::{hash_map, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use apq_columnar::Catalog;

use crate::chunk::QueryOutput;
use crate::controller::{
    equal_share, is_governed, share_weight, weighted_share, ControllerConfig, ResourceController,
    TickReport,
};
use crate::error::Result;
use crate::fault::{FaultConfig, FaultInjector, FaultStats};
use crate::pipeline::{ExecutionMode, DEFAULT_MORSEL_ROWS};
use crate::plan::Plan;
use crate::profiler::{DopPhase, QueryProfile};
use crate::scheduler::{QueryHandle, Scheduler, SchedulerStats};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads ("interpreters"). The paper's machines have
    /// 32 / 96 hardware threads; experiments here scale this down.
    pub n_workers: usize,
    /// How plans are *planned* into scheduler tasks: one whole-node step per
    /// operator (default) or fused pipelines driven by fixed-size morsels.
    /// One driver runs both plannings (see [`crate::pipeline`]); results are
    /// byte-identical either way.
    pub execution_mode: ExecutionMode,
    /// Morsel size in rows for the fused pipelines of
    /// [`ExecutionMode::MorselDriven`] (default [`DEFAULT_MORSEL_ROWS`]);
    /// operator-at-a-time planning has no pipelines to cut. Under the
    /// elastic controller this is the *starting* size; the controller may
    /// override it per query within its configured bounds.
    pub morsel_rows: usize,
    /// Elastic resource controller ([`crate::controller`]): mid-flight DOP
    /// re-grants and adaptive morsel sizing driven by live scheduler
    /// signals. `None` (default) disables the subsystem — admitted DOP and
    /// morsel size then stay exactly as submitted.
    pub controller: Option<ControllerConfig>,
    /// Deterministic fault injection ([`crate::fault`]): seeded operator
    /// panics, dispatch stalls, spurious cancellations and delays, threaded
    /// through the driver's operator checkpoint and the scheduler's
    /// dispatch loop. Also the engine's one injected-latency
    /// mechanism: a fixed per-operator delay ([`FaultConfig::fixed_delay`])
    /// emulates a slower platform. `None` (default) disables the layer.
    pub faults: Option<FaultConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            execution_mode: ExecutionMode::default(),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            controller: None,
            faults: None,
        }
    }
}

impl EngineConfig {
    /// Configuration with an explicit worker count and defaults otherwise.
    pub fn with_workers(n_workers: usize) -> Self {
        EngineConfig { n_workers: n_workers.max(1), ..EngineConfig::default() }
    }

    /// Sets the execution mode (builder style).
    pub fn with_execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.execution_mode = mode;
        self
    }

    /// Sets the morsel size in rows for morsel-driven execution (builder
    /// style). Values are clamped to at least 1 at use sites.
    pub fn with_morsel_rows(mut self, morsel_rows: usize) -> Self {
        self.morsel_rows = morsel_rows;
        self
    }

    /// Enables the elastic resource controller (builder style); see
    /// [`crate::controller`] for the feedback-loop specification.
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Enables deterministic fault injection (builder style); see
    /// [`crate::fault`] for the chaos-layer specification.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// Per-query submission options: scheduling priority and admitted degree of
/// parallelism (see [`QueryHandle`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Scheduling priority; `> 0` uses the scheduler's priority lane.
    pub priority: u8,
    /// Maximum concurrently executing tasks of this query (`0` = unlimited).
    pub admitted_dop: usize,
}

impl QueryOptions {
    /// Options with an admitted degree of parallelism.
    pub fn with_admitted_dop(dop: usize) -> Self {
        QueryOptions { admitted_dop: dop, ..QueryOptions::default() }
    }

    /// Options with a scheduling priority.
    pub fn with_priority(priority: u8) -> Self {
        QueryOptions { priority, ..QueryOptions::default() }
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

/// A census reservation: a [`QueryHandle`] registered in the engine's
/// live-query registry *before* submission ([`Engine::reserve_query`] /
/// [`Engine::reserve_admitted`]), so the elastic controller counts the
/// pending client from issue time — a ticket *is* a registry entry, not a
/// side counter.
///
/// Dropping the reservation releases the census slot (and with it the
/// query's claim on future DOP shares). The reservation does not cancel a
/// submission already in flight — cancellation stays with
/// [`QueryHandle::cancel`].
pub struct ReservedQuery {
    handle: Arc<QueryHandle>,
    registry: Arc<Mutex<HashMap<u64, Arc<QueryHandle>>>>,
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
        self.registry.lock().remove(&self.handle.id());
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
    /// Handles of the queries currently executing, keyed by query id — the
    /// registry the controller's ticks (and [`Engine::active_queries`])
    /// snapshot.
    registry: Arc<Mutex<HashMap<u64, Arc<QueryHandle>>>>,
    /// Elastic resource controller; `None` when disabled.
    controller: Option<Arc<ResourceController>>,
    /// Stop flag + wakeup for the background control thread.
    controller_stop: Arc<(Mutex<bool>, Condvar)>,
    controller_thread: Option<JoinHandle<()>>,
    /// Chaos layer ([`crate::fault`]); `None` when disabled.
    faults: Option<Arc<FaultInjector>>,
    /// Monotonic controller tick number, shared by the background loop and
    /// [`Engine::controller_tick`] (the fault schedule keys scripted tick
    /// panics on it).
    controller_ticks: Arc<AtomicU64>,
    /// Times the tick watchdog contained a panicking controller tick and
    /// restarted the loop.
    controller_restarts: Arc<AtomicU64>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("n_workers", &self.config.n_workers).finish()
    }
}

impl Engine {
    /// Creates an engine with the given configuration, spawning the worker pool.
    pub fn new(config: EngineConfig) -> Self {
        let n_workers = config.n_workers.max(1);
        let faults = config.faults.clone().map(|c| Arc::new(FaultInjector::new(c)));
        let scheduler = Arc::new(Scheduler::with_faults(n_workers, faults.clone()));
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
        let registry: Arc<Mutex<HashMap<u64, Arc<QueryHandle>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let controller = config
            .controller
            .clone()
            .map(|cfg| Arc::new(ResourceController::new(cfg, n_workers, config.morsel_rows)));
        let controller_stop = Arc::new((Mutex::new(false), Condvar::new()));
        let controller_ticks = Arc::new(AtomicU64::new(0));
        let controller_restarts = Arc::new(AtomicU64::new(0));
        let controller_thread = controller.as_ref().map(|ctrl| {
            let ctrl = Arc::clone(ctrl);
            let registry = Arc::clone(&registry);
            let sched = Arc::clone(&scheduler);
            let stop = Arc::clone(&controller_stop);
            let faults = faults.clone();
            let ticks = Arc::clone(&controller_ticks);
            let restarts = Arc::clone(&controller_restarts);
            std::thread::Builder::new()
                .name("apq-controller".to_string())
                .spawn(move || loop {
                    {
                        let (lock, cv) = &*stop;
                        let mut stopped = lock.lock();
                        if *stopped {
                            return;
                        }
                        cv.wait_for(&mut stopped, ctrl.config().tick);
                        if *stopped {
                            return;
                        }
                    }
                    supervised_tick(&ctrl, &registry, &sched, faults.as_deref(), &ticks, &restarts);
                })
                .expect("failed to spawn controller thread")
        });
        Engine {
            config,
            scheduler,
            workers,
            next_query_id: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            registry,
            controller,
            controller_stop,
            controller_thread,
            faults,
            controller_ticks,
            controller_restarts,
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

    /// Snapshot of the scheduler's per-worker counters (cumulative since the
    /// engine was created).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Number of queries currently executing on this engine (all clients).
    pub fn in_flight_queries(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Handles of the queries currently executing (all clients), in no
    /// particular order — the live population the controller governs.
    pub fn active_queries(&self) -> Vec<Arc<QueryHandle>> {
        self.registry.lock().values().cloned().collect()
    }

    /// Number of submitted tasks not yet dispatched by the scheduler (pool
    /// pressure; approximate while workers drain concurrently).
    pub fn pending_tasks(&self) -> usize {
        self.scheduler.pending_tasks()
    }

    /// Runs one synchronous control round of the elastic resource
    /// controller over the currently active queries, returning what it did.
    /// A no-op returning an empty report when the controller is disabled.
    ///
    /// The background control thread ticks on its own
    /// ([`ControllerConfig::tick`]); this entry point exists so tests,
    /// examples and operators can force a deterministic round. Like the
    /// background loop, the round runs under the tick watchdog: a panicking
    /// tick is contained, counted in [`Engine::controller_restarts`] and
    /// returns an empty report instead of unwinding into the caller.
    pub fn controller_tick(&self) -> TickReport {
        match &self.controller {
            Some(ctrl) => supervised_tick(
                ctrl,
                &self.registry,
                &self.scheduler,
                self.faults.as_deref(),
                &self.controller_ticks,
                &self.controller_restarts,
            ),
            None => TickReport::default(),
        }
    }

    /// Times the controller tick watchdog contained a panicking tick and
    /// restarted the control loop (0 in healthy operation; chaos runs with
    /// scripted tick panics drive it up). A panic costs one interval of
    /// adaptive signal, never the control loop itself — the alternative, a
    /// dead `apq-controller` thread, would silently freeze elastic
    /// re-grants for the rest of the engine's life.
    pub fn controller_restarts(&self) -> u64 {
        self.controller_restarts.load(Ordering::Relaxed)
    }

    /// Cumulative fault-injection counters of the chaos layer
    /// ([`crate::fault`]); all zeros when injection is disabled.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// Registers a query with the scheduler, returning its handle. The handle
    /// can be passed to [`Engine::execute_with_handle`] and retained by the
    /// caller for mid-flight control (cancellation, DOP re-grants).
    pub fn register_query(&self, options: QueryOptions) -> Arc<QueryHandle> {
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        Arc::new(QueryHandle::new(id, options.priority, options.admitted_dop))
    }

    /// Reserves a census slot for a query *before* it is submitted: the
    /// returned reservation's handle enters the live-query registry
    /// immediately, so [`Engine::active_queries`] and controller ticks count
    /// it from issue time. This is the unified-census replacement for
    /// side-table admission tickets (the baselines crate's
    /// `AdmissionController` keeps its own active counter — a second census
    /// the controller's ticks cannot see).
    ///
    /// The reservation is RAII: dropping it removes the handle from the
    /// registry. Executing via [`Engine::execute_with_handle`] with the
    /// reservation's handle records a [`DopPhase::Submit`] timeline event
    /// and leaves registration to the reservation — the slot stays held
    /// across repeated submissions until the client drops it.
    pub fn reserve_query(&self, options: QueryOptions) -> ReservedQuery {
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        let handle = Arc::new(QueryHandle::with_phase(
            id,
            options.priority,
            options.admitted_dop,
            DopPhase::Reserve,
        ));
        self.registry.lock().insert(id, Arc::clone(&handle));
        ReservedQuery { handle, registry: Arc::clone(&self.registry) }
    }

    /// Reserves a census slot with an *admission-controlled* DOP grant: the
    /// equal share `max(1, total_dop / n_governed)` over the governed
    /// population, counted and granted under one registry lock — the same
    /// census snapshot the elastic controller's ticks rebalance over, so
    /// the admit-time target and the next re-grant target can never
    /// disagree about who is present. `total_dop == 0` means the engine's
    /// worker count.
    ///
    /// ```
    /// use apq_engine::Engine;
    ///
    /// let engine = Engine::with_workers(4);
    /// let first = engine.reserve_admitted(0, 4);
    /// assert_eq!(first.handle().admitted_dop(), 4); // alone: whole pool
    /// let second = engine.reserve_admitted(0, 4);
    /// assert_eq!(second.handle().admitted_dop(), 2); // equal share of 2
    /// // Both are census-visible before any submission:
    /// assert_eq!(engine.active_queries().len(), 2);
    /// drop(first);
    /// assert_eq!(engine.active_queries().len(), 1);
    /// ```
    pub fn reserve_admitted(&self, priority: u8, total_dop: usize) -> ReservedQuery {
        let total = if total_dop == 0 { self.config.n_workers } else { total_dop };
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        let weighted = self.controller.as_ref().is_some_and(|c| c.config().weighted_shares);
        let mut registry = self.registry.lock();
        let target = if weighted {
            // Priority-weighted admission (`ControllerConfig::weighted_shares`):
            // the grant is proportional to `priority + 1` over the governed
            // population plus this arrival, mirroring the controller's
            // weighted re-grants tick-for-tick.
            let weight_sum = registry
                .values()
                .filter(|h| is_governed(h))
                .map(|h| share_weight(h.priority()))
                .sum::<usize>()
                + share_weight(priority);
            weighted_share(total, share_weight(priority), weight_sum)
        } else {
            let n_governed = registry.values().filter(|h| is_governed(h)).count() + 1;
            equal_share(total, n_governed)
        };
        let handle = Arc::new(QueryHandle::with_phase(id, priority, target, DopPhase::Reserve));
        registry.insert(id, Arc::clone(&handle));
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
    /// use apq_columnar::{partition::RowRange, Catalog, ScalarValue, TableBuilder};
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
    ///     OperatorSpec::ScanColumn {
    ///         table: "t".into(),
    ///         column: "v".into(),
    ///         range: RowRange::new(0, 5),
    ///     },
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
        let handle = self.register_query(QueryOptions::default());
        self.execute_with_handle(plan, catalog, handle)
    }

    /// Executes a plan under an explicit [`QueryHandle`] (from
    /// [`Engine::register_query`]), giving the caller per-query scheduling
    /// control: priority, admitted degree of parallelism, cancellation.
    pub fn execute_with_handle(
        &self,
        plan: &Arc<Plan>,
        catalog: &Arc<Catalog>,
        handle: Arc<QueryHandle>,
    ) -> Result<QueryExecution> {
        plan.validate()?;

        // Count of *other* queries in flight at submission, recorded in the
        // profile so consumers of the queue-wait signal can tell cross-query
        // interference from self-inflicted queueing (more partitions than
        // workers). The guard keeps the counter balanced on error returns.
        let concurrent_peers = self.in_flight.fetch_add(1, Ordering::AcqRel);
        struct InFlightGuard<'a>(&'a AtomicUsize);
        impl Drop for InFlightGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _in_flight = InFlightGuard(&self.in_flight);

        // Publish the handle in the live-query registry for the duration of
        // the execution, so controller ticks see it. The guard keeps the
        // registry consistent on every exit path; a re-grant racing query
        // completion at worst writes to a handle nobody reads anymore.
        //
        // A handle that is *already* registered is a census reservation
        // ([`Engine::reserve_admitted`]): it entered the registry at issue
        // time and its [`ReservedQuery`] owns the removal, so the guard must
        // not unregister it here — the reservation stays census-visible
        // until the client drops it, even across repeated submissions.
        let reserved = {
            let mut registry = self.registry.lock();
            match registry.entry(handle.id()) {
                hash_map::Entry::Occupied(_) => true,
                hash_map::Entry::Vacant(slot) => {
                    slot.insert(Arc::clone(&handle));
                    false
                }
            }
        };
        if reserved {
            handle.mark_submitted();
        }
        struct RegistryGuard<'a> {
            registry: &'a Mutex<HashMap<u64, Arc<QueryHandle>>>,
            id: u64,
            owned: bool,
        }
        impl Drop for RegistryGuard<'_> {
            fn drop(&mut self) {
                if self.owned {
                    self.registry.lock().remove(&self.id);
                }
            }
        }
        let _registered =
            RegistryGuard { registry: &self.registry, id: handle.id(), owned: !reserved };

        // Pre-dispatch liveness gate: a query submitted already cancelled or
        // with an expired deadline fails here, before a single task reaches
        // the scheduler — no morsel is dispatched for work that cannot
        // complete.
        if let Some(err) = run::liveness_error(&handle) {
            return Err(err);
        }

        driver::execute(self, plan, catalog, handle, concurrent_peers)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Stop the control loop first so no tick runs against a draining
        // scheduler.
        if let Some(thread) = self.controller_thread.take() {
            {
                let (lock, cv) = &*self.controller_stop;
                *lock.lock() = true;
                cv.notify_all();
            }
            let _ = thread.join();
        }
        // Shutting the scheduler down lets the workers drain remaining tasks
        // and exit.
        self.scheduler.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One watchdog-supervised controller round, shared by the background
/// control thread and [`Engine::controller_tick`]. A panicking tick (a
/// controller bug, or a scripted
/// [`crate::fault::FaultConfig::controller_tick_panics`] entry) is contained
/// here: the controller's signal windows are reset (a panic may have unwound
/// mid-update) and the restart counter incremented, so the control loop
/// keeps ticking instead of dying silently and freezing elastic re-grants.
fn supervised_tick(
    ctrl: &ResourceController,
    registry: &Mutex<HashMap<u64, Arc<QueryHandle>>>,
    sched: &Scheduler,
    faults: Option<&FaultInjector>,
    ticks: &AtomicU64,
    restarts: &AtomicU64,
) -> TickReport {
    let tick_idx = ticks.fetch_add(1, Ordering::Relaxed);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(faults) = faults {
            if faults.tick_should_panic(tick_idx) {
                panic!("injected controller tick panic (tick {tick_idx})");
            }
        }
        let active: Vec<Arc<QueryHandle>> = registry.lock().values().cloned().collect();
        ctrl.tick(&active, sched.pending_tasks())
    }));
    match outcome {
        Ok(report) => report,
        Err(_) => {
            ctrl.reset();
            restarts.fetch_add(1, Ordering::Relaxed);
            TickReport::default()
        }
    }
}
