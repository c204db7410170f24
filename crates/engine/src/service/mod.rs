//! The long-lived production query service.
//!
//! Everything below this module turns the engine from a library driven by
//! one-shot benchmark harnesses into a service that many clients connect
//! to and submit queries through:
//!
//! * **Unified admission (single census).** Every submission that
//!   executes holds a census reservation
//!   ([`crate::Engine::reserve_admitted`]) for as long as it runs: the
//!   handle enters the census at issue time, its admit-time share and
//!   its peers' claw-back are computed under one registry lock, its
//!   release re-grants the sessions still running, and the profiler's DOP
//!   timeline records every step ([`crate::DopPhase`]). The one-shot
//!   `AdmissionController` baseline grants once and never revisits.
//! * **Sessions.** [`QueryService::connect`] returns a [`Session`]: a
//!   cheap-clone handle with a per-session ticket line (clones share the
//!   line, submissions run one at a time in ticket order) and
//!   close/cancel semantics — closing a session cancels its
//!   running query and fails later submissions with
//!   [`crate::EngineError::SessionClosed`].
//! * **Shared caches.** A plan cache keyed on [`crate::Plan::signature`] (reusing
//!   the `Arc<Plan>` shared-execution path) and a bounded result cache
//!   with explicit per-table invalidation. Keying rules live in
//!   `cache.rs`'s module docs and `docs/architecture.md` §8.
//!
//! ```text
//!            Session::submit(plan)
//!                   │
//!          per-session ticket line
//!                   │
//!        result cache ──hit──► ServiceResponse (no engine work)
//!                   │miss
//!         plan cache (signature → Arc<Plan>)
//!                   │
//!      Engine::reserve_admitted ─────────┐ one registry lock:
//!        (ticket = census entry,         │ census ∪ {self} = n,
//!         admit dop = equal share)       │ everyone ← max(1, workers/n)
//!                   │                    │
//!      Engine::execute_with_handle ◄─────┘
//!                   │
//!        reservation drops ──► survivors ← max(1, workers/(n−1))
//!                   │
//!        result cache insert → ServiceResponse
//! ```

pub(crate) mod cache;
mod session;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use apq_columnar::Catalog;

use crate::executor::{Engine, EngineConfig};
use crate::profiler::QueryProfile;
use crate::sync::lock;
use crate::QueryOutput;

use cache::{PlanCache, ResultCache};
pub use session::Session;
use session::WaiterRegistry;

/// Configuration of a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Configuration of the service-owned engine (workers, fault
    /// injection).
    pub engine: EngineConfig,
    /// Plan-cache capacity in entries (`0` disables the plan cache).
    pub plan_cache_capacity: usize,
    /// Result-cache capacity in entries (`0` disables the result cache).
    pub result_cache_capacity: usize,
    /// Service-wide bound on *queued* (not yet executing) submissions. At
    /// the bound a new submission is refused with
    /// [`crate::EngineError::Overloaded`] instead of blocking; nobody
    /// already queued is evicted. `0` (the default) means unbounded queues
    /// and no shedding.
    pub max_queued: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine: EngineConfig::default(),
            plan_cache_capacity: 256,
            result_cache_capacity: 128,
            max_queued: 0,
        }
    }
}

impl ServiceConfig {
    /// Config with the given engine configuration.
    pub fn with_engine(engine: EngineConfig) -> Self {
        ServiceConfig { engine, ..ServiceConfig::default() }
    }

    /// Sets the plan-cache capacity (`0` disables it).
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Sets the result-cache capacity (`0` disables it).
    pub fn with_result_cache_capacity(mut self, capacity: usize) -> Self {
        self.result_cache_capacity = capacity;
        self
    }

    /// Sets the service-wide queued-submission bound (`0` = unbounded).
    pub fn with_max_queued(mut self, max_queued: usize) -> Self {
        self.max_queued = max_queued;
        self
    }

    /// Ignored: scan sharing is gone (`docs/architecture.md` §10). Kept only
    /// because `benchmark/src/sut.rs` calls it and may not be edited outside
    /// a `[benchmark]` PR; the next one drops it together with the
    /// `sharing.*` rungs, the scheduler-policy shim and `typed_cache_hits`.
    #[doc(hidden)]
    pub fn with_shared_scans(self, _: bool) -> Self {
        self
    }
}

/// Outcome of one [`Session::submit`]: the result plus where it came from.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The query's result value.
    pub output: QueryOutput,
    /// The execution profile; `None` when the result was served from the
    /// result cache (nothing executed).
    pub profile: Option<QueryProfile>,
    /// True when the submission reused a cached shared plan.
    pub plan_cache_hit: bool,
    /// True when the output was served from the result cache.
    pub result_cache_hit: bool,
}

/// Snapshot of a service's cumulative counters ([`QueryService::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Sessions opened via [`QueryService::connect`].
    pub sessions_opened: u64,
    /// Sessions closed (explicitly or by drop).
    pub sessions_closed: u64,
    /// Submissions accepted into the pipeline (cache hits included).
    pub queries: u64,
    /// Submissions answered from the result cache.
    pub result_cache_hits: u64,
    /// Submissions that missed the result cache.
    pub result_cache_misses: u64,
    /// Executions that reused a cached shared plan.
    pub plan_cache_hits: u64,
    /// Executions that populated the plan cache.
    pub plan_cache_misses: u64,
    /// Result-cache entries dropped by explicit invalidation.
    pub results_invalidated: u64,
    /// Submissions that failed with
    /// [`crate::EngineError::DeadlineExceeded`] (expired in the queue or
    /// mid-execution).
    pub timed_out: u64,
    /// Submissions rejected with [`crate::EngineError::Overloaded`] —
    /// queue-bound sheds plus non-blocking [`Session::try_submit`] refusals.
    pub shed: u64,
    /// Always `0`: `benchmark/src/workloads.rs` reads it; the next
    /// `[benchmark]` PR drops it with `ServiceConfig::with_shared_scans`.
    #[doc(hidden)]
    pub partials_reused: u64,
}

/// Cumulative counters behind [`ServiceStats`].
#[derive(Default)]
struct StatCounters {
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    queries: AtomicU64,
    result_cache_hits: AtomicU64,
    result_cache_misses: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    results_invalidated: AtomicU64,
    timed_out: AtomicU64,
    shed: AtomicU64,
}

/// Shared state behind a [`QueryService`] and its [`Session`]s.
pub(crate) struct ServiceInner {
    pub(crate) engine: Engine,
    pub(crate) config: ServiceConfig,
    /// The served catalog; swap with [`QueryService::replace_catalog`].
    catalog: Mutex<Arc<Catalog>>,
    pub(crate) plan_cache: PlanCache,
    pub(crate) result_cache: ResultCache,
    /// Service-wide count of submissions waiting for their session's turn
    /// — the population [`ServiceConfig::max_queued`] bounds.
    pub(crate) waiters: WaiterRegistry,
    /// EWMA of recent execution latency in µs, the basis of
    /// [`crate::EngineError::Overloaded`]'s `retry_after_hint`.
    latency_ewma_us: AtomicU64,
    stats: StatCounters,
    next_session: AtomicU64,
}

impl ServiceInner {
    pub(crate) fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&lock(&self.catalog))
    }

    pub(crate) fn count_query(&self) {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_result_cache(&self, hit: bool) {
        let counter =
            if hit { &self.stats.result_cache_hits } else { &self.stats.result_cache_misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_plan_cache(&self, hit: bool) {
        let counter = if hit { &self.stats.plan_cache_hits } else { &self.stats.plan_cache_misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_session_closed(&self) {
        self.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_timed_out(&self) {
        self.stats.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_shed(&self) {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one execution's wall-clock latency into the EWMA (α = 1/4;
    /// coarse is fine — the hint is advisory back-pressure, not a promise).
    pub(crate) fn record_latency(&self, latency: Duration) {
        let sample = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let prev = self.latency_ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 { sample } else { prev - prev / 4 + sample / 4 };
        self.latency_ewma_us.store(next.max(1), Ordering::Relaxed);
    }

    /// How long a rejected client should wait before retrying: roughly the
    /// time for the backlog ahead of it to drain (average latency × queue
    /// depth), floored at 1ms so a cold service still signals back-off.
    pub(crate) fn retry_after_hint(&self) -> Duration {
        let ewma = self.latency_ewma_us.load(Ordering::Relaxed);
        let depth = self.waiters.len() as u64 + 1;
        Duration::from_micros(ewma.saturating_mul(depth)).max(Duration::from_millis(1))
    }
}

/// The long-lived query service: owns an [`Engine`] and a catalog, hands
/// out [`Session`]s, and shares the plan/result caches across them.
///
/// Cloning the service is cheap (shared state); all clones serve the same
/// engine, caches and counters.
///
/// ```
/// use std::sync::Arc;
/// use apq_columnar::{Catalog, ScalarValue, TableBuilder};
/// use apq_engine::plan::{OperatorSpec, Plan};
/// use apq_engine::{QueryOutput, QueryService, ServiceConfig};
/// use apq_operators::{AggFunc, CmpOp, Predicate};
///
/// let mut catalog = Catalog::new();
/// catalog.register(
///     TableBuilder::new("t").i64_column("v", vec![0, 1, 2, 3, 4]).build()?,
/// );
/// let service = QueryService::new(ServiceConfig::default(), Arc::new(catalog));
///
/// // `SELECT sum(v) FROM t WHERE v < 3`.
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
/// // Each client connects a session and submits through it.
/// let session = service.connect();
/// let first = session.submit(&plan)?;
/// assert_eq!(first.output, QueryOutput::Scalar(ScalarValue::I64(3)));
/// assert!(!first.result_cache_hit);
///
/// // A repeat of the same query is served from the result cache.
/// let repeat = session.submit(&plan)?;
/// assert!(repeat.result_cache_hit);
/// assert_eq!(repeat.output, first.output);
/// # Ok::<(), apq_engine::EngineError>(())
/// ```
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("engine", &self.inner.engine)
            .field("plan_cache", &self.inner.plan_cache.len())
            .field("result_cache", &self.inner.result_cache.len())
            .finish()
    }
}

impl QueryService {
    /// Creates a service around a fresh engine built from `config.engine`,
    /// serving `catalog`.
    pub fn new(config: ServiceConfig, catalog: Arc<Catalog>) -> Self {
        let engine = Engine::new(config.engine.clone());
        QueryService {
            inner: Arc::new(ServiceInner {
                engine,
                catalog: Mutex::new(catalog),
                plan_cache: PlanCache::new(config.plan_cache_capacity),
                result_cache: ResultCache::new(config.result_cache_capacity),
                waiters: WaiterRegistry::default(),
                latency_ewma_us: AtomicU64::new(0),
                stats: StatCounters::default(),
                next_session: AtomicU64::new(0),
                config,
            }),
        }
    }

    /// Opens a session.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use apq_columnar::Catalog;
    /// use apq_engine::{QueryService, ServiceConfig};
    ///
    /// let service = QueryService::new(ServiceConfig::default(), Arc::new(Catalog::new()));
    /// let session = service.connect();
    /// assert!(!session.is_closed());
    /// session.close();
    /// assert!(session.is_closed());
    /// assert_eq!(service.stats().sessions_opened, 1);
    /// assert_eq!(service.stats().sessions_closed, 1);
    /// ```
    pub fn connect(&self) -> Session {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        self.inner.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        Session::open(Arc::clone(&self.inner), id)
    }

    /// The service-owned engine (worker pool, registry).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// The catalog submissions currently execute against.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.inner.catalog()
    }

    /// Swaps the served catalog. All cached results are invalidated — they
    /// were computed from the old data.
    pub fn replace_catalog(&self, catalog: Arc<Catalog>) {
        *lock(&self.inner.catalog) = catalog;
        self.invalidate_results();
    }

    /// Drops every cached result computed from `table` (call after
    /// mutating that table's data); returns how many entries were dropped.
    pub fn invalidate_table(&self, table: &str) -> usize {
        let dropped = self.inner.result_cache.invalidate_table(table);
        self.inner.stats.results_invalidated.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Drops every cached result; returns how many entries were dropped.
    pub fn invalidate_results(&self) -> usize {
        let dropped = self.inner.result_cache.invalidate_all();
        self.inner.stats.results_invalidated.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Number of entries currently held by the plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.inner.plan_cache.len()
    }

    /// Number of entries currently held by the result cache.
    pub fn result_cache_len(&self) -> usize {
        self.inner.result_cache.len()
    }

    /// Number of submissions currently waiting in session queues (the
    /// population [`ServiceConfig::max_queued`] bounds).
    pub fn queued(&self) -> usize {
        self.inner.waiters.len()
    }

    /// Snapshot of the service's cumulative counters.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.inner.stats;
        ServiceStats {
            sessions_opened: s.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: s.sessions_closed.load(Ordering::Relaxed),
            queries: s.queries.load(Ordering::Relaxed),
            result_cache_hits: s.result_cache_hits.load(Ordering::Relaxed),
            result_cache_misses: s.result_cache_misses.load(Ordering::Relaxed),
            plan_cache_hits: s.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: s.plan_cache_misses.load(Ordering::Relaxed),
            results_invalidated: s.results_invalidated.load(Ordering::Relaxed),
            timed_out: s.timed_out.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            partials_reused: 0,
        }
    }
}
