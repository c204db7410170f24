//! Task scheduling for the execution engine.
//!
//! The paper's run-time environment separates *what* runs (dataflow
//! dependency tracking in [`crate::executor`]) from *where and when* it runs
//! (the scheduler). This module is the second half:
//!
//! * [`Scheduler`] — the engine's one dispatch loop: per-worker deques with
//!   an injector for cross-query submission and local-first pop for cache
//!   locality, the work-stealing idiom of §4.1.1 (and of noria's sharded
//!   workers). It accepts ready tasks, hands them to worker threads and
//!   exposes its dispatch counters;
//! * [`QueryHandle`] — per-query scheduling state: query id, admitted
//!   degree of parallelism, and a cancellation flag, so admission
//!   control ([`crate::executor::Engine::execute_with_handle`]) is enforced
//!   by the scheduler rather than by a plan-rewriting shim;
//! * [`SchedulerStats`] — `local` / `steal` / `inject` hit counters plus
//!   accumulated queue-wait time, kept per worker and summed at snapshot.
//!
//! **Queue-wait feedback.** Every task records the time between becoming
//! runnable (all inputs materialized) and starting execution. The executor
//! writes it into [`crate::profiler::OperatorProfile::queue_wait_us`],
//! separating "the operator was slow" from "the operator sat in the queue"
//! (paper §4.2.3's concurrent-workload analysis reads it through
//! [`crate::profiler::QueryProfile::queue_wait_share`]).
//!
//! Dispatch order never affects query *results*: dependency order is
//! enforced by the executor's atomic dependency counters, never by queue
//! order.

mod stealing;

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::profiler::{DopEvent, DopPhase};
use crate::sync::{lock, wait};

pub use stealing::Scheduler;

/// Per-query scheduling state, shared between the submitting client, the
/// scheduler and every task of the query.
#[derive(Debug)]
pub struct QueryHandle {
    id: u64,
    admitted_dop: AtomicUsize,
    cancelled: AtomicBool,
    running: AtomicUsize,
    /// Tasks of this query alive anywhere in the scheduler: created and not
    /// yet fully dispatched (queued, parked, or executing). A submission
    /// returns once this reaches zero — see [`QueryHandle::inflight_tasks`].
    inflight: AtomicUsize,
    /// Tasks popped while the query ran at its cap ([`Task::admit`]),
    /// handed back by [`QueryHandle::unpark`]. Locked before a worker queue.
    parked: Mutex<VecDeque<Task>>,
    /// Paired with `idle_cv`, which is notified when `inflight` reaches 0.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Epoch for [`DopEvent::at_us`] offsets (handle creation time).
    created: Instant,
    /// Admitted-DOP change history: the initial grant plus every
    /// [`QueryHandle::set_admitted_dop`] call, in order.
    dop_events: Mutex<Vec<DopEvent>>,
    /// Deadline as a nanosecond offset from `created`; `0` = no deadline.
    /// Nanosecond granularity so an instantly expired deadline
    /// (`set_deadline(Duration::ZERO)`) is observed as exceeded on the very
    /// next check, even when both happen within the same microsecond.
    deadline_ns: AtomicU64,
    /// Tasks of this query dispatched so far.
    dispatched: AtomicU64,
}

impl QueryHandle {
    /// Creates a handle. `admitted_dop == 0` means "no per-query cap".
    pub(crate) fn new(id: u64, admitted_dop: usize) -> Self {
        QueryHandle::with_phase(id, admitted_dop, DopPhase::Admit)
    }

    /// Creates a handle whose initial timeline event carries `phase` —
    /// [`DopPhase::Reserve`] for census reservations
    /// ([`crate::Engine::reserve_admitted`]), [`DopPhase::Admit`] otherwise.
    pub(crate) fn with_phase(id: u64, admitted_dop: usize, phase: DopPhase) -> Self {
        QueryHandle {
            id,
            admitted_dop: AtomicUsize::new(admitted_dop),
            cancelled: AtomicBool::new(false),
            running: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            parked: Mutex::new(VecDeque::new()),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            created: Instant::now(),
            dop_events: Mutex::new(vec![DopEvent { at_us: 0, dop: admitted_dop, phase }]),
            deadline_ns: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
        }
    }

    /// Records the submission of a reserved query — a handle whose initial
    /// event is [`DopPhase::Reserve`] — by appending a [`DopPhase::Submit`]
    /// event restating the grant currently in force, closing the
    /// reservation-held window in the timeline. A no-op for other handles.
    pub(crate) fn mark_submitted(&self) {
        let mut events = lock(&self.dop_events);
        if events[0].phase != DopPhase::Reserve {
            return;
        }
        let dop = self.admitted_dop.load(Ordering::Acquire);
        events.push(DopEvent {
            at_us: self.created.elapsed().as_micros() as u64,
            dop,
            phase: DopPhase::Submit,
        });
    }

    /// Engine-assigned query id (unique per engine instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Admitted degree of parallelism: at most this many tasks of the query
    /// execute simultaneously (`0` = unlimited). This is how admission
    /// control becomes a scheduler policy — the plan can stay maximally
    /// parallel while the scheduler throttles its concurrent footprint.
    pub fn admitted_dop(&self) -> usize {
        self.admitted_dop.load(Ordering::Acquire)
    }

    /// Re-grants the admitted degree of parallelism mid-flight (e.g. when
    /// another client leaves and resources free up, or claws back headroom
    /// when new clients are admitted). Takes effect at the *next* slot
    /// acquisition: a raise is picked up by queued tasks and, at the query's
    /// next task finish, by parked ones; a claw-back below the number of
    /// currently running tasks simply stops granting new slots until the
    /// running tasks drain — nothing is pre-empted.
    ///
    /// Every call is recorded in the handle's DOP timeline, which the
    /// executor publishes as [`crate::profiler::QueryProfile::dop_timeline`].
    ///
    /// ```
    /// use apq_engine::Engine;
    ///
    /// let engine = Engine::with_workers(2);
    /// let handle = engine.register_query(1);
    /// assert_eq!(handle.admitted_dop(), 1);
    /// // The client — or the engine, for a census reservation — re-grants:
    /// handle.set_admitted_dop(4);
    /// assert_eq!(handle.admitted_dop(), 4);
    /// let timeline = handle.dop_timeline();
    /// assert_eq!(timeline.len(), 2); // initial grant + the re-grant
    /// assert_eq!(timeline[0].dop, 1);
    /// assert_eq!(timeline[1].dop, 4);
    /// ```
    pub fn set_admitted_dop(&self, dop: usize) {
        // Store and timeline append happen under one lock so concurrent
        // setters (a census re-grant vs. the client) cannot leave the
        // recorded timeline ending on a different value than the live cap.
        let mut events = lock(&self.dop_events);
        self.admitted_dop.store(dop, Ordering::Release);
        events.push(DopEvent {
            at_us: self.created.elapsed().as_micros() as u64,
            dop,
            phase: DopPhase::Regrant,
        });
    }

    /// The admitted-DOP change history: the initial grant (at offset 0) plus
    /// one entry per [`QueryHandle::set_admitted_dop`] call, in call order.
    pub fn dop_timeline(&self) -> Vec<DopEvent> {
        lock(&self.dop_events).clone()
    }

    /// Number of this query's tasks dispatched so far (cumulative, readable
    /// mid-flight); a query refused before dispatch reads `0`.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Requests cancellation: tasks already running finish, queued and
    /// parked tasks of the query fail it with
    /// [`crate::EngineError::Cancelled`] on dispatch.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// True once [`QueryHandle::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Arms or replaces the query's deadline: it becomes `timeout` from now,
    /// whatever was armed before, so a later, longer budget loosens it. Every
    /// point that reads the cancel flag — morsel dispatch, operator task
    /// bodies, slot acquisition — also checks the deadline, so expiry fails
    /// the query with [`crate::EngineError::DeadlineExceeded`] at the next
    /// checkpoint; tasks already executing finish (nothing is pre-empted),
    /// exactly like cancellation.
    pub fn set_deadline(&self, timeout: Duration) {
        let offset =
            self.created.elapsed().saturating_add(timeout).as_nanos().min(u64::MAX as u128) as u64;
        // `0` encodes "no deadline", so an instantly expired deadline still
        // stores a nonzero offset.
        self.deadline_ns.store(offset.max(1), Ordering::Release);
    }

    /// The query's deadline, if armed ([`QueryHandle::set_deadline`]).
    pub fn deadline(&self) -> Option<Instant> {
        match self.deadline_ns.load(Ordering::Acquire) {
            0 => None,
            ns => Some(self.created + Duration::from_nanos(ns)),
        }
    }

    /// True once an armed deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        match self.deadline_ns.load(Ordering::Acquire) {
            0 => false,
            ns => self.created.elapsed().as_nanos() as u64 >= ns,
        }
    }

    /// Number of this query's tasks currently executing.
    pub fn running(&self) -> usize {
        self.running.load(Ordering::Acquire)
    }

    /// Number of this query's tasks alive anywhere in the scheduler —
    /// queued, parked at the DOP cap, or executing. Unlike
    /// [`QueryHandle::running`] (slots held right now), this spans the
    /// whole task lifetime, so `0` means the pool holds no trace of the
    /// query. A submission returns only once it is zero, failed and
    /// timed-out submissions included, which is what lets chaos tests
    /// assert `running() == 0` immediately after an error.
    pub fn inflight_tasks(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// Counts a task of this query entering the scheduler
    /// ([`Task::new`]).
    pub(crate) fn task_spawned(&self) {
        self.inflight.fetch_add(1, Ordering::AcqRel);
    }

    /// Counts a task of this query leaving the scheduler for good (fully
    /// dispatched, after its slot was released), and wakes
    /// [`QueryHandle::wait_for_tasks`] when it was the last.
    pub(crate) fn task_completed(&self) {
        if self.inflight.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Lock/unlock pairs the notify with a waiter's check-then-wait.
            drop(lock(&self.idle_lock));
            self.idle_cv.notify_all();
        }
    }

    /// Blocks until no task of this query is left in the scheduler. A task
    /// spawns its follow-ups before it leaves, so `inflight` reaches zero
    /// only once every task has run — or bailed after a failure, or
    /// panicked outside the operator guard.
    pub(crate) fn wait_for_tasks(&self) {
        let mut guard = lock(&self.idle_lock);
        while self.inflight.load(Ordering::Acquire) > 0 {
            guard = wait(&self.idle_cv, guard);
        }
    }

    /// The cap on running tasks: the admitted DOP, unlimited for an uncapped,
    /// cancelled or expired query (its tasks must run so the failure
    /// propagates).
    fn cap(&self) -> usize {
        match self.admitted_dop.load(Ordering::Acquire) {
            0 => usize::MAX,
            _ if self.is_cancelled() || self.deadline_exceeded() => usize::MAX,
            cap => cap,
        }
    }

    /// Atomically claims an execution slot for one task. Fails (without
    /// side effects) when the query already runs at its [`QueryHandle::cap`].
    /// A `true` return obligates the caller to dispatch the task, which
    /// releases the slot on completion.
    pub(crate) fn acquire_slot(&self) -> bool {
        let cap = self.cap();
        self.running
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |running| {
                (running < cap).then_some(running + 1)
            })
            .is_ok()
    }

    pub(crate) fn task_finished(&self) {
        self.running.fetch_sub(1, Ordering::AcqRel);
    }

    /// After a task released its slot: hands as many parked tasks as the
    /// cap leaves free to `worker`'s deque. Each claims its slot when popped,
    /// and parks again if a sibling claimed it first.
    fn unpark(&self, scheduler: &Scheduler, worker: usize) {
        let mut parked = lock(&self.parked);
        let free = self.cap().saturating_sub(self.running()).min(parked.len());
        for task in parked.drain(..free) {
            scheduler.push_local(worker, task);
        }
    }
}

/// Where a dispatched task came from, from the executing worker's viewpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOrigin {
    /// Popped from the executing worker's own local deque.
    Local,
    /// Stolen from another worker's deque.
    Stolen,
    /// Taken from the shared injector.
    Injected,
}

/// Execution context handed to a running task.
pub struct TaskContext<'a> {
    /// Index of the executing worker thread.
    pub worker: usize,
    /// Time the task spent between submission and dispatch.
    pub queue_wait: Duration,
    /// Which queue the task was dispatched from.
    pub origin: TaskOrigin,
    scheduler: &'a Scheduler,
}

impl TaskContext<'_> {
    /// Submits a follow-up task from inside a running task. It is pushed
    /// onto the executing worker's local deque (cache locality: the consumer
    /// of a chunk runs where the chunk was produced, unless stolen).
    pub fn submit(&self, task: Task) {
        self.scheduler.push_local(self.worker, task);
    }
}

/// A unit of schedulable work: one ready plan operator of one query.
pub struct Task {
    run: Box<dyn FnOnce(&TaskContext<'_>) + Send>,
    handle: Arc<QueryHandle>,
    /// Start of the queue wait; parking at the query's cap does not reset it.
    submitted_at: Instant,
}

impl Task {
    /// Creates a task bound to a query handle.
    pub fn new(
        handle: Arc<QueryHandle>,
        run: impl FnOnce(&TaskContext<'_>) + Send + 'static,
    ) -> Self {
        handle.task_spawned();
        Task { run: Box::new(run), handle, submitted_at: Instant::now() }
    }

    /// Claims a slot for the task, or parks it on its query, which runs at
    /// its cap. The claim is retried under the park lock, which a finishing
    /// task takes after releasing its slot, so a task parks only while
    /// cap ≥ 1 siblings run, the first of which to finish hands it back.
    /// `Some` obligates the caller to dispatch the task.
    pub(crate) fn admit(self) -> Option<Task> {
        if self.handle.acquire_slot() {
            return Some(self);
        }
        let handle = Arc::clone(&self.handle);
        let mut parked = lock(&handle.parked);
        if handle.acquire_slot() {
            return Some(self);
        }
        parked.push_back(self);
        None
    }

    /// Runs the task. The caller must have claimed an execution slot via
    /// [`Task::admit`]; dispatch releases it on completion.
    ///
    /// A panicking task must not kill the worker thread (the pool is shared
    /// by every client) nor leak the DOP slot, so the panic is contained
    /// here. The task still leaves the scheduler, so the submitting client
    /// waiting in [`QueryHandle::wait_for_tasks`] is woken either way.
    pub(crate) fn dispatch(
        self,
        scheduler: &Scheduler,
        worker: usize,
        origin: TaskOrigin,
        queue_wait: Duration,
    ) {
        let ctx = TaskContext { worker, queue_wait, origin, scheduler };
        // A panic is swallowed by design: the worker must survive.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.run)(&ctx)));
        self.handle.dispatched.fetch_add(1, Ordering::Relaxed);
        self.handle.task_finished();
        self.handle.unpark(scheduler, worker);
        // Slot released first, lifetime count second: `inflight == 0`
        // therefore implies `running == 0` for this query's tasks.
        self.handle.task_completed();
    }
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task").field("query", &self.handle.id()).finish()
    }
}

/// Per-worker counters, updated by the dispatch loop.
#[derive(Debug, Default)]
pub(crate) struct WorkerCounters {
    pub(crate) executed: AtomicU64,
    pub(crate) local_hits: AtomicU64,
    pub(crate) steals: AtomicU64,
    pub(crate) injector_hits: AtomicU64,
    pub(crate) queue_wait_us: AtomicU64,
}

impl WorkerCounters {
    pub(crate) fn record(&self, origin: TaskOrigin, queue_wait: Duration) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        match origin {
            TaskOrigin::Local => self.local_hits.fetch_add(1, Ordering::Relaxed),
            TaskOrigin::Stolen => self.steals.fetch_add(1, Ordering::Relaxed),
            TaskOrigin::Injected => self.injector_hits.fetch_add(1, Ordering::Relaxed),
        };
        self.queue_wait_us.fetch_add(queue_wait.as_micros() as u64, Ordering::Relaxed);
    }
}

/// Snapshot of the scheduler's dispatch counters, summed over its workers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    executed: u64,
    local_hits: u64,
    steals: u64,
    injector_hits: u64,
    queue_wait_us: u64,
}

impl SchedulerStats {
    /// Sums the counters of `workers`.
    pub(crate) fn sum<'a>(workers: impl IntoIterator<Item = &'a WorkerCounters>) -> Self {
        let mut stats = SchedulerStats::default();
        for w in workers {
            stats.executed += w.executed.load(Ordering::Relaxed);
            stats.local_hits += w.local_hits.load(Ordering::Relaxed);
            stats.steals += w.steals.load(Ordering::Relaxed);
            stats.injector_hits += w.injector_hits.load(Ordering::Relaxed);
            stats.queue_wait_us += w.queue_wait_us.load(Ordering::Relaxed);
        }
        stats
    }

    /// Total tasks executed across workers.
    pub fn total_executed(&self) -> u64 {
        self.executed
    }

    /// Total local-deque hits across workers: tasks popped from the
    /// worker's own deque.
    pub fn total_local_hits(&self) -> u64 {
        self.local_hits
    }

    /// Total steals across workers: tasks taken from a sibling's deque.
    pub fn total_steals(&self) -> u64 {
        self.steals
    }

    /// Total injector hits across workers: tasks taken from the shared
    /// injector.
    pub fn total_injector_hits(&self) -> u64 {
        self.injector_hits
    }

    /// Total queued time across all executed tasks, microseconds.
    pub fn total_queue_wait_us(&self) -> u64 {
        self.queue_wait_us
    }

    /// Fraction of executed tasks that ran on the worker that enqueued them
    /// (locality).
    pub fn locality(&self) -> f64 {
        if self.executed == 0 {
            return 0.0;
        }
        self.local_hits as f64 / self.executed as f64
    }
}

/// How long an idle worker sleeps between queue re-scans. A submission
/// notifies sleepers immediately; the timeout only bounds the staleness of
/// the shutdown and steal checks.
pub(crate) const IDLE_PARK: Duration = Duration::from_micros(500);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_handle_state_machine() {
        let h = QueryHandle::new(7, 3);
        assert_eq!(h.id(), 7);
        assert_eq!(h.admitted_dop(), 3);
        assert!(!h.is_cancelled());
        assert_eq!(h.running(), 0);
        assert!(h.acquire_slot());
        assert!(h.acquire_slot());
        assert!(h.acquire_slot());
        assert!(!h.acquire_slot(), "fourth slot beyond admitted DOP 3");
        assert_eq!(h.running(), 3);
        h.task_finished();
        assert!(h.acquire_slot());
        h.set_admitted_dop(0);
        assert!(h.acquire_slot(), "dop 0 means unlimited");
        assert!(h.acquire_slot());
        h.cancel();
        assert!(h.is_cancelled());
        assert!(h.acquire_slot(), "cancelled tasks always dispatch");
    }

    #[test]
    fn deadline_state_machine() {
        let h = QueryHandle::new(9, 1);
        assert!(h.deadline().is_none());
        assert!(!h.deadline_exceeded());
        h.set_deadline(Duration::from_secs(3600));
        assert!(h.deadline().is_some());
        assert!(!h.deadline_exceeded(), "one-hour deadline expired instantly");
        h.set_deadline(Duration::ZERO);
        assert!(h.deadline_exceeded());
        // Expired queries always get a slot, like cancelled ones, so the
        // failure can propagate through dispatch.
        assert!(h.acquire_slot());
        h.task_finished();
        // A later call replaces the deadline rather than keeping the
        // tighter one: the expired deadline is re-armed an hour out.
        h.set_deadline(Duration::from_secs(3600));
        assert!(!h.deadline_exceeded(), "set_deadline kept the expired deadline");
        // Deadlines are not grants: the timeline holds the admit event only.
        assert_eq!(h.dop_timeline().len(), 1);
    }

    #[test]
    fn slot_acquisition_is_race_free() {
        let h = Arc::new(QueryHandle::new(1, 2));
        let acquired = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let h = Arc::clone(&h);
                let acquired = Arc::clone(&acquired);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        if h.acquire_slot() {
                            let now = acquired.fetch_add(1, Ordering::AcqRel) + 1;
                            assert!(now <= 2, "DOP cap 2 exceeded: {now} slots live");
                            acquired.fetch_sub(1, Ordering::AcqRel);
                            h.task_finished();
                        }
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.running(), 0);
    }

    #[test]
    fn worker_counters_accumulate_by_origin() {
        let c = WorkerCounters::default();
        c.record(TaskOrigin::Local, Duration::from_micros(10));
        c.record(TaskOrigin::Stolen, Duration::from_micros(20));
        c.record(TaskOrigin::Injected, Duration::from_micros(30));
        let s = SchedulerStats::sum([&c]);
        assert_eq!(s.total_executed(), 3);
        assert_eq!(s.total_local_hits(), 1);
        assert_eq!(s.total_steals(), 1);
        assert_eq!(s.total_injector_hits(), 1);
        assert_eq!(s.total_queue_wait_us(), 60);
    }

    #[test]
    fn stats_aggregation() {
        let (a, b) = (WorkerCounters::default(), WorkerCounters::default());
        for origin in [TaskOrigin::Local, TaskOrigin::Stolen, TaskOrigin::Injected] {
            a.record(origin, Duration::from_micros(40));
        }
        for origin in [TaskOrigin::Local, TaskOrigin::Local, TaskOrigin::Stolen] {
            b.record(origin, Duration::from_micros(10));
        }
        let stats = SchedulerStats::sum([&a, &b]);
        assert_eq!(stats.total_executed(), 6);
        assert_eq!(stats.total_local_hits(), 3);
        assert_eq!(stats.total_steals(), 2);
        assert_eq!(stats.total_injector_hits(), 1);
        assert_eq!(stats.total_queue_wait_us(), 150);
        assert!((stats.locality() - 0.5).abs() < 1e-12);
        assert_eq!(SchedulerStats::default().locality(), 0.0);
    }
}
