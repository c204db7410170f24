//! The engine's scheduler: a work-stealing dispatch loop.
//!
//! Layout follows the classic sharded-worker design (crossbeam-deque's
//! intended topology, as used by rayon and noria): every worker owns a
//! local deque; follow-up tasks produced *on* a worker are pushed to that
//! worker's own deque and popped oldest-first (FIFO deque; thieves take the
//! oldest task too), so a chunk's consumer usually runs on the core that
//! just materialized the chunk. Tasks submitted from *outside* the pool
//! (query seeding) enter a shared [`Injector`]; a second injector forms the
//! priority lane.
//!
//! Dispatch order per worker:
//! 1. own deque (locality),
//! 2. priority injector,
//! 3. normal injector,
//! 4. steal from sibling deques, round-robin starting after own index.
//!
//! Every grab — injector or sibling — takes exactly one task (see
//! `find_task` for why nothing is moved in batches).
//!
//! Idle workers park on a condvar with a short timeout; every submission
//! notifies one sleeper.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

use crate::fault::FaultInjector;

use super::{DeferBackoff, SchedulerStats, Task, TaskOrigin, WorkerCounters, IDLE_PARK};

/// The engine's scheduler: per-worker deques + shared injectors.
///
/// The executor tracks dataflow dependencies and submits a [`Task`] exactly
/// when it becomes runnable; the scheduler decides which worker runs it when.
/// Every submitted task runs exactly once (until [`Scheduler::shutdown`]), in
/// arbitrary order — dependency order is the executor's responsibility.
pub struct Scheduler {
    injector: Injector<Task>,
    high_injector: Injector<Task>,
    /// Local deques, parked here until each worker thread claims its own at
    /// the top of [`Scheduler::run_worker`] (the `Worker` half is
    /// single-owner by design).
    locals: Mutex<Vec<Option<Worker<Task>>>>,
    stealers: Vec<Stealer<Task>>,
    counters: Vec<WorkerCounters>,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    shutdown: AtomicBool,
    /// Chaos layer: consulted before every dispatch for injected stalls
    /// ([`crate::fault::FaultKind::DispatchStall`]).
    faults: Option<Arc<FaultInjector>>,
}

impl Scheduler {
    /// Creates the scheduler for `n_workers` worker threads.
    pub fn new(n_workers: usize) -> Self {
        Scheduler::with_faults(n_workers, None)
    }

    /// Creates the scheduler with an optional fault injector wired into the
    /// dispatch loop.
    pub(crate) fn with_faults(n_workers: usize, faults: Option<Arc<FaultInjector>>) -> Self {
        let n = n_workers.max(1);
        let locals: Vec<Worker<Task>> = (0..n).map(|_| Worker::new_fifo()).collect();
        let stealers = locals.iter().map(Worker::stealer).collect();
        Scheduler {
            injector: Injector::new(),
            high_injector: Injector::new(),
            locals: Mutex::new(locals.into_iter().map(Some).collect()),
            stealers,
            counters: (0..n).map(|_| WorkerCounters::default()).collect(),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            faults,
        }
    }

    fn notify_one(&self) {
        // Lock/unlock pairs the notify with a sleeper's check-then-wait.
        drop(self.sleep_lock.lock());
        self.sleep_cv.notify_one();
    }

    fn notify_all(&self) {
        drop(self.sleep_lock.lock());
        self.sleep_cv.notify_all();
    }

    fn inject(&self, mut task: Task, requeue: bool) {
        if requeue {
            task.requeued();
        }
        if task.handle().priority() > 0 {
            self.high_injector.push(task);
        } else {
            self.injector.push(task);
        }
        self.notify_one();
    }

    /// One full scan for work from worker `worker`'s perspective.
    fn find_task(&self, worker: usize, local: &Worker<Task>) -> Option<(Task, TaskOrigin)> {
        if let Some(task) = local.pop() {
            return Some((task, TaskOrigin::Local));
        }
        loop {
            match self.high_injector.steal() {
                Steal::Success(task) => return Some((task, TaskOrigin::Injected)),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        // Single-task steals, not `steal_batch_and_pop`: a batch-move would
        // spill injected/stolen tasks into the local deque, where their later
        // pops would count as `Local` hits and inflate the locality metric
        // the fig. 19 experiment reports. One task per grab keeps every
        // dispatch labelled with its true origin (and with the mutex-backed
        // deque shim, batching would amortize nothing anyway).
        loop {
            match self.injector.steal() {
                Steal::Success(task) => return Some((task, TaskOrigin::Injected)),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        let n = self.stealers.len();
        for i in 1..n {
            let victim = (worker + i) % n;
            loop {
                match self.stealers[victim].steal() {
                    Steal::Success(task) => return Some((task, TaskOrigin::Stolen)),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    fn queues_are_empty(&self, local: &Worker<Task>) -> bool {
        local.is_empty()
            && self.high_injector.is_empty()
            && self.injector.is_empty()
            && self.stealers.iter().all(Stealer::is_empty)
    }

    /// Submits a task from outside the worker pool (query seeding). Returns
    /// `false` when the scheduler has been shut down.
    pub fn submit(&self, task: Task) -> bool {
        if self.shutdown.load(Ordering::Acquire) {
            return false;
        }
        self.inject(task, false);
        true
    }

    /// Runs worker `worker`'s dispatch loop until shutdown. Called exactly
    /// once per worker index, from that worker's thread.
    pub fn run_worker(&self, worker: usize) {
        let local = self.locals.lock()[worker]
            .take()
            .expect("run_worker called twice for the same worker index");
        let submitter = LocalSubmitter { scheduler: self, local: &local };
        let mut backoff = DeferBackoff::default();
        loop {
            match self.find_task(worker, &local) {
                Some((task, origin)) => {
                    if !task.handle().acquire_slot() {
                        // Query at its admitted DOP: hand the task to the
                        // shared injector (not the local deque — other
                        // queries' local work should not sit behind it) and
                        // scan again.
                        self.inject(task, true);
                        backoff.deferred(&self.counters[worker]);
                        continue;
                    }
                    backoff.dispatched();
                    if let Some(faults) = &self.faults {
                        // Chaos: stall between dequeue and dispatch (emulates
                        // OS preemption at the scheduler boundary). Timing-
                        // only; lands in queue-wait accounting, not results.
                        let h = task.handle();
                        faults.maybe_stall(h.id(), h.dispatched());
                    }
                    let queue_wait = task.queue_wait();
                    self.counters[worker].record(origin, queue_wait);
                    task.dispatch(worker, origin, queue_wait, &submitter);
                }
                None => {
                    if self.shutdown.load(Ordering::Acquire) && self.queues_are_empty(&local) {
                        return;
                    }
                    // Park until a submission notifies or the timeout forces
                    // a shutdown / steal re-check. The emptiness re-check
                    // happens *under the sleep lock*: a submitter pushes its
                    // task first and only then takes the lock to notify, so
                    // either the re-check sees the task or the notify is
                    // delivered to this (already waiting) worker — a wakeup
                    // can never fall into the gap between scan and wait,
                    // which would otherwise add up to one IDLE_PARK of
                    // phantom queue wait per task.
                    let mut guard = self.sleep_lock.lock();
                    if self.queues_are_empty(&local) && !self.shutdown.load(Ordering::Acquire) {
                        self.sleep_cv.wait_for(&mut guard, IDLE_PARK);
                    }
                }
            }
        }
    }

    /// Asks all workers to exit once the queues are drained of runnable work.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.notify_all();
    }

    /// Snapshot of the per-worker counters.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats { workers: self.counters.iter().map(WorkerCounters::snapshot).collect() }
    }
}

/// Context submitter bound to the executing worker: follow-ups go to the
/// local deque.
pub(crate) struct LocalSubmitter<'a> {
    scheduler: &'a Scheduler,
    local: &'a Worker<Task>,
}

impl LocalSubmitter<'_> {
    pub(crate) fn submit_task(&self, task: Task) {
        self.local.push(task);
        // Another worker may be idle while this one now has >1 queued task.
        self.scheduler.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::QueryHandle;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn handle(id: u64, priority: u8, dop: usize) -> Arc<QueryHandle> {
        Arc::new(QueryHandle::new(id, priority, dop))
    }

    fn run_pool(sched: &Arc<Scheduler>, n: usize) -> Vec<std::thread::JoinHandle<()>> {
        (0..n)
            .map(|w| {
                let sched = Arc::clone(sched);
                std::thread::spawn(move || sched.run_worker(w))
            })
            .collect()
    }

    #[test]
    fn injected_tasks_all_execute() {
        let sched = Arc::new(Scheduler::new(3));
        let executed = Arc::new(AtomicUsize::new(0));
        for i in 0..50 {
            let executed = Arc::clone(&executed);
            assert!(sched.submit(Task::new(handle(i, 0, 0), move |_ctx| {
                executed.fetch_add(1, Ordering::AcqRel);
            })));
        }
        let workers = run_pool(&sched, 3);
        while executed.load(Ordering::Acquire) < 50 {
            std::thread::yield_now();
        }
        sched.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(sched.stats().total_executed(), 50);
        assert!(!sched.submit(Task::new(handle(99, 0, 0), |_ctx| {})));
    }

    #[test]
    fn follow_ups_stay_local_and_idle_workers_steal() {
        let sched = Arc::new(Scheduler::new(2));
        let executed = Arc::new(AtomicUsize::new(0));
        // One seed task fans out 40 follow-ups from whichever worker runs it;
        // the other worker can only get work by stealing.
        let h = handle(1, 0, 0);
        let ex = Arc::clone(&executed);
        let h2 = Arc::clone(&h);
        sched.submit(Task::new(Arc::clone(&h), move |ctx| {
            for _ in 0..40 {
                let ex = Arc::clone(&ex);
                ctx.submit(Task::new(Arc::clone(&h2), move |_ctx| {
                    // Enough work to make stealing worthwhile.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    ex.fetch_add(1, Ordering::AcqRel);
                }));
            }
        }));
        let workers = run_pool(&sched, 2);
        while executed.load(Ordering::Acquire) < 40 {
            std::thread::yield_now();
        }
        sched.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let stats = sched.stats();
        assert_eq!(stats.total_executed(), 41);
        assert!(stats.total_local_hits() > 0, "producer's worker never popped locally: {stats:?}");
    }

    #[test]
    fn follow_up_runs_from_the_local_deque_on_a_one_worker_pool() {
        let sched = Arc::new(Scheduler::new(1));
        let executed = Arc::new(AtomicUsize::new(0));
        let h = handle(1, 0, 0);
        let ex2 = Arc::clone(&executed);
        let h2 = Arc::clone(&h);
        assert!(sched.submit(Task::new(Arc::clone(&h), move |ctx| {
            let ex3 = Arc::clone(&ex2);
            ctx.submit(Task::new(h2, move |_ctx| {
                ex3.fetch_add(10, Ordering::AcqRel);
            }));
            ex2.fetch_add(1, Ordering::AcqRel);
        })));
        let workers = run_pool(&sched, 1);
        while executed.load(Ordering::Acquire) < 11 {
            std::thread::yield_now();
        }
        sched.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let stats = sched.stats();
        assert_eq!(stats.total_injector_hits(), 1, "the seed task enters through the injector");
        assert_eq!(stats.total_local_hits(), 1, "the follow-up is popped from the own deque");
        assert_eq!(stats.total_steals(), 0);
    }

    #[test]
    fn priority_lane_preempts_the_normal_injector() {
        let sched = Arc::new(Scheduler::new(1));
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..3 {
            let order = Arc::clone(&order);
            sched.submit(Task::new(handle(i, 0, 0), move |_ctx| order.lock().push(("normal", i))));
        }
        for i in 0..2 {
            let order = Arc::clone(&order);
            sched.submit(Task::new(handle(10 + i, 3, 0), move |_ctx| {
                order.lock().push(("high", i))
            }));
        }
        let workers = run_pool(&sched, 1);
        while order.lock().len() < 5 {
            std::thread::yield_now();
        }
        sched.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let got = order.lock().clone();
        assert_eq!(got[0].0, "high", "priority task not served first: {got:?}");
        assert_eq!(got[1].0, "high", "priority tasks not served first: {got:?}");
    }

    #[test]
    fn dop_cap_is_never_exceeded_under_stealing() {
        let sched = Arc::new(Scheduler::new(3));
        let h = handle(5, 0, 2);
        let executed = Arc::new(AtomicUsize::new(0));
        let concurrent = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        for _ in 0..12 {
            let executed = Arc::clone(&executed);
            let concurrent = Arc::clone(&concurrent);
            let max_seen = Arc::clone(&max_seen);
            let pool = Arc::clone(&sched);
            sched.submit(Task::new(Arc::clone(&h), move |_ctx| {
                let now = concurrent.fetch_add(1, Ordering::AcqRel) + 1;
                max_seen.fetch_max(now, Ordering::AcqRel);
                // Hold the slot until the worker left without one has been
                // turned away at least once, so the deferral path always runs.
                while pool.stats().total_dop_deferrals() == 0 {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                concurrent.fetch_sub(1, Ordering::AcqRel);
                executed.fetch_add(1, Ordering::AcqRel);
            }));
        }
        let workers = run_pool(&sched, 3);
        while executed.load(Ordering::Acquire) < 12 {
            std::thread::yield_now();
        }
        sched.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(executed.load(Ordering::Acquire), 12);
        assert!(max_seen.load(Ordering::Acquire) <= 2, "admitted DOP 2 was exceeded");
        assert!(sched.stats().total_dop_deferrals() > 0, "no task was deferred at the cap");
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker_or_leak_its_dop_slot() {
        let sched = Arc::new(Scheduler::new(1));
        let h = handle(1, 0, 1); // DOP 1: a leaked slot would deadlock task 2
        let executed = Arc::new(AtomicUsize::new(0));
        sched.submit(Task::new(Arc::clone(&h), |_ctx| panic!("boom")));
        let ex = Arc::clone(&executed);
        sched.submit(Task::new(Arc::clone(&h), move |_ctx| {
            ex.fetch_add(1, Ordering::AcqRel);
        }));
        let workers = run_pool(&sched, 1);
        while executed.load(Ordering::Acquire) < 1 {
            std::thread::yield_now();
        }
        sched.shutdown();
        for w in workers {
            w.join().expect("worker survived the panicking task");
        }
        assert_eq!(h.running(), 0, "panicking task leaked its DOP slot");
        assert_eq!(sched.stats().total_executed(), 2);
    }

    #[test]
    fn run_worker_twice_for_same_index_panics() {
        let sched = Arc::new(Scheduler::new(1));
        sched.shutdown();
        sched.run_worker(0); // returns immediately: shutdown + empty
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sched.run_worker(0)));
        assert!(result.is_err());
    }
}
