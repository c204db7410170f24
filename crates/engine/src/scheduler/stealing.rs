//! The engine's scheduler: a work-stealing dispatch loop.
//!
//! Layout follows the sharded-worker design of Leis et al.'s morsel
//! dispatcher (and of rayon and noria): every worker owns a local queue;
//! follow-up tasks produced *on* a worker are pushed to that worker's own
//! queue and popped oldest-first (thieves take the oldest task too), so a
//! chunk's consumer usually runs on the core that just materialized the
//! chunk. Tasks submitted from *outside* the pool (query seeding) enter the
//! one shared injector queue. Every queue is a `Mutex<VecDeque<Task>>` —
//! lock-based, not lock-free: any scheduler-overhead reading is a reading of
//! that.
//!
//! Dispatch order per worker:
//! 1. own queue (locality),
//! 2. the injector,
//! 3. steal from sibling queues, round-robin starting after own index.
//!
//! Every grab — injector or sibling — takes exactly one task (see
//! `find_task` for why nothing is moved in batches). A task whose query
//! already runs at its admitted DOP leaves the queues: it parks on its
//! query ([`Task::admit`]) until one of the query's running tasks finishes
//! and hands it back to that worker's own queue.
//!
//! Idle workers park on a condvar with a short timeout; every submission
//! notifies one sleeper.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use crate::sync::{lock, wait_for};

use super::{SchedulerStats, Task, TaskOrigin, WorkerCounters, IDLE_PARK};

type Queue = Mutex<VecDeque<Task>>;

fn pop(queue: &Queue) -> Option<Task> {
    lock(queue).pop_front()
}

/// One worker's local queue and dispatch counters. Aligned to a pair of
/// cache lines (x86 prefetches lines in adjacent pairs) so the slots of a
/// `Vec` never put two workers' locks and counters on one line.
#[derive(Default)]
#[repr(align(128))]
struct WorkerSlot {
    queue: Queue,
    counters: WorkerCounters,
}

/// The engine's scheduler: per-worker queues + a shared injector.
///
/// The executor tracks dataflow dependencies and submits a [`Task`] exactly
/// when it becomes runnable; the scheduler decides which worker runs it when.
/// Every submitted task runs exactly once (until [`Scheduler::shutdown`]), in
/// arbitrary order — dependency order is the executor's responsibility.
pub struct Scheduler {
    injector: Queue,
    workers: Vec<WorkerSlot>,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    shutdown: AtomicBool,
}

impl Scheduler {
    /// Creates the scheduler for `n_workers` worker threads.
    pub fn new(n_workers: usize) -> Self {
        Scheduler {
            injector: Queue::default(),
            workers: (0..n_workers.max(1)).map(|_| WorkerSlot::default()).collect(),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn notify_one(&self) {
        // Lock/unlock pairs the notify with a sleeper's check-then-wait.
        drop(lock(&self.sleep_lock));
        self.sleep_cv.notify_one();
    }

    fn notify_all(&self) {
        drop(lock(&self.sleep_lock));
        self.sleep_cv.notify_all();
    }

    /// One full scan for work from worker `worker`'s perspective.
    ///
    /// Every grab takes a single task: moving a batch would spill injected
    /// or stolen tasks into the local queue, where their later pops would
    /// count as `Local` hits and inflate the locality metric the fig. 19
    /// experiment reports. One task per grab keeps every dispatch labelled
    /// with its true origin (and over mutex-guarded queues a batch would
    /// amortize nothing anyway).
    fn find_task(&self, worker: usize) -> Option<(Task, TaskOrigin)> {
        if let Some(task) = pop(&self.workers[worker].queue) {
            return Some((task, TaskOrigin::Local));
        }
        if let Some(task) = pop(&self.injector) {
            return Some((task, TaskOrigin::Injected));
        }
        let n = self.workers.len();
        (1..n)
            .find_map(|i| pop(&self.workers[(worker + i) % n].queue))
            .map(|task| (task, TaskOrigin::Stolen))
    }

    fn queues_are_empty(&self) -> bool {
        let empty = |queue: &Queue| lock(queue).is_empty();
        empty(&self.injector) && self.workers.iter().all(|w| empty(&w.queue))
    }

    /// Submits a task from outside the worker pool (query seeding). Returns
    /// `false` when the scheduler has been shut down.
    pub fn submit(&self, task: Task) -> bool {
        if self.shutdown.load(Ordering::Acquire) {
            return false;
        }
        lock(&self.injector).push_back(task);
        self.notify_one();
        true
    }

    /// Runs worker `worker`'s dispatch loop until shutdown, on the calling
    /// thread — one thread per worker index.
    pub fn run_worker(&self, worker: usize) {
        loop {
            if !self.run_next(worker) {
                if self.shutdown.load(Ordering::Acquire) && self.queues_are_empty() {
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
                let guard = lock(&self.sleep_lock);
                if self.queues_are_empty() && !self.shutdown.load(Ordering::Acquire) {
                    drop(wait_for(&self.sleep_cv, guard, IDLE_PARK));
                }
            }
        }
    }

    /// Takes one task for `worker` and dispatches it, or parks it on its
    /// query when the query runs at its admitted DOP. `false` when no queue
    /// held a task.
    fn run_next(&self, worker: usize) -> bool {
        let Some((task, origin)) = self.find_task(worker) else { return false };
        if let Some(task) = task.admit() {
            let queue_wait = task.submitted_at.elapsed();
            self.workers[worker].counters.record(origin, queue_wait);
            task.dispatch(self, worker, origin, queue_wait);
        }
        true
    }

    /// Asks all workers to exit once the queues are drained of runnable work.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.notify_all();
    }

    /// Pushes `task` onto `worker`'s own queue: a follow-up of the task it
    /// runs, or a task that task's finish handed back.
    pub(crate) fn push_local(&self, worker: usize, task: Task) {
        lock(&self.workers[worker].queue).push_back(task);
        // Another worker may be idle while this one now has >1 queued task.
        self.notify_one();
    }

    /// Snapshot of the workers' counters, summed.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats::sum(self.workers.iter().map(|w| &w.counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::QueryHandle;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn handle(id: u64, dop: usize) -> Arc<QueryHandle> {
        Arc::new(QueryHandle::new(id, dop))
    }

    /// Number of `h`'s tasks parked at its cap.
    fn parked(h: &QueryHandle) -> usize {
        lock(&h.parked).len()
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
            assert!(sched.submit(Task::new(handle(i, 0), move |_ctx| {
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
        assert!(!sched.submit(Task::new(handle(99, 0), |_ctx| {})));
    }

    #[test]
    fn follow_ups_stay_local_and_idle_workers_steal() {
        let sched = Arc::new(Scheduler::new(2));
        let executed = Arc::new(AtomicUsize::new(0));
        // One seed task fans out 40 follow-ups from whichever worker runs it;
        // the other worker can only get work by stealing.
        let h = handle(1, 0);
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
    fn owner_pops_its_oldest_task_and_a_thief_takes_the_victims_oldest() {
        const FOLLOW_UPS: usize = 6;
        let sched = Arc::new(Scheduler::new(2));
        // (label, worker, origin) of every follow-up, in start order.
        let runs = Arc::new(Mutex::new(Vec::new()));
        let owner = Arc::new(AtomicUsize::new(usize::MAX));
        let h = handle(1, 0);
        let (h2, runs2, owner2) = (Arc::clone(&h), Arc::clone(&runs), Arc::clone(&owner));
        sched.submit(Task::new(Arc::clone(&h), move |ctx| {
            owner2.store(ctx.worker, Ordering::Release);
            for label in 0..FOLLOW_UPS {
                let runs = Arc::clone(&runs2);
                ctx.submit(Task::new(Arc::clone(&h2), move |ctx| {
                    lock(&runs).push((label, ctx.worker, ctx.origin));
                    // The stolen task holds the thief until the owner has
                    // drained the rest, so each side's order is its own.
                    while ctx.origin == TaskOrigin::Stolen && lock(&runs).len() < FOLLOW_UPS {
                        std::thread::yield_now();
                    }
                }));
            }
            // Hold this worker until the other one has started a follow-up,
            // which it can only have got by stealing.
            while lock(&runs2).is_empty() {
                std::thread::yield_now();
            }
        }));
        let workers = run_pool(&sched, 2);
        while lock(&runs).len() < FOLLOW_UPS {
            std::thread::yield_now();
        }
        sched.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let owner = owner.load(Ordering::Acquire);
        let got = lock(&runs).clone();
        assert_eq!(
            got[0],
            (0, 1 - owner, TaskOrigin::Stolen),
            "the thief takes the oldest: {got:?}"
        );
        let rest: Vec<_> = (1..FOLLOW_UPS).map(|label| (label, owner, TaskOrigin::Local)).collect();
        assert_eq!(got[1..], rest, "the owner pops oldest-first");
        let stats = sched.stats();
        assert_eq!((stats.total_injector_hits(), stats.total_steals()), (1, 1));
        assert_eq!(stats.total_local_hits(), FOLLOW_UPS as u64 - 1);
    }

    #[test]
    fn injector_is_fifo_across_submitting_threads() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 25;
        let sched = Scheduler::new(1);
        // (submitting thread, sequence number, origin), in execution order.
        let order = Arc::new(Mutex::new(Vec::new()));
        let submit = |thread: u64, seq: u64| {
            let order = Arc::clone(&order);
            assert!(sched.submit(Task::new(handle(thread, 0), move |ctx| {
                lock(&order).push((thread, seq, ctx.origin));
            })));
        };
        std::thread::scope(|s| {
            for thread in 0..THREADS {
                let submit = &submit;
                s.spawn(move || (0..PER_THREAD).for_each(|seq| submit(thread, seq)));
            }
        });
        // Submitted after every thread was joined: must run last.
        submit(THREADS, 0);
        let total = (THREADS * PER_THREAD + 1) as usize;
        std::thread::scope(|s| {
            s.spawn(|| sched.run_worker(0));
            while lock(&order).len() < total {
                std::thread::yield_now();
            }
            sched.shutdown();
        });
        let got = lock(&order).clone();
        assert!(got.iter().all(|run| run.2 == TaskOrigin::Injected));
        assert_eq!(got[total - 1], (THREADS, 0, TaskOrigin::Injected));
        for thread in 0..THREADS {
            let seqs: Vec<u64> =
                got.iter().filter(|run| run.0 == thread).map(|run| run.1).collect();
            assert_eq!(seqs, (0..PER_THREAD).collect::<Vec<_>>(), "thread {thread} reordered");
        }
    }

    #[test]
    fn follow_up_runs_from_the_local_deque_on_a_one_worker_pool() {
        let sched = Arc::new(Scheduler::new(1));
        let executed = Arc::new(AtomicUsize::new(0));
        let h = handle(1, 0);
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
    fn dop_cap_is_never_exceeded_under_stealing() {
        let sched = Arc::new(Scheduler::new(3));
        let h = handle(5, 2);
        let executed = Arc::new(AtomicUsize::new(0));
        let concurrent = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let parked_seen = Arc::new(AtomicBool::new(false));
        for _ in 0..12 {
            let executed = Arc::clone(&executed);
            let concurrent = Arc::clone(&concurrent);
            let max_seen = Arc::clone(&max_seen);
            let (h2, parked_seen) = (Arc::clone(&h), Arc::clone(&parked_seen));
            sched.submit(Task::new(Arc::clone(&h), move |_ctx| {
                let now = concurrent.fetch_add(1, Ordering::AcqRel) + 1;
                max_seen.fetch_max(now, Ordering::AcqRel);
                // Hold the slot until the worker left without one has parked
                // a task on the query, so the parking path always runs.
                while !parked_seen.load(Ordering::Acquire) {
                    if parked(&h2) > 0 {
                        parked_seen.store(true, Ordering::Release);
                    }
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                concurrent.fetch_sub(1, Ordering::AcqRel);
                executed.fetch_add(1, Ordering::AcqRel);
            }));
        }
        let workers = run_pool(&sched, 3);
        h.wait_for_tasks();
        sched.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(executed.load(Ordering::Acquire), 12);
        assert!(max_seen.load(Ordering::Acquire) <= 2, "admitted DOP 2 was exceeded");
        assert!(parked_seen.load(Ordering::Acquire), "no task was parked at the cap");
        assert_eq!((h.running(), parked(&h)), (0, 0));
        assert_eq!(sched.stats().total_executed(), 12);
    }

    #[test]
    fn a_task_parked_at_the_dop_cap_keeps_its_submission_time() {
        const HOLD: std::time::Duration = std::time::Duration::from_millis(30);
        let sched = Arc::new(Scheduler::new(2));
        let h = handle(1, 1);
        // Whichever task takes the query's one slot holds it until the other
        // has parked, and then for `HOLD`; the other records its wait.
        let first = Arc::new(AtomicBool::new(true));
        let waited = Arc::new(Mutex::new(None));
        for _ in 0..2 {
            let (h2, first, waited) = (Arc::clone(&h), Arc::clone(&first), Arc::clone(&waited));
            sched.submit(Task::new(Arc::clone(&h), move |ctx| {
                if first.swap(false, Ordering::AcqRel) {
                    while parked(&h2) == 0 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(HOLD);
                } else {
                    *lock(&waited) = Some(ctx.queue_wait);
                }
            }));
        }
        let workers = run_pool(&sched, 2);
        h.wait_for_tasks();
        sched.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let waited = lock(&waited).expect("the parked task ran");
        assert!(waited >= HOLD, "the parked task reported {waited:?} of wait");
    }

    /// The tests below drive a pool that no thread runs one task at a time
    /// (`Scheduler::run_next`) from the test thread, so every interleaving
    /// is fixed. Submits a task of `h` and `siblings` more, then runs the first on
    /// worker 0. While it holds the query's one slot, worker 1 pops every
    /// sibling, each of which parks, and then `meanwhile` runs. Returns the
    /// siblings' log: each logs its label when it runs, whether its query
    /// was cancelled — the flag its operator checkpoint reads — and the
    /// worker that ran it.
    fn hold_and_park(
        sched: &Arc<Scheduler>,
        h: &Arc<QueryHandle>,
        siblings: usize,
        meanwhile: impl FnOnce() + Send + 'static,
    ) -> Arc<Mutex<Vec<(usize, bool, usize)>>> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let holder = Arc::new(Mutex::new(None));
        let (pool, h2, ran_on) = (Arc::clone(sched), Arc::clone(h), Arc::clone(&holder));
        sched.submit(Task::new(Arc::clone(h), move |ctx| {
            *lock(&ran_on) = Some(ctx.worker);
            for _ in 0..siblings {
                assert!(pool.run_next(1), "worker 1 found no sibling");
            }
            assert_eq!((h2.running(), parked(&h2)), (1, siblings));
            meanwhile();
            assert_eq!(parked(&h2), siblings, "a parked task left before a finish");
        }));
        for label in 0..siblings {
            let (log, h3) = (Arc::clone(&log), Arc::clone(h));
            sched.submit(Task::new(Arc::clone(h), move |ctx| {
                lock(&log).push((label, h3.is_cancelled(), ctx.worker));
            }));
        }
        assert!(sched.run_next(0));
        assert_eq!(*lock(&holder), Some(0), "the holder ran on worker 0");
        log
    }

    /// Runs worker 0 until no queue holds a task and checks that the query
    /// left no trace.
    fn drain(sched: &Scheduler, h: &QueryHandle) {
        while sched.run_next(0) {}
        assert_eq!((h.running(), parked(h), h.inflight_tasks()), (0, 0, 0));
    }

    fn local_queue_len(sched: &Scheduler, worker: usize) -> usize {
        lock(&sched.workers[worker].queue).len()
    }

    #[test]
    fn a_parked_task_runs_when_its_sibling_finishes() {
        let sched = Arc::new(Scheduler::new(2));
        let h = handle(1, 1);
        let log = hold_and_park(&sched, &h, 1, || {});
        // The finish handed the sibling to the finishing worker's deque.
        assert_eq!((parked(&h), local_queue_len(&sched, 0)), (0, 1));
        assert!(lock(&log).is_empty());
        drain(&sched, &h);
        // Worker 1 popped the sibling but only parked it: both tasks ran on
        // worker 0, and each counted once.
        assert_eq!(*lock(&log), [(0, false, 0)]);
        let stats = sched.stats();
        assert_eq!(stats.total_executed(), 2);
        assert_eq!((stats.total_injector_hits(), stats.total_local_hits()), (1, 1));
    }

    #[test]
    fn a_raised_cap_releases_the_extra_parked_tasks_at_the_next_finish() {
        let sched = Arc::new(Scheduler::new(2));
        let h = handle(1, 1);
        let h2 = Arc::clone(&h);
        let log = hold_and_park(&sched, &h, 3, move || h2.set_admitted_dop(2));
        // Cap 2 and nothing running: two of the three go back.
        assert_eq!((parked(&h), local_queue_len(&sched, 0)), (1, 2));
        drain(&sched, &h);
        assert_eq!(*lock(&log), [(0, false, 0), (1, false, 0), (2, false, 0)]);
    }

    #[test]
    fn cancelling_releases_every_parked_task_to_fail_at_its_checkpoint() {
        let sched = Arc::new(Scheduler::new(2));
        let h = handle(1, 1);
        let h2 = Arc::clone(&h);
        let log = hold_and_park(&sched, &h, 3, move || h2.cancel());
        assert_eq!((parked(&h), local_queue_len(&sched, 0)), (0, 3));
        drain(&sched, &h);
        assert_eq!(*lock(&log), [(0, true, 0), (1, true, 0), (2, true, 0)]);
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker_or_leak_its_dop_slot() {
        let sched = Arc::new(Scheduler::new(1));
        let h = handle(1, 1); // DOP 1: a leaked slot would deadlock task 2
        let executed = Arc::new(AtomicUsize::new(0));
        sched.submit(Task::new(Arc::clone(&h), |_ctx| panic!("boom")));
        let ex = Arc::clone(&executed);
        sched.submit(Task::new(Arc::clone(&h), move |_ctx| {
            ex.fetch_add(1, Ordering::AcqRel);
        }));
        let workers = run_pool(&sched, 1);
        // The wait a submission blocks in: it returns although the first
        // task's body never reached its end.
        h.wait_for_tasks();
        assert_eq!(executed.load(Ordering::Acquire), 1);
        sched.shutdown();
        for w in workers {
            w.join().expect("worker survived the panicking task");
        }
        assert_eq!(h.running(), 0, "panicking task leaked its DOP slot");
        assert_eq!(sched.stats().total_executed(), 2);
    }
}
