//! The run context: everything the tasks of one query execution share.
//!
//! One [`RunContext`] is built per submission and owned (inside the
//! driver's step-graph state, see [`super::driver`]) by every task of the
//! query. It holds the plan and catalog, the query handle, the result and
//! write-once profile slots, the failure latch, and the engine's optional
//! chaos layer. It also owns the two protocols every task and the submitting
//! client go through, so there is exactly one copy of each:
//!
//! * [`RunContext::checkpoint`] — the failed-flag → liveness → injected
//!   fault preamble the driver's one task body runs before every stage it
//!   executes — the one site where the chaos layer decides a panic or a
//!   cancel;
//! * [`RunContext::wait`] — the only way out of a submission once its first
//!   task was handed to the scheduler: wait until the query's last task has
//!   left the scheduler, then surface the error or the root's output.
//!
//! Executing a stage ([`guarded_execute`]) and publishing a step are the
//! task body's, in [`super::driver`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use apq_columnar::Catalog;

use super::parts::Parts;
use super::{Engine, QueryExecution};
use crate::chunk::Chunk;
use crate::error::{EngineError, Result};
use crate::fault::{FaultInjector, FaultKind};
use crate::interpreter::execute_part;
use crate::plan::{NodeId, OperatorSpec, Plan};
use crate::profiler::{OperatorProfile, QueryProfile};
use crate::scheduler::QueryHandle;
use crate::sync::lock;

/// Shared state of one query execution.
pub(super) struct RunContext {
    pub plan: Arc<Plan>,
    pub catalog: Arc<Catalog>,
    pub handle: Arc<QueryHandle>,
    /// One slot per plan node: a step publishes its terminal's part list
    /// here once, its consumers read it, and the last of them releases it
    /// ([`RunContext::release`]). The root is never released.
    results: Vec<Mutex<Option<Parts>>>,
    pub profiles: Vec<OnceLock<OperatorProfile>>,
    /// Fast-path flag mirroring `error.is_some()`.
    failed: AtomicBool,
    error: Mutex<Option<EngineError>>,
    pub started: Instant,
    /// Chaos layer ([`crate::fault`]); `None` when disabled.
    faults: Option<Arc<FaultInjector>>,
    pub n_workers: usize,
}

impl RunContext {
    pub fn new(
        engine: &Engine,
        plan: &Arc<Plan>,
        catalog: &Arc<Catalog>,
        handle: Arc<QueryHandle>,
    ) -> Self {
        let capacity = plan.capacity();
        RunContext {
            plan: Arc::clone(plan),
            catalog: Arc::clone(catalog),
            handle,
            results: (0..capacity).map(|_| Mutex::new(None)).collect(),
            profiles: (0..capacity).map(|_| OnceLock::new()).collect(),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
            started: Instant::now(),
            faults: engine.faults.clone(),
            n_workers: engine.config.n_workers,
        }
    }

    /// Fails the query with `err` (the first failure wins); tasks still
    /// queued bail at their next checkpoint.
    pub fn fail(&self, err: EngineError) {
        lock(&self.error).get_or_insert(err);
        self.failed.store(true, Ordering::Release);
    }

    /// The preamble of every operator execution. `None` means the task must
    /// stop: a sibling already failed the query, the query was cancelled or
    /// timed out, or the chaos layer fired a spurious cancel here (which
    /// flips the real cancel flag, so every later checkpoint observes what
    /// an external cancellation would have caused). `Some(inject_panic)` clears the operator to run;
    /// `inject_panic` is the chaos layer's operator-panic decision for
    /// [`guarded_execute`].
    pub fn checkpoint(&self, node: NodeId) -> Option<bool> {
        if self.failed.load(Ordering::Acquire) {
            return None;
        }
        if let Some(err) = liveness_error(&self.handle) {
            self.fail(err);
            return None;
        }
        match self.faults.as_ref().and_then(|f| f.operator_fault(self.handle.id(), node)) {
            Some(FaultKind::SpuriousCancel) => {
                self.handle.cancel();
                self.fail(EngineError::Cancelled);
                None
            }
            fault => Some(fault == Some(FaultKind::OperatorPanic)),
        }
    }

    /// The whole chunk `node` published, if it has completed and is not
    /// released: its part list packed in its slot ([`Parts::pack`]).
    fn packed(&self, node: NodeId) -> Option<Result<Chunk>> {
        let mut slot = lock(self.results.get(node)?);
        slot.as_mut().map(|parts| parts.pack(node))
    }

    /// Publishes `node`'s part list; a node publishes once.
    pub fn set_result(&self, node: NodeId, parts: Parts) -> Result<()> {
        match &mut *lock(&self.results[node]) {
            Some(_) => Err(EngineError::InvalidPlan(format!("node {node} produced two results"))),
            slot => {
                *slot = Some(parts);
                Ok(())
            }
        }
    }

    /// Drops the slot's hold on `node`'s chunk once nothing reads it any
    /// more — the chunk's memory goes with it unless a later chunk shares
    /// it. The root's chunk is the query's answer and stays.
    pub fn release(&self, node: NodeId) {
        if self.plan.root() != Some(node) {
            // Taken under the lock, dropped after it.
            let released = lock(&self.results[node]).take();
            drop(released);
        }
    }

    /// Runs `read` on the part list `consumer` reads on its input `index`,
    /// under the list's slot lock.
    fn read_input<T>(
        &self,
        consumer: NodeId,
        index: usize,
        read: impl FnOnce(&mut Parts) -> Result<T>,
    ) -> Result<T> {
        let input = self.plan.node(consumer)?.inputs[index];
        let mut slot = lock(&self.results[input]);
        let parts = slot.as_mut().ok_or_else(|| {
            EngineError::InvalidPlan(format!(
                "node {consumer} was scheduled before its input {input} completed"
            ))
        })?;
        read(parts)
    }

    /// The producer's published part list that `consumer` reads on its
    /// input `index`.
    pub fn parts(&self, consumer: NodeId, index: usize) -> Result<Parts> {
        self.read_input(consumer, index, |parts| Ok(parts.clone()))
    }

    /// The same read as one whole chunk: the list packed in its slot — the
    /// pack replaces the parts, so a list packs once, and the slot's lock
    /// makes concurrent whole reads wait for it rather than pack again.
    pub fn input(&self, consumer: NodeId, index: usize) -> Result<Chunk> {
        let input = self.plan.node(consumer)?.inputs[index];
        self.read_input(consumer, index, |parts| parts.pack(input))
    }

    /// Sleeps for the chaos layer's delay at this site — the engine's one
    /// injected-latency mechanism. Timing-only: results are unaffected by
    /// construction.
    pub fn inject_delay(&self, node: NodeId) {
        if let Some(faults) = &self.faults {
            let delay = faults.operator_delay_us(self.handle.id(), node);
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
            }
        }
    }

    /// The tail of every submission, and the only way out once the first
    /// task was submitted: waits until the query's last task has left the
    /// scheduler, whether the query completed, failed or lost a task to a
    /// panic outside [`guarded_execute`] — so `running() == 0` holds the
    /// moment the client gets its answer, errors included — then returns the
    /// recorded error or the root's output with the query profile.
    pub fn wait(&self) -> Result<QueryExecution> {
        self.handle.wait_for_tasks();
        if let Some(err) = lock(&self.error).clone() {
            return Err(err);
        }
        let root = self.plan.root().expect("validated plan has a root");
        // Every task left, none failed the query, yet the root is missing:
        // a task body panicked outside the operator guard.
        let output = self
            .packed(root)
            .ok_or_else(|| {
                EngineError::WorkerPanicked("a task ended before the root was published".into())
            })??
            .to_output();
        let profile = QueryProfile {
            wall_time: self.started.elapsed(),
            n_workers: self.n_workers,
            operators: self.profiles.iter().filter_map(OnceLock::get).cloned().collect(),
            dop_timeline: self.handle.dop_timeline(),
        };
        Ok(QueryExecution { output, profile })
    }
}

/// The liveness check every cancel checkpoint runs: `Cancelled` wins over
/// `DeadlineExceeded` (an explicit client action over a passive expiry).
pub(super) fn liveness_error(handle: &QueryHandle) -> Option<EngineError> {
    if handle.is_cancelled() {
        return Some(EngineError::Cancelled);
    }
    if handle.deadline_exceeded() {
        return Some(EngineError::DeadlineExceeded);
    }
    None
}

/// Executes one operator over one piece of its inputs ([`execute_part`]: a
/// key set yields its part), converting panics into query-level errors: a
/// panicking operator must fail *this query* (waking the submitting client)
/// rather than unwind through the shared worker pool.
///
/// `inject_panic` is the chaos layer's operator-panic decision: the
/// injected panic unwinds from *inside* the guarded region, so it exercises
/// exactly the containment path a genuine operator bug would take.
pub(super) fn guarded_execute(
    node: NodeId,
    spec: &OperatorSpec,
    inputs: &[Chunk],
    catalog: &Catalog,
    inject_panic: bool,
) -> Result<Chunk> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected operator fault");
        }
        execute_part(node, spec, inputs, catalog)
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(EngineError::WorkerPanicked(format!("operator {node} panicked: {msg}")))
    })
}
