//! Session handles: per-client submission queues over the shared service.
//!
//! Submissions of one session serialize in arrival order through a FIFO
//! waiter queue. Unlike a ticket counter, each waiter is an addressable
//! object, which is what the robustness layer needs:
//!
//! * [`Session::close`] wakes every queued waiter *immediately* with
//!   [`EngineError::SessionClosed`] instead of letting the line drain,
//! * the service-wide [`WaiterRegistry`] refuses a newcomer with
//!   [`EngineError::Overloaded`] once [`super::ServiceConfig::max_queued`]
//!   waiters are queued (nobody already queued is evicted),
//! * [`Session::try_submit`] can refuse without ever joining the line.
//!
//! Failure semantics of the full submit path are catalogued in
//! `docs/architecture.md` §9.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::{EngineError, Result};
use crate::plan::Plan;
use crate::scheduler::QueryHandle;
use crate::sync::{lock, wait};

use super::{ServiceInner, ServiceResponse};

/// Terminal state a queued waiter is woken with.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WaiterState {
    /// Still in line.
    Waiting,
    /// The previous submission finished; this waiter owns the turn.
    Granted,
    /// The session closed underneath it — resolves to
    /// [`EngineError::SessionClosed`].
    Closed,
}

/// One blocked submission. Waiters park on their own mutex/condvar so a
/// single wake (grant, close) targets exactly one thread.
struct Waiter {
    state: Mutex<WaiterState>,
    wake: Condvar,
}

impl Waiter {
    fn new() -> Arc<Self> {
        Arc::new(Waiter { state: Mutex::new(WaiterState::Waiting), wake: Condvar::new() })
    }

    /// Moves a still-waiting waiter to `next` and wakes it; returns `false`
    /// when the waiter already left the Waiting state (lost a race to a
    /// concurrent close/grant).
    fn resolve(&self, next: WaiterState) -> bool {
        let mut state = lock(&self.state);
        if *state != WaiterState::Waiting {
            return false;
        }
        *state = next;
        drop(state);
        self.wake.notify_one();
        true
    }

    /// Parks until resolved; returns the terminal state.
    fn park(&self) -> WaiterState {
        let mut state = lock(&self.state);
        while *state == WaiterState::Waiting {
            state = wait(&self.wake, state);
        }
        *state
    }
}

/// Service-wide count of queued submissions: the population
/// [`super::ServiceConfig::max_queued`] bounds.
#[derive(Default)]
pub(crate) struct WaiterRegistry {
    queued: AtomicUsize,
}

impl WaiterRegistry {
    pub(crate) fn len(&self) -> usize {
        self.queued.load(Ordering::Acquire)
    }

    /// Counts one more queued submission unless `max_queued` (`0` =
    /// unbounded) are queued already; returns `false` when the newcomer is
    /// refused. Nobody already queued is evicted.
    fn admit(&self, max_queued: usize) -> bool {
        self.queued
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |queued| {
                (max_queued == 0 || queued < max_queued).then_some(queued + 1)
            })
            .is_ok()
    }

    /// Uncounts an admitted submission; every waiter calls it once on
    /// wake-up, whatever the outcome.
    fn remove(&self) {
        self.queued.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The session's FIFO line: `busy` marks a submission holding the turn,
/// `waiters` the line behind it (front = next served).
#[derive(Default)]
struct WaitQueue {
    busy: bool,
    waiters: VecDeque<Arc<Waiter>>,
}

/// State shared by all clones of one session.
struct SessionInner {
    service: Arc<ServiceInner>,
    id: u64,
    closed: AtomicBool,
    queue: Mutex<WaitQueue>,
    /// Handles of this session's queries currently inside the engine, so
    /// [`Session::close`] can cancel them mid-flight.
    live: Mutex<Vec<Arc<QueryHandle>>>,
}

impl SessionInner {
    /// Waits for this submission's turn. The returned guard passes the turn
    /// to the next waiter on drop (success and error paths alike). With
    /// `block = false` the call never joins the line: a busy session is
    /// refused with [`EngineError::Overloaded`] on the spot.
    fn acquire_turn(&self, block: bool) -> Result<TurnGuard<'_>> {
        if self.closed.load(Ordering::Acquire) {
            return Err(EngineError::SessionClosed);
        }
        let mut queue = lock(&self.queue);
        let waiter = if !queue.busy && queue.waiters.is_empty() {
            queue.busy = true;
            None
        } else if !block {
            drop(queue);
            self.service.count_shed();
            return Err(EngineError::Overloaded {
                retry_after_hint: self.service.retry_after_hint(),
            });
        } else {
            // Join the service-wide queued census first (still under the
            // session lock so close() cannot miss us), then the session
            // line.
            if !self.service.waiters.admit(self.service.config.max_queued) {
                drop(queue);
                self.service.count_shed();
                return Err(EngineError::Overloaded {
                    retry_after_hint: self.service.retry_after_hint(),
                });
            }
            let waiter = Waiter::new();
            queue.waiters.push_back(Arc::clone(&waiter));
            Some(waiter)
        };
        drop(queue);

        if let Some(waiter) = waiter {
            let outcome = waiter.park();
            self.service.waiters.remove();
            match outcome {
                WaiterState::Granted => {}
                WaiterState::Closed => return Err(EngineError::SessionClosed),
                WaiterState::Waiting => unreachable!("park returns a terminal state"),
            }
        }
        let guard = TurnGuard { inner: self };
        if self.closed.load(Ordering::Acquire) {
            return Err(EngineError::SessionClosed);
        }
        Ok(guard)
    }

    /// Hands the turn to the next live waiter, skipping entries that were
    /// closed while queued; idles the session when the line is
    /// empty.
    fn release_turn(&self) {
        let mut queue = lock(&self.queue);
        debug_assert!(queue.busy, "release_turn without a held turn");
        loop {
            match queue.waiters.pop_front() {
                Some(next) => {
                    if next.resolve(WaiterState::Granted) {
                        return; // `busy` stays true: the grantee owns the turn.
                    }
                }
                None => {
                    queue.busy = false;
                    return;
                }
            }
        }
    }

    fn track(&self, handle: Arc<QueryHandle>) {
        lock(&self.live).push(handle);
    }

    fn untrack(&self, id: u64) {
        lock(&self.live).retain(|h| h.id() != id);
    }

    fn close(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake every queued waiter with SessionClosed *now* — nobody should
        // sit in a dead session's line waiting for the running submission
        // to drain. Each waiter deregisters itself from the service census
        // on wake-up.
        let mut queue = lock(&self.queue);
        for waiter in queue.waiters.drain(..) {
            waiter.resolve(WaiterState::Closed);
        }
        drop(queue);
        for handle in lock(&self.live).iter() {
            handle.cancel();
        }
        self.service.count_session_closed();
    }
}

impl Drop for SessionInner {
    fn drop(&mut self) {
        self.close();
    }
}

/// Passes the session's turn to the next waiter when a submission leaves
/// the critical section (normally or on error).
struct TurnGuard<'a> {
    inner: &'a SessionInner,
}

impl Drop for TurnGuard<'_> {
    fn drop(&mut self) {
        self.inner.release_turn();
    }
}

/// A client's connection to a [`super::QueryService`].
///
/// Cloning is cheap; clones share the session's FIFO submission queue
/// (submissions serialize in arrival order) and close state.
/// Dropping the last clone closes the session.
///
/// ```
/// use std::sync::Arc;
/// use apq_columnar::{partition::RowRange, Catalog, ScalarValue, TableBuilder};
/// use apq_engine::plan::{OperatorSpec, Plan};
/// use apq_engine::{EngineError, QueryOutput, QueryService, ServiceConfig};
///
/// let mut catalog = Catalog::new();
/// catalog.register(
///     TableBuilder::new("t").i64_column("v", vec![7, 8]).build()?,
/// );
/// let service = QueryService::new(ServiceConfig::default(), Arc::new(catalog));
/// let session = service.connect();
///
/// // `SELECT sum(v) FROM t` as a two-node plan.
/// let mut plan = Plan::new();
/// let scan = plan.add(
///     OperatorSpec::ScanColumn {
///         table: "t".into(),
///         column: "v".into(),
///         range: RowRange::new(0, 2),
///     },
///     vec![],
/// );
/// let agg = plan.add(OperatorSpec::ScalarAgg { func: apq_operators::AggFunc::Sum }, vec![scan]);
/// let fin = plan.add(
///     OperatorSpec::FinalizeAgg { func: apq_operators::AggFunc::Sum },
///     vec![agg],
/// );
/// plan.set_root(fin);
///
/// let response = session.submit(&plan)?;
/// assert_eq!(response.output, QueryOutput::Scalar(ScalarValue::I64(15)));
///
/// // Closed sessions reject further submissions.
/// session.close();
/// assert_eq!(session.submit(&plan).unwrap_err(), EngineError::SessionClosed);
/// # Ok::<(), EngineError>(())
/// ```
#[derive(Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.inner.id)
            .field("closed", &self.inner.closed.load(Ordering::Acquire))
            .finish()
    }
}

impl Session {
    pub(crate) fn open(service: Arc<ServiceInner>, id: u64) -> Self {
        Session {
            inner: Arc::new(SessionInner {
                service,
                id,
                closed: AtomicBool::new(false),
                queue: Mutex::new(WaitQueue::default()),
                live: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Service-assigned session id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// True once the session was closed (explicitly or by drop of the last
    /// clone).
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// Submits a plan through the session, blocking until the result is
    /// ready (or served from the result cache). Submissions of one session
    /// run one at a time in arrival order; concurrency comes from many
    /// sessions, which is what the admission census governs.
    ///
    /// [`super::ServiceConfig::default_timeout`] (when set) bounds the
    /// whole submission — queue wait included — with
    /// [`EngineError::DeadlineExceeded`]; at the
    /// [`super::ServiceConfig::max_queued`] bound the submission is refused
    /// with [`EngineError::Overloaded`]. Errors with
    /// [`EngineError::SessionClosed`] once the session is closed; a close
    /// racing a running submission cancels it mid-flight
    /// ([`EngineError::Cancelled`]).
    pub fn submit(&self, plan: &Plan) -> Result<ServiceResponse> {
        self.submit_inner(plan, self.inner.service.config.default_timeout, true)
    }

    /// Like [`Session::submit`] with a per-call deadline covering the whole
    /// submission (queue wait included). A deadline that expires while the
    /// submission is queued — or that already expired on entry — fails with
    /// [`EngineError::DeadlineExceeded`] without dispatching any work; one
    /// that expires mid-execution aborts at the next cancellation
    /// checkpoint. Timed-out results are never admitted to the result
    /// cache.
    pub fn submit_with_deadline(&self, plan: &Plan, timeout: Duration) -> Result<ServiceResponse> {
        self.submit_inner(plan, Some(timeout), true)
    }

    /// Non-blocking [`Session::submit`]: refuses with
    /// [`EngineError::Overloaded`] instead of queueing when another
    /// submission of this session holds the turn. The refusal counts as a
    /// shed in [`super::ServiceStats`].
    pub fn try_submit(&self, plan: &Plan) -> Result<ServiceResponse> {
        self.submit_inner(plan, self.inner.service.config.default_timeout, false)
    }

    fn submit_inner(
        &self,
        plan: &Plan,
        timeout: Option<Duration>,
        block: bool,
    ) -> Result<ServiceResponse> {
        let inner = &*self.inner;
        let service = &inner.service;
        let submitted = Instant::now();
        let _turn = inner.acquire_turn(block)?;
        service.count_query();

        // The deadline clock started at submission, so queue wait has
        // already consumed part of the budget; an exhausted budget fails
        // here, before any work — even a result-cache hit must not answer
        // a deadline that has already passed.
        let remaining = match timeout {
            Some(timeout) => match timeout.checked_sub(submitted.elapsed()) {
                Some(left) => Some(left),
                None => {
                    service.count_timed_out();
                    return Err(EngineError::DeadlineExceeded);
                }
            },
            None => None,
        };

        let signature = plan.signature();
        if let Some(output) = service.result_cache.get(&signature) {
            service.count_result_cache(true);
            return Ok(ServiceResponse {
                output,
                profile: None,
                plan_cache_hit: false,
                result_cache_hit: true,
            });
        }
        service.count_result_cache(false);

        let (shared, plan_cache_hit) = service.plan_cache.get_or_insert(&signature, plan);
        service.count_plan_cache(plan_cache_hit);

        let catalog = service.catalog();
        let started = Instant::now();
        // Unified admission: the reservation is the ticket AND the census
        // entry; it is held (registry-visible) until the submission
        // finishes, and its drop re-grants the sessions still running.
        let reservation = service.engine.reserve_admitted();
        let handle = reservation.handle();
        if let Some(left) = remaining {
            handle.set_deadline(left);
        }
        inner.track(Arc::clone(&handle));
        let execution = service.engine.execute_with_handle(&shared, &catalog, Arc::clone(&handle));
        inner.untrack(reservation.id());
        drop(reservation);
        service.record_latency(started.elapsed());
        let execution = match execution {
            Ok(execution) => execution,
            Err(err) => {
                if err == EngineError::DeadlineExceeded {
                    service.count_timed_out();
                }
                return Err(err);
            }
        };

        // Never publish a result whose query ended cancelled or past its
        // deadline — a racing close/expiry after the last checkpoint could
        // otherwise pin a half-trusted output in the cache and serve it to
        // the next identical submission. Cost-aware admission: executions
        // cheaper than `min_cache_cost` are not worth a cache slot.
        if !handle.is_cancelled()
            && !handle.deadline_exceeded()
            && started.elapsed() >= service.config.min_cache_cost
        {
            service.result_cache.insert(
                signature,
                execution.output.clone(),
                shared.referenced_tables(),
            );
        }
        Ok(ServiceResponse {
            output: execution.output,
            profile: Some(execution.profile),
            plan_cache_hit,
            result_cache_hit: false,
        })
    }

    /// Closes the session: immediately wakes every queued submission with
    /// [`EngineError::SessionClosed`], cancels its in-flight queries, and
    /// makes every later submission fail with the same error. Idempotent.
    pub fn close(&self) {
        self.inner.close();
    }
}
