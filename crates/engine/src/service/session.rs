//! Session handles: per-client ticket lines over the shared service.
//!
//! Submissions of one session run one at a time in arrival order: each
//! takes the next ticket of the session's line and waits until the line
//! serves it. The whole line is one mutex and one condvar:
//!
//! * [`Session::close`] wakes every queued submission *immediately* with
//!   [`EngineError::SessionClosed`] instead of letting the line drain, and
//!   cancels the submission holding the turn — also one that holds the turn
//!   but has not reached the engine yet,
//! * the service-wide [`WaiterRegistry`] refuses a newcomer with
//!   [`EngineError::Overloaded`] once [`super::ServiceConfig::max_queued`]
//!   submissions are queued, before it takes a ticket (nobody already
//!   queued is evicted),
//! * [`Session::try_submit`] can refuse without ever joining the line.
//!
//! Failure semantics of the full submit path are catalogued in
//! `docs/architecture.md` §9.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::{EngineError, Result};
use crate::plan::Plan;
use crate::scheduler::QueryHandle;
use crate::sync::{lock, wait};

use super::{ServiceInner, ServiceResponse};

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

/// The session's ticket line. The submission holding ticket `serving` has
/// the turn; `next != serving` means the session is busy, and everyone
/// holding a ticket in `serving + 1 .. next` is queued behind it.
#[derive(Default)]
struct Line {
    /// The ticket the next arrival takes.
    next: u64,
    /// The ticket holding the turn.
    serving: u64,
    closed: bool,
    /// The turn holder's query once it has one, so [`SessionInner::close`]
    /// can cancel it. One slot: a session runs one submission at a time.
    running: Option<Arc<QueryHandle>>,
}

/// State shared by all clones of one session.
struct SessionInner {
    service: Arc<ServiceInner>,
    id: u64,
    line: Mutex<Line>,
    /// Signalled when `serving` advances or the line closes.
    turn: Condvar,
}

impl SessionInner {
    /// Waits for this submission's turn. The returned guard passes the turn
    /// on when dropped (success and error paths alike). With `block =
    /// false` the call never joins the line: a busy session is refused with
    /// [`EngineError::Overloaded`] on the spot.
    fn acquire_turn(&self, block: bool) -> Result<TurnGuard<'_>> {
        let mut line = lock(&self.line);
        if line.closed {
            return Err(EngineError::SessionClosed);
        }
        let ticket = line.next;
        let queues = ticket != line.serving;
        // A newcomer that would queue joins the service-wide queued census
        // before it takes a ticket: a refused one leaves no trace in the line.
        if queues && (!block || !self.service.waiters.admit(self.service.config.max_queued)) {
            drop(line);
            self.service.count_shed();
            return Err(EngineError::Overloaded {
                retry_after_hint: self.service.retry_after_hint(),
            });
        }
        line.next += 1;
        if queues {
            while line.serving != ticket && !line.closed {
                line = wait(&self.turn, line);
            }
            self.service.waiters.remove();
            if line.closed {
                return Err(EngineError::SessionClosed);
            }
        }
        Ok(TurnGuard { inner: self })
    }

    fn close(&self) {
        let mut line = lock(&self.line);
        if line.closed {
            return;
        }
        // Wake every queued submission with SessionClosed *now* — nobody
        // should sit in a dead session's line waiting for the running
        // submission to drain.
        line.closed = true;
        if let Some(handle) = &line.running {
            handle.cancel();
        }
        drop(line);
        self.turn.notify_all();
        self.service.count_session_closed();
    }
}

impl Drop for SessionInner {
    fn drop(&mut self) {
        self.close();
    }
}

/// The turn of one submission; dropping it (normally or on error) serves
/// the next ticket.
struct TurnGuard<'a> {
    inner: &'a SessionInner,
}

impl TurnGuard<'_> {
    /// Publishes the turn holder's query for [`SessionInner::close`] to
    /// cancel. The closed check happens under the same lock, so a close
    /// that landed after the turn was granted still cancels the query —
    /// before dispatch, which then fails it with [`EngineError::Cancelled`].
    fn start(&self, handle: &Arc<QueryHandle>) {
        let mut line = lock(&self.inner.line);
        if line.closed {
            handle.cancel();
        } else {
            line.running = Some(Arc::clone(handle));
        }
    }
}

impl Drop for TurnGuard<'_> {
    fn drop(&mut self) {
        let mut line = lock(&self.inner.line);
        line.serving += 1;
        line.running = None;
        let waiting = line.next != line.serving;
        drop(line);
        // Every waiter re-checks its own ticket; only the one now served
        // proceeds.
        if waiting {
            self.inner.turn.notify_all();
        }
    }
}

/// A client's connection to a [`super::QueryService`].
///
/// Cloning is cheap; clones share the session's ticket line (submissions
/// run one at a time in arrival order) and close state.
/// Dropping the last clone closes the session.
///
/// ```
/// use std::sync::Arc;
/// use apq_columnar::{Catalog, ScalarValue, TableBuilder};
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
///     OperatorSpec::ScanColumn { table: "t".into(), column: "v".into() },
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
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl Session {
    pub(crate) fn open(service: Arc<ServiceInner>, id: u64) -> Self {
        Session {
            inner: Arc::new(SessionInner {
                service,
                id,
                line: Mutex::new(Line::default()),
                turn: Condvar::new(),
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
        lock(&self.inner.line).closed
    }

    /// Submits a plan through the session, blocking until the result is
    /// ready (or served from the result cache). Submissions of one session
    /// run one at a time in arrival order; concurrency comes from many
    /// sessions, which is what the admission census governs.
    ///
    /// At the [`super::ServiceConfig::max_queued`] bound the submission is
    /// refused with [`EngineError::Overloaded`]. Errors with
    /// [`EngineError::SessionClosed`] once the session is closed; a close
    /// racing a running submission cancels it
    /// ([`EngineError::Cancelled`]).
    pub fn submit(&self, plan: &Plan) -> Result<ServiceResponse> {
        self.submit_inner(plan, None, true)
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
        self.submit_inner(plan, None, false)
    }

    fn submit_inner(
        &self,
        plan: &Plan,
        timeout: Option<Duration>,
        block: bool,
    ) -> Result<ServiceResponse> {
        let service = &self.inner.service;
        let submitted = Instant::now();
        let turn = self.inner.acquire_turn(block)?;
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
            return Ok(ServiceResponse { output, profile: None, result_cache_hit: true });
        }
        service.count_result_cache(false);

        let owned = Arc::new(plan.clone());
        let catalog = service.catalog();
        let started = Instant::now();
        // Unified admission: the reservation is the ticket AND the census
        // entry; it is held until the submission finishes, and its drop
        // re-grants the sessions still running.
        let reservation = service.engine.reserve_admitted();
        let handle = reservation.handle();
        if let Some(left) = remaining {
            handle.set_deadline(left);
        }
        turn.start(&handle);
        let execution = service.engine.execute_with_handle(&owned, &catalog, Arc::clone(&handle));
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
        // the next identical submission — nor one computed from a catalog
        // that `replace_catalog` swapped out while the query ran.
        if !handle.is_cancelled() && !handle.deadline_exceeded() {
            service.result_cache.insert(
                signature,
                execution.output.clone(),
                plan.referenced_tables(),
                || Arc::ptr_eq(&catalog, &service.catalog()),
            );
        }
        Ok(ServiceResponse {
            output: execution.output,
            profile: Some(execution.profile),
            result_cache_hit: false,
        })
    }

    /// Closes the session: immediately wakes every queued submission with
    /// [`EngineError::SessionClosed`], cancels the query of the submission
    /// holding the turn, and makes every later submission fail with
    /// [`EngineError::SessionClosed`]. Idempotent.
    pub fn close(&self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use apq_columnar::{Catalog, TableBuilder};

    use crate::plan::OperatorSpec;
    use crate::{EngineConfig, QueryService, ServiceConfig};

    use super::*;

    #[test]
    fn a_close_after_the_turn_is_granted_cancels_the_query_before_dispatch() {
        let mut catalog = Catalog::new();
        catalog.register(TableBuilder::new("t").i64_column("v", vec![1, 2]).build().unwrap());
        let service = QueryService::new(
            ServiceConfig::with_engine(EngineConfig::with_workers(1)),
            Arc::new(catalog),
        );
        let mut plan = Plan::new();
        let scan =
            plan.add(OperatorSpec::ScanColumn { table: "t".into(), column: "v".into() }, vec![]);
        plan.set_root(scan);
        let session = service.connect();

        // The close lands after the turn was granted and before the
        // submission reached the engine, where nothing was running yet.
        let turn = session.inner.acquire_turn(true).unwrap();
        session.close();
        let handle = service.engine().register_query(0);
        turn.start(&handle);
        assert!(handle.is_cancelled(), "the close missed the turn holder");
        let plan = Arc::new(plan);
        let err =
            service.engine().execute_with_handle(&plan, &service.catalog(), Arc::clone(&handle));
        assert_eq!(err.unwrap_err(), EngineError::Cancelled);
        assert_eq!(handle.dispatched(), 0, "a task was dispatched for a closed session");
    }
}
