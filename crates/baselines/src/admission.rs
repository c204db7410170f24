//! Admission-controlled exchange parallelism (the Vectorwise analogue).
//!
//! Paper §4.2.4: "Vectorwise uses cost model based exchange operator
//! dependent parallel plans. The resources are allocated based on the number
//! of connected clients and the system load. During a heavy concurrent
//! workload ... the first client's query gets all the resources, while the
//! queries from the remaining clients get less resources based on an
//! admission control scheme. ... We hypothesize that as workload queries are
//! invoked repeatedly, Vectorwise queries under analysis execute serially due
//! to lack of resources."
//!
//! We cannot run the closed-source Vectorwise binary, so the comparison point
//! is modelled by exactly that admission-control mechanism: a controller
//! tracks the number of active queries and grants the full degree of
//! parallelism only while the system is idle; once other clients occupy the
//! system, newly admitted queries are throttled down (to one task at a time
//! at full saturation).
//!
//! The granted DOP is enforced by the engine's scheduler
//! ([`AdmissionController::execute_admitted`]): the plan stays maximally
//! parallel, and the query's [`apq_engine::QueryHandle`] lets at most `dop`
//! of its tasks execute concurrently. This is the faithful model of a
//! resource governor: throttling happens at dispatch time and leaves the
//! plan untouched.
//!
//! The grant is **one-shot**: decided at admission from the instantaneous
//! load and never revisited — a query admitted at saturation
//! keeps its serial cap after every peer has left, which is the degradation
//! the paper hypothesises. The engine's own admission is the contrast: a
//! ticket there *is* a registry reservation
//! ([`apq_engine::Engine::reserve_admitted`], [`apq_engine::QueryService`])
//! whose share is recomputed whenever a reservation arrives or leaves, so
//! the survivor is re-granted the pool at its peer's release
//! (`examples/elastic_concurrency.rs` prints the two side by side). This
//! baseline counts its clients in its own atomic and leaves the engine's
//! census alone: a cap set through [`apq_engine::Engine::register_query`] is
//! the client's own.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use apq_columnar::Catalog;
use apq_engine::{Engine, Plan, QueryExecution, Result};

/// Tracks concurrently running queries and assigns each new query a degree of
/// parallelism based on the current load.
#[derive(Debug)]
pub struct AdmissionController {
    full_dop: usize,
    active: Arc<AtomicUsize>,
}

/// RAII ticket representing one admitted query; dropping it releases the slot.
#[derive(Debug)]
pub struct AdmissionTicket {
    dop: usize,
    active: Arc<AtomicUsize>,
}

impl AdmissionController {
    /// Controller granting at most `full_dop`-way parallelism to an idle system.
    pub fn new(full_dop: usize) -> Self {
        AdmissionController { full_dop: full_dop.max(1), active: Arc::new(AtomicUsize::new(0)) }
    }

    /// Number of queries currently holding a ticket.
    pub fn active_queries(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// The full degree of parallelism granted to the first client.
    pub fn full_dop(&self) -> usize {
        self.full_dop
    }

    /// Degree of parallelism that would be granted right now: the resources
    /// are divided among the active clients, so the first client gets
    /// everything and clients admitted at saturation run serially.
    pub fn current_dop(&self) -> usize {
        let active = self.active_queries();
        (self.full_dop / (active + 1)).max(1)
    }

    /// Admits a query, returning its ticket (which fixes its DOP).
    pub fn admit(&self) -> AdmissionTicket {
        let dop = self.current_dop();
        self.active.fetch_add(1, Ordering::AcqRel);
        AdmissionTicket { dop, active: Arc::clone(&self.active) }
    }

    /// Admission as a *scheduler policy*: executes `plan` (typically the
    /// fully parallelized plan) with the currently granted DOP enforced by
    /// the engine's scheduler rather than baked into the plan. The admission
    /// slot is held for the duration of the call; the execution and the DOP
    /// the query ran at are returned.
    pub fn execute_admitted(
        &self,
        engine: &Engine,
        plan: &Arc<Plan>,
        catalog: &Arc<Catalog>,
    ) -> Result<(QueryExecution, usize)> {
        let ticket = self.admit();
        let handle = engine.register_query(ticket.dop());
        let exec = engine.execute_with_handle(plan, catalog, handle)?;
        Ok((exec, ticket.dop()))
    }
}

impl AdmissionTicket {
    /// Degree of parallelism granted to this query.
    pub fn dop(&self) -> usize {
        self.dop
    }
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::heuristic_parallelize;
    use apq_columnar::TableBuilder;
    use apq_engine::plan::OperatorSpec;
    use apq_engine::Engine;
    use apq_operators::{AggFunc, CmpOp, Predicate};

    fn catalog(rows: usize) -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("fact")
                .i64_column("a", (0..rows as i64).map(|v| v % 331).collect())
                .i64_column("b", (0..rows as i64).map(|v| v % 17).collect())
                .build()
                .unwrap(),
        );
        Arc::new(c)
    }

    fn serial_plan() -> Plan {
        let mut p = Plan::new();
        let a =
            p.add(OperatorSpec::ScanColumn { table: "fact".into(), column: "a".into() }, vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 50i64) }, vec![a]);
        let b =
            p.add(OperatorSpec::ScanColumn { table: "fact".into(), column: "b".into() }, vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        p
    }

    #[test]
    fn first_client_gets_full_dop_later_clients_are_throttled() {
        let ctrl = AdmissionController::new(8);
        assert_eq!(ctrl.full_dop(), 8);
        assert_eq!(ctrl.active_queries(), 0);
        let t1 = ctrl.admit();
        assert_eq!(t1.dop(), 8);
        let t2 = ctrl.admit();
        assert_eq!(t2.dop(), 4);
        let t3 = ctrl.admit();
        assert_eq!(t3.dop(), 2);
        let t4 = ctrl.admit();
        let t5 = ctrl.admit();
        assert_eq!(t4.dop(), 2);
        assert_eq!(t5.dop(), 1);
        assert_eq!(ctrl.active_queries(), 5);
        drop(t1);
        drop(t2);
        drop(t3);
        drop(t4);
        drop(t5);
        assert_eq!(ctrl.active_queries(), 0);
        // After everyone left, the next query gets everything again.
        assert_eq!(ctrl.admit().dop(), 8);
    }

    #[test]
    fn zero_dop_is_clamped() {
        let ctrl = AdmissionController::new(0);
        assert_eq!(ctrl.full_dop(), 1);
        assert_eq!(ctrl.admit().dop(), 1);
    }

    #[test]
    fn scheduler_enforced_admission_preserves_results() {
        let rows = 6_000;
        let cat = catalog(rows);
        let serial = serial_plan();
        let engine = Engine::with_workers(4);
        let expected = engine.execute(&serial, &cat).unwrap().output;
        // The plan stays fully parallel; only the scheduler throttles it.
        let parallel = Arc::new(heuristic_parallelize(&serial, &cat, 4).unwrap());
        let ctrl = AdmissionController::new(4);
        // Saturate the system so the next admitted query gets DOP 1.
        let _t1 = ctrl.admit();
        let _t2 = ctrl.admit();
        let _t3 = ctrl.admit();
        let (exec, dop) = ctrl.execute_admitted(&engine, &parallel, &cat).unwrap();
        assert_eq!(dop, 1, "expected saturation-level DOP");
        assert_eq!(exec.output, expected, "throttled execution diverged");
        // The plan itself was not rewritten: all 4 partitions executed.
        assert_eq!(exec.profile.count_by_name()["select"], 4);
        // One-shot: alone on the engine, the query still ran at its grant.
        assert_eq!(exec.profile.dop_timeline.len(), 1, "the static grant was revisited");
    }

    #[test]
    fn admission_slot_is_released_after_scheduler_enforced_execution() {
        let rows = 2_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(2);
        let plan = Arc::new(serial_plan());
        let ctrl = AdmissionController::new(4);
        let (_, dop) = ctrl.execute_admitted(&engine, &plan, &cat).unwrap();
        assert_eq!(dop, 4, "idle system grants the full DOP");
        assert_eq!(ctrl.active_queries(), 0, "slot must be released on return");
    }
}
