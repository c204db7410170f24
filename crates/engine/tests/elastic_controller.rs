//! Elastic resource controller: mid-flight DOP re-grant behavior and its
//! race conditions.
//!
//! The controller acts on live [`apq_engine::QueryHandle`]s while their
//! queries execute, so every lever action can race query completion,
//! cancellation, and the query's own dispatch. These tests pin the required
//! outcomes deterministically:
//!
//! * a re-grant landing on a completing/completed query is harmless;
//! * a re-grant during cancellation does not resurrect the query;
//! * a claw-back below the number of currently running tasks drains
//!   gracefully (no pre-emption, no deadlock, correct results);
//! * with the controller enabled and half the clients finishing early, a
//!   surviving throttled query's admitted-DOP timeline records an increase
//!   (the fig. 16/19 elasticity the paper benchmarks against) — asserted
//!   with real hardware parallelism in the thread-overlap variant, and
//!   deterministically on any machine (1-core CI included) in the
//!   census-reservation variant driven by forced
//!   [`Engine::controller_tick`] rounds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use apq_columnar::partition::RowRange;
use apq_columnar::{Catalog, ScalarValue, TableBuilder};
use apq_engine::controller::ControllerConfig;
use apq_engine::plan::{OperatorSpec, Plan};
use apq_engine::{
    DopPhase, Engine, EngineConfig, EngineError, ExecutionMode, QueryOptions, QueryOutput,
};
use apq_operators::{AggFunc, CmpOp, Predicate};

fn catalog(rows: usize) -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("t")
            .i64_column("a", (0..rows as i64).collect())
            .i64_column("b", (0..rows as i64).map(|v| v * 2).collect())
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

fn scan(col: &str, lo: usize, hi: usize) -> OperatorSpec {
    OperatorSpec::ScanColumn { table: "t".into(), column: col.into(), range: RowRange::new(lo, hi) }
}

/// `partitions`-way parallel sum(b) where a < threshold — every partition is
/// an independent scan→select→fetch→agg branch, so the query keeps many
/// tasks runnable at once (the shape claw-backs must drain).
fn partitioned_plan(rows: usize, threshold: i64, partitions: usize) -> Plan {
    let mut p = Plan::new();
    let b = p.add(scan("b", 0, rows), vec![]);
    let mut partials = Vec::new();
    let step = rows.div_ceil(partitions);
    for part in 0..partitions {
        let lo = part * step;
        let hi = ((part + 1) * step).min(rows);
        let a = p.add(scan("a", lo, hi), vec![]);
        let sel = p
            .add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, threshold) }, vec![a]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        partials.push(p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]));
    }
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, partials);
    p.set_root(fin);
    p
}

fn expected_sum(threshold: i64) -> QueryOutput {
    QueryOutput::Scalar(ScalarValue::I64((0..threshold).map(|v| v * 2).sum()))
}

/// A long-dormant background thread: all ticks in these tests are driven
/// synchronously for determinism.
fn manual_controller() -> ControllerConfig {
    ControllerConfig::default().with_tick(Duration::from_secs(3_600))
}

/// Asserts that the query's execution slots drain to zero. The completing
/// task wakes the client from *inside* its closure and releases its slot
/// just after, so an instantaneous check after `execute` returns can
/// legitimately still see one slot held — drain, don't snapshot.
fn assert_slots_drain(handle: &apq_engine::QueryHandle, context: &str) {
    for _ in 0..1_000_000 {
        if handle.running() == 0 {
            return;
        }
        std::thread::yield_now();
    }
    panic!("{context}: execution slots never drained (running = {})", handle.running());
}

#[test]
fn regrant_racing_query_completion_is_harmless() {
    let engine =
        Arc::new(Engine::new(EngineConfig::with_workers(2).with_controller(manual_controller())));
    let cat = catalog(50_000);
    let plan = Arc::new(partitioned_plan(50_000, 1_000, 8));
    let handle = engine.register_query(QueryOptions::with_admitted_dop(1));

    // Hammer re-grants from a sibling thread for the query's whole life —
    // and beyond it (the controller may hold a completed query's handle).
    let stop = Arc::new(AtomicBool::new(false));
    let regranting = Arc::new(AtomicBool::new(false));
    let regranter = {
        let handle = Arc::clone(&handle);
        let stop = Arc::clone(&stop);
        let regranting = Arc::clone(&regranting);
        std::thread::spawn(move || {
            let mut dop = 1;
            while !stop.load(Ordering::Acquire) {
                dop = if dop == 1 { 2 } else { 1 };
                handle.set_admitted_dop(dop);
                regranting.store(true, Ordering::Release);
                std::thread::yield_now();
            }
        })
    };
    // Submit only once the regranter is running: on a busy 2-core box the
    // ~2 ms query can otherwise finish before the thread's first turn.
    while !regranting.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let exec = engine.execute_with_handle(&plan, &cat, Arc::clone(&handle)).unwrap();
    // Late re-grants after completion write to a handle nobody dispatches
    // from anymore; explicitly exercise that window before stopping.
    handle.set_admitted_dop(4);
    handle.set_admitted_dop(1);
    stop.store(true, Ordering::Release);
    regranter.join().unwrap();

    assert_eq!(exec.output, expected_sum(1_000));
    assert_slots_drain(&handle, "racing re-grants");
    assert!(exec.profile.dop_timeline.len() >= 2, "re-grants were not recorded");
    // The engine stays healthy for the next client.
    let again = engine.execute_shared(&plan, &cat).unwrap();
    assert_eq!(again.output, exec.output);
}

#[test]
fn regrant_during_cancellation_does_not_resurrect_the_query() {
    let engine =
        Arc::new(Engine::new(EngineConfig::with_workers(2).with_controller(manual_controller())));
    let cat = catalog(10_000);
    let plan = Arc::new(partitioned_plan(10_000, 100, 4));

    // Cancelled before submission: a re-grant between cancel and execute
    // must not bring it back.
    let handle = engine.register_query(QueryOptions::with_admitted_dop(1));
    handle.cancel();
    handle.set_admitted_dop(4); // the controller racing the cancel
    let err = engine.execute_with_handle(&plan, &cat, Arc::clone(&handle)).unwrap_err();
    assert_eq!(err, EngineError::Cancelled);
    assert_slots_drain(&handle, "cancel before submission");

    // Cancelled mid-flight while a sibling thread re-grants: the query
    // either finished first (Ok) or observed the cancel (Cancelled);
    // nothing else, and the engine survives either way.
    let handle = engine.register_query(QueryOptions::with_admitted_dop(1));
    let runner = {
        let engine = Arc::clone(&engine);
        let plan = Arc::clone(&plan);
        let cat = Arc::clone(&cat);
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || engine.execute_with_handle(&plan, &cat, handle))
    };
    handle.set_admitted_dop(2);
    handle.cancel();
    handle.set_admitted_dop(4);
    match runner.join().unwrap() {
        Ok(exec) => assert_eq!(exec.output, expected_sum(100)),
        Err(err) => assert_eq!(err, EngineError::Cancelled),
    }
    assert_slots_drain(&handle, "cancel race");
    let ok = engine.execute_shared(&plan, &cat).unwrap();
    assert_eq!(ok.output, expected_sum(100), "engine unhealthy after cancel race");
}

#[test]
fn clawback_below_running_task_count_drains_gracefully() {
    for mode in [ExecutionMode::OperatorAtATime, ExecutionMode::MorselDriven] {
        let engine = Arc::new(Engine::new(
            EngineConfig::with_workers(4)
                .with_execution_mode(mode)
                .with_morsel_rows(2_048)
                .with_controller(manual_controller()),
        ));
        let cat = catalog(100_000);
        let plan = Arc::new(partitioned_plan(100_000, 2_000, 8));

        // Admit wide, then claw back to 1 while (potentially many) tasks
        // are already running. The cap is only consulted at slot
        // acquisition, so running tasks finish and the rest trickle
        // through one at a time — completion, not pre-emption.
        let handle = engine.register_query(QueryOptions::with_admitted_dop(4));
        let runner = {
            let engine = Arc::clone(&engine);
            let plan = Arc::clone(&plan);
            let cat = Arc::clone(&cat);
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || engine.execute_with_handle(&plan, &cat, handle))
        };
        handle.set_admitted_dop(1);
        let exec = runner.join().unwrap().unwrap();
        assert_eq!(exec.output, expected_sum(2_000), "{mode}: claw-back corrupted");
        assert_slots_drain(&handle, "claw-back");
        assert_eq!(handle.admitted_dop(), 1, "{mode}: claw-back lost");
    }
}

#[test]
fn controller_disabled_takes_no_actions_and_preserves_grants() {
    let engine = Engine::new(EngineConfig::with_workers(4));
    let cat = catalog(10_000);
    let plan = Arc::new(partitioned_plan(10_000, 500, 4));
    let handle = engine.register_query(QueryOptions::with_admitted_dop(1));
    let report = engine.controller_tick();
    assert_eq!(report.actions(), 0);
    assert_eq!(report.governed, 0, "disabled controller reports an empty tick");
    let exec = engine.execute_with_handle(&plan, &cat, Arc::clone(&handle)).unwrap();
    assert_eq!(exec.output, expected_sum(500));
    assert_eq!(handle.admitted_dop(), 1, "grant must stay exactly as submitted");
    assert_eq!(exec.profile.dop_timeline.len(), 1, "no re-grants without a controller");
    assert!(!exec.profile.dop_was_regranted());
}

#[test]
fn adaptive_morsel_hint_is_resolved_per_pipeline_launch() {
    let engine = Engine::new(
        EngineConfig::with_workers(2)
            .with_execution_mode(ExecutionMode::MorselDriven)
            .with_morsel_rows(4_096)
            .with_controller(manual_controller()),
    );
    let cat = catalog(16_384);
    let plan = Arc::new(partitioned_plan(16_384, 300, 1));

    // Static default first.
    let base = engine.execute_shared(&plan, &cat).unwrap();
    assert!(base.profile.morsel_sizes().iter().all(|&m| m == 4_096));

    // A per-query override (what the controller writes) takes effect at the
    // next pipeline launch and is recorded in the profile.
    let handle = engine.register_query(QueryOptions::default());
    handle.set_morsel_rows(1_024);
    let exec = engine.execute_with_handle(&plan, &cat, Arc::clone(&handle)).unwrap();
    assert_eq!(exec.output, base.output, "morsel size must never change results");
    assert!(
        exec.profile.morsel_sizes().iter().all(|&m| m == 1_024),
        "override ignored: {:?}",
        exec.profile.morsel_sizes()
    );
    assert!(exec.profile.total_morsels() > base.profile.total_morsels());

    // Clearing the hint returns to the engine default.
    handle.set_morsel_rows(0);
    assert_eq!(handle.morsel_rows_hint(), None);
}

/// Deterministic variant of the half-clients-leave scenario below, runnable
/// on 1-core CI: census reservations ([`Engine::reserve_query`]) make
/// clients visible to controller ticks *without* overlapping execution, so
/// the whole arrive → equalize → depart → re-grant sequence can be driven
/// synchronously with forced [`Engine::controller_tick`] rounds — no
/// threads, no hardware-parallelism gate, no flakiness window.
#[test]
fn surviving_reservations_are_regranted_deterministically_via_forced_ticks() {
    let engine = Engine::new(
        EngineConfig::with_workers(4)
            .with_controller(manual_controller().with_adaptive_morsels(false)),
    );
    let cat = catalog(10_000);
    let plan = Arc::new(partitioned_plan(10_000, 500, 4));

    // Four clients arrive, all admitted throttled to DOP 1 (a saturated
    // admission layer), none submitted yet — reservations alone put them
    // in the census.
    let mut reservations: Vec<_> =
        (0..4).map(|_| engine.reserve_query(QueryOptions::with_admitted_dop(1))).collect();
    assert_eq!(engine.active_queries().len(), 4);

    // Equal shares already held (4 workers / 4 clients = 1): the tick is a
    // no-op, deterministically.
    let report = engine.controller_tick();
    assert_eq!(report.governed, 4);
    assert_eq!(report.dop_changes, 0);

    // Half the clients leave (dropping the reservation is the departure).
    let departed: Vec<_> = reservations.split_off(2);
    drop(departed);
    assert_eq!(engine.active_queries().len(), 2);

    // The next tick re-grants the survivors to share 2 — before they have
    // submitted anything, which is exactly what the old double census
    // could not do (ticket holders were invisible to ticks).
    let report = engine.controller_tick();
    assert_eq!(report.governed, 2);
    assert_eq!(report.dop_changes, 2);
    for reservation in &reservations {
        assert_eq!(reservation.handle().admitted_dop(), 2);
    }

    // The survivors execute under the re-granted share; the profile records
    // the full reservation lifecycle: Reserve(1) → Regrant(2) → Submit(2).
    for reservation in &reservations {
        let exec = engine.execute_with_handle(&plan, &cat, reservation.handle()).unwrap();
        assert_eq!(exec.output, expected_sum(500));
        assert!(
            exec.profile.dop_was_regranted(),
            "re-grant missing from timeline: {:?}",
            exec.profile.dop_timeline
        );
        let phases: Vec<DopPhase> = exec.profile.dop_timeline.iter().map(|e| e.phase).collect();
        assert_eq!(phases, vec![DopPhase::Reserve, DopPhase::Regrant, DopPhase::Submit]);
        assert_eq!(exec.profile.dop_timeline.last().unwrap().dop, 2);
    }
    assert!(engine.controller_tick().dop_changes <= 2, "ticks stay idempotent");
}

/// The headline acceptance behavior: a concurrent workload in which half
/// the clients finish early must leave at least one surviving query with a
/// recorded admitted-DOP increase after admit. Requires real hardware
/// parallelism (on 1-core machines the pool cannot overlap clients); see
/// `surviving_reservations_are_regranted_deterministically_via_forced_ticks`
/// for the machine-independent variant.
#[test]
fn surviving_queries_are_regranted_when_half_the_clients_finish() {
    if std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) <= 1 {
        eprintln!("skipping: needs available_parallelism() > 1");
        return;
    }
    let engine =
        Arc::new(Engine::new(EngineConfig::with_workers(4).with_controller(manual_controller())));
    let cat = catalog(400_000);
    // Two short-lived clients, two heavy survivors (~40× the work), all
    // admitted throttled to DOP 1 (a saturated admission controller).
    let short_plan = Arc::new(partitioned_plan(10_000, 100, 4));
    let long_plan = Arc::new(partitioned_plan(400_000, 8_000, 16));

    let mut shorts = Vec::new();
    let mut longs = Vec::new();
    let mut long_handles = Vec::new();
    for _ in 0..2 {
        let handle = engine.register_query(QueryOptions::with_admitted_dop(1));
        long_handles.push(Arc::clone(&handle));
        let engine = Arc::clone(&engine);
        let plan = Arc::clone(&long_plan);
        let cat = Arc::clone(&cat);
        longs.push(std::thread::spawn(move || engine.execute_with_handle(&plan, &cat, handle)));
    }
    for _ in 0..2 {
        let handle = engine.register_query(QueryOptions::with_admitted_dop(1));
        let engine = Arc::clone(&engine);
        let plan = Arc::clone(&short_plan);
        let cat = Arc::clone(&cat);
        shorts.push(std::thread::spawn(move || engine.execute_with_handle(&plan, &cat, handle)));
    }

    // Tick while everyone runs (equal shares: 4 workers / 4 clients = 1, so
    // nothing changes), then let the short clients finish.
    engine.controller_tick();
    for t in shorts {
        assert_eq!(t.join().unwrap().unwrap().output, expected_sum(100));
    }
    // Half the clients are gone: ticks now re-grant the survivors' share
    // (4 workers / 2 governed = 2). Keep ticking until a survivor picks the
    // raise up or both finish.
    while engine.in_flight_queries() > 0 {
        engine.controller_tick();
        std::thread::yield_now();
    }
    let execs: Vec<_> = longs.into_iter().map(|t| t.join().unwrap().unwrap()).collect();
    for exec in &execs {
        assert_eq!(exec.output, expected_sum(8_000));
    }
    assert!(
        execs.iter().any(|e| e.profile.dop_was_regranted()),
        "no surviving query recorded a DOP increase after the peers left: {:?}",
        execs.iter().map(|e| e.profile.dop_timeline.clone()).collect::<Vec<_>>()
    );
    for handle in &long_handles {
        assert!(handle.admitted_dop() >= 1);
    }
}
