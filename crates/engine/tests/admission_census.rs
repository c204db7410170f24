//! Admission shares follow the census.
//!
//! A reservation made through [`Engine::reserve_admitted`] holds the equal
//! share `max(1, workers / live reservations)` of the pool, and the engine
//! brings every reservation to the new share wherever the census changes —
//! at an arrival and at a release, nowhere else. The rule is a pure function
//! of the registry, so these tests drive it step by step and assert the
//! invariant after every step; nothing here waits for time to pass. What a
//! re-grant can race — completion, cancellation, the query's own dispatch,
//! a reservation dropped under a running query — is pinned to the required
//! outcome, and the last test reads the same timeline end to end through
//! [`QueryService`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use apq_columnar::{Catalog, ScalarValue, TableBuilder};
use apq_engine::plan::{Cuts, OperatorSpec, Plan};
use apq_engine::{
    DopPhase, Engine, EngineConfig, EngineError, FaultConfig, QueryHandle, QueryOutput,
    QueryService, ReservedQuery, ServiceConfig,
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

fn scan(col: &str) -> OperatorSpec {
    OperatorSpec::ScanColumn { table: "t".into(), column: col.into() }
}

/// `partitions`-way parallel sum(b) where a < threshold — the select cut
/// into `partitions` ranges of its scan, the fetch and the aggregate
/// adopting them, so the query keeps many tasks runnable at once (the shape
/// claw-backs must drain).
fn partitioned_plan(rows: usize, threshold: i64, partitions: usize) -> Plan {
    let mut p = Plan::new();
    let b = p.add(scan("b"), vec![]);
    let a = p.add(scan("a"), vec![]);
    let select = OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, threshold) };
    let sel = p.add(select, vec![a]);
    let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
    let step = rows.div_ceil(partitions);
    p.node_mut(sel).unwrap().cuts = Cuts::At((1..partitions).map(|part| part * step).collect());
    for adopting in [fetch, agg] {
        p.node_mut(adopting).unwrap().cuts = Cuts::Adopt;
    }
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    p
}

fn expected_sum(threshold: i64) -> QueryOutput {
    QueryOutput::Scalar(ScalarValue::I64((0..threshold).map(|v| v * 2).sum()))
}

/// `(phase, dop)` pairs of a handle's DOP timeline.
fn timeline(handle: &QueryHandle) -> Vec<(DopPhase, usize)> {
    handle.dop_timeline().iter().map(|e| (e.phase, e.dop)).collect()
}

/// The invariant: the engine's census is exactly the live reservations,
/// and every one of them holds the equal share.
fn assert_equal_shares(engine: &Engine, workers: usize, census: &[ReservedQuery], step: &str) {
    let mut held: Vec<u64> = census.iter().map(ReservedQuery::id).collect();
    let mut counted: Vec<u64> = engine.reservations().iter().map(|h| h.id()).collect();
    held.sort_unstable();
    counted.sort_unstable();
    assert_eq!(counted, held, "{step}: the census is not the live reservations");
    let share = (workers / census.len().max(1)).max(1);
    for handle in engine.reservations() {
        assert_eq!(
            handle.admitted_dop(),
            share,
            "{step}: query {} is off the share of {workers} workers over {} reservations",
            handle.id(),
            census.len()
        );
    }
}

/// Spins until `cond` holds; a wait on a state change, never on a duration.
fn await_condition(label: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < Duration::from_secs(20), "timed out waiting for {label}");
        std::thread::yield_now();
    }
}

#[test]
fn arrivals_claw_back_and_releases_regrant_with_timeline_events() {
    let engine = Engine::with_workers(4);
    use DopPhase::{Regrant, Reserve};

    let a = engine.reserve_admitted();
    assert_eq!(timeline(&a.handle()), [(Reserve, 4)], "alone: the whole pool");

    // B arrives while A's ticket is outstanding: one census, one target —
    // B is admitted at the share A is clawed back to, under one lock.
    let b = engine.reserve_admitted();
    assert_eq!(timeline(&b.handle()), [(Reserve, 2)]);
    assert_eq!(timeline(&a.handle()), [(Reserve, 4), (Regrant, 2)]);

    // 4/3 floors to 1; a fourth arrival leaves the share where it is and
    // writes nothing — only a cap that differs is touched.
    let c = engine.reserve_admitted();
    let d = engine.reserve_admitted();
    assert_eq!(timeline(&a.handle()), [(Reserve, 4), (Regrant, 2), (Regrant, 1)]);
    assert_eq!(timeline(&c.handle()), [(Reserve, 1)]);
    assert_eq!(timeline(&d.handle()), [(Reserve, 1)]);
    // Past saturation the share floors at 1.
    let e = engine.reserve_admitted();
    assert_eq!(timeline(&e.handle()), [(Reserve, 1)]);
    assert_eq!(engine.reservations().len(), 5, "tickets are census-visible unsubmitted");
    drop(e);
    assert_eq!(timeline(&d.handle()), [(Reserve, 1)], "5 → 4 reservations: still 1 each");

    // Half the clients leave: the survivors hold 2 before they submitted
    // anything; the last one gets the pool back.
    drop(c);
    drop(d);
    assert_eq!(timeline(&b.handle()), [(Reserve, 2), (Regrant, 1), (Regrant, 2)]);
    drop(b);
    assert_eq!(
        timeline(&a.handle()),
        [(Reserve, 4), (Regrant, 2), (Regrant, 1), (Regrant, 2), (Regrant, 4)]
    );
    drop(a);
    assert!(engine.reservations().is_empty());
}

#[test]
fn a_cap_the_client_set_is_not_in_the_census() {
    let engine = Engine::with_workers(4);
    let cat = catalog(10_000);
    let plan = Arc::new(partitioned_plan(10_000, 500, 4));

    // Held by the client, with its own grant, and in no census.
    let fixed = engine.register_query(3);
    let uncapped = engine.register_query(0);
    assert!(engine.reservations().is_empty(), "a client's own cap is not in the census");
    assert_eq!(engine.in_flight_queries(), 0, "held, but not executing");

    // Neither dilutes the share of the reservations that split the pool,
    // and neither is rewritten when those come and go.
    let shared = engine.reserve_admitted();
    assert_eq!(shared.handle().admitted_dop(), 4, "static caps must not dilute the share");
    let peer = engine.reserve_admitted();
    drop(peer);
    drop(shared);
    assert_eq!(timeline(&fixed), [(DopPhase::Admit, 3)]);
    assert_eq!(timeline(&uncapped), [(DopPhase::Admit, 0)]);

    // The one-shot baseline: a directly registered query runs at exactly
    // the cap it was submitted with, alone on the engine or beside a
    // reservation, and executing it leaves the census as it was.
    let peer = engine.reserve_admitted();
    let exec = engine.execute_with_handle(&plan, &cat, Arc::clone(&fixed)).unwrap();
    assert_eq!(exec.output, expected_sum(500));
    assert_eq!(exec.profile.dop_timeline.len(), 1, "a static grant is never revisited");
    assert!(!exec.profile.dop_was_regranted());
    assert_eq!(engine.reservations().len(), 1);
    assert_eq!(peer.handle().admitted_dop(), 4, "an executing static cap diluted the share");
    drop(peer);
    assert!(engine.reservations().is_empty());
}

#[test]
fn survivors_execute_under_the_regranted_share() {
    let engine = Engine::with_workers(4);
    let cat = catalog(10_000);
    let plan = Arc::new(partitioned_plan(10_000, 500, 4));

    let mut census: Vec<_> = (0..4).map(|_| engine.reserve_admitted()).collect();
    assert_equal_shares(&engine, 4, &census, "four arrivals");
    // The two oldest clients leave; the two admitted at saturation stay.
    census.drain(..2);
    assert_equal_shares(&engine, 4, &census, "two releases");

    // The profile records the whole lifecycle: admitted serial, re-granted
    // while the ticket was held, submitted at the wider share.
    for reservation in &census {
        let exec = engine.execute_with_handle(&plan, &cat, reservation.handle()).unwrap();
        assert_eq!(exec.output, expected_sum(500));
        assert!(exec.profile.dop_was_regranted(), "{:?}", exec.profile.dop_timeline);
        let events: Vec<_> = exec.profile.dop_timeline.iter().map(|e| (e.phase, e.dop)).collect();
        assert_eq!(events, [(DopPhase::Reserve, 1), (DopPhase::Regrant, 2), (DopPhase::Submit, 2)]);
    }
}

#[test]
fn reservation_stays_registered_across_repeated_submissions() {
    let engine = Engine::with_workers(2);
    let cat = catalog(5_000);
    let plan = Arc::new(partitioned_plan(5_000, 300, 1));

    let reservation = engine.reserve_admitted();
    let first = engine.execute_with_handle(&plan, &cat, reservation.handle()).unwrap();
    assert_eq!(first.output, expected_sum(300));
    assert_eq!(
        engine.reservations().len(),
        1,
        "execution completion must not unregister a held reservation"
    );
    let second = engine.execute_with_handle(&plan, &cat, reservation.handle()).unwrap();
    assert_eq!(second.output, first.output);

    // One Reserve grant, then one Submit event per execution under the ticket.
    let phases: Vec<DopPhase> = second.profile.dop_timeline.iter().map(|e| e.phase).collect();
    assert_eq!(phases, [DopPhase::Reserve, DopPhase::Submit, DopPhase::Submit]);

    drop(reservation);
    assert!(engine.reservations().is_empty());
}

#[test]
fn clawback_below_the_running_task_count_drains_gracefully() {
    // The select cut 8 ways, or into morsels of 2,048 rows.
    let partitioned = partitioned_plan(100_000, 2_000, 8);
    let mut morsels = partitioned.clone();
    morsels.node_mut(2).unwrap().cuts = Cuts::Every(2_048);
    for (form, plan) in [("8 parts", partitioned), ("morsels", morsels)] {
        let engine = Arc::new(Engine::with_workers(4));
        let cat = catalog(100_000);
        let plan = Arc::new(plan);

        // Admitted alone at 4, then three arrivals claw it back to 1 while
        // (potentially many) of its tasks are already running. The cap is
        // only consulted at slot acquisition, so running tasks finish and
        // the rest trickle through one at a time — completion, not
        // pre-emption.
        let wide = engine.reserve_admitted();
        let handle = wide.handle();
        let runner = {
            let (engine, plan, cat) = (Arc::clone(&engine), Arc::clone(&plan), Arc::clone(&cat));
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || engine.execute_with_handle(&plan, &cat, handle))
        };
        let peers: Vec<_> = (0..3).map(|_| engine.reserve_admitted()).collect();
        let exec = runner.join().unwrap().unwrap();
        assert_eq!(exec.output, expected_sum(2_000), "{form}: claw-back corrupted");
        assert_eq!(handle.inflight_tasks(), 0, "{form}: tasks outlived the submission");
        assert_eq!(handle.admitted_dop(), 1, "{form}: claw-back lost");
        drop(peers);
        assert_eq!(handle.admitted_dop(), 4, "{form}: the survivor gets the pool back");
    }
}

#[test]
fn regrant_racing_completion_is_harmless() {
    let engine = Arc::new(Engine::with_workers(2));
    let cat = catalog(50_000);
    let plan = Arc::new(partitioned_plan(50_000, 1_000, 8));

    // A peer arrives and leaves over and over for the query's whole life:
    // every arrival claws the runner back to 1, every release re-grants 2.
    let runner_ticket = engine.reserve_admitted();
    let handle = runner_ticket.handle();
    let runner = {
        let (engine, plan, cat) = (Arc::clone(&engine), Arc::clone(&plan), Arc::clone(&cat));
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || engine.execute_with_handle(&plan, &cat, handle))
    };
    let mut churned = 0;
    while !runner.is_finished() || churned < 4 {
        drop(engine.reserve_admitted());
        churned += 1;
    }
    let exec = runner.join().unwrap().unwrap();
    // ...and beyond it: the ticket is still held, so these write to a handle
    // nobody dispatches from any more.
    drop(engine.reserve_admitted());

    assert_eq!(exec.output, expected_sum(1_000));
    assert_eq!(handle.inflight_tasks(), 0);
    assert_eq!(handle.admitted_dop(), 2, "the last release left the runner the pool");
    assert_eq!(handle.dop_timeline().len(), 2 + 2 * (churned + 1), "a re-grant went unrecorded");
    drop(runner_ticket);
    // The engine stays healthy for the next client.
    assert_eq!(engine.execute_shared(&plan, &cat).unwrap().output, exec.output);
    assert!(engine.reservations().is_empty());
}

#[test]
fn regrant_racing_cancellation_does_not_resurrect_the_query() {
    let engine = Arc::new(Engine::with_workers(2));
    let cat = catalog(10_000);
    let plan = Arc::new(partitioned_plan(10_000, 100, 4));

    // Cancelled before submission: a re-grant between cancel and execute
    // must not bring it back, and no task is dispatched for it.
    let ticket = engine.reserve_admitted();
    ticket.handle().cancel();
    drop(engine.reserve_admitted()); // claw-back + re-grant on the cancelled handle
    let err = engine.execute_with_handle(&plan, &cat, ticket.handle()).unwrap_err();
    assert_eq!(err, EngineError::Cancelled);
    assert_eq!(ticket.handle().dispatched(), 0);
    drop(ticket);

    // Cancelled mid-flight while peers come and go: the query either
    // finished first (Ok) or observed the cancel (Cancelled); nothing else,
    // and the engine survives either way.
    let ticket = engine.reserve_admitted();
    let handle = ticket.handle();
    let runner = {
        let (engine, plan, cat) = (Arc::clone(&engine), Arc::clone(&plan), Arc::clone(&cat));
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || engine.execute_with_handle(&plan, &cat, handle))
    };
    drop(engine.reserve_admitted());
    handle.cancel();
    drop(engine.reserve_admitted());
    match runner.join().unwrap() {
        Ok(exec) => assert_eq!(exec.output, expected_sum(100)),
        Err(err) => assert_eq!(err, EngineError::Cancelled),
    }
    assert_eq!(handle.inflight_tasks(), 0);
    drop(ticket);
    assert!(engine.reservations().is_empty());
    let ok = engine.execute_shared(&plan, &cat).unwrap();
    assert_eq!(ok.output, expected_sum(100), "engine unhealthy after the cancel race");
}

#[test]
fn a_reservation_dropped_under_a_running_query_releases_its_share() {
    // 2 ms per operator keeps the 33-operator query in flight long enough
    // for the drop below to land under it.
    let engine = Arc::new(Engine::new(
        EngineConfig::with_workers(2).with_faults(FaultConfig::fixed_delay(2_000)),
    ));
    let cat = catalog(20_000);
    let plan = Arc::new(partitioned_plan(20_000, 400, 8));

    let leaving = engine.reserve_admitted();
    let staying = engine.reserve_admitted();
    let handle = leaving.handle();
    let runner = {
        let (engine, plan, cat) = (Arc::clone(&engine), Arc::clone(&plan), Arc::clone(&cat));
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || engine.execute_with_handle(&plan, &cat, handle))
    };
    await_condition("the query to go live", || engine.in_flight_queries() == 1);
    drop(leaving);

    // The slot is released at the drop, not at completion: the peer holds
    // the pool from here on, and the running query keeps the cap it had —
    // it is no longer anyone's to re-grant.
    assert_eq!(staying.handle().admitted_dop(), 2);
    assert_eq!(engine.reservations().len(), 1);
    let exec = runner.join().unwrap().unwrap();
    assert_eq!(exec.output, expected_sum(400));
    assert_eq!(handle.inflight_tasks(), 0);
    assert_eq!(handle.admitted_dop(), 1);
    assert_eq!(engine.reservations().len(), 1, "completion must not touch the registry");
    drop(staying);
    assert!(engine.reservations().is_empty());
}

/// SplitMix64, the repository's seeded-sequence idiom.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

#[test]
fn seeded_reserve_release_cancel_sequences_hold_the_share_invariant() {
    for seed in [11, 42, 2016, 9091] {
        let mut gen = Gen(seed);
        let workers = 1 + gen.below(8);
        let engine = Engine::with_workers(workers);
        let mut census: Vec<ReservedQuery> = Vec::new();
        // Held handles with the client's own cap ride along; they are never
        // counted and their caps must never move.
        let mut fixed: Vec<(Arc<QueryHandle>, usize)> = Vec::new();
        for step in 0..400 {
            let what = match gen.below(8) {
                0..=2 => {
                    census.push(engine.reserve_admitted());
                    "reserve"
                }
                3 | 4 if !census.is_empty() => {
                    census.swap_remove(gen.below(census.len()));
                    "release"
                }
                5 if !census.is_empty() => {
                    census[gen.below(census.len())].handle().cancel();
                    "cancel"
                }
                6 => {
                    let cap = gen.below(4);
                    fixed.push((engine.register_query(cap), cap));
                    "static register"
                }
                _ if !fixed.is_empty() => {
                    fixed.swap_remove(gen.below(fixed.len()));
                    "static drop"
                }
                _ => continue,
            };
            let context = format!("seed {seed}, step {step} ({what})");
            assert_equal_shares(&engine, workers, &census, &context);
            for (handle, cap) in &fixed {
                assert_eq!(handle.admitted_dop(), *cap, "{context}: static cap moved");
            }
        }
        while let Some(reservation) = census.pop() {
            drop(reservation);
            assert_equal_shares(&engine, workers, &census, &format!("seed {seed}, drain"));
        }
        assert!(engine.reservations().is_empty(), "seed {seed}: census not drained");
    }
}

#[test]
fn a_long_query_behind_a_short_one_is_regranted_the_pool_through_the_service() {
    // 10 ms per operator: the short query (6 operators) holds its ticket for
    // ~50 ms, the long one (66 operators) for ~0.3 s — the order of the
    // census changes below is what the assertions read, never a duration.
    let rows = 8_000;
    let service = QueryService::new(
        ServiceConfig::with_engine(
            EngineConfig::with_workers(2).with_faults(FaultConfig::fixed_delay(10_000)),
        )
        .with_result_cache_capacity(0),
        catalog(rows),
    );
    let engine = service.engine();
    let caps = || {
        let mut caps: Vec<usize> = engine.reservations().iter().map(|h| h.admitted_dop()).collect();
        caps.sort_unstable();
        caps
    };
    let short_plan = partitioned_plan(rows, 50, 1);
    let long_plan = partitioned_plan(rows, 700, 16);

    let (short, long) = std::thread::scope(|scope| {
        let short = scope.spawn(|| service.connect().submit(&short_plan).unwrap());
        await_condition("the short query to be admitted", || caps() == [2]);
        let long = scope.spawn(|| service.connect().submit(&long_plan).unwrap());
        await_condition("the long query to be admitted behind it", || {
            assert!(!short.is_finished(), "the short submission returned before the long arrived");
            caps() == [1, 1]
        });
        await_condition("the short submission to return", || short.is_finished());
        assert_eq!(caps(), [2], "the survivor holds the pool once its peer's ticket is gone");
        (short.join().unwrap(), long.join().unwrap())
    });

    assert_eq!(short.output, expected_sum(50));
    assert_eq!(long.output, expected_sum(700));
    let events = |response: &apq_engine::ServiceResponse| -> Vec<(DopPhase, usize)> {
        let profile = response.profile.as_ref().expect("the result cache is off");
        profile.dop_timeline.iter().map(|e| (e.phase, e.dop)).collect()
    };
    // Admitted with the pool and clawed back at the long query's arrival;
    // admitted serial and re-granted the pool at the short one's release.
    let (short, long) = (events(&short), events(&long));
    assert_eq!(short[0], (DopPhase::Reserve, 2));
    assert!(short[1..].contains(&(DopPhase::Regrant, 1)), "{short:?}");
    assert_eq!(long, [(DopPhase::Reserve, 1), (DopPhase::Submit, 1), (DopPhase::Regrant, 2)]);
    assert!(engine.reservations().is_empty());
}
