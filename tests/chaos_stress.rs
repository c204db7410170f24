//! Chaos suite: seeded fault injection into plans as built and cut into
//! morsels.
//!
//! Every cell must satisfy the robustness contract of
//! `docs/architecture.md` §9:
//!
//! * **no hang** — the whole cell finishes under a watchdog deadline,
//! * **no leaked DOP slots** — every retained handle reads `running() == 0`
//!   and `inflight_tasks() == 0` once its submission returned,
//! * **nothing left executing** — `in_flight_queries()` reads 0 afterwards,
//! * **reproducible** — the same seed yields the same pass/fail pattern
//!   and byte-identical successful outputs on a rerun, and fault-free
//!   seeds (quiet / timing-only) are byte-identical to the fault-free
//!   reference engine.
//!
//! The seed matrix here is fixed and mirrored by the CI `chaos` job.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use adaptive_parallelization::engine::{
    Engine, EngineConfig, EngineError, FaultConfig, OperatorSpec, Plan, QueryOutput,
};
use apq_columnar::{Catalog, TableBuilder};
use apq_operators::{AggFunc, CmpOp, Predicate};

const WORKERS: usize = 4;
const MORSEL_ROWS: usize = 500;
const ROWS: usize = 6_000;
/// Fixed seed matrix, mirrored by the CI chaos job.
const SEEDS: [u64; 3] = [11, 42, 2016];
/// Per-cell watchdog: generous next to the µs-scale injected delays, but
/// finite — a hung submission fails the test instead of wedging CI.
const CELL_DEADLINE: Duration = Duration::from_secs(120);

fn catalog() -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("t")
            .i64_column("a", (0..ROWS as i64).map(|v| (v * 7) % 1000).collect())
            .i64_column("b", (0..ROWS as i64).map(|v| (v * 13) % 97 - 48).collect())
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

fn scan(p: &mut Plan, column: &str) -> usize {
    p.add(OperatorSpec::ScanColumn { table: "t".into(), column: column.into() }, vec![])
}

/// `SELECT sum(col) FROM t WHERE col < threshold` — scan/select/fetch/agg,
/// enough plan surface that chaos sites land on varied operator kinds.
fn filtered_sum(column: &str, threshold: i64) -> Plan {
    let mut p = Plan::new();
    let s = scan(&mut p, column);
    let sel =
        p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, threshold) }, vec![s]);
    let fetch = p.add(OperatorSpec::Fetch, vec![sel, s]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    p
}

fn plain_sum(column: &str) -> Plan {
    let mut p = Plan::new();
    let s = scan(&mut p, column);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![s]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    p
}

/// `SELECT a, sum(b) FROM t GROUP BY a` — a fused `GroupAgg` pipeline
/// terminal (keys and values grid-sliced on the same morsel grid), so the
/// chaos matrix also lands faults inside grouped-aggregate pipelines.
fn grouped_sum() -> Plan {
    let mut p = Plan::new();
    let k = scan(&mut p, "a");
    let v = scan(&mut p, "b");
    let group = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![k, v]);
    p.set_root(group);
    p
}

fn workload() -> Vec<Plan> {
    vec![
        plain_sum("a"),
        plain_sum("b"),
        filtered_sum("a", 500),
        filtered_sum("b", 0),
        filtered_sum("a", 120),
        filtered_sum("b", 30),
        grouped_sum(),
    ]
}

/// The forms every cell runs its plans in.
#[derive(Debug, Clone, Copy)]
enum Form {
    AsBuilt,
    /// Cut into morsels of [`MORSEL_ROWS`] rows.
    Morsels,
}

const FORMS: [Form; 2] = [Form::AsBuilt, Form::Morsels];

impl Form {
    fn apply(self, plan: &Plan) -> Plan {
        match self {
            Form::AsBuilt => plan.clone(),
            Form::Morsels => plan.cut_into_morsels(MORSEL_ROWS),
        }
    }
}

fn engine(faults: FaultConfig) -> Engine {
    Engine::new(EngineConfig::with_workers(WORKERS).with_faults(faults))
}

/// Runs `f` under the cell watchdog; a cell that does not finish in time
/// fails the test loudly instead of hanging the whole suite.
fn with_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(CELL_DEADLINE) {
        Ok(value) => {
            worker.join().expect("cell worker exits after reporting");
            value
        }
        Err(_) => panic!("{label}: chaos cell exceeded the {CELL_DEADLINE:?} watchdog (hang)"),
    }
}

/// Submits the workload serially (query ids — and therefore fault sites —
/// are deterministic), returning each submission's outcome. Verifies the
/// per-cell robustness contract before returning.
fn run_cell(form: Form, faults: FaultConfig) -> Vec<Result<QueryOutput, EngineError>> {
    let catalog = catalog();
    let engine = engine(faults);
    let mut outcomes = Vec::new();
    let mut handles = Vec::new();
    for round in 0..2 {
        for plan in &workload() {
            let shared = Arc::new(form.apply(plan));
            let handle = engine.register_query(0);
            // Round 1 resubmits with an already-expired deadline on every
            // other query: deterministic DeadlineExceeded, zero dispatch.
            if round == 1 && handle.id().is_multiple_of(2) {
                handle.set_deadline(Duration::ZERO);
            }
            handles.push(Arc::clone(&handle));
            let outcome = engine
                .execute_with_handle(&shared, &catalog, Arc::clone(&handle))
                .map(|exec| exec.output);
            outcomes.push(outcome);
        }
    }
    // Nothing left executing once every submission returned.
    assert_eq!(engine.in_flight_queries(), 0, "[{form:?}] a submission outlived its return");
    // No leaked DOP slots or tasks, successful or failed alike.
    for handle in &handles {
        assert_eq!(handle.running(), 0, "[{form:?}] query {} leaked a DOP slot", handle.id());
        assert_eq!(handle.inflight_tasks(), 0, "[{form:?}] query {} left a task", handle.id());
    }
    outcomes
}

fn allowed_chaos_error(err: &EngineError) -> bool {
    matches!(
        err,
        EngineError::Cancelled | EngineError::DeadlineExceeded | EngineError::WorkerPanicked(_)
    )
}

/// Runs one chaos cell twice from the same seed under the watchdog and
/// checks the reruns agree. Outcome-changing faults are site-keyed: the same
/// seed must fail the same submissions and produce byte-identical successes.
/// (The *kind* of failure may differ when two injected faults race inside
/// one query.)
fn assert_cell_reproduces(seed: u64, form: Form) {
    let label = format!("seed {seed} [{form:?}]");
    let (first, second) = with_watchdog(&label, move || {
        (run_cell(form, FaultConfig::chaos(seed)), run_cell(form, FaultConfig::chaos(seed)))
    });
    assert_eq!(first.len(), second.len());
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "{label}: submission {i} output diverged"),
            (Err(x), Err(y)) => {
                assert!(allowed_chaos_error(x), "{label}: unexpected error {x}");
                assert!(allowed_chaos_error(y), "{label}: unexpected error {y}");
            }
            _ => panic!(
                "{label}: submission {i} flipped between identical seeded runs \
                 ({a:?} vs {b:?})"
            ),
        }
    }
}

#[test]
fn chaos_matrix_terminates_cleanly_and_reproduces_from_the_seed() {
    for seed in SEEDS {
        for form in FORMS {
            assert_cell_reproduces(seed, form);
        }
    }
}

#[test]
fn fault_free_seeds_are_byte_identical_to_the_reference() {
    let catalog = catalog();
    let reference = Engine::with_workers(WORKERS);
    for seed in SEEDS {
        for form in FORMS {
            // `quiet` injects nothing; `timing_only` injects delays, which
            // stretch wall-clock but may not change any result byte.
            for faults in [FaultConfig::quiet(seed), FaultConfig::timing_only(seed)] {
                let engine = engine(faults);
                for plan in &workload() {
                    let expected =
                        reference.execute(plan, &catalog).expect("reference executes").output;
                    let got = engine
                        .execute(&form.apply(plan), &catalog)
                        .expect("fault-free seed executes")
                        .output;
                    assert_eq!(got, expected, "seed {seed} [{form:?}]: fault-free run diverged");
                }
                let stats = engine.fault_stats();
                assert_eq!(stats.panics, 0, "timing-only/quiet seeds never panic");
                assert_eq!(stats.cancels, 0, "timing-only/quiet seeds never cancel");
            }
        }
    }
}

#[test]
fn chaos_survivors_match_the_fault_free_reference() {
    // Whatever a chaos seed does to its victims, every submission that
    // *succeeds* must still be byte-identical to the fault-free reference:
    // a query that failed must never leak partial state into another
    // query's result.
    let catalog = catalog();
    let reference = Engine::with_workers(WORKERS);
    let expected: Vec<QueryOutput> = workload()
        .iter()
        .map(|p| reference.execute(p, &catalog).expect("reference executes").output)
        .collect();
    for seed in SEEDS {
        for form in FORMS {
            let label = format!("seed {seed} [{form:?}]");
            let outcomes = with_watchdog(&label, move || run_cell(form, FaultConfig::chaos(seed)));
            for (i, outcome) in outcomes.iter().enumerate() {
                match outcome {
                    Ok(output) => assert_eq!(
                        output,
                        &expected[i % expected.len()],
                        "{label}: surviving submission {i} was corrupted"
                    ),
                    Err(err) => {
                        assert!(allowed_chaos_error(err), "{label}: unexpected error {err}")
                    }
                }
            }
        }
    }
}

#[test]
fn already_expired_deadline_fails_before_any_dispatch() {
    // Acceptance criterion: a query submitted with an expired deadline
    // fails with DeadlineExceeded without dispatching a single task.
    let catalog = catalog();
    for form in FORMS {
        let engine = Engine::with_workers(2);
        let handle = engine.register_query(0);
        handle.set_deadline(Duration::ZERO);
        let shared = Arc::new(form.apply(&filtered_sum("a", 500)));
        let err = engine
            .execute_with_handle(&shared, &catalog, Arc::clone(&handle))
            .expect_err("expired deadline must not execute");
        assert_eq!(err, EngineError::DeadlineExceeded, "[{form:?}]");
        assert_eq!(handle.dispatched(), 0, "[{form:?}]: a task was dispatched");
        assert_eq!(handle.running(), 0, "[{form:?}]");
        // Expiry is reported by the error alone: the DOP timeline still
        // holds only the admit-time grant.
        assert_eq!(handle.dop_timeline().len(), 1, "[{form:?}]: expiry touched the timeline");
    }
}

#[test]
fn mid_flight_deadlines_abort_at_checkpoints_without_leaks() {
    // Delays stretch execution so a tight (but nonzero) deadline expires
    // mid-flight for at least some submissions; whatever the outcome, the
    // engine must drain clean.
    let catalog = catalog();
    let engine = engine(FaultConfig::timing_only(7));
    let mut timed_out = 0;
    for (i, plan) in workload().iter().cycle().take(24).enumerate() {
        let shared = Arc::new(Form::Morsels.apply(plan));
        let handle = engine.register_query(0);
        // Sweep the deadline from "hopeless" to "comfortable".
        handle.set_deadline(Duration::from_micros(50 * (i as u64 + 1)));
        match engine.execute_with_handle(&shared, &catalog, Arc::clone(&handle)) {
            Ok(_) => {}
            Err(EngineError::DeadlineExceeded) => {
                timed_out += 1;
                assert_eq!(handle.dop_timeline().len(), 1, "expiry appended to the DOP timeline");
            }
            Err(other) => panic!("unexpected error {other}"),
        }
        assert_eq!(handle.running(), 0, "query {i} leaked a DOP slot");
    }
    assert_eq!(engine.in_flight_queries(), 0, "a submission outlived its return");
    // With 50µs–1.2ms deadlines over delay-stretched queries, at least
    // the tightest submissions must have expired.
    assert!(timed_out > 0, "deadline sweep never timed out");
}
