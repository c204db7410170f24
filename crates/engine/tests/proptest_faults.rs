//! Property test for the robustness layer: random fault rates and deadline
//! placements over the service submit path. Whatever the chaos
//! layer injects, every submission must terminate with exactly one of
//! {result, `Cancelled`, `DeadlineExceeded`, `Overloaded`,
//! `WorkerPanicked`} — and a *result* must be byte-identical to the
//! fault-free reference (timing faults never change bytes; outcome faults
//! fail the query instead). Afterwards the census is empty, nothing is
//! executing, and the service's `timed_out` counter matches the observed
//! outcomes.

use std::sync::Arc;
use std::time::Duration;

use apq_columnar::{Catalog, TableBuilder};
use apq_engine::plan::{OperatorSpec, Plan};
use apq_engine::{
    Engine, EngineConfig, EngineError, FaultConfig, QueryOutput, QueryService, ServiceConfig,
};
use apq_operators::{AggFunc, CmpOp, Predicate};
use proptest::prelude::*;

const ROWS: usize = 2_000;
const THRESHOLDS: [i64; 3] = [101, 353, 997];

fn catalog() -> Arc<Catalog> {
    let mut c = Catalog::new();
    c.register(
        TableBuilder::new("t")
            .i64_column("a", (0..ROWS as i64).map(|v| (v * 7919) % 1000).collect())
            .i64_column("b", (0..ROWS as i64).map(|v| v % 101).collect())
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

/// sum(b) where a < threshold.
fn sum_plan(threshold: i64) -> Plan {
    let mut p = Plan::new();
    let a = p.add(OperatorSpec::ScanColumn { table: "t".into(), column: "a".into() }, vec![]);
    let b = p.add(OperatorSpec::ScanColumn { table: "t".into(), column: "b".into() }, vec![]);
    let sel =
        p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, threshold) }, vec![a]);
    let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    p
}

/// The drawn preset with its outcome-changing fault rates replaced by the
/// drawn ones.
fn fault_config(preset: usize, seed: u64, panic_rate: f64, cancel_rate: f64) -> FaultConfig {
    let base = match preset {
        0 => FaultConfig::quiet(seed),
        1 => FaultConfig::chaos(seed),
        _ => FaultConfig::timing_only(seed),
    };
    FaultConfig { panic_probability: panic_rate, cancel_probability: cancel_rate, ..base }
}

fn allowed(err: &EngineError) -> bool {
    matches!(
        err,
        EngineError::Cancelled
            | EngineError::DeadlineExceeded
            | EngineError::Overloaded { .. }
            | EngineError::WorkerPanicked(_)
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Ops are (variant, plan, deadline µs): variant 0 = plain submit,
    /// 1 = submit_with_deadline(deadline µs), 2 = try_submit, 3 =
    /// submit_with_deadline(0) (deterministically expired). Panics and
    /// cancels fire at 0–30 % of operator sites on top of the preset's
    /// delays — wherever they land, the outcome contract must hold.
    #[test]
    fn every_submission_terminates_with_exactly_one_sanctioned_outcome(
        ops in prop::collection::vec((0usize..4, 0usize..3, 0u64..3_000), 1..16),
        seed in 0u64..u64::MAX,
        preset in 0usize..3,
        panic_rate in 0.0f64..0.3,
        cancel_rate in 0.0f64..0.3,
    ) {
        let cat = catalog();
        let reference_engine = Engine::with_workers(2);
        let reference: Vec<QueryOutput> = THRESHOLDS
            .iter()
            .map(|&t| reference_engine.execute(&sum_plan(t), &cat).unwrap().output)
            .collect();

        let forms: [fn(Plan) -> Plan; 2] = [|plan| plan, |plan| plan.cut_into_morsels(500)];
        for form in forms {
            let service = QueryService::new(
                ServiceConfig::with_engine(
                    EngineConfig::with_workers(2)
                        .with_faults(fault_config(preset, seed, panic_rate, cancel_rate)),
                )
                .with_max_queued(4),
                Arc::clone(&cat),
            );
            let session = service.connect();
            let mut timed_out = 0u64;

            for &(variant, q, deadline_us) in &ops {
                let plan = form(sum_plan(THRESHOLDS[q]));
                let outcome = match variant {
                    0 => session.submit(&plan),
                    1 => session.submit_with_deadline(&plan, Duration::from_micros(deadline_us)),
                    2 => session.try_submit(&plan),
                    _ => session.submit_with_deadline(&plan, Duration::ZERO),
                };
                match &outcome {
                    // A served result is always the right result, faults
                    // or not: timing faults cannot change bytes, outcome
                    // faults fail the query instead of corrupting it.
                    Ok(response) => prop_assert_eq!(&response.output, &reference[q]),
                    Err(err) => {
                        prop_assert!(allowed(err), "unsanctioned outcome: {}", err);
                        if *err == EngineError::DeadlineExceeded {
                            timed_out += 1;
                        }
                        // Serial submissions never queue, so the overload
                        // policy has nobody to shed.
                        prop_assert!(
                            !matches!(err, EngineError::Overloaded { .. }),
                            "serial submissions cannot be shed"
                        );
                    }
                }
                // A deterministically expired deadline must time out, not
                // return a stale or partial result.
                if variant == 3 {
                    prop_assert_eq!(
                        outcome.map(|_| ()).unwrap_err(),
                        EngineError::DeadlineExceeded
                    );
                }
            }

            // The census drains: no query survives its submission.
            prop_assert!(service.engine().reservations().is_empty());
            prop_assert_eq!(service.engine().in_flight_queries(), 0);
            let stats = service.stats();
            prop_assert_eq!(stats.timed_out, timed_out);
            prop_assert_eq!(stats.shed, 0);
        }
    }
}
