//! Property-based tests for the adaptive parallelizer's core invariants:
//!
//! * any sequence of plan mutations keeps the plan structurally valid;
//! * every mutated plan produces exactly the serial plan's result, as built
//!   and cut into morsels that do not divide its partitions;
//! * a mutation partitions through windows on plan edges: the scans stay
//!   the serial plan's and no slice node appears;
//! * the convergence algorithm always terminates within the paper's bounds.

use std::sync::Arc;

use apq_columnar::{Catalog, ScalarValue, TableBuilder};
use apq_core::{mutate_most_expensive, AdaptiveConfig, ConvergenceState};
use apq_engine::plan::OperatorSpec;
use apq_engine::{Engine, Plan, QueryOutput};
use apq_operators::{AggFunc, BinaryOp, CmpOp, Predicate};
use proptest::prelude::*;

fn catalog(rows: usize, seed: u64) -> Arc<Catalog> {
    let mut c = Catalog::new();
    let values = apq_columnar::datagen::uniform_i64(rows, 0, 1000, seed);
    let payload = apq_columnar::datagen::uniform_i64(rows, 0, 97, seed.wrapping_add(1));
    let keys = apq_columnar::datagen::uniform_i64(rows, 0, 8, seed.wrapping_add(2));
    c.register(
        TableBuilder::new("t")
            .i64_column("a", values)
            .i64_column("b", payload)
            .i64_column("g", keys)
            .build()
            .unwrap(),
    );
    Arc::new(c)
}

fn scan(column: &str) -> OperatorSpec {
    OperatorSpec::ScanColumn { table: "t".into(), column: column.into() }
}

/// Serial plan: sum(b * 2) over rows where a < threshold.
fn scalar_query(threshold: i64) -> Plan {
    let mut p = Plan::new();
    let a = p.add(scan("a"), vec![]);
    let sel =
        p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, threshold) }, vec![a]);
    let b = p.add(scan("b"), vec![]);
    let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
    let calc = p.add(
        OperatorSpec::Calc {
            op: BinaryOp::Mul,
            left_scalar: None,
            right_scalar: Some(ScalarValue::I64(2)),
        },
        vec![fetch],
    );
    let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![calc]);
    let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
    p.set_root(fin);
    p
}

/// Serial plan: select g, sum(b) from t where a < threshold group by g.
fn grouped_query(threshold: i64) -> Plan {
    let mut p = Plan::new();
    let a = p.add(scan("a"), vec![]);
    let sel =
        p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, threshold) }, vec![a]);
    let g = p.add(scan("g"), vec![]);
    let b = p.add(scan("b"), vec![]);
    let fetch_g = p.add(OperatorSpec::Fetch, vec![sel, g]);
    let fetch_b = p.add(OperatorSpec::Fetch, vec![sel, b]);
    let group = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![fetch_g, fetch_b]);
    p.set_root(group);
    p
}

/// What every mutant must keep of its serial plan besides its result as
/// built: the result cut into morsels of 700 rows, which do not divide its
/// partitions, and the scans (a partition is a part of a node's cuts, not a
/// new scan or slice node).
fn check_mutant(plan: &Plan, serial: &Plan, expected: &QueryOutput, cat: &Arc<Catalog>) {
    let fused = Engine::with_workers(3).execute(&plan.cut_into_morsels(700), cat).unwrap();
    assert_eq!(&fused.output, expected, "morsels diverged:\n{}", plan.pretty());
    assert_eq!(plan.count_of("scan"), serial.count_of("scan"), "{}", plan.pretty());
    assert_eq!(plan.count_of("slice"), 0, "{}", plan.pretty());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Repeated mutation never changes the query result and never produces a
    /// structurally invalid plan (scalar aggregate query).
    #[test]
    fn mutations_preserve_scalar_results(seed in 0u64..1000,
                                         threshold in 50i64..950,
                                         steps in 1usize..8) {
        let rows = 6_000;
        let cat = catalog(rows, seed);
        let engine = Engine::with_workers(3);
        let config = AdaptiveConfig::for_cores(3).with_min_partition_rows(64);
        let serial = scalar_query(threshold);
        let mut plan = serial.clone();
        let baseline = engine.execute(&plan, &cat).unwrap();
        let expected = baseline.output.clone();
        let mut profile = baseline.profile;
        for _ in 0..steps {
            match mutate_most_expensive(&mut plan, &profile, &config).unwrap() {
                Some(_) => {
                    plan.validate().unwrap();
                    let exec = engine.execute(&plan, &cat).unwrap();
                    prop_assert_eq!(&exec.output, &expected);
                    check_mutant(&plan, &serial, &expected, &cat);
                    profile = exec.profile;
                }
                None => break,
            }
        }
    }

    /// Same invariant for the grouped-aggregation (advanced mutation) path.
    #[test]
    fn mutations_preserve_grouped_results(seed in 0u64..1000,
                                          threshold in 100i64..900,
                                          steps in 1usize..6) {
        let rows = 5_000;
        let cat = catalog(rows, seed);
        let engine = Engine::with_workers(3);
        let config = AdaptiveConfig::for_cores(3).with_min_partition_rows(64);
        let serial = grouped_query(threshold);
        let mut plan = serial.clone();
        let baseline = engine.execute(&plan, &cat).unwrap();
        let expected = baseline.output.clone();
        let mut profile = baseline.profile;
        for _ in 0..steps {
            match mutate_most_expensive(&mut plan, &profile, &config).unwrap() {
                Some(_) => {
                    plan.validate().unwrap();
                    let exec = engine.execute(&plan, &cat).unwrap();
                    prop_assert_eq!(&exec.output, &expected);
                    check_mutant(&plan, &serial, &expected, &cat);
                    profile = exec.profile;
                }
                None => break,
            }
        }
    }

    /// The convergence algorithm terminates for an arbitrary (bounded)
    /// sequence of execution times: adversarial noise can stretch the search
    /// up to the hard run cap, but never beyond it, and the reported GME /
    /// best times never exceed the serial time (outliers are filtered).
    #[test]
    fn convergence_always_terminates(cores in 2usize..16,
                                     serial in 10_000u64..1_000_000,
                                     times in prop::collection::vec(1_000u64..2_000_000, 1..300)) {
        let cfg = AdaptiveConfig::for_cores(cores);
        let cap = cfg.max_runs;
        let mut state = ConvergenceState::new(cfg);
        state.record_serial(serial);
        let mut runs = 0usize;
        let mut i = 0usize;
        while state.should_continue() {
            let t = times[i % times.len()];
            state.record_run(t);
            runs += 1;
            i += 1;
            prop_assert!(runs <= cap, "no convergence after {runs} runs (cap {cap})");
        }
        // The recorded GME never exceeds the serial time (outliers are filtered).
        if let Some(gme) = state.gme_us() {
            prop_assert!(gme <= serial);
        }
        prop_assert!(state.best_us().unwrap() <= serial);
    }

    /// On a well-behaved system — improvements followed by a stable plateau —
    /// the algorithm converges within a small multiple of the paper's
    /// *approximate* upper bound (`Number_Of_Cores + 1 + Extra_Runs ·
    /// Number_Of_Cores`, §3.3.4). The paper itself notes the bound is
    /// approximate and that extra credit accumulated after the threshold run
    /// prolongs the search (the Fig. 18D discussion of a "too low"
    /// Leaking_Debit), so the assertion allows that slack.
    #[test]
    fn convergence_within_paper_bound_on_stable_curves(cores in 2usize..16,
                                                       serial in 50_000u64..1_000_000,
                                                       improving in 2usize..12,
                                                       jitter in 0u64..200) {
        let cfg = AdaptiveConfig::for_cores(cores);
        let upper = cfg.upper_bound_runs();
        let mut state = ConvergenceState::new(cfg.clone());
        state.record_serial(serial);
        // Geometric improvement for `improving` runs, then a flat plateau.
        // Improvements flatten out once the degree of parallelism reaches the
        // core count (the paper's premise of near-linear speedup up to the
        // number of physical cores), so the improving phase is capped there —
        // longer improving phases legitimately extend the search beyond the
        // approximate bound because the leaking debit is sized too early.
        let improving = improving.min(cores);
        let mut exec = serial;
        let mut runs = 0usize;
        while state.should_continue() {
            if runs < improving {
                exec = (exec as f64 * 0.6) as u64 + 1;
            }
            let t = exec + (runs as u64 * 37 + jitter) % (exec / 50 + 1);
            state.record_run(t);
            runs += 1;
            prop_assert!(runs <= 2 * upper + 2 * cores + 16,
                "stable curve did not converge within the expected bound: {runs} > {}",
                2 * upper + 2 * cores + 16);
        }
        prop_assert!(runs >= 1);
    }
}
