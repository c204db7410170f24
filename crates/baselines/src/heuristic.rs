//! Heuristic parallelization (HP): static rewrite of a serial plan.
//!
//! Paper §4.2.1: "HP uses parameters such as the number of threads, physical
//! memory size, and the largest table size to identify the number of
//! partitions for the largest table in the serial plan. A plan re-writer
//! generates a parallel plan from a serial plan by propagating the partitions
//! to data flow dependent operators. ... in HP ... all possible
//! parallelizable operators are parallelized."
//!
//! [`heuristic_parallelize`] implements that rewriter over the same plan IR
//! the adaptive parallelizer mutates, and partitions the way the mutations
//! do: with cuts ([`Cuts`]), so the parallel plan has its serial plan's
//! nodes and edges. A forward pass in topological order cuts every
//! parallelizable node that streams a scan of the largest ("driver") table
//! into `n_partitions` equal parts of that table's rows, and has every
//! parallelizable node that streams a cut node adopt its parts. The driver
//! then runs each such node once per partition and every other reader packs
//! their parts, which mirrors MonetDB's mitosis + mergetable optimizer pair.
//!
//! The same rewriter is the paper's *work-stealing-style* baseline (§4.1.1):
//! "One may argue that the work stealing approach could solve the problem of
//! execution skew due to the static partitions. We analyze it by creating a
//! large number of smaller partitions (128) operated upon by 8 threads.
//! Large number of smaller partitions allows those threads that finish work
//! early to operate on remaining partitions, while threads on skewed
//! partitions stay busy." The engine's worker pool already behaves that way
//! (idle workers pull the next ready task), so the baseline is simply
//! [`heuristic_parallelize`] with [`DEFAULT_WORK_STEALING_PARTITIONS`] (or
//! any count far above the worker count) run on few workers.

use apq_columnar::partition::RowRange;
use apq_columnar::Catalog;
use apq_engine::plan::{Cuts, OperatorSpec, Plan};
use apq_engine::{EngineError, Result};

/// Over-partitioning factor of the paper's work-stealing-style baseline
/// (§4.1.1: 128 partitions for 8 threads).
pub const DEFAULT_WORK_STEALING_PARTITIONS: usize = 128;

/// Rewrites `serial` into a statically parallelized plan with one partition
/// per `n_partitions`, using the largest base table referenced by the plan as
/// the partitioning driver (the heuristic MonetDB applies). A plan that
/// scans no table cannot be valid, and returns its validation error.
pub fn heuristic_parallelize(
    serial: &Plan,
    catalog: &Catalog,
    n_partitions: usize,
) -> Result<Plan> {
    let mut driver: Option<(&str, usize)> = None;
    for id in serial.node_ids() {
        if let OperatorSpec::ScanColumn { table, .. } = &serial.node(id)?.spec {
            let rows = catalog.table(table)?.row_count();
            if driver.is_none_or(|(_, best)| rows > best) {
                driver = Some((table, rows));
            }
        }
    }
    match driver {
        Some(driver) => heuristic_parallelize_with_driver(serial, driver, n_partitions),
        // Only a scan takes no input, so a plan without one fails validation.
        None => {
            serial.validate()?;
            Err(EngineError::InvalidPlan("plan has no scan".to_string()))
        }
    }
}

/// Rewrites `serial` by cutting every reader of a scan of the driver table
/// — `(name, rows)` — into `n_partitions` equal parts of its rows and
/// propagating the parts.
fn heuristic_parallelize_with_driver(
    serial: &Plan,
    (driver_table, rows): (&str, usize),
    n_partitions: usize,
) -> Result<Plan> {
    serial.validate()?;
    let n = n_partitions.max(1);
    let mut plan = serial.clone();
    if n == 1 || rows < n {
        return Ok(plan);
    }
    let at: Vec<usize> =
        RowRange::new(0, rows).split_even(n)[1..].iter().map(|r| r.start).collect();
    let is_driver_scan = |id| {
        matches!(&serial.node(id).map(|n| &n.spec),
            Ok(OperatorSpec::ScanColumn { table, .. }) if table == driver_table)
    };
    for id in serial.topo_order()? {
        let node = serial.node(id)?;
        let Some(stream) = node.stream().filter(|_| node.spec.is_parallelizable()) else {
            continue;
        };
        let cuts = if is_driver_scan(stream) {
            Cuts::At(at.clone())
        } else if plan.in_parts(stream) {
            Cuts::Adopt
        } else {
            continue;
        };
        plan.node_mut(id)?.cuts = cuts;
    }
    plan.validate()?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::{ScalarValue, TableBuilder};
    use apq_engine::{Engine, EngineConfig, FaultConfig, QueryOutput};
    use apq_operators::{AggFunc, BinaryOp, CmpOp, Predicate};
    use std::sync::Arc;

    fn catalog(rows: usize) -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("fact")
                .i64_column("a", (0..rows as i64).map(|v| (v * 37) % 500).collect())
                .i64_column("b", (0..rows as i64).map(|v| v % 101).collect())
                .i64_column("fk", (0..rows as i64).map(|v| v % 50).collect())
                .i64_column("g", (0..rows as i64).map(|v| v % 7).collect())
                .build()
                .unwrap(),
        );
        c.register(
            TableBuilder::new("dim")
                .i64_column("id", (0..50).collect())
                .i64_column("attr", (0..50).map(|v| v * 2).collect())
                .build()
                .unwrap(),
        );
        Arc::new(c)
    }

    fn scan(table: &str, column: &str) -> OperatorSpec {
        OperatorSpec::ScanColumn { table: table.into(), column: column.into() }
    }

    /// Serial plan: sum(b) where a < 100 (filter + fetch + aggregate).
    fn filter_sum_plan() -> Plan {
        let mut p = Plan::new();
        let a = p.add(scan("fact", "a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 100i64) }, vec![a]);
        let b = p.add(scan("fact", "b"), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetch]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        p
    }

    /// Serial plan with a join: sum(attr * b) for fact rows where a < 100,
    /// joining fact.fk with dim.id (hash built on the dimension).
    fn join_plan() -> Plan {
        let mut p = Plan::new();
        let a = p.add(scan("fact", "a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 100i64) }, vec![a]);
        let fk = p.add(scan("fact", "fk"), vec![]);
        let keys = p.add(OperatorSpec::Fetch, vec![sel, fk]);
        let dim_id = p.add(scan("dim", "id"), vec![]);
        let build = p.add(OperatorSpec::HashBuild, vec![dim_id]);
        let probe = p.add(OperatorSpec::HashProbe, vec![keys, build]);
        let outer =
            p.add(OperatorSpec::ProjectJoinSide { side: apq_engine::JoinSide::Outer }, vec![probe]);
        let inner =
            p.add(OperatorSpec::ProjectJoinSide { side: apq_engine::JoinSide::Inner }, vec![probe]);
        let b = p.add(scan("fact", "b"), vec![]);
        let bvals = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let b_j = p.add(OperatorSpec::Fetch, vec![outer, bvals]);
        let attr = p.add(scan("dim", "attr"), vec![]);
        let attr_j = p.add(OperatorSpec::Fetch, vec![inner, attr]);
        let prod = p.add(
            OperatorSpec::Calc { op: BinaryOp::Mul, left_scalar: None, right_scalar: None },
            vec![attr_j, b_j],
        );
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![prod]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        p
    }

    /// Grouped plan: select g, sum(b) where a < 100 group by g.
    fn grouped_plan() -> Plan {
        let mut p = Plan::new();
        let a = p.add(scan("fact", "a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 100i64) }, vec![a]);
        let g = p.add(scan("fact", "g"), vec![]);
        let b = p.add(scan("fact", "b"), vec![]);
        let fetch_g = p.add(OperatorSpec::Fetch, vec![sel, g]);
        let fetch_b = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let group = p.add(OperatorSpec::GroupAgg { func: AggFunc::Sum }, vec![fetch_g, fetch_b]);
        p.set_root(group);
        p
    }

    #[test]
    fn hp_partitions_the_largest_table_and_preserves_results() {
        let rows = 10_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(4);
        let serial = filter_sum_plan();
        let expected = engine.execute(&serial, &cat).unwrap().output;

        let hp = heuristic_parallelize(&serial, &cat, 8).unwrap();
        hp.validate().unwrap();
        // All parallelizable operators were parallelized 8 ways.
        assert_eq!(hp.count_of("select"), 8);
        assert_eq!(hp.count_of("fetch"), 8);
        assert_eq!(hp.count_of("aggregate"), 8);
        // `a` and `b` (both columns of the driver table) are each scanned
        // once, whole; the select cuts `a` into eight parts, and the fetch
        // reads `b` whole.
        assert_eq!(hp.count_of("scan"), 2);
        let out = engine.execute(&hp, &cat).unwrap().output;
        assert_eq!(out, expected);
    }

    #[test]
    fn hp_plans_keep_the_serial_nodes_and_edges_and_cut_the_driver_scans_readers() {
        let cat = catalog(10_000);
        for serial in [filter_sum_plan(), join_plan(), grouped_plan()] {
            let hp = heuristic_parallelize(&serial, &cat, 4).unwrap();
            for id in serial.node_ids() {
                let (s, h) = (serial.node(id).unwrap(), hp.node(id).unwrap());
                assert_eq!((&s.spec, &s.inputs), (&h.spec, &h.inputs), "node {id}");
                let reads_driver_scan = h.stream().is_some_and(|i| {
                    matches!(&hp.node(i).unwrap().spec, OperatorSpec::ScanColumn { table, .. } if table == "fact")
                });
                let expected = match &h.cuts {
                    Cuts::At(at) => at.is_empty() || reads_driver_scan,
                    Cuts::Adopt => hp.parts(h.stream().unwrap()) == 4,
                    Cuts::Every(_) => false,
                };
                assert!(expected, "node {id}: {:?}\n{}", h.cuts, hp.pretty());
            }
            assert_eq!((hp.node_count(), hp.root()), (serial.node_count(), serial.root()));
        }
        // Equal cuts of the driver table's rows.
        let hp = heuristic_parallelize(&filter_sum_plan(), &cat, 4).unwrap();
        assert_eq!(hp.node(1).unwrap().cuts, Cuts::At(vec![2_500, 5_000, 7_500]));
    }

    #[test]
    fn hp_join_plan_partitions_outer_side_only() {
        let rows = 8_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(4);
        let serial = join_plan();
        let expected = engine.execute(&serial, &cat).unwrap().output;
        assert!(matches!(expected, QueryOutput::Scalar(ScalarValue::I64(_))));

        let hp = heuristic_parallelize(&serial, &cat, 4).unwrap();
        hp.validate().unwrap();
        // The probe side is cloned per partition, the build side stays single.
        assert_eq!(hp.count_of("join"), 4);
        assert_eq!(hp.count_of("hashbuild"), 1);
        let out = engine.execute(&hp, &cat).unwrap().output;
        assert_eq!(out, expected);
    }

    #[test]
    fn hp_grouped_plan_merges_partials() {
        let rows = 9_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(4);
        let serial = grouped_plan();
        let expected = engine.execute(&serial, &cat).unwrap().output;
        let hp = heuristic_parallelize(&serial, &cat, 6).unwrap();
        hp.validate().unwrap();
        assert_eq!(hp.count_of("groupby"), 6);
        // The group-by's parts merge their grouped partials as they publish.
        assert_eq!(hp.node_count(), serial.node_count());
        let out = engine.execute(&hp, &cat).unwrap().output;
        assert_eq!(out, expected);
    }

    #[test]
    fn single_partition_returns_the_serial_plan_and_a_scanless_plan_is_an_error() {
        let rows = 1_000;
        let cat = catalog(rows);
        let serial = filter_sum_plan();
        let same = heuristic_parallelize(&serial, &cat, 1).unwrap();
        assert_eq!(same.node_count(), serial.node_count());

        // A driver table the plan never scans leaves every operator single.
        let hp = heuristic_parallelize_with_driver(&serial, ("missing_table", rows), 4).unwrap();
        assert_eq!(hp.count_of("aggregate"), 1);

        // Without a scan there is no valid plan: both entry points say why.
        let empty = Plan::new();
        let err = heuristic_parallelize(&empty, &cat, 4).unwrap_err();
        assert_eq!(err, heuristic_parallelize_with_driver(&empty, ("fact", rows), 4).unwrap_err());
        assert!(matches!(err, EngineError::InvalidPlan(_)), "{err}");
        let mut scanless = Plan::new();
        let c = scanless.add(OperatorSpec::CalcScalars { op: BinaryOp::Add }, vec![]);
        scanless.set_root(c);
        assert!(matches!(
            heuristic_parallelize(&scanless, &cat, 4),
            Err(EngineError::InvalidPlan(_))
        ));
    }

    #[test]
    fn explicit_driver_table_controls_partitioning() {
        let rows = 5_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(4);
        let serial = join_plan();
        let expected = engine.execute(&serial, &cat).unwrap().output;
        // Partition by the dimension table instead: the probe pipeline stays
        // serial, and so does the build, which reads its scan whole.
        let hp = heuristic_parallelize_with_driver(&serial, ("dim", 50), 4).unwrap();
        hp.validate().unwrap();
        assert_eq!(hp.count_of("join"), 1);
        let out = engine.execute(&hp, &cat).unwrap().output;
        assert_eq!(out, expected);
    }

    #[test]
    fn more_partitions_than_rows_is_clamped_by_split_even() {
        let rows = 2_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(2);
        let serial = filter_sum_plan();
        let expected = engine.execute(&serial, &cat).unwrap().output;
        let hp = heuristic_parallelize(&serial, &cat, 64).unwrap();
        hp.validate().unwrap();
        let out = engine.execute(&hp, &cat).unwrap().output;
        assert_eq!(out, expected);
        assert_eq!(hp.count_of("select"), 64);
    }

    #[test]
    fn over_partitioned_plan_runs_on_few_threads_and_matches_serial() {
        let rows = 400_000;
        let cat = catalog(rows);
        // Far fewer workers than partitions. Every operator sleeps 1 ms so
        // the partitions outlast thread wake-up on any core count: the
        // `workers_used` assertion below needs every worker to get a turn.
        let engine =
            Engine::new(EngineConfig::with_workers(4).with_faults(FaultConfig::fixed_delay(1_000)));
        let serial = filter_sum_plan();
        let expected = engine.execute(&serial, &cat).unwrap().output;
        let ws = heuristic_parallelize(&serial, &cat, 32).unwrap();
        ws.validate().unwrap();
        assert_eq!(ws.count_of("select"), 32);
        let exec = engine.execute(&ws, &cat).unwrap();
        assert_eq!(exec.output, expected);
        // With 32 partitions on 4 workers every worker executes something.
        assert_eq!(exec.profile.workers_used(), 4);
    }

    #[test]
    fn default_partition_count_matches_the_paper() {
        assert_eq!(DEFAULT_WORK_STEALING_PARTITIONS, 128);
    }
}
