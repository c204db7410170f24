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
//! the adaptive parallelizer mutates, and partitions and recombines the way
//! the mutations do: a partition is a row window on a plan edge, and clones
//! take their original's place through [`Plan::recombine`]. It rewrites a
//! copy of the serial plan in place. Every scan of the largest ("driver")
//! table stays in the plan, whole, and is cut into `n_partitions` equal
//! windows. A forward pass in topological order propagates the cuts: a
//! parallelizable operator whose aligned inputs are all partitioned is
//! cloned once per partition, each clone reading its window of the scan or
//! its matching upstream clone. A reverse pass then recombines each cloned
//! operator, readers before producers, so an original that only cloned
//! operators read leaves nothing behind: a combiner takes the clones in its
//! input list, and any other reader (and the root) reads their exchange
//! union. This mirrors MonetDB's mitosis + mergetable optimizer pair.
//!
//! The same rewriter is the paper's *work-stealing-style* baseline (§4.1.1):
//! "One may argue that the work stealing approach could solve the problem of
//! execution skew due to the static partitions. We analyze it by creating a
//! large number of smaller partitions (128) operated upon by 8 threads.
//! Large number of smaller partitions allows those threads that finish work
//! early to operate on remaining partitions, while threads on skewed
//! partitions stay busy." The engine's worker pool already behaves that way
//! (idle workers pull the next ready operator), so the baseline is simply
//! [`heuristic_parallelize`] with [`DEFAULT_WORK_STEALING_PARTITIONS`] (or
//! any count far above the worker count) run on few workers.

use std::collections::HashMap;

use apq_columnar::partition::RowRange;
use apq_columnar::Catalog;
use apq_engine::plan::{Edge, NodeId, OperatorSpec, Plan};
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

/// Rewrites `serial` by cutting every scan of the driver table — `(name,
/// rows)` — into `n_partitions` equal windows and propagating the cuts.
fn heuristic_parallelize_with_driver(
    serial: &Plan,
    (driver_table, rows): (&str, usize),
    n_partitions: usize,
) -> Result<Plan> {
    serial.validate()?;
    let n = n_partitions.max(1);
    if n == 1 {
        return Ok(serial.clone());
    }
    let cuts = RowRange::new(0, rows).split_even(n);

    let mut plan = serial.clone();
    // node id -> its n part edges: a driver scan's windows, or a cloned
    // operator's clones read whole
    let mut parts: HashMap<NodeId, Vec<Edge>> = HashMap::new();
    let mut cloned = Vec::new();
    for id in serial.topo_order()? {
        let node = serial.node(id)?;
        let flags = node.spec.aligned_inputs(node.inputs.len());
        // A windowed edge reads its producer whole and then cuts it, so it
        // keeps reading the original, window kept.
        let partitioned = |(input, window): Edge| window.is_none() && parts.contains_key(&input);
        let mut aligned =
            node.edges().zip(&flags).filter_map(|(edge, &a)| a.then_some(edge)).peekable();
        let propagates = aligned.peek().is_some() && aligned.all(partitioned);
        match &node.spec {
            OperatorSpec::ScanColumn { table, .. } if table == driver_table && rows >= n => {
                parts.insert(id, cuts.iter().map(|&cut| (id, Some(cut))).collect());
            }
            // Clone once per partition, propagating the partitioned inputs.
            // Broadcast inputs that are themselves partitioned (other
            // columns of the driver table, or intermediates derived from the
            // same partitioned pipeline) use the matching partition: their
            // oid / positional domain is the partition's domain, so packing
            // them globally would mis-align tuple reconstruction (paper
            // Fig. 9 hazards).
            spec if spec.is_parallelizable() && propagates => {
                let clones = (0..n)
                    .map(|k| {
                        let edges = node.edges().zip(&flags).map(|(edge, &aligned)| {
                            if aligned || partitioned(edge) {
                                parts[&edge.0][k]
                            } else {
                                edge
                            }
                        });
                        (plan.add_edges(spec.clone(), edges), None)
                    })
                    .collect();
                parts.insert(id, clones);
                cloned.push(id);
            }
            _ => {}
        }
    }
    // Readers before producers: by the time a node is recombined, the
    // originals that read it are gone, and only its other readers remain.
    for id in cloned.into_iter().rev() {
        plan.recombine(id, &parts[&id])?;
    }
    plan.validate()?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::partition::RowRange;
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
        // once, whole; the clones read eight windows of each.
        assert_eq!(hp.count_of("scan"), 2);
        let out = engine.execute(&hp, &cat).unwrap().output;
        assert_eq!(out, expected);
    }

    #[test]
    fn hp_reads_windowed_edges_from_the_packed_producer() {
        // sum(b) where a < 100, the candidates fetched through two windows.
        let rows = 10_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(4);
        let mut serial = Plan::new();
        let a = serial.add(scan("fact", "a"), vec![]);
        let pred = Predicate::cmp(CmpOp::Lt, 100i64);
        let sel = serial.add(OperatorSpec::Select { predicate: pred }, vec![a]);
        let b = serial.add(scan("fact", "b"), vec![]);
        let partials: Vec<NodeId> = [RowRange::new(0, 300), RowRange::new(300, rows)]
            .into_iter()
            .map(|w| {
                let fetched = serial.add_edges(OperatorSpec::Fetch, [(sel, Some(w)), (b, None)]);
                serial.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![fetched])
            })
            .collect();
        let fin = serial.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, partials);
        serial.set_root(fin);
        let expected = engine.execute(&serial, &cat).unwrap().output;

        let hp = heuristic_parallelize(&serial, &cat, 4).unwrap();
        // The select is cloned; each fetch stays single and reads its
        // window of the packed candidates.
        assert_eq!((hp.count_of("select"), hp.count_of("fetch")), (4, 2));
        let fetches = hp.node_ids().into_iter().map(|id| hp.node(id).unwrap());
        let windows: Vec<_> =
            fetches.filter(|n| n.spec == OperatorSpec::Fetch).filter_map(|n| n.window(0)).collect();
        assert_eq!(windows, [RowRange::new(0, 300), RowRange::new(300, rows)]);
        assert_eq!(engine.execute(&hp, &cat).unwrap().output, expected);
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
        // The root exchange union merges the six grouped partials.
        assert_eq!(hp.count_of("union"), 1);
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
        // serial, the build side's scan is packed back together.
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
