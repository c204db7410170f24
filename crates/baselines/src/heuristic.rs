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
//! do: a partition is a row window on a plan edge. Every scan of the largest
//! ("driver") table stays in the plan once, whole, and is cut into
//! `n_partitions` equal windows; the partitioning is propagated in
//! topological order — a parallelizable operator whose aligned inputs are all
//! partitioned is cloned once per partition, each clone reading its window
//! of the scan or its matching upstream clone. Any other consumer reads the
//! scan whole, or the packed (exchange-union) result of the clones. This
//! mirrors MonetDB's mitosis + mergetable optimizer pair.
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
use apq_engine::plan::{NodeId, OperatorSpec, Plan};
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

/// One input edge of a node: the producer and the edge's row window.
type Edge = (NodeId, Option<RowRange>);

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

    let mut out = Plan::new();
    // serial node id -> single (whole) node in the new plan
    let mut single: HashMap<NodeId, NodeId> = HashMap::new();
    // serial node id -> its n part edges in the new plan: a driver scan's
    // windows, or a cloned operator's clones read whole
    let mut parts: HashMap<NodeId, Vec<Edge>> = HashMap::new();
    // cache of exchange unions packing a cloned node
    let mut packed: HashMap<NodeId, NodeId> = HashMap::new();

    for id in serial.topo_order()? {
        let node = serial.node(id)?.clone();
        match &node.spec {
            spec @ OperatorSpec::ScanColumn { table, .. } => {
                let scan = out.add(spec.clone(), vec![]);
                single.insert(id, scan);
                if table == driver_table && rows >= n {
                    parts.insert(id, cuts.iter().map(|&cut| (scan, Some(cut))).collect());
                }
            }
            spec => {
                let flags = spec.aligned_inputs(node.inputs.len());
                // A windowed edge reads its producer whole and then cuts it,
                // so it reads the single version, window kept.
                let partitioned =
                    |(input, window): Edge| window.is_none() && parts.contains_key(&input);
                let any_partitioned =
                    node.edges().zip(&flags).any(|(edge, &aligned)| aligned && partitioned(edge));
                let all_aligned_partitioned = node
                    .edges()
                    .zip(&flags)
                    .filter(|&(_, &aligned)| aligned)
                    .all(|(edge, _)| partitioned(edge));

                if spec.is_parallelizable() && any_partitioned && all_aligned_partitioned {
                    // Clone once per partition, propagating the partitioned inputs.
                    // Broadcast inputs that are themselves partitioned (other
                    // columns of the driver table, or intermediates derived
                    // from the same partitioned pipeline) use the matching
                    // partition: their oid / positional domain is the
                    // partition's domain, so packing them globally would
                    // mis-align tuple reconstruction (paper Fig. 9 hazards).
                    let mut versions = Vec::with_capacity(n);
                    for k in 0..n {
                        let mut edges = Vec::with_capacity(node.inputs.len());
                        for (edge @ (input, window), &aligned) in node.edges().zip(&flags) {
                            if aligned || partitioned(edge) {
                                edges.push(parts[&input][k]);
                            } else {
                                let single_input =
                                    resolve_single(&mut out, input, &single, &parts, &mut packed)?;
                                edges.push((single_input, window));
                            }
                        }
                        versions.push((out.add_edges(spec.clone(), edges), None));
                    }
                    parts.insert(id, versions);
                } else {
                    // Keep the operator single; combiners absorb the clones
                    // directly, everything else reads the scan whole or a
                    // packed exchange union.
                    let mut edges = Vec::new();
                    for edge @ (input, window) in node.edges() {
                        if spec.is_combiner() && partitioned(edge) && !single.contains_key(&input) {
                            edges.extend_from_slice(&parts[&input]);
                        } else {
                            let single_input =
                                resolve_single(&mut out, input, &single, &parts, &mut packed)?;
                            edges.push((single_input, window));
                        }
                    }
                    let new_id = out.add_edges(spec.clone(), edges);
                    single.insert(id, new_id);
                }
            }
        }
    }

    // Root: pack it if the root operator itself ended up partitioned.
    let root = serial
        .root()
        .ok_or_else(|| EngineError::InvalidPlan("serial plan has no root".to_string()))?;
    let new_root = resolve_single(&mut out, root, &single, &parts, &mut packed)?;
    out.set_root(new_root);
    out.validate()?;
    Ok(out)
}

/// Returns an unpartitioned node producing the output of serial node `id`:
/// either its direct rewrite (a scan stays whole) or an exchange union
/// packing its clones.
fn resolve_single(
    out: &mut Plan,
    id: NodeId,
    single: &HashMap<NodeId, NodeId>,
    parts: &HashMap<NodeId, Vec<Edge>>,
    packed: &mut HashMap<NodeId, NodeId>,
) -> Result<NodeId> {
    if let Some(&s) = single.get(&id) {
        return Ok(s);
    }
    if let Some(&u) = packed.get(&id) {
        return Ok(u);
    }
    let versions = parts.get(&id).ok_or_else(|| {
        EngineError::InvalidPlan(format!("node {id} was not rewritten by the HP rewriter"))
    })?;
    let union = out.add_edges(OperatorSpec::ExchangeUnion, versions.iter().copied());
    packed.insert(id, union);
    Ok(union)
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
