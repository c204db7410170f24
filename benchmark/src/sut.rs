//! The one module that calls into the system under test. Every other file
//! of the benchmark goes through these wrappers, so a change to the public
//! API below needs a change to this file only — and this list is what must
//! stay stable (or move together with this file):
//!
//! * `apq_workloads::tpch::{generate, TpchScale, TpchQuery::{all, build},
//!   queries::q06_with_quantity}`
//! * `apq_columnar::{Catalog::table, Table::{column, row_count},
//!   Column::{slice, len, i64_values, i32_values}, typed_cache_hits}`
//! * `apq_engine::{Engine::{new, execute_shared, scheduler_stats},
//!   EngineConfig::{with_workers, with_scheduler, with_execution_mode},
//!   ExecutionMode, SchedulerPolicy, DEFAULT_MORSEL_ROWS,
//!   QueryExecution, QueryProfile, OperatorProfile, SchedulerStats}`
//! * `apq_engine::{QueryService::{new, connect, stats, invalidate_table},
//!   ServiceConfig::{with_engine, with_result_cache_capacity,
//!   with_plan_cache_capacity, with_shared_scans}, Session::submit,
//!   ServiceResponse, ServiceStats}`
//! * `apq_engine::{Plan::{topo_order, node, root, node_count},
//!   interpreter::execute_node, Chunk::to_output, QueryOutput}`
//! * `apq_core::{AdaptiveOptimizer::{new, optimize_with_observer},
//!   AdaptiveConfig::for_cores, AdaptiveReport, AdaptiveRunRecord,
//!   mutate_most_expensive}` and `apq_baselines::heuristic_parallelize`
//! * the nine kernels: `apq_operators::{select, select_with_candidates,
//!   fetch, calc_col_col, scalar_agg, grouped_agg, JoinHashTable::{build,
//!   probe}, pack_columns}` with `Predicate`, `BinaryOp`, `AggFunc`

use std::sync::Arc;
use std::time::{Duration, Instant};

use apq_columnar::typed_cache_hits;
use apq_core::{mutate_most_expensive, AdaptiveConfig, AdaptiveOptimizer};
use apq_engine::interpreter::execute_node;
use apq_engine::{
    Chunk, EngineConfig, ExecutionMode, QueryProfile, SchedulerPolicy, ServiceConfig,
};
use apq_operators::{AggFunc, BinaryOp, JoinHashTable};
use apq_workloads::tpch::{self, TpchQuery, TpchScale};

pub use apq_columnar::{Catalog, Column, Oid};
pub use apq_engine::{Engine, Plan, QueryOutput, QueryService, ServiceStats, Session};
pub use apq_operators::Predicate;

use crate::trace::{Log, SpanId};

/// Rows per morsel in the morsel-driven runtimes (recorded in the output).
pub const MORSEL_ROWS: usize = apq_engine::DEFAULT_MORSEL_ROWS;

/// What the output has to say about the vendored dependencies.
pub const SHIM_CAVEAT: &str = "work-stealing deques are the vendored crossbeam-deque shim \
    (Mutex<VecDeque> per queue), not the lock-free Chase-Lev deque";

// ------------------------------------------------------------------ data

pub fn generate(sf: f64, seed: u64) -> Arc<Catalog> {
    tpch::generate(TpchScale::new(sf), seed)
}

pub fn total_rows(catalog: &Catalog) -> usize {
    ["lineitem", "orders", "part", "customer", "supplier", "nation"]
        .iter()
        .map(|t| catalog.table(t).map_or(0, |t| t.row_count()))
        .sum()
}

pub fn column(catalog: &Catalog, table: &str, column: &str) -> Column {
    catalog.table(table).and_then(|t| t.column(column)).expect("TPC-H column exists").clone()
}

/// The seven evaluated TPC-H shapes, in `TpchQuery::all()` order.
pub const TPCH_SHAPES: [&str; 7] = ["Q4", "Q6", "Q8", "Q9", "Q14", "Q19", "Q22"];

pub fn build_tpch(catalog: &Catalog, shape: &str) -> Plan {
    let query = TpchQuery::all()
        .into_iter()
        .find(|q| q.to_string() == shape)
        .unwrap_or_else(|| panic!("unknown TPC-H shape {shape}"));
    query.build(catalog).expect("TPC-H plan builds")
}

/// `q06` with `l_quantity < threshold` (the standard query has 24).
pub fn build_q06_variant(catalog: &Catalog, threshold: i64) -> Plan {
    tpch::queries::q06_with_quantity(catalog, threshold).expect("Q6 plan builds")
}

/// The output of a query that returns one integer.
pub fn scalar_i64(value: i64) -> QueryOutput {
    QueryOutput::Scalar(apq_columnar::ScalarValue::I64(value))
}

// --------------------------------------------------------------- engines

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// One task per operator on the default (global-queue) scheduler: the
    /// paper's execution model, and with one worker the reference engine.
    OperatorAtATime,
    /// Fused pipelines over 64Ki-row morsels, work-stealing scheduler.
    MorselStealing,
    /// The same pipelines on the global-queue scheduler.
    MorselGlobal,
}

fn engine_config(runtime: Runtime, workers: usize) -> EngineConfig {
    let config = EngineConfig::with_workers(workers);
    match runtime {
        Runtime::OperatorAtATime => config,
        Runtime::MorselStealing => config
            .with_scheduler(SchedulerPolicy::WorkStealing)
            .with_execution_mode(ExecutionMode::MorselDriven),
        Runtime::MorselGlobal => config
            .with_scheduler(SchedulerPolicy::GlobalQueue)
            .with_execution_mode(ExecutionMode::MorselDriven),
    }
}

pub fn engine(runtime: Runtime, workers: usize) -> Engine {
    Engine::new(engine_config(runtime, workers))
}

/// What one execution's profile says, reduced to what the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfileFacts {
    pub wall: Duration,
    pub cpu_us: u64,
    pub queue_wait_us: u64,
    pub morsels: usize,
    pub shared_morsels: u64,
    pub fused_groupagg: usize,
    /// Admit-time degree of parallelism (`0` = uncapped).
    pub admit_dop: usize,
}

/// One executed query: its result and its profile.
#[derive(Debug, Clone)]
pub struct Executed {
    pub output: QueryOutput,
    pub facts: ProfileFacts,
    profile: QueryProfile,
}

impl Executed {
    /// How far the profile's wall time exceeds the wall time the caller
    /// measured around the call, as a share of the latter (negative when
    /// the profile fits inside, as it should).
    pub fn wall_excess_ratio(&self, external: Duration) -> f64 {
        self.facts.wall.as_secs_f64() / external.as_secs_f64().max(1e-9) - 1.0
    }

    fn new(output: QueryOutput, profile: QueryProfile) -> Self {
        let facts = ProfileFacts {
            wall: profile.wall_time,
            cpu_us: profile.total_cpu_us(),
            queue_wait_us: profile.total_queue_wait_us(),
            morsels: profile.total_morsels(),
            shared_morsels: profile.total_shared_morsels(),
            fused_groupagg: profile.fused_groupagg_pipelines(),
            admit_dop: profile.dop_timeline.first().map_or(0, |e| e.dop),
        };
        Executed { output, facts, profile }
    }

    /// Imports the profile under the span that timed the call: one
    /// `engine.query` child for `profile.wall_time` when the call went
    /// through the service (`via_service`), and one `operators.<family>`
    /// span per `OperatorProfile` below it. Offsets in the profile count
    /// from the query's start, which the benchmark cannot see; children are
    /// placed at the parent's start.
    pub fn import_spans(
        &self,
        log: &mut Log,
        parent: SpanId,
        parent_start_ns: u64,
        op: u64,
        via_service: bool,
    ) {
        if !log.enabled() {
            return;
        }
        let query = if via_service {
            let end = parent_start_ns + self.facts.wall.as_nanos() as u64;
            log.import(parent, "engine", "query", op, parent_start_ns, end, 0)
        } else {
            parent
        };
        for operator in &self.profile.operators {
            let start = parent_start_ns + operator.start_us * 1_000;
            let end = start + operator.duration_us * 1_000;
            log.import(
                query,
                "operators",
                operator.name,
                op,
                start,
                end,
                100 + operator.worker as u32,
            );
        }
    }
}

pub fn execute(
    engine: &Engine,
    plan: &Arc<Plan>,
    catalog: &Arc<Catalog>,
) -> Result<Executed, String> {
    let run = engine.execute_shared(plan, catalog).map_err(|e| e.to_string())?;
    Ok(Executed::new(run.output, run.profile))
}

/// Cumulative scheduler counters of an engine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedulerCounters {
    pub tasks: u64,
    pub steals: u64,
    pub local_hits: u64,
}

pub fn scheduler_counters(engine: &Engine) -> SchedulerCounters {
    let stats = engine.scheduler_stats();
    SchedulerCounters {
        tasks: stats.total_executed(),
        steals: stats.total_steals(),
        local_hits: stats.total_local_hits(),
    }
}

pub fn typed_cache_hit_count() -> u64 {
    typed_cache_hits()
}

// --------------------------------------------------------------- service

/// A query service over a morsel-driven, work-stealing engine. Capacities
/// of `0` switch the respective cache off.
pub fn service(
    workers: usize,
    catalog: &Arc<Catalog>,
    result_cache: usize,
    plan_cache: usize,
    shared_scans: bool,
) -> QueryService {
    let config = ServiceConfig::with_engine(engine_config(Runtime::MorselStealing, workers))
        .with_result_cache_capacity(result_cache)
        .with_plan_cache_capacity(plan_cache)
        .with_shared_scans(shared_scans);
    QueryService::new(config, Arc::clone(catalog))
}

/// The service's default result-cache capacity (entries).
pub fn default_result_cache() -> usize {
    ServiceConfig::default().result_cache_capacity
}

/// The service's default plan-cache capacity (entries).
pub fn default_plan_cache() -> usize {
    ServiceConfig::default().plan_cache_capacity
}

/// One answered submission.
#[derive(Debug, Clone)]
pub struct Served {
    pub output: QueryOutput,
    pub result_cache_hit: bool,
    /// The execution behind the answer; `None` for a result-cache hit.
    pub executed: Option<Executed>,
}

pub fn submit(session: &Session, plan: &Plan) -> Result<Served, String> {
    let response = session.submit(plan).map_err(|e| e.to_string())?;
    let executed = response.profile.map(|p| Executed::new(response.output.clone(), p));
    Ok(Served { output: response.output, result_cache_hit: response.result_cache_hit, executed })
}

// -------------------------------------------------------------- adaptive

/// Outcome of one adaptive-parallelization episode.
#[derive(Debug, Clone)]
pub struct Converged {
    pub best_plan: Plan,
    /// Plan executions the episode made (the serial run included).
    pub runs: usize,
    pub output: QueryOutput,
}

/// Runs the paper's adaptive loop from `serial`; `on_run` sees every run's
/// engine-reported execution time (µs) as soon as the run finished.
pub fn optimize(
    engine: &Engine,
    catalog: &Arc<Catalog>,
    serial: &Plan,
    workers: usize,
    mut on_run: impl FnMut(u64),
) -> Result<Converged, String> {
    let optimizer = AdaptiveOptimizer::new(AdaptiveConfig::for_cores(workers));
    let report = optimizer
        .optimize_with_observer(engine, catalog, serial, |record| on_run(record.exec_us))
        .map_err(|e| e.to_string())?;
    Ok(Converged {
        runs: report.records.len(),
        output: report.final_output,
        best_plan: report.best_plan,
    })
}

/// MonetDB-style static parallelization into `partitions` range partitions.
pub fn heuristic(serial: &Plan, catalog: &Catalog, partitions: usize) -> Plan {
    apq_baselines::heuristic_parallelize(serial, catalog, partitions)
        .expect("heuristic parallelization of a valid plan")
}

/// One mutation step on `plan`, driven by the profile of `run`; returns
/// whether anything could still be parallelized.
pub fn mutate_once(plan: &mut Plan, run: &Executed, workers: usize) -> bool {
    mutate_most_expensive(plan, &run.profile, &AdaptiveConfig::for_cores(workers))
        .expect("mutation of a valid plan")
        .is_some()
}

pub fn node_count(plan: &Plan) -> usize {
    plan.node_count()
}

// ----------------------------------------------------------- interpreter

/// Evaluates `plan` node by node on the calling thread — no scheduler, no
/// worker pool — and reports each node's operator family and interval.
pub fn interpret(
    plan: &Plan,
    catalog: &Catalog,
    mut on_node: impl FnMut(&'static str, Instant, Instant),
) -> Result<QueryOutput, String> {
    let order = plan.topo_order().map_err(|e| e.to_string())?;
    let mut results: Vec<Option<Chunk>> = vec![None; plan.capacity()];
    for id in order {
        let node = plan.node(id).map_err(|e| e.to_string())?;
        let inputs: Vec<Chunk> = node
            .inputs
            .iter()
            .map(|input| results[*input].clone().expect("topological order"))
            .collect();
        let start = Instant::now();
        let chunk = execute_node(id, &node.spec, &inputs, catalog).map_err(|e| e.to_string())?;
        on_node(node.spec.name(), start, Instant::now());
        results[id] = Some(chunk);
    }
    let root = plan.root().ok_or("plan has no root")?;
    Ok(results[root].as_ref().expect("root was evaluated").to_output())
}

// --------------------------------------------------------------- kernels

pub fn k_select(column: &Column, predicate: &Predicate) -> Vec<Oid> {
    apq_operators::select(column, predicate).expect("select kernel")
}

pub fn k_select_candidates(column: &Column, predicate: &Predicate, candidates: &[Oid]) -> Vec<Oid> {
    apq_operators::select_with_candidates(column, predicate, candidates).expect("select kernel")
}

pub fn k_fetch(column: &Column, oids: &[Oid]) -> Column {
    apq_operators::fetch(column, oids).expect("fetch kernel")
}

pub fn k_mul(left: &Column, right: &Column) -> Column {
    apq_operators::calc_col_col(BinaryOp::Mul, left, right).expect("calc kernel")
}

/// Sum of an integer column.
pub fn k_sum(column: &Column) -> i64 {
    match apq_operators::scalar_agg(AggFunc::Sum, column).expect("aggregate kernel").finish() {
        apq_columnar::ScalarValue::I64(v) => v,
        other => panic!("integer sum expected, got {other:?}"),
    }
}

/// Grouped sum; returns the number of groups.
pub fn k_grouped_sum(keys: &Column, values: &Column) -> usize {
    apq_operators::grouped_agg(AggFunc::Sum, keys, values).expect("grouped kernel").len()
}

pub struct HashTable(JoinHashTable);

pub fn k_hash_build(keys: &Column) -> HashTable {
    HashTable(JoinHashTable::build(keys).expect("hash build kernel"))
}

/// Probes with `outer`; returns the number of matching pairs.
pub fn k_hash_probe(table: &HashTable, outer: &Column) -> usize {
    table.0.probe(outer).expect("hash probe kernel").len()
}

pub fn k_pack(parts: &[Column]) -> Column {
    apq_operators::pack_columns(parts).expect("pack kernel")
}

/// The `[start, start + len)` window of a column, as a morsel source cuts it.
pub fn window(column: &Column, start: usize, len: usize) -> Column {
    column.slice(start, len).expect("window inside the column")
}
