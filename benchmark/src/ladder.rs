//! The layer ladder of the traced run: the same rungs on every workload's
//! data, from single kernels up to the service and the optimizer. Each rung
//! times calls into public functions and reads what they return; nothing is
//! instrumented inside the system under test.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::stats::{geomean, median};
use crate::sut::{self, Catalog, Plan, Predicate, QueryOutput, Runtime};
use crate::trace::Log;
use crate::workloads::{sharing_rung, Env, SetupFacts};

/// Repetitions per timed call; the median is reported.
const REPS: usize = 3;

pub struct Ladder<'a> {
    env: &'a Env,
    catalog: &'a Arc<Catalog>,
    log: &'a mut Log,
    smoke: bool,
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Per-shape medians of one engine configuration, plus what its profiles said.
struct EnginePass {
    median_ms: Vec<f64>,
    profile_gaps: Vec<f64>,
    cpu_us: u64,
    wall_us: u64,
    morsels: usize,
    fused_groupagg: usize,
    typed_hits: u64,
    scheduler: sut::SchedulerCounters,
}

impl<'a> Ladder<'a> {
    pub fn new(env: &'a Env, catalog: &'a Arc<Catalog>, log: &'a mut Log, smoke: bool) -> Self {
        Ladder { env, catalog, log, smoke, metrics: Vec::new(), attempted: 0, failed: 0 }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Times `f` [`REPS`] times under a span; returns the median seconds and
    /// the last result.
    fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        mut f: impl FnMut() -> T,
    ) -> (f64, T) {
        let mut seconds = Vec::with_capacity(REPS);
        let mut last = None;
        for _ in 0..REPS {
            let (span, start) = (self.log.id(), Instant::now());
            let value = black_box(f());
            let end = Instant::now();
            self.log.record(span, 0, layer, name, 0, start, end);
            seconds.push((end - start).as_secs_f64());
            last = Some(value);
        }
        (median(&seconds), last.expect("REPS is positive"))
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn run(mut self, setup: SetupFacts) -> Self {
        self.put("workloads.datagen_rows_per_s", setup.rows as f64 / setup.datagen_s.max(1e-9));
        let plans = self.plan_rung();
        self.columnar_rung();
        self.kernel_rungs();
        self.engine_rungs(&plans);
        self.service_rungs(&plans);
        self.core_rungs();
        self
    }

    fn plan_rung(&mut self) -> Vec<Arc<Plan>> {
        let catalog = self.catalog;
        let mut micros = Vec::new();
        let mut plans = Vec::new();
        for shape in sut::TPCH_SHAPES {
            let (seconds, plan) =
                self.timed("workloads", "build", || sut::build_tpch(catalog, shape));
            micros.push(seconds * 1e6);
            plans.push(Arc::new(plan));
        }
        self.put("workloads.plan_build_us", median(&micros));
        plans
    }

    /// `Column::slice` plus a typed read for every morsel-sized window of a
    /// warm column: what a morsel source pays before any kernel runs.
    fn columnar_rung(&mut self) {
        let quantity = sut::column(self.catalog, "lineitem", "l_quantity");
        let windows = quantity.len().div_ceil(sut::MORSEL_ROWS).max(1);
        let (seconds, _) = self.timed("columnar", "window", || {
            let mut sum = 0i64;
            for w in 0..windows {
                let start = w * sut::MORSEL_ROWS;
                let len = sut::MORSEL_ROWS.min(quantity.len() - start);
                let window = sut::window(&quantity, start, len);
                sum += window.i64_values().expect("integer column")[0];
            }
            sum
        });
        self.put("columnar.window_access_ns", seconds * 1e9 / windows as f64);
    }

    /// Single-thread calls of the public kernels over the workload's TPC-H
    /// columns, with the Q6/Q14/Q4 predicates.
    fn kernel_rungs(&mut self) {
        let catalog = self.catalog;
        let col = |table: &str, name: &str| sut::column(catalog, table, name);
        let (ship, discount) = (col("lineitem", "l_shipdate"), col("lineitem", "l_discount"));
        let (price, partkey) = (col("lineitem", "l_extendedprice"), col("lineitem", "l_partkey"));
        let rate = |rows: usize, seconds: f64| rows as f64 / seconds.max(1e-9);

        let in_1994 = Predicate::range(8_766i64, 9_131i64);
        let (s, candidates) = self.timed("operators", "select", || sut::k_select(&ship, &in_1994));
        self.put("operators.select_rows_per_s", rate(ship.len(), s));

        let band = Predicate::between(5i64, 7i64);
        let (s, _) = self.timed("operators", "select_cand", || {
            sut::k_select_candidates(&discount, &band, &candidates)
        });
        self.put("operators.select_cand_rows_per_s", rate(candidates.len(), s));

        let (s, price_f) = self.timed("operators", "fetch", || sut::k_fetch(&price, &candidates));
        self.put("operators.fetch_rows_per_s", rate(candidates.len(), s));
        let discount_f = sut::k_fetch(&discount, &candidates);

        let (s, revenue) = self.timed("operators", "calc", || sut::k_mul(&price_f, &discount_f));
        self.put("operators.calc_rows_per_s", rate(revenue.len(), s));

        let (s, total) = self.timed("operators", "scalar_agg", || sut::k_sum(&revenue));
        self.put("operators.scalar_agg_rows_per_s", rate(revenue.len(), s));
        // The kernels chained by hand must agree with a plain loop.
        let by_hand: i64 = {
            let (p, d) = (price.i64_values().unwrap(), discount.i64_values().unwrap());
            candidates.iter().map(|&o| p[o as usize].wrapping_mul(d[o as usize])).sum()
        };
        self.check(total == by_hand);

        let (priority, totalprice) =
            (col("orders", "o_orderpriority"), col("orders", "o_totalprice"));
        let (s, groups) =
            self.timed("operators", "grouped_agg", || sut::k_grouped_sum(&priority, &totalprice));
        self.put("operators.grouped_agg_rows_per_s", rate(priority.len(), s));
        self.check(groups == 5);

        let p_partkey = col("part", "p_partkey");
        let (s, table) = self.timed("operators", "hash_build", || sut::k_hash_build(&p_partkey));
        self.put("operators.hash_build_rows_per_s", rate(p_partkey.len(), s));

        let (s, pairs) =
            self.timed("operators", "hash_probe", || sut::k_hash_probe(&table, &partkey));
        self.put("operators.hash_probe_rows_per_s", rate(partkey.len(), s));
        // Every lineitem references exactly one part.
        self.check(pairs == partkey.len());

        let eighth = price.len().div_ceil(8);
        let parts: Vec<sut::Column> = (0..8)
            .map(|i| (i * eighth).min(price.len()))
            .map(|start| sut::window(&price, start, eighth.min(price.len() - start)))
            .collect();
        let (s, packed) = self.timed("operators", "pack", || sut::k_pack(&parts));
        self.put("operators.pack_rows_per_s", rate(price.len(), s));
        self.check(packed.len() == price.len());
    }

    /// Interpreter → operator-at-a-time → fused morsels → parallel morsels:
    /// the same seven plans on each rung, every output compared with the
    /// interpreter's.
    fn engine_rungs(&mut self, plans: &[Arc<Plan>]) {
        let workers = self.env.workers;
        let (serial_ms, expected) = self.interpreter_rung(plans);
        let serial = geomean(&serial_ms);
        self.put("interpreter.serial_geomean_ms", serial);

        let oat = self.engine_pass(Runtime::OperatorAtATime, 1, plans, &expected);
        let oat_w1 = geomean(&oat.median_ms);
        self.put("executor.oat_w1_geomean_ms", oat_w1);
        self.put("executor.oat_overhead_ratio", oat_w1 / serial);
        self.put("executor.profile_gap_ratio", median(&oat.profile_gaps));

        let fused = self.engine_pass(Runtime::MorselStealing, 1, plans, &expected);
        let morsel_w1 = geomean(&fused.median_ms);
        self.put("pipeline.morsel_w1_geomean_ms", morsel_w1);
        self.put("pipeline.fusion_gain_ratio", oat_w1 / morsel_w1);
        self.put("pipeline.morsels_per_pass", fused.morsels as f64);
        self.put("pipeline.fused_groupagg_pipelines", fused.fused_groupagg as f64);
        self.put("columnar.typed_cache_hits_per_pass", fused.typed_hits as f64);

        let stealing = self.engine_pass(Runtime::MorselStealing, workers, plans, &expected);
        let morsel_ww = geomean(&stealing.median_ms);
        self.put("scheduler.parallel_efficiency", morsel_w1 / (workers as f64 * morsel_ww));
        self.put("scheduler.tasks_per_pass", stealing.scheduler.tasks as f64);
        self.put("scheduler.steals_per_pass", stealing.scheduler.steals as f64);
        self.put(
            "scheduler.locality",
            stealing.scheduler.local_hits as f64 / (stealing.scheduler.tasks as f64).max(1.0),
        );
        self.put(
            "executor.busy_ratio",
            stealing.cpu_us as f64 / (workers as f64 * stealing.wall_us as f64).max(1.0),
        );
        let global = self.engine_pass(Runtime::MorselGlobal, workers, plans, &expected);
        self.put("scheduler.stealing_vs_global_ratio", geomean(&global.median_ms) / morsel_ww);
    }

    /// Every plan evaluated node by node on this thread: the no-scheduler
    /// floor, and the shares of it each operator family holds.
    fn interpreter_rung(&mut self, plans: &[Arc<Plan>]) -> (Vec<f64>, Vec<QueryOutput>) {
        const FAMILIES: [(&str, &[&str]); 6] = [
            ("interpreter.share.select", &["select", "predmask"]),
            (
                "interpreter.share.join",
                &["join", "semijoin", "antijoin", "hashbuild", "projectside"],
            ),
            ("interpreter.share.calc", &["calc", "calcscalar", "ifthenelse"]),
            ("interpreter.share.fetch", &["fetch"]),
            ("interpreter.share.agg", &["aggregate", "finalizeagg", "groupby", "mergegroup"]),
            ("interpreter.share.other", &[]),
        ];
        let mut family_ns = [0u64; 6];
        let (mut medians, mut outputs) = (Vec::new(), Vec::new());
        for plan in plans {
            let mut totals = Vec::with_capacity(REPS);
            let mut output = None;
            for _ in 0..REPS {
                let (span, start) = (self.log.id(), Instant::now());
                let log = &mut *self.log;
                let result = sut::interpret(plan, self.catalog, |family, from, to| {
                    let id = log.id();
                    log.record(id, span, "interpreter", "node", 0, from, to);
                    let slot = FAMILIES.iter().position(|(_, names)| names.contains(&family));
                    family_ns[slot.unwrap_or(5)] += (to - from).as_nanos() as u64;
                });
                let end = Instant::now();
                self.log.record(span, 0, "interpreter", "plan", 0, start, end);
                totals.push((end - start).as_secs_f64() * 1e3);
                output = Some(result.expect("interpreter evaluates every TPC-H plan"));
            }
            medians.push(median(&totals));
            outputs.push(output.expect("REPS is positive"));
        }
        let all: u64 = family_ns.iter().sum();
        for ((name, _), ns) in FAMILIES.iter().zip(family_ns) {
            self.put(name, ns as f64 / all.max(1) as f64);
        }
        (medians, outputs)
    }

    fn engine_pass(
        &mut self,
        runtime: Runtime,
        workers: usize,
        plans: &[Arc<Plan>],
        expected: &[QueryOutput],
    ) -> EnginePass {
        let engine = sut::engine(runtime, workers);
        let mut times = vec![Vec::with_capacity(REPS); plans.len()];
        let mut pass = EnginePass {
            median_ms: Vec::new(),
            profile_gaps: Vec::new(),
            cpu_us: 0,
            wall_us: 0,
            morsels: 0,
            fused_groupagg: 0,
            typed_hits: 0,
            scheduler: sut::SchedulerCounters::default(),
        };
        for rep in 0..REPS {
            // Counts come from the last, warm pass; on one worker they
            // repeat exactly.
            let last = rep == REPS - 1;
            let before = (sut::scheduler_counters(&engine), sut::typed_cache_hit_count());
            for (shape, plan) in plans.iter().enumerate() {
                let (span, start) = (self.log.id(), Instant::now());
                let result = sut::execute(&engine, plan, self.catalog);
                let end = Instant::now();
                self.log.record(span, 0, "engine", "execute", 0, start, end);
                times[shape].push((end - start).as_secs_f64() * 1e3);
                let Ok(run) = result else {
                    self.check(false);
                    continue;
                };
                self.check(run.output == expected[shape]);
                pass.profile_gaps.push(-run.wall_excess_ratio(end - start));
                pass.cpu_us += run.facts.cpu_us;
                pass.wall_us += (end - start).as_micros() as u64;
                if last {
                    pass.morsels += run.facts.morsels;
                    pass.fused_groupagg += run.facts.fused_groupagg;
                }
            }
            if last {
                let after = sut::scheduler_counters(&engine);
                pass.scheduler = sut::SchedulerCounters {
                    tasks: after.tasks - before.0.tasks,
                    steals: after.steals - before.0.steals,
                    local_hits: after.local_hits - before.0.local_hits,
                };
                pass.typed_hits = sut::typed_cache_hit_count() - before.1;
            }
        }
        pass.median_ms = times.iter().map(|t| median(t)).collect();
        pass
    }

    /// What the service adds to an execution, what a cache hit costs, and
    /// what shared scans buy on a short dashboard burst.
    fn service_rungs(&mut self, plans: &[Arc<Plan>]) {
        let (workers, catalog) = (self.env.workers, self.catalog);
        // Q14 (shape 4): the cheapest shape, so the service's share is largest.
        let plan = &plans[4];
        let bare = sut::service(workers, catalog, 0, 0, false);
        let session = bare.connect();
        let engine = sut::engine(Runtime::MorselStealing, workers);
        let reps = if self.smoke { 5 } else { 15 };
        let (mut via_service, mut direct) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let (span, start) = (self.log.id(), Instant::now());
            let served = sut::submit(&session, plan);
            let end = Instant::now();
            self.log.record(span, 0, "service", "submit", 0, start, end);
            via_service.push((end - start).as_secs_f64() * 1e6);

            let (span, start) = (self.log.id(), Instant::now());
            let run = sut::execute(&engine, plan, catalog);
            let end = Instant::now();
            self.log.record(span, 0, "engine", "execute", 0, start, end);
            direct.push((end - start).as_secs_f64() * 1e6);
            self.check(matches!((&served, &run), (Ok(s), Ok(r)) if s.output == r.output));
        }
        self.put("service.overhead_us", median(&via_service) - median(&direct));

        let cached = sut::service(
            workers,
            catalog,
            sut::default_result_cache(),
            sut::default_plan_cache(),
            false,
        );
        let session = cached.connect();
        let first = sut::submit(&session, plan).expect("first submission executes");
        let hits = if self.smoke { 1_000 } else { 10_000 };
        let (span, start) = (self.log.id(), Instant::now());
        let mut all_hits = true;
        for _ in 0..hits {
            let served = sut::submit(&session, plan).expect("repeat submission is served");
            all_hits &= served.result_cache_hit && served.output == first.output;
        }
        let end = Instant::now();
        self.log.record(span, 0, "service", "hit_loop", 0, start, end);
        self.check(all_hits);
        self.put("service.hit_latency_us", (end - start).as_secs_f64() * 1e6 / hits as f64);

        let burst = if self.smoke { 48 } else { 150 };
        let (on, off, invalidate_us, failed) = sharing_rung(self.env, catalog, burst);
        self.attempted += 6 * burst as u64;
        self.failed += failed;
        self.put("sharing.on_vs_off_qps_ratio", on / off.max(1e-9));
        self.put("service.invalidate_us", invalidate_us);
    }

    /// One episode-set of the adaptive optimizer against the serial and the
    /// heuristically parallelized plan, plus the cost of the plan rewrites.
    fn core_rungs(&mut self) {
        let (workers, catalog) = (self.env.workers, self.catalog);
        let engine = sut::engine(Runtime::OperatorAtATime, workers);
        let (mut heuristic_us, mut mutate_us) = (Vec::new(), Vec::new());
        let (mut runs, mut nodes, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
        let (mut vs_serial, mut vs_heuristic) = (Vec::new(), Vec::new());
        let mut converge_s = 0.0;
        for shape in ["Q6", "Q14", "Q8", "Q19"] {
            let serial = Arc::new(sut::build_tpch(catalog, shape));
            let (s, heuristic) =
                self.timed("baselines", "heuristic", || sut::heuristic(&serial, catalog, workers));
            heuristic_us.push(s * 1e6);
            let heuristic = Arc::new(heuristic);

            let profiled = sut::execute(&engine, &serial, catalog).expect("serial plan executes");
            let (s, _) = self.timed("core", "mutate", || {
                let mut plan = Plan::clone(&serial);
                sut::mutate_once(&mut plan, &profiled, workers)
            });
            mutate_us.push(s * 1e6);

            let (span, start) = (self.log.id(), Instant::now());
            let mut exec_us = 0;
            let converged = sut::optimize(&engine, catalog, &serial, workers, |us| exec_us += us)
                .expect("adaptive optimization converges");
            let end = Instant::now();
            self.log.record(span, 0, "core", "optimize", 0, start, end);
            let wall = (end - start).as_secs_f64();
            converge_s += wall;
            overheads.push((wall - exec_us as f64 / 1e6).max(0.0) / wall);
            runs.push(converged.runs as f64);
            nodes.push(sut::node_count(&converged.best_plan) as f64);
            self.check(converged.output == profiled.output);

            let best = Arc::new(converged.best_plan);
            let mut ms = [Vec::new(), Vec::new(), Vec::new()];
            for _ in 0..REPS {
                for (slot, plan) in [&best, &serial, &heuristic].into_iter().enumerate() {
                    let start = Instant::now();
                    let run = sut::execute(&engine, plan, catalog);
                    ms[slot].push(start.elapsed().as_secs_f64() * 1e3);
                    self.check(run.is_ok_and(|r| r.output == profiled.output));
                }
            }
            vs_serial.push(median(&ms[1]) / median(&ms[0]));
            vs_heuristic.push(median(&ms[2]) / median(&ms[0]));
        }
        self.put("core.converge_s", converge_s);
        self.put("core.speedup_vs_serial", geomean(&vs_serial));
        self.put("core.runs_per_episode", runs.iter().sum::<f64>() / runs.len() as f64);
        self.put("core.optimizer_overhead_ratio", median(&overheads));
        self.put("core.mutate_us", median(&mutate_us));
        self.put("core.best_plan_nodes", nodes.iter().sum::<f64>() / nodes.len() as f64);
        self.put("core.speedup_vs_heuristic", geomean(&vs_heuristic));
        self.put("baselines.heuristic_plan_us", median(&heuristic_us));
    }
}
