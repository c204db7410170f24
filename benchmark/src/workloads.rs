//! The four workloads. Each is set up once (data, engine or service, plans,
//! reference outputs) and then driven one *round* at a time; a round is a
//! fixed amount of work drawn from the seed, so rounds of one run — and runs
//! of different commits — do the same operations. All loops are closed: a
//! client submits its next query when the previous one returned.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::oracle;
use crate::schedule::{balanced_blocks, zipf_cdf, zipf_systematic, Rng};
use crate::stats::{geomean, median};
use crate::sut::{self, Catalog, Plan, QueryOutput, QueryService, Runtime, Session};
use crate::trace::Log;

/// The mix of the service workloads: 17–55 ms alone at sf 1, so latency
/// percentiles describe one population.
const SERVICE_SHAPES: [&str; 4] = ["Q6", "Q14", "Q8", "Q19"];

/// Distinct `q06_with_quantity` plans behind the dashboard: twice the
/// service's default result cache.
const DASHBOARD_PLANS: usize = 256;

/// Sizing shared by all workloads, recorded in every output file.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    pub workers: usize,
    pub clients: usize,
    pub sf: f64,
    pub seed: u64,
    pub rounds: usize,
    /// Work units per measured round (see [`units_per_round`]).
    pub units: usize,
}

impl Env {
    /// The warm-up round is a sixth of a measured one: enough to touch every
    /// plan and fault the data in, cheap enough to repeat with each set-up.
    pub fn warm_up_units(&self) -> usize {
        (self.units / 6).max(1)
    }
}

/// Work per round. The base counts fill a 3 s round on the 2-core reference
/// box (`--seconds 15`, five rounds); other `--seconds` scale them linearly,
/// `--smoke` uses the smallest count that still exercises every path.
pub fn units_per_round(workload: &str, seconds: f64, smoke: bool) -> usize {
    let (base, smoke_units) = match workload {
        "tpch_isolated" => (6, 1),        // passes over the seven shapes
        "tpch_concurrent" => (12, 2),     // blocks of 8 submissions
        "adaptive_convergence" => (4, 1), // episode-sets
        "dashboard_repeat" => (240, 96),  // submissions
        other => panic!("unknown workload {other}"),
    };
    if smoke {
        smoke_units
    } else {
        ((base as f64 * seconds / 15.0).round() as usize).max(1)
    }
}

/// Operations one round attempts, for the environment block.
pub fn operations_per_round(workload: &str, units: usize) -> String {
    match workload {
        "tpch_isolated" => format!("{} queries ({units} passes x 7 shapes)", units * 7),
        "tpch_concurrent" => format!("{} submissions ({units} blocks x 8)", units * 8),
        "adaptive_convergence" => {
            format!(
                "{} episodes + {} re-timings ({units} episode-sets)",
                units * 4,
                units * 4 * 2 * RETIMINGS
            )
        }
        _ => format!("{units} submissions + 1 invalidation"),
    }
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// `throughput_qps` is `ops / seconds`.
    pub ops: f64,
    pub seconds: f64,
    /// Client-observed latency of every operation, ms (`latency_p90_ms`).
    pub latencies: Vec<f64>,
    /// `(shape, ms)` of the operations behind `latency_geomean_ms`.
    pub shape_latencies: Vec<(usize, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub facts: Facts,
}

/// Counters and ratios read from what the calls of one round returned.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Facts {
    pub queue_wait_share: f64,
    pub mean_admit_dop: f64,
    pub plan_cache_hit_ratio: f64,
    pub result_cache_hit_ratio: f64,
    pub shed: f64,
    pub timed_out: f64,
    pub shared_morsel_ratio: f64,
    pub partials_reused: f64,
    /// Worst `(profile.wall_time − externally timed wall) / external wall`.
    pub wall_excess_ratio: f64,
    /// Adaptive workload only: median wall time of one episode-set.
    pub converge_s: f64,
    pub speedup_vs_serial: f64,
    pub runs_per_episode: f64,
}

impl Round {
    /// Geometric mean over shapes of the shape's median latency.
    pub fn latency_geomean_ms(&self) -> f64 {
        let shapes = self.shape_latencies.iter().map(|(s, _)| *s).max().map_or(0, |m| m + 1);
        let medians: Vec<f64> = (0..shapes)
            .map(|shape| {
                let of_shape: Vec<f64> = self
                    .shape_latencies
                    .iter()
                    .filter(|(s, _)| *s == shape)
                    .map(|(_, ms)| *ms)
                    .collect();
                median(&of_shape)
            })
            .filter(|m| *m > 0.0)
            .collect();
        geomean(&medians)
    }
}

pub trait Workload {
    /// Runs round `index` (0 is the warm-up) over `units` work units (see
    /// [`units_per_round`]); `logs` holds one span log per client thread.
    fn round(&mut self, index: usize, units: usize, logs: &mut [Log]) -> Round;
}

/// What set-up measured on its way.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupFacts {
    pub datagen_s: f64,
    pub rows: usize,
}

/// Generates the data and builds the workload: engine or service, plans and
/// reference outputs. Panics if the system under test disagrees with itself
/// or the oracle already here — nothing measured on top would mean anything.
pub fn setup(name: &str, env: &Env) -> (Box<dyn Workload>, Arc<Catalog>, SetupFacts) {
    let started = Instant::now();
    let catalog = sut::generate(env.sf, env.seed);
    let facts =
        SetupFacts { datagen_s: started.elapsed().as_secs_f64(), rows: sut::total_rows(&catalog) };
    let workload: Box<dyn Workload> = match name {
        "tpch_isolated" => Box::new(Isolated::new(env, &catalog)),
        "tpch_concurrent" => Box::new(Concurrent::new(env, &catalog)),
        "adaptive_convergence" => Box::new(Adaptive::new(env, &catalog)),
        "dashboard_repeat" => Box::new(Dashboard::new(env, &catalog)),
        other => panic!("unknown workload {other}"),
    };
    (workload, catalog, facts)
}

/// Reference output of each plan: a one-worker operator-at-a-time engine.
fn reference_outputs(catalog: &Arc<Catalog>, plans: &[Arc<Plan>]) -> Vec<QueryOutput> {
    let engine = sut::engine(Runtime::OperatorAtATime, 1);
    plans
        .iter()
        .map(|plan| sut::execute(&engine, plan, catalog).expect("reference execution").output)
        .collect()
}

fn tpch_plans(catalog: &Catalog, shapes: &[&str]) -> Vec<Arc<Plan>> {
    shapes.iter().map(|shape| Arc::new(sut::build_tpch(catalog, shape))).collect()
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Operation ids are unique per run: round in the high digits.
fn op_id(round: usize, index: usize) -> u64 {
    (round * 1_000_000 + index) as u64
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

// -------------------------------------------------------- tpch_isolated

/// One client calling the engine directly: kernels, pipeline fusion and
/// intra-query scheduling do the work; service, caches and sharing do none.
struct Isolated {
    env: Env,
    catalog: Arc<Catalog>,
    engine: sut::Engine,
    plans: Vec<Arc<Plan>>,
    expected: Vec<QueryOutput>,
}

impl Isolated {
    fn new(env: &Env, catalog: &Arc<Catalog>) -> Self {
        let plans = tpch_plans(catalog, &sut::TPCH_SHAPES);
        let expected = reference_outputs(catalog, &plans);
        Isolated {
            env: env.clone(),
            catalog: Arc::clone(catalog),
            engine: sut::engine(Runtime::MorselStealing, env.workers),
            plans,
            expected,
        }
    }
}

impl Workload for Isolated {
    fn round(&mut self, index: usize, units: usize, logs: &mut [Log]) -> Round {
        let log = &mut logs[0];
        let mut rng = Rng::new(self.env.seed, index as u64);
        let order = balanced_blocks(&mut rng, self.plans.len(), 1, units);
        let mut round = Round::default();
        let (mut wait_us, mut cpu_us) = (0, 0);
        let started = Instant::now();
        for (i, &shape) in order.iter().enumerate() {
            let (span, start) = (log.id(), Instant::now());
            let result = sut::execute(&self.engine, &self.plans[shape], &self.catalog);
            let end = Instant::now();
            log.record(span, 0, "engine", "execute", op_id(index, i), start, end);
            round.attempted += 1;
            match result {
                Ok(run) if run.output == self.expected[shape] => {
                    run.import_spans(log, span, log.ns(start), op_id(index, i), false);
                    wait_us += run.facts.queue_wait_us;
                    cpu_us += run.facts.cpu_us;
                    round.facts.wall_excess_ratio =
                        round.facts.wall_excess_ratio.max(run.wall_excess_ratio(end - start));
                }
                _ => round.failed += 1,
            }
            round.latencies.push(ms(end - start));
            round.shape_latencies.push((shape, ms(end - start)));
        }
        round.seconds = started.elapsed().as_secs_f64();
        round.ops = order.len() as f64;
        round.facts.queue_wait_share = ratio(wait_us, wait_us + cpu_us);
        round
    }
}

// ------------------------------------------- service clients (shared)

/// One answered (or failed) submission, as its client saw it.
struct Answer {
    key: usize,
    ms: f64,
    ok: bool,
    /// Profile facts and wall-time excess of the execution behind the
    /// answer; `None` for a result-cache hit or a failure.
    run: Option<(sut::ProfileFacts, f64)>,
}

/// Closed-loop clients: each session's thread takes the next entry of the
/// shared schedule when its previous submission returned.
fn drive_clients(
    sessions: &[Session],
    plans: &[Plan],
    expected: &[QueryOutput],
    schedule: &[usize],
    round: usize,
    logs: &mut [Log],
) -> Vec<Answer> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .zip(logs.iter_mut())
            .map(|(session, log)| {
                let next = &next;
                scope.spawn(move || {
                    let mut answers = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&key) = schedule.get(i) else { break };
                        let (span, start) = (log.id(), Instant::now());
                        let served = sut::submit(session, &plans[key]);
                        let end = Instant::now();
                        log.record(span, 0, "service", "submit", op_id(round, i), start, end);
                        let ok = served.as_ref().is_ok_and(|s| s.output == expected[key]);
                        let run = served.ok().and_then(|s| s.executed).filter(|_| ok).map(|run| {
                            run.import_spans(log, span, log.ns(start), op_id(round, i), true);
                            (run.facts, run.wall_excess_ratio(end - start))
                        });
                        answers.push(Answer { key, ms: ms(end - start), ok, run });
                    }
                    answers
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// Folds the clients' answers and the service's counter deltas into a round;
/// `shape_of` maps a plan index to its shape.
fn service_round(
    answers: Vec<Answer>,
    shape_of: impl Fn(usize) -> usize,
    seconds: f64,
    before: sut::ServiceStats,
    after: sut::ServiceStats,
) -> Round {
    let runs: Vec<&(sut::ProfileFacts, f64)> =
        answers.iter().filter_map(|a| a.run.as_ref()).collect();
    let sum =
        |f: &dyn Fn(&sut::ProfileFacts) -> u64| runs.iter().map(|(facts, _)| f(facts)).sum::<u64>();
    let (wait_us, cpu_us) = (sum(&|f| f.queue_wait_us), sum(&|f| f.cpu_us));
    let lookups = (after.result_cache_hits + after.result_cache_misses)
        - (before.result_cache_hits + before.result_cache_misses);
    let plan_lookups = (after.plan_cache_hits + after.plan_cache_misses)
        - (before.plan_cache_hits + before.plan_cache_misses);
    Round {
        ops: answers.len() as f64,
        seconds,
        attempted: answers.len() as u64,
        // A shed or timed-out submission already failed its client; the
        // service's own counts are reported beside that, not added to it.
        failed: answers.iter().filter(|a| !a.ok).count() as u64,
        facts: Facts {
            queue_wait_share: ratio(wait_us, wait_us + cpu_us),
            mean_admit_dop: ratio(sum(&|f| f.admit_dop as u64), runs.len() as u64),
            plan_cache_hit_ratio: ratio(
                after.plan_cache_hits - before.plan_cache_hits,
                plan_lookups,
            ),
            result_cache_hit_ratio: ratio(
                after.result_cache_hits - before.result_cache_hits,
                lookups,
            ),
            shed: (after.shed - before.shed) as f64,
            timed_out: (after.timed_out - before.timed_out) as f64,
            shared_morsel_ratio: ratio(sum(&|f| f.shared_morsels), sum(&|f| f.morsels as u64)),
            partials_reused: (after.partials_reused - before.partials_reused) as f64,
            wall_excess_ratio: runs.iter().map(|(_, excess)| *excess).fold(0.0, f64::max),
            ..Facts::default()
        },
        latencies: answers.iter().map(|a| a.ms).collect(),
        shape_latencies: answers
            .iter()
            .filter(|a| a.run.is_some())
            .map(|a| (shape_of(a.key), a.ms))
            .collect(),
    }
}

// ------------------------------------------------------ tpch_concurrent

/// The paper's motivating case: concurrent clients on one engine, result
/// cache off so every query executes. Admission's DOP split, per-session
/// FIFO, inter-query scheduling and service overhead carry the difference
/// to `tpch_isolated`.
struct Concurrent {
    env: Env,
    service: QueryService,
    sessions: Vec<Session>,
    plans: Vec<Plan>,
    expected: Vec<QueryOutput>,
}

impl Concurrent {
    fn new(env: &Env, catalog: &Arc<Catalog>) -> Self {
        let shared = tpch_plans(catalog, &SERVICE_SHAPES);
        let expected = reference_outputs(catalog, &shared);
        let service = sut::service(env.workers, catalog, 0, sut::default_plan_cache(), false);
        Concurrent {
            env: env.clone(),
            sessions: (0..env.clients).map(|_| service.connect()).collect(),
            service,
            plans: shared.iter().map(|p| Plan::clone(p)).collect(),
            expected,
        }
    }
}

impl Workload for Concurrent {
    fn round(&mut self, index: usize, units: usize, logs: &mut [Log]) -> Round {
        let mut rng = Rng::new(self.env.seed, index as u64);
        let schedule = balanced_blocks(&mut rng, self.plans.len(), 2, units);
        let before = self.service.stats();
        let started = Instant::now();
        let answers =
            drive_clients(&self.sessions, &self.plans, &self.expected, &schedule, index, logs);
        let seconds = started.elapsed().as_secs_f64();
        service_round(answers, |key| key, seconds, before, self.service.stats())
    }
}

// ----------------------------------------------------- dashboard_repeat

/// Repeated dashboard queries over a pool twice the result cache, Zipf
/// popularity, one write (table invalidation) per round: result and plan
/// caches, sharing and invalidation do most of the work, kernels run only on
/// misses.
struct Dashboard {
    env: Env,
    service: QueryService,
    sessions: Vec<Session>,
    plans: Vec<Plan>,
    /// What the oracle expects of each plan.
    expected: Vec<QueryOutput>,
    popularity: Vec<f64>,
}

impl Dashboard {
    fn new(env: &Env, catalog: &Arc<Catalog>) -> Self {
        Dashboard::with_sharing(env, catalog, true)
    }

    fn with_sharing(env: &Env, catalog: &Arc<Catalog>, shared_scans: bool) -> Self {
        let plans: Vec<Plan> =
            (1..=DASHBOARD_PLANS).map(|t| sut::build_q06_variant(catalog, t as i64)).collect();
        let expected: Vec<QueryOutput> =
            oracle::q06_family(catalog, DASHBOARD_PLANS).into_iter().map(sut::scalar_i64).collect();
        // The oracle and the reference engine must agree before the oracle
        // stands in for it: the standard Q6 and the ends of the family.
        let probes = [24, 1, DASHBOARD_PLANS / 2, DASHBOARD_PLANS];
        let probe_plans: Vec<Arc<Plan>> =
            probes.iter().map(|t| Arc::new(plans[t - 1].clone())).collect();
        for (t, output) in probes.iter().zip(reference_outputs(catalog, &probe_plans)) {
            assert_eq!(
                output,
                expected[t - 1],
                "oracle and reference engine disagree on q06_with_quantity({t})"
            );
        }
        let service = sut::service(
            env.workers,
            catalog,
            sut::default_result_cache(),
            sut::default_plan_cache(),
            shared_scans,
        );
        Dashboard {
            env: env.clone(),
            sessions: (0..env.clients).map(|_| service.connect()).collect(),
            service,
            plans,
            expected,
            popularity: zipf_cdf(DASHBOARD_PLANS, 1.0),
        }
    }

    /// One invalidation, then `n` submissions; returns the round and the
    /// invalidation's duration.
    fn burst(&mut self, index: usize, n: usize, logs: &mut [Log]) -> (Round, Duration) {
        let mut rng = Rng::new(self.env.seed, index as u64);
        let schedule = zipf_systematic(&mut rng, &self.popularity, n);
        let before = self.service.stats();
        let started = Instant::now();
        let span = logs[0].id();
        self.service.invalidate_table("lineitem");
        let invalidated = Instant::now();
        logs[0].record(span, 0, "service", "invalidate", op_id(index, n), started, invalidated);
        let answers =
            drive_clients(&self.sessions, &self.plans, &self.expected, &schedule, index, logs);
        let seconds = started.elapsed().as_secs_f64();
        // One shape: every plan is a Q6 variant.
        let mut round = service_round(answers, |_| 0, seconds, before, self.service.stats());
        round.attempted += 1; // the invalidation
        (round, invalidated - started)
    }
}

impl Workload for Dashboard {
    fn round(&mut self, index: usize, units: usize, logs: &mut [Log]) -> Round {
        self.burst(index, units, logs).0
    }
}

/// Ladder rung: the same short dashboard burst with shared scans on and
/// off. Returns `(qps on, qps off, median invalidation µs, failures)`.
pub fn sharing_rung(env: &Env, catalog: &Arc<Catalog>, n: usize) -> (f64, f64, f64, u64) {
    let mut qps = [Vec::new(), Vec::new()];
    let mut invalidations = Vec::new();
    let mut failed = 0;
    for (slot, shared_scans) in [(0, true), (1, false)] {
        let mut dashboard = Dashboard::with_sharing(env, catalog, shared_scans);
        let mut logs: Vec<Log> = (0..env.clients).map(|_| Log::off()).collect();
        // Burst 0 fills the plan cache; bursts 1 and 2 are measured.
        for index in 0..3 {
            let (round, invalidation) = dashboard.burst(index, n, &mut logs);
            failed += round.failed;
            if index > 0 {
                qps[slot].push(round.ops / round.seconds);
                invalidations.push(invalidation.as_secs_f64() * 1e6);
            }
        }
    }
    (median(&qps[0]), median(&qps[1]), median(&invalidations), failed)
}

// ------------------------------------------------- adaptive_convergence

/// The paper's core loop on the paper's execution model: from the serial
/// plan to the converged one, operator at a time, hundreds of small
/// partitioned operators — no pipelines, service or caches.
struct Adaptive {
    env: Env,
    catalog: Arc<Catalog>,
    engine: sut::Engine,
    serial: Vec<Arc<Plan>>,
    expected: Vec<QueryOutput>,
}

/// Alternating re-timings of the best and the serial plan per episode.
const RETIMINGS: usize = 3;

impl Adaptive {
    fn new(env: &Env, catalog: &Arc<Catalog>) -> Self {
        let serial = tpch_plans(catalog, &SERVICE_SHAPES);
        let expected = reference_outputs(catalog, &serial);
        Adaptive {
            env: env.clone(),
            catalog: Arc::clone(catalog),
            engine: sut::engine(Runtime::OperatorAtATime, env.workers),
            serial,
            expected,
        }
    }
}

impl Workload for Adaptive {
    fn round(&mut self, index: usize, units: usize, logs: &mut [Log]) -> Round {
        let log = &mut logs[0];
        let mut round = Round::default();
        let shapes = self.serial.len();
        let mut set_seconds = Vec::new();
        let (mut best_ms, mut serial_ms) = (vec![Vec::new(); shapes], vec![Vec::new(); shapes]);
        let mut runs = 0;
        for set in 0..units {
            let mut set_time = Duration::ZERO;
            for shape in 0..shapes {
                let op = op_id(index, set * shapes + shape);
                // The user's view of convergence: one invocation per run,
                // mutation time included, timed at the observer callback.
                let (span, start) = (log.id(), Instant::now());
                let mut previous = start;
                let latencies = &mut round.latencies;
                let converged = sut::optimize(
                    &self.engine,
                    &self.catalog,
                    &self.serial[shape],
                    self.env.workers,
                    |exec_us| {
                        let now = Instant::now();
                        latencies.push(ms(now - previous));
                        previous = now;
                        let end_ns = log.ns(now);
                        log.import(
                            span,
                            "engine",
                            "query",
                            op,
                            end_ns.saturating_sub(exec_us * 1_000),
                            end_ns,
                            0,
                        );
                    },
                );
                let end = Instant::now();
                log.record(span, 0, "core", "optimize", op, start, end);
                set_time += end - start;
                round.ops += 1.0;
                let Ok(converged) = converged else {
                    round.attempted += 1;
                    round.failed += 1;
                    continue;
                };
                runs += converged.runs;
                round.attempted += converged.runs as u64;
                if converged.output != self.expected[shape] {
                    round.failed += 1;
                }

                let best = Arc::new(converged.best_plan);
                for _ in 0..RETIMINGS {
                    for (plan, times) in
                        [(&best, &mut best_ms[shape]), (&self.serial[shape], &mut serial_ms[shape])]
                    {
                        let (span, start) = (log.id(), Instant::now());
                        let result = sut::execute(&self.engine, plan, &self.catalog);
                        let end = Instant::now();
                        log.record(span, 0, "engine", "execute", op, start, end);
                        round.attempted += 1;
                        match result {
                            Ok(run) if run.output == self.expected[shape] => {
                                run.import_spans(log, span, log.ns(start), op, false);
                                round.facts.wall_excess_ratio = round
                                    .facts
                                    .wall_excess_ratio
                                    .max(run.wall_excess_ratio(end - start));
                            }
                            _ => round.failed += 1,
                        }
                        times.push(ms(end - start));
                    }
                }
            }
            set_seconds.push(set_time.as_secs_f64());
        }
        round.seconds = set_seconds.iter().sum();
        for (shape, times) in best_ms.iter().enumerate() {
            round.shape_latencies.extend(times.iter().map(|t| (shape, *t)));
        }
        let speedups: Vec<f64> = best_ms
            .iter()
            .zip(&serial_ms)
            .filter(|(best, _)| !best.is_empty())
            .map(|(best, serial)| median(serial) / median(best))
            .collect();
        round.facts.converge_s = median(&set_seconds);
        round.facts.speedup_vs_serial = geomean(&speedups);
        round.facts.runs_per_episode = runs as f64 / round.ops.max(1.0);
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_weighs_every_shape_the_same() {
        let round = Round {
            shape_latencies: vec![(0, 1.0), (0, 3.0), (0, 2.0), (2, 50.0), (2, 8.0), (2, 9.0)],
            ..Round::default()
        };
        // Medians 2 and 9; shape 1 has no samples and is left out.
        assert!((round.latency_geomean_ms() - 18f64.sqrt()).abs() < 1e-12);
        assert_eq!(Round::default().latency_geomean_ms(), 0.0);
    }

    #[test]
    fn units_scale_with_seconds_and_never_reach_zero() {
        assert_eq!(units_per_round("tpch_isolated", 15.0, false), 6);
        assert_eq!(units_per_round("tpch_isolated", 30.0, false), 12);
        assert_eq!(units_per_round("dashboard_repeat", 7.5, false), 120);
        assert_eq!(units_per_round("adaptive_convergence", 1.0, false), 1);
        assert_eq!(units_per_round("tpch_concurrent", 15.0, true), 2);
    }
}
