//! Service-layer benchmark: client churn through [`apq_engine::QueryService`]
//! session handles at thousands of sessions, plus a Fig. 16-style staged
//! departure experiment charting response time against the reservation-phase
//! DOP grants recorded in `QueryProfile::dop_timeline`.
//!
//! The `service` binary writes the results as `BENCH_service.json` at the
//! repository root. CI runs it in `--smoke` mode so the binary never rots;
//! real numbers come from the default (full) mode.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apq_engine::{
    DopPhase, EngineConfig, EngineError, ExecutionMode, FaultConfig, Plan, QueryService,
    SchedulerPolicy, ServiceConfig,
};
use apq_workloads::tpch::{self, TpchQuery, TpchScale};

/// Sizing knobs for one run.
#[derive(Debug, Clone, Copy)]
pub struct ServiceBenchConfig {
    /// Total sessions opened (and closed) by the churn section.
    pub sessions: usize,
    /// Submissions per session.
    pub queries_per_session: usize,
    /// Concurrent client threads driving the churn.
    pub churn_threads: usize,
    /// Clients in the first stage of the staged-departure experiment
    /// (halves every stage until one remains).
    pub departure_clients: usize,
    /// Submissions per client per departure stage.
    pub submissions_per_stage: usize,
    /// Worker threads in the engine pool.
    pub workers: usize,
    /// TPC-H scale factor.
    pub tpch_sf: f64,
    /// Sessions driving the overload experiment (mixed priorities).
    pub overload_sessions: usize,
    /// Concurrent submitters per overload session — everything past the
    /// first queues, so the census fills at `sessions × (threads − 1)`.
    pub overload_threads_per_session: usize,
    /// Submissions attempted per overload thread.
    pub overload_submissions: usize,
    /// Census bound for the bounded overload run (the unbounded run
    /// always uses 0 = unlimited).
    pub overload_max_queued: usize,
    /// Submissions in the fixed-seed chaos probe.
    pub chaos_submissions: usize,
    /// Concurrent sessions in the shared-scan experiment (all scanning the
    /// same tables).
    pub shared_scan_sessions: usize,
    /// Submissions per shared-scan session.
    pub shared_scan_submissions: usize,
    /// Label recorded in the JSON (`"full"` / `"smoke"`).
    pub mode: &'static str,
}

impl ServiceBenchConfig {
    /// Full-size run: thousands of sessions, produces the recorded numbers.
    pub fn full() -> Self {
        ServiceBenchConfig {
            sessions: 2_000,
            queries_per_session: 4,
            churn_threads: 8,
            departure_clients: 8,
            submissions_per_stage: 6,
            workers: 4,
            tpch_sf: 0.02,
            overload_sessions: 4,
            overload_threads_per_session: 3,
            overload_submissions: 24,
            overload_max_queued: 4,
            chaos_submissions: 32,
            shared_scan_sessions: 16,
            shared_scan_submissions: 4,
            mode: "full",
        }
    }

    /// Seconds-scale run for CI smoke and unit tests.
    pub fn smoke() -> Self {
        ServiceBenchConfig {
            sessions: 64,
            queries_per_session: 2,
            churn_threads: 4,
            departure_clients: 4,
            submissions_per_stage: 2,
            workers: 2,
            tpch_sf: 0.002,
            overload_sessions: 2,
            overload_threads_per_session: 3,
            overload_submissions: 6,
            overload_max_queued: 1,
            chaos_submissions: 8,
            shared_scan_sessions: 8,
            shared_scan_submissions: 2,
            mode: "smoke",
        }
    }
}

fn service(cfg: &ServiceBenchConfig) -> QueryService {
    QueryService::new(
        ServiceConfig::with_engine(
            EngineConfig::with_workers(cfg.workers)
                .with_scheduler(SchedulerPolicy::WorkStealing)
                .with_execution_mode(ExecutionMode::MorselDriven),
        ),
        tpch::generate(TpchScale::new(cfg.tpch_sf), 1234),
    )
}

fn query_mix(svc: &QueryService) -> Vec<Plan> {
    let catalog = svc.catalog();
    [TpchQuery::Q6, TpchQuery::Q14]
        .iter()
        .map(|q| q.build(&catalog).expect("TPC-H plan builds"))
        .collect()
}

struct ChurnReport {
    sessions: usize,
    queries: u64,
    elapsed_ms: f64,
    result_cache_hits: u64,
    result_cache_misses: u64,
    plan_cache_hits: u64,
}

/// Client churn: `cfg.churn_threads` clients open, use and close sessions
/// until `cfg.sessions` have passed through the service, all sharing the
/// plan/result caches and the unified admission census.
fn run_churn(cfg: &ServiceBenchConfig) -> ChurnReport {
    let svc = service(cfg);
    let plans = Arc::new(query_mix(&svc));
    let next_session = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let threads: Vec<_> = (0..cfg.churn_threads)
        .map(|_| {
            let svc = svc.clone();
            let plans = Arc::clone(&plans);
            let next_session = Arc::clone(&next_session);
            let total = cfg.sessions;
            let per_session = cfg.queries_per_session;
            std::thread::spawn(move || {
                while next_session.fetch_add(1, Ordering::Relaxed) < total {
                    let session = svc.connect();
                    for i in 0..per_session {
                        let plan = &plans[i % plans.len()];
                        session.submit(plan).expect("churn submission succeeds");
                    }
                    session.close();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("churn thread panicked");
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
    assert!(svc.engine().active_queries().is_empty(), "census must drain after churn");
    let stats = svc.stats();
    ChurnReport {
        sessions: cfg.sessions,
        queries: stats.queries,
        elapsed_ms,
        result_cache_hits: stats.result_cache_hits,
        result_cache_misses: stats.result_cache_misses,
        plan_cache_hits: stats.plan_cache_hits,
    }
}

struct StageReport {
    clients: usize,
    mean_response_ms: f64,
    mean_admit_dop: f64,
    regrants: u64,
}

/// Fig. 16-style staged departure: a cohort of clients submits concurrently,
/// then half depart, and the survivors submit again — repeated until one
/// client remains. Per stage we record the mean response time and the mean
/// reservation-phase DOP grant from `dop_timeline`, the series the unified
/// census is supposed to move together: fewer clients, larger grants,
/// shorter responses.
fn run_staged_departure(cfg: &ServiceBenchConfig) -> Vec<StageReport> {
    let svc = service(cfg);
    // The result cache would answer repeats instantly; this experiment
    // measures execution, so every submission must run.
    let plan = Arc::new(query_mix(&svc)[0].clone());
    let mut sessions: Vec<_> = (0..cfg.departure_clients.max(1)).map(|_| svc.connect()).collect();
    let mut stages = Vec::new();
    while !sessions.is_empty() {
        svc.invalidate_results();
        let threads: Vec<_> = sessions
            .iter()
            .map(|session| {
                let session = session.clone();
                let plan = Arc::clone(&plan);
                let reps = cfg.submissions_per_stage;
                std::thread::spawn(move || {
                    let mut response_ms = 0.0;
                    let mut admit_dop = 0usize;
                    let mut regrants = 0u64;
                    let mut executed = 0usize;
                    for _ in 0..reps {
                        let start = Instant::now();
                        let response = session.submit(&plan).expect("stage submission succeeds");
                        response_ms += start.elapsed().as_secs_f64() * 1_000.0;
                        if let Some(profile) = response.profile {
                            executed += 1;
                            admit_dop += profile
                                .dop_timeline
                                .iter()
                                .find(|e| e.phase == DopPhase::Reserve)
                                .map_or(0, |e| e.dop);
                            regrants += u64::from(profile.dop_was_regranted());
                        }
                    }
                    (response_ms, admit_dop, regrants, executed)
                })
            })
            .collect();
        let mut total_ms = 0.0;
        let mut total_dop = 0usize;
        let mut total_regrants = 0u64;
        let mut total_executed = 0usize;
        for t in threads {
            let (ms, dop, regrants, executed) = t.join().expect("stage thread panicked");
            total_ms += ms;
            total_dop += dop;
            total_regrants += regrants;
            total_executed += executed;
        }
        let submissions = (sessions.len() * cfg.submissions_per_stage).max(1);
        stages.push(StageReport {
            clients: sessions.len(),
            mean_response_ms: total_ms / submissions as f64,
            mean_admit_dop: total_dop as f64 / total_executed.max(1) as f64,
            regrants: total_regrants,
        });
        // Half the cohort departs (sessions close on drop).
        let survivors = sessions.len() / 2;
        sessions.truncate(survivors);
    }
    stages
}

struct OverloadReport {
    max_queued: usize,
    submissions: u64,
    completed: u64,
    shed: u64,
    timed_out: u64,
    mean_response_ms: f64,
    p99_response_ms: f64,
}

/// Overload experiment: the submission rate deliberately exceeds capacity
/// (every session has more concurrent submitters than turns, so the census
/// fills), run once with an unbounded queue and once with
/// `cfg.overload_max_queued`. The two rows contrast the trade the bound
/// buys: shed submissions in exchange for a flatter p99, instead of
/// everyone queueing behind everyone. Every 5th submission carries a tight
/// deadline so the queue wait itself consumes the budget — the `timed_out`
/// counter shows deadlines expiring *in the queue*, not in the engine.
fn run_overload(cfg: &ServiceBenchConfig, max_queued: usize) -> OverloadReport {
    // A fixed per-operator cost makes query runtime (and therefore queue
    // pressure) deterministic instead of scale-factor noise.
    let engine = EngineConfig::with_workers(cfg.workers)
        .with_scheduler(SchedulerPolicy::WorkStealing)
        .with_execution_mode(ExecutionMode::MorselDriven)
        .with_faults(FaultConfig::fixed_delay(300));
    let svc = QueryService::new(
        ServiceConfig::with_engine(engine).with_max_queued(max_queued),
        tpch::generate(TpchScale::new(cfg.tpch_sf), 1234),
    );
    let plans = Arc::new(query_mix(&svc));
    // Mixed priorities: under a bounded census the policy sheds the
    // lowest-priority waiters first, so the high-priority sessions keep
    // completing while the low ones absorb the Overloaded refusals.
    let sessions: Vec<_> = (0..cfg.overload_sessions.max(1))
        .map(|s| svc.connect_with_priority((s % 4) as u8))
        .collect();
    let threads: Vec<_> = sessions
        .iter()
        .flat_map(|session| {
            (0..cfg.overload_threads_per_session.max(1)).map(|_| {
                let session = session.clone();
                let svc = svc.clone();
                let plans = Arc::clone(&plans);
                let reps = cfg.overload_submissions;
                std::thread::spawn(move || {
                    let mut latencies = Vec::with_capacity(reps);
                    for i in 0..reps {
                        // The result cache would answer repeats instantly;
                        // overload needs every submission to execute.
                        svc.invalidate_results();
                        let plan = &plans[i % plans.len()];
                        let start = Instant::now();
                        let outcome = if i % 5 == 4 {
                            session.submit_with_deadline(plan, Duration::from_micros(200))
                        } else {
                            session.submit(plan)
                        };
                        match outcome {
                            Ok(_) => latencies.push(start.elapsed().as_secs_f64() * 1_000.0),
                            Err(EngineError::Overloaded { retry_after_hint }) => {
                                // Shed: honor (a capped version of) the hint
                                // before the next attempt.
                                std::thread::sleep(retry_after_hint.min(Duration::from_millis(2)));
                            }
                            Err(EngineError::DeadlineExceeded) => {}
                            Err(err) => panic!("unexpected overload outcome: {err}"),
                        }
                    }
                    latencies
                })
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    for t in threads {
        latencies.extend(t.join().expect("overload thread panicked"));
    }
    drop(sessions);
    assert!(svc.engine().active_queries().is_empty(), "census must drain after overload");
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let completed = latencies.len() as u64;
    let mean = latencies.iter().sum::<f64>() / (completed.max(1) as f64);
    let p99 = latencies
        .get(((latencies.len() as f64 * 0.99) as usize).min(latencies.len().saturating_sub(1)))
        .copied()
        .unwrap_or(0.0);
    let stats = svc.stats();
    OverloadReport {
        max_queued,
        submissions: (cfg.overload_sessions.max(1)
            * cfg.overload_threads_per_session.max(1)
            * cfg.overload_submissions) as u64,
        completed,
        shed: stats.shed,
        timed_out: stats.timed_out,
        mean_response_ms: mean,
        p99_response_ms: p99,
    }
}

struct ChaosReport {
    seed: u64,
    submissions: u64,
    ok: u64,
    failed: u64,
    faults_injected: u64,
}

/// Fixed-seed chaos probe: the same seed the CI chaos job pins, so the
/// bench record carries a reproducible row of how many submissions survive
/// the injected panics/cancels and how many faults actually fired.
fn run_chaos_probe(cfg: &ServiceBenchConfig) -> ChaosReport {
    // One seed from the tests/chaos_stress.rs matrix ([11, 42, 2016]).
    const SEED: u64 = 42;
    let svc = QueryService::new(
        ServiceConfig::with_engine(
            EngineConfig::with_workers(cfg.workers)
                .with_scheduler(SchedulerPolicy::WorkStealing)
                .with_execution_mode(ExecutionMode::MorselDriven)
                .with_faults(FaultConfig::chaos(SEED)),
        ),
        tpch::generate(TpchScale::new(cfg.tpch_sf), 1234),
    );
    let session = svc.connect();
    let plans = query_mix(&svc);
    let (mut ok, mut failed) = (0u64, 0u64);
    for i in 0..cfg.chaos_submissions {
        svc.invalidate_results();
        match session.submit(&plans[i % plans.len()]) {
            Ok(_) => ok += 1,
            Err(
                EngineError::Cancelled
                | EngineError::DeadlineExceeded
                | EngineError::WorkerPanicked(_),
            ) => failed += 1,
            Err(err) => panic!("unsanctioned chaos outcome: {err}"),
        }
    }
    assert!(svc.engine().active_queries().is_empty(), "census must drain after chaos");
    ChaosReport {
        seed: SEED,
        submissions: cfg.chaos_submissions as u64,
        ok,
        failed,
        faults_injected: svc.stats().faults_injected,
    }
}

struct SharedScanReport {
    sessions: usize,
    submissions: u64,
    off_elapsed_ms: f64,
    on_elapsed_ms: f64,
    scan_groups: u64,
    morsels_shared: u64,
    morsels_private: u64,
    partials_reused: u64,
}

/// Shared-scan experiment: `cfg.shared_scan_sessions` concurrent sessions
/// submit the same scan-heavy TPC-H mix against one service, once with the
/// work-sharing subsystem off and once with it on. The result cache is
/// disabled in both runs so every submission reaches the engine — the
/// contrast isolates cooperative scan windows and partial-aggregate reuse,
/// not result memoization. Outputs are asserted identical across the two
/// runs; the sharing run additionally reports the engine's sharing
/// counters.
fn run_shared_scan(cfg: &ServiceBenchConfig) -> SharedScanReport {
    let drive = |shared: bool| {
        let svc = QueryService::new(
            ServiceConfig::with_engine(
                EngineConfig::with_workers(cfg.workers)
                    .with_scheduler(SchedulerPolicy::WorkStealing)
                    .with_execution_mode(ExecutionMode::MorselDriven),
            )
            .with_shared_scans(shared)
            .with_result_cache_capacity(0),
            tpch::generate(TpchScale::new(cfg.tpch_sf), 1234),
        );
        let plans = Arc::new(query_mix(&svc));
        let start = Instant::now();
        let threads: Vec<_> = (0..cfg.shared_scan_sessions.max(1))
            .map(|s| {
                let svc = svc.clone();
                let plans = Arc::clone(&plans);
                let reps = cfg.shared_scan_submissions.max(1);
                std::thread::spawn(move || {
                    let session = svc.connect();
                    (0..reps)
                        .map(|i| {
                            session
                                .submit(&plans[(s + i) % plans.len()])
                                .expect("shared-scan submission succeeds")
                                .output
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let outputs: Vec<_> =
            threads.into_iter().map(|t| t.join().expect("shared-scan thread panicked")).collect();
        let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
        assert!(svc.engine().active_queries().is_empty(), "census must drain after shared scans");
        (elapsed_ms, outputs, svc.stats())
    };
    let (off_elapsed_ms, off_outputs, _) = drive(false);
    let (on_elapsed_ms, on_outputs, on_stats) = drive(true);
    assert_eq!(off_outputs, on_outputs, "sharing changed a query result");
    SharedScanReport {
        sessions: cfg.shared_scan_sessions.max(1),
        submissions: (cfg.shared_scan_sessions.max(1) * cfg.shared_scan_submissions.max(1)) as u64,
        off_elapsed_ms,
        on_elapsed_ms,
        scan_groups: on_stats.scan_groups,
        morsels_shared: on_stats.morsels_shared,
        morsels_private: on_stats.morsels_private,
        partials_reused: on_stats.partials_reused,
    }
}

/// Runs the full benchmark, returning the report as a JSON string.
pub fn run(cfg: &ServiceBenchConfig) -> String {
    let churn = run_churn(cfg);
    let stages = run_staged_departure(cfg);
    let unbounded = run_overload(cfg, 0);
    let bounded = run_overload(cfg, cfg.overload_max_queued.max(1));
    let chaos = run_chaos_probe(cfg);
    let shared = run_shared_scan(cfg);
    let stage_rows: Vec<String> = stages
        .iter()
        .map(|s| {
            format!(
                "      {{ \"clients\": {}, \"mean_response_ms\": {:.3}, \"mean_admit_dop\": {:.2}, \"regrants\": {} }}",
                s.clients, s.mean_response_ms, s.mean_admit_dop, s.regrants
            )
        })
        .collect();
    let overload_row = |r: &OverloadReport| {
        format!(
            "{{ \"max_queued\": {}, \"submissions\": {}, \"completed\": {}, \"shed\": {}, \"timed_out\": {}, \"mean_response_ms\": {:.3}, \"p99_response_ms\": {:.3} }}",
            r.max_queued, r.submissions, r.completed, r.shed, r.timed_out, r.mean_response_ms,
            r.p99_response_ms
        )
    };
    format!(
        "{{\n  \"bench\": \"service\",\n  \"mode\": \"{mode}\",\n  \"config\": {{ \"sessions\": {sessions}, \"queries_per_session\": {qps}, \"churn_threads\": {threads}, \"departure_clients\": {clients}, \"submissions_per_stage\": {per_stage}, \"workers\": {workers}, \"tpch_sf\": {sf} }},\n  \"client_churn\": {{\n    \"sessions\": {churn_sessions},\n    \"queries\": {queries},\n    \"elapsed_ms\": {elapsed:.3},\n    \"throughput_qps\": {qps_rate:.1},\n    \"sessions_per_sec\": {sps:.1},\n    \"result_cache_hits\": {hits},\n    \"result_cache_misses\": {misses},\n    \"plan_cache_hits\": {plan_hits}\n  }},\n  \"staged_departure\": {{\n    \"stages\": [\n{stages}\n    ]\n  }},\n  \"overload\": {{\n    \"unbounded\": {unbounded},\n    \"bounded\": {bounded}\n  }},\n  \"chaos\": {{ \"seed\": {chaos_seed}, \"submissions\": {chaos_subs}, \"ok\": {chaos_ok}, \"failed\": {chaos_failed}, \"faults_injected\": {chaos_faults} }},\n  \"shared_scan\": {{\n    \"sessions\": {ss_sessions},\n    \"submissions\": {ss_subs},\n    \"off\": {{ \"elapsed_ms\": {ss_off:.3}, \"throughput_qps\": {ss_off_qps:.1} }},\n    \"on\": {{ \"elapsed_ms\": {ss_on:.3}, \"throughput_qps\": {ss_on_qps:.1}, \"scan_groups\": {ss_groups}, \"morsels_shared\": {ss_shared}, \"morsels_private\": {ss_private}, \"partials_reused\": {ss_reused} }}\n  }}\n}}\n",
        mode = cfg.mode,
        sessions = cfg.sessions,
        qps = cfg.queries_per_session,
        threads = cfg.churn_threads,
        clients = cfg.departure_clients,
        per_stage = cfg.submissions_per_stage,
        workers = cfg.workers,
        sf = cfg.tpch_sf,
        churn_sessions = churn.sessions,
        queries = churn.queries,
        elapsed = churn.elapsed_ms,
        qps_rate = churn.queries as f64 / (churn.elapsed_ms / 1_000.0).max(f64::EPSILON),
        sps = churn.sessions as f64 / (churn.elapsed_ms / 1_000.0).max(f64::EPSILON),
        hits = churn.result_cache_hits,
        misses = churn.result_cache_misses,
        plan_hits = churn.plan_cache_hits,
        stages = stage_rows.join(",\n"),
        unbounded = overload_row(&unbounded),
        bounded = overload_row(&bounded),
        chaos_seed = chaos.seed,
        chaos_subs = chaos.submissions,
        chaos_ok = chaos.ok,
        chaos_failed = chaos.failed,
        chaos_faults = chaos.faults_injected,
        ss_sessions = shared.sessions,
        ss_subs = shared.submissions,
        ss_off = shared.off_elapsed_ms,
        ss_off_qps =
            shared.submissions as f64 / (shared.off_elapsed_ms / 1_000.0).max(f64::EPSILON),
        ss_on = shared.on_elapsed_ms,
        ss_on_qps = shared.submissions as f64 / (shared.on_elapsed_ms / 1_000.0).max(f64::EPSILON),
        ss_groups = shared.scan_groups,
        ss_shared = shared.morsels_shared,
        ss_private = shared.morsels_private,
        ss_reused = shared.partials_reused,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_well_formed_report() {
        let json = run(&ServiceBenchConfig::smoke());
        for key in [
            "\"bench\": \"service\"",
            "\"mode\": \"smoke\"",
            "client_churn",
            "throughput_qps",
            "result_cache_hits",
            "staged_departure",
            "mean_response_ms",
            "mean_admit_dop",
            "\"overload\"",
            "\"shed\"",
            "\"timed_out\"",
            "p99_response_ms",
            "\"chaos\"",
            "faults_injected",
            "\"shared_scan\"",
            "morsels_shared",
            "partials_reused",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Balanced braces/brackets — cheap well-formedness check without a
        // JSON parser in the dependency set.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn bounded_overload_sheds_while_unbounded_queues() {
        let cfg = ServiceBenchConfig::smoke();
        let unbounded = run_overload(&cfg, 0);
        let bounded = run_overload(&cfg, cfg.overload_max_queued.max(1));
        // Without a bound nothing is ever refused; with the census capped
        // below the standing queue depth, refusals are guaranteed.
        assert_eq!(unbounded.shed, 0, "unbounded queues must never shed");
        assert_eq!(unbounded.completed + unbounded.timed_out, unbounded.submissions);
        assert!(bounded.shed > 0, "a census of 1 under 2×3 clients must shed");
        assert_eq!(bounded.completed + bounded.shed + bounded.timed_out, bounded.submissions);
    }

    #[test]
    fn chaos_probe_accounts_for_every_submission() {
        let report = run_chaos_probe(&ServiceBenchConfig::smoke());
        assert_eq!(report.ok + report.failed, report.submissions);
    }

    #[test]
    fn shared_scan_run_shares_morsels_and_reuses_partials() {
        let report = run_shared_scan(&ServiceBenchConfig::smoke());
        // 8 sessions × 2 submissions over a 2-plan mix: repeats are
        // guaranteed, so the sharing run must have served morsels from
        // group windows and resumed aggregates from cached partials.
        assert!(report.scan_groups > 0, "no scan groups formed");
        assert!(report.morsels_shared > 0, "no morsel was served from a shared window");
        assert!(
            report.morsels_shared + report.partials_reused > 0 && report.morsels_private > 0,
            "sharing run recorded no private pass at all"
        );
        assert_eq!(report.submissions, 16);
    }

    #[test]
    fn staged_departure_grants_grow_as_clients_leave() {
        let stages = run_staged_departure(&ServiceBenchConfig::smoke());
        assert_eq!(stages.len(), 3, "4 -> 2 -> 1 clients");
        assert_eq!(stages.last().unwrap().clients, 1);
        // A lone client's reservation-phase grant is the whole pool; the
        // crowded first stage admitted at a smaller share.
        assert!(
            stages.last().unwrap().mean_admit_dop >= stages[0].mean_admit_dop,
            "admit grants must not shrink as the census empties"
        );
    }
}
