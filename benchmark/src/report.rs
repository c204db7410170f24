//! Drives one run — measured (`--trace 0`) or traced (`--trace 1`) — and
//! reports it: a table for people, a result file for `--compare`, and the
//! one-line JSON object the driver reads.

use std::path::Path;
use std::time::Instant;

use crate::json::{obj, Json};
use crate::ladder::Ladder;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOAD_WHY};
use crate::stats::{highest_supported_percentile, iqr_ratio, median, percentile, Summary};
use crate::sut;
use crate::trace::{chrome_trace, containment, layer_self_ms, self_times, Log, Span};
use crate::workloads::{self, Env, Round};
use crate::RunArgs;

/// Measured rounds per run (after one untimed warm-up round).
const ROUNDS: usize = 5;
/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Span capacity reserved per client thread before a traced round starts.
const SPANS_PER_THREAD: usize = 1 << 17;
/// The tail percentile behind `latency_p90_ms`. On `tpch_isolated` the 95th
/// sits between Q9 and Q4's slow mode and flips by 20 % with the host's
/// state; the 90th has twice the samples beyond it and holds still. The 95th
/// is printed as an observation.
const TAIL: f64 = 0.90;
/// Tolerance of the child-inside-parent and profile-inside-wall checks.
const TRACE_TOLERANCE: f64 = 0.02;

/// One reported metric.
struct Reported {
    def: MetricDef,
    summary: Summary,
}

/// Everything one run produced.
struct Outcome {
    metrics: Vec<Reported>,
    observations: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

fn environment(args: &RunArgs) -> Env {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = parallelism.min(4);
    let sf = match (args.smoke, args.workload.as_str()) {
        (true, _) => 0.01,
        (false, "adaptive_convergence") => 0.25,
        (false, _) => 1.0,
    };
    Env {
        workers,
        clients: workers,
        sf,
        seed: args.seed,
        rounds: if args.smoke { 1 } else { ROUNDS },
        units: workloads::units_per_round(&args.workload, args.seconds, args.smoke),
    }
}

pub fn run(args: &RunArgs) -> Result<bool, String> {
    let env = environment(args);
    println!(
        "workload {}  seed {}  sf {}  workers {}  clients {}  available_parallelism {}  morsel_rows {}",
        args.workload,
        env.seed,
        env.sf,
        env.workers,
        env.clients,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sut::MORSEL_ROWS,
    );
    let why =
        WORKLOAD_WHY.iter().find(|(name, _)| *name == args.workload).map_or("", |(_, why)| why);
    println!("why: {why}");
    println!(
        "{} round(s) of {} after one warm-up round; closed loop; {}",
        env.rounds,
        workloads::operations_per_round(&args.workload, env.units),
        sut::SHIM_CAVEAT,
    );
    let outcome = execute(args, &env)?;
    let correct = outcome.failed == 0;

    println!("{:<40} {:>16} {:<6} {:>8} {:>8}", "metric", "value", "unit", "spread", "samples");
    for m in &outcome.metrics {
        println!(
            "{:<40} {:>16.6} {:<6} {:>7.2}% {:>8}",
            m.def.name,
            m.summary.value,
            m.def.unit,
            m.summary.spread * 100.0,
            m.summary.samples
        );
    }
    for (name, value) in &outcome.observations {
        println!("observed {name} = {value:.6}");
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!(
        "failed_ratio {} / {} = {:.6}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );

    if let Some(path) = &args.out {
        append_run(path, args, &env, &outcome)?;
    }
    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.def.name,
            obj([("value", Json::from(m.summary.value)), ("unit", Json::from(m.def.unit))]),
        )
    });
    let line = obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(outcome.attempted.max(1))),
        ("failed", Json::from(outcome.failed)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", line.to_line());
    Ok(correct)
}

fn execute(args: &RunArgs, env: &Env) -> Result<Outcome, String> {
    if args.trace {
        traced(args, env)
    } else {
        Ok(measured(args, env))
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn untraced_logs(env: &Env) -> Vec<Log> {
    (0..env.clients).map(|_| Log::off()).collect()
}

fn qps(round: &Round) -> f64 {
    round.ops / round.seconds.max(1e-9)
}

/// The measured run: [`SETUPS`] set-ups (each with its warm-up round), then
/// the rounds, all with tracing off.
fn measured(args: &RunArgs, env: &Env) -> Outcome {
    let mut logs = untraced_logs(env);
    let (mut attempted, mut failed) = (0, 0);
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        // Let go of the previous data set first: peak memory is one set-up's.
        drop(state.take());
        let started = Instant::now();
        let (mut workload, catalog, _) = workloads::setup(&args.workload, env);
        let warm_up = workload.round(0, env.warm_up_units(), &mut logs);
        setup_s.push(started.elapsed().as_secs_f64());
        attempted += warm_up.attempted;
        failed += warm_up.failed;
        state = Some((workload, catalog));
    }
    let (mut workload, _catalog) = state.expect("at least one set-up");

    let rounds: Vec<Round> =
        (1..=env.rounds).map(|index| workload.round(index, env.units, &mut logs)).collect();
    drop(workload);
    attempted += rounds.iter().map(|r| r.attempted).sum::<u64>();
    failed += rounds.iter().map(|r| r.failed).sum::<u64>();

    let pooled: Vec<f64> = rounds.iter().flat_map(|r| r.latencies.iter().copied()).collect();
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let shape_samples: usize = rounds.iter().map(|r| r.shape_latencies.len()).sum();
    let values = [
        Summary::over_rounds(&per_round(&qps), pooled.len()),
        Summary::over_rounds(&per_round(&Round::latency_geomean_ms), shape_samples),
        // The tail needs every sample it can get: pooled over the rounds.
        Summary {
            value: percentile(&pooled, TAIL),
            spread: iqr_ratio(&per_round(&|r| percentile(&r.latencies, TAIL))),
            samples: pooled.len(),
        },
        Summary { value: peak_rss_mb(), spread: 0.0, samples: 1 },
        Summary { value: median(&setup_s), spread: iqr_ratio(&setup_s), samples: setup_s.len() },
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, summary)| Reported { def: *def, summary })
        .collect();

    let facts: Vec<_> = rounds.iter().map(|r| r.facts).collect();
    let fact =
        |f: &dyn Fn(&workloads::Facts) -> f64| median(&facts.iter().map(f).collect::<Vec<_>>());
    let mut observations = vec![
        ("result_cache_hit_ratio", fact(&|f| f.result_cache_hit_ratio)),
        ("plan_cache_hit_ratio", fact(&|f| f.plan_cache_hit_ratio)),
        ("queue_wait_share", fact(&|f| f.queue_wait_share)),
        ("mean_admit_dop", fact(&|f| f.mean_admit_dop)),
        ("shared_morsel_ratio", fact(&|f| f.shared_morsel_ratio)),
        ("shed", facts.iter().map(|f| f.shed).sum()),
        ("timed_out", facts.iter().map(|f| f.timed_out).sum()),
        ("latency_p50_ms", median(&pooled)),
        ("latency_p95_ms", percentile(&pooled, 0.95)),
    ];
    if args.workload == "adaptive_convergence" {
        observations.extend([
            ("converge_s", fact(&|f| f.converge_s)),
            ("speedup_vs_serial", fact(&|f| f.speedup_vs_serial)),
            ("runs_per_episode", fact(&|f| f.runs_per_episode)),
        ]);
    }
    let mut notes = Vec::new();
    if highest_supported_percentile(pooled.len()).is_none_or(|q| q < TAIL) {
        notes.push(format!(
            "latency_p90_ms has {} samples, fewer than the 100 that leave ten beyond it",
            pooled.len()
        ));
    }
    Outcome { metrics, observations, attempted, failed, notes }
}

/// The traced run: the same round untraced and traced (twice each), then
/// the ladder; reports every per-layer metric and writes the Chrome trace.
fn traced(args: &RunArgs, env: &Env) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let (mut workload, catalog, setup) = workloads::setup(&args.workload, env);
    let mut off = untraced_logs(env);
    let warm_up = workload.round(0, env.warm_up_units(), &mut off);
    // The same round twice untraced and twice traced, alternating, so that
    // the overhead ratio does not compare a cold round with a warm one; the
    // spans of the last traced round are the ones analysed.
    let mut logs = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        untraced.push(workload.round(1, env.units, &mut off));
        logs = (0..env.clients).map(|lane| Log::on(epoch, lane as u32, SPANS_PER_THREAD)).collect();
        traced.push(workload.round(1, env.units, &mut logs));
    }
    drop(workload);
    let mean_qps = |rounds: &[Round]| rounds.iter().map(qps).sum::<f64>() / rounds.len() as f64;
    let wall_excess =
        untraced.iter().chain(&traced).map(|r| r.facts.wall_excess_ratio).fold(0.0, f64::max);
    let facts = traced[1].facts;

    let mut spans: Vec<Span> = logs.into_iter().flat_map(Log::into_spans).collect();
    let times = self_times(&spans);
    let contained = containment(&spans, TRACE_TOLERANCE);
    let round_spans = spans.len();

    let mut ladder_log = Log::on(epoch, env.clients as u32, SPANS_PER_THREAD);
    let ladder = Ladder::new(env, &catalog, &mut ladder_log, args.smoke).run(setup);
    let (ladder_metrics, ladder_attempted, ladder_failed) =
        (ladder.metrics, ladder.attempted, ladder.failed);
    spans.extend(ladder_log.into_spans());

    let mut values: Vec<(&str, f64)> = ladder_metrics;
    values.extend([
        ("scheduler.queue_wait_share", facts.queue_wait_share),
        ("service.mean_admit_dop", facts.mean_admit_dop),
        ("service.plan_cache_hit_ratio", facts.plan_cache_hit_ratio),
        ("service.result_cache_hit_ratio", facts.result_cache_hit_ratio),
        ("service.shed", facts.shed),
        ("service.timed_out", facts.timed_out),
        ("sharing.shared_morsel_ratio", facts.shared_morsel_ratio),
        ("sharing.partials_reused", facts.partials_reused),
        ("selftime.service_ms", layer_self_ms(&times, "service")),
        ("selftime.engine_ms", layer_self_ms(&times, "engine")),
        ("selftime.operators_ms", layer_self_ms(&times, "operators")),
        ("selftime.core_ms", layer_self_ms(&times, "core")),
        ("trace.child_overhang_worst_ratio", contained.worst_ratio),
        ("trace.wall_excess_worst_ratio", wall_excess),
        ("trace.spans", round_spans as f64),
        ("trace_overhead_ratio", mean_qps(&traced) / mean_qps(&untraced).max(1e-9)),
    ]);
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .map(|(_, v)| *v)
                .ok_or(format!("per-layer metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("per-layer metric {} is not finite", def.name));
            }
            Ok(Reported { def: *def, summary: Summary { value, spread: 0.0, samples: 1 } })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let path = args
        .trace_out
        .clone()
        .unwrap_or_else(|| format!(".bench_out/trace-{}.json", args.workload).into());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut doc = chrome_trace(&spans);
    if let Json::Obj(fields) = &mut doc {
        fields.push(("metadata".into(), environment_block(args, env)));
    }
    std::fs::write(&path, doc.to_line()).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut notes = vec![
        format!("trace written to {} ({} spans)", path.display(), spans.len()),
        format!(
            "imported children checked against their parents: {} of {} stick out by more than {:.0} %; worst {:.4} ({})",
            contained.violations,
            contained.checked,
            TRACE_TOLERANCE * 100.0,
            contained.worst_ratio,
            contained.worst.map_or("none".into(), |(layer, name)| format!("{layer}.{name}")),
        ),
        format!(
            "profile.wall_time exceeds the externally timed wall by at most {:.4} (tolerance {TRACE_TOLERANCE})",
            wall_excess
        ),
    ];
    for ((layer, name), time) in &times {
        notes.push(format!(
            "traced round: {layer}.{name}: {} spans, {:.3} ms total, {:.3} ms self",
            time.spans,
            time.total_ns as f64 / 1e6,
            time.self_ns as f64 / 1e6
        ));
    }
    Ok(Outcome {
        metrics,
        observations: vec![
            ("traced_round_throughput_qps", mean_qps(&traced)),
            ("untraced_round_throughput_qps", mean_qps(&untraced)),
        ],
        attempted: warm_up.attempted
            + untraced.iter().chain(&traced).map(|r| r.attempted).sum::<u64>()
            + ladder_attempted,
        failed: warm_up.failed
            + untraced.iter().chain(&traced).map(|r| r.failed).sum::<u64>()
            + ladder_failed,
        notes,
    })
}

/// Output of a command, or `"unknown"` when it cannot run here (the driver's
/// checkout is not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The environment block every output file carries.
fn environment_block(args: &RunArgs, env: &Env) -> Json {
    obj([
        (
            "available_parallelism",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("workers", Json::from(env.workers)),
        ("clients", Json::from(env.clients)),
        ("sf", Json::from(env.sf)),
        ("seed", Json::from(env.seed)),
        ("seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        ("morsel_rows", Json::from(sut::MORSEL_ROWS)),
        ("rounds", Json::from(env.rounds)),
        (
            "operations_per_round",
            Json::from(workloads::operations_per_round(&args.workload, env.units)),
        ),
        ("git_commit", Json::from(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::from(command_line("rustc", &["--version"]))),
        ("caveat", Json::from(sut::SHIM_CAVEAT)),
    ])
}

/// Appends this run to the `{"runs": [...]}` file at `path`.
fn append_run(path: &Path, args: &RunArgs, env: &Env, outcome: &Outcome) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            doc.get("runs").map(|r| r.as_array().to_vec()).unwrap_or_default()
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.def.name,
            obj([
                ("value", Json::from(m.summary.value)),
                ("unit", Json::from(m.def.unit)),
                ("spread", Json::from(m.summary.spread)),
                ("samples", Json::from(m.summary.samples)),
            ]),
        )
    });
    runs.push(obj([
        ("workload", Json::from(args.workload.as_str())),
        ("trace", Json::from(args.trace)),
        ("environment", environment_block(args, env)),
        ("correct", Json::from(outcome.failed == 0)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", obj(metrics)),
        ("observations", obj(outcome.observations.iter().map(|(k, v)| (*k, Json::from(*v))))),
    ]));
    let doc = obj([("runs", Json::Arr(runs))]);
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Outcome {
        let trace_out = std::env::temp_dir()
            .join(format!("apq-benchmark-test-{}-{workload}.json", std::process::id()));
        let args = RunArgs {
            workload: workload.into(),
            seed: 7,
            seconds: 15.0,
            trace,
            smoke: true,
            out: None,
            trace_out: Some(trace_out.clone()),
        };
        let outcome = execute(&args, &environment(&args)).expect("smoke run completes");
        if trace {
            let text = std::fs::read_to_string(&trace_out).expect("trace file was written");
            let doc = Json::parse(&text).expect("trace file is valid JSON");
            assert!(!doc.get("traceEvents").unwrap().as_array().is_empty());
            assert!(doc.get("metadata").and_then(|m| m.get("caveat")).is_some());
            std::fs::remove_file(&trace_out).expect("trace file can be removed");
        }
        outcome
    }

    /// Every metric `BENCHMARK.json` names is emitted, finite, by every
    /// workload; nothing fails; counts declared exact repeat exactly.
    #[test]
    fn every_workload_emits_every_metric() {
        let mut exact: Vec<(f64, f64)> = Vec::new();
        for (workload, _) in WORKLOAD_WHY {
            let measured = smoke(workload, false);
            assert_eq!(measured.failed, 0, "{workload}");
            assert!(measured.attempted > 0);
            let names: Vec<&str> = measured.metrics.iter().map(|m| m.def.name).collect();
            assert_eq!(names, END_TO_END.map(|m| m.name), "{workload}");
            for m in &measured.metrics {
                assert!(
                    m.summary.value.is_finite() && m.summary.value > 0.0,
                    "{workload} {}",
                    m.def.name
                );
            }

            let traced = smoke(workload, true);
            assert_eq!(traced.failed, 0, "{workload}");
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.def.name).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.name), "{workload}");
            assert!(traced.metrics.iter().all(|m| m.summary.value.is_finite()), "{workload}");
            let value = |name: &str| {
                traced.metrics.iter().find(|m| m.def.name == name).unwrap().summary.value
            };
            exact.push((
                value("pipeline.morsels_per_pass"),
                value("pipeline.fused_groupagg_pipelines"),
            ));
            // Ratios that are shares of one whole.
            let shares: f64 = ["select", "join", "calc", "fetch", "agg", "other"]
                .iter()
                .map(|family| value(&format!("interpreter.share.{family}")))
                .sum();
            assert!((shares - 1.0).abs() < 1e-9);
            assert!(value("trace.spans") > 0.0);
        }
        // Same seed, same scale: the morsel and fusion counts are the same.
        assert!(exact.windows(2).all(|w| w[0] == w[1]), "{exact:?}");
        assert!(exact[0].0 > 0.0 && exact[0].1 > 0.0);
    }

    #[test]
    fn result_files_accumulate_runs() {
        let path = std::env::temp_dir()
            .join(format!("apq-benchmark-test-{}-runs.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let args = RunArgs {
            workload: "tpch_isolated".into(),
            seed: 3,
            seconds: 15.0,
            trace: false,
            smoke: true,
            out: Some(path.clone()),
            trace_out: None,
        };
        let env = environment(&args);
        let outcome = Outcome {
            metrics: vec![Reported {
                def: END_TO_END[0],
                summary: Summary { value: 12.5, spread: 0.01, samples: 40 },
            }],
            observations: vec![("latency_p50_ms", 3.5)],
            attempted: 40,
            failed: 0,
            notes: Vec::new(),
        };
        append_run(&path, &args, &env, &outcome).unwrap();
        append_run(&path, &args, &env, &outcome).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = doc.get("runs").unwrap().as_array();
        assert_eq!(runs.len(), 2);
        let environment = runs[1].get("environment").unwrap();
        for key in [
            "available_parallelism",
            "workers",
            "clients",
            "sf",
            "seed",
            "morsel_rows",
            "rounds",
            "operations_per_round",
            "git_commit",
            "rustc",
            "caveat",
        ] {
            assert!(environment.get(key).is_some(), "environment block lacks {key}");
        }
        let metric = runs[0].get("metrics").and_then(|m| m.get("throughput_qps")).unwrap();
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(12.5));
        assert_eq!(metric.get("samples").and_then(Json::as_f64), Some(40.0));
        std::fs::remove_file(&path).unwrap();
    }
}
