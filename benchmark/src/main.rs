//! The repository's benchmark: four workloads, five end-to-end metrics each,
//! and — with `--trace 1` — a ladder of per-layer metrics measured from
//! outside. See `README.md` beside this package and `BENCHMARK.json` at the
//! repository root.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--out runs.json] [--trace-out trace.json]
//! benchmark --compare base.json new.json [--bounds BENCHMARK.json]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod compare;
mod json;
mod ladder;
mod metrics;
mod oracle;
mod report;
mod schedule;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload <tpch_isolated|tpch_concurrent|\
adaptive_convergence|dashboard_repeat> [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
[--out runs.json] [--trace-out trace.json]\n       \
benchmark --compare base.json new.json [--bounds BENCHMARK.json]";

/// One invocation, as read from the command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run(RunArgs),
    Compare { base: PathBuf, new: PathBuf, bounds: PathBuf },
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 2016,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut compare: Option<(PathBuf, PathBuf)> = None;
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => run.smoke = true,
            "--out" => run.out = Some(PathBuf::from(value()?)),
            "--trace-out" => run.trace_out = Some(PathBuf::from(value()?)),
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--bounds" => bounds = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some((base, new)) = compare {
        return Ok(Command::Compare { base, new, bounds });
    }
    if !metrics::WORKLOAD_WHY.iter().any(|(name, _)| *name == run.workload) {
        return Err(format!("unknown workload {:?}", run.workload));
    }
    Ok(Command::Run(run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Run(run)) => report::run(&run),
        Ok(Command::Compare { base, new, bounds }) => compare::run(&base, &new, &bounds),
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let parsed =
            parse_args(&args("--workload tpch_isolated --seed 7 --seconds 15 --trace 1")).unwrap();
        let Command::Run(run) = parsed else { panic!("expected a run") };
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds, run.trace),
            ("tpch_isolated", 7, 15.0, true)
        );
        assert!(!run.smoke && run.out.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "",
            "--workload nope",
            "--workload tpch_isolated --trace yes",
            "--workload tpch_isolated --seconds 0",
            "--workload tpch_isolated --seed",
            "--compare only-one.json",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(line)).is_err(), "{line:?} should be refused");
        }
        assert!(matches!(
            parse_args(&args("--compare a.json b.json")),
            Ok(Command::Compare { .. })
        ));
    }
}
