//! `--compare base.json new.json`: one row per (workload, end-to-end
//! metric) with a verdict under the bounds of `BENCHMARK.json`. Both files
//! are `--out` files; every untraced run of a workload in a file counts as
//! one sample of that workload's metrics.

use std::path::Path;

use crate::json::Json;
use crate::stats::{iqr_ratio, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Either side's run-to-run spread exceeds the bound: no verdict.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's samples of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
    pub runs: usize,
}

/// The rule: a metric is `unresolved` when either spread exceeds the bound,
/// `regressed` when the new median is worse by more than the bound,
/// `improved` when it is better by more than both spreads, else `unchanged`.
pub fn verdict(base: Side, new: Side, higher_is_better: bool, bound: f64) -> Verdict {
    if base.spread > bound || new.spread > bound {
        return Verdict::Unresolved;
    }
    let change = (new.value - base.value) / base.value.abs().max(f64::MIN_POSITIVE);
    let worse_by = if higher_is_better { -change } else { change };
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > base.spread.max(new.spread) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Median and run-to-run spread of `metric` over the untraced runs of
/// `workload`; with a single run, the spread the run itself reported over
/// its rounds.
fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    let samples: Vec<&Json> = doc
        .get("runs")?
        .as_array()
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|run| run.get("trace") == Some(&Json::Bool(false)))
        .filter_map(|run| run.get("metrics")?.get(metric))
        .collect();
    let values: Vec<f64> = samples.iter().filter_map(|m| m.get("value")?.as_f64()).collect();
    let spread = match values.len() {
        0 => return None,
        1 => samples[0].get("spread").and_then(Json::as_f64).unwrap_or(0.0),
        _ => iqr_ratio(&values),
    };
    Some(Side { value: median(&values), spread, runs: values.len() })
}

/// Prints the comparison; `Ok(false)` when any row regressed.
pub fn run(base: &Path, new: &Path, bounds: &Path) -> Result<bool, String> {
    let (base_doc, new_doc, benchmark) = (load(base)?, load(new)?, load(bounds)?);
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "spread'", "bound"
    );
    let mut ok = true;
    for workload in benchmark.get("workloads").map_or(&[][..], Json::as_array) {
        let workload =
            workload.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        for metric in benchmark.get("end_to_end").map_or(&[][..], Json::as_array) {
            let field = |key: &str| metric.get(key).and_then(Json::as_str);
            let (Some(name), Some(better)) = (field("name"), field("better")) else {
                return Err("end_to_end metric without name or direction".into());
            };
            let bound =
                metric.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            let (Some(a), Some(b)) =
                (side(&base_doc, workload, name), side(&new_doc, workload, name))
            else {
                println!("{workload:<22} {name:<20} missing on one side");
                continue;
            };
            let row = verdict(a, b, better == "higher", bound);
            ok &= row != Verdict::Regressed;
            println!(
                "{workload:<22} {name:<20} {:>14.6} {:>14.6} {:>8.4} {:>7.2}% {:>7.2}% {:>6.2}  {} ({}+{} runs)",
                a.value,
                b.value,
                b.value / a.value,
                a.spread * 100.0,
                b.spread * 100.0,
                bound,
                row.label(),
                a.runs,
                b.runs,
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: f64) -> Side {
        Side { value, spread, runs: 10 }
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        // Lower is better, bound 10 %.
        assert_eq!(verdict(s(100.0, 0.02), s(104.0, 0.02), false, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(s(100.0, 0.02), s(111.0, 0.02), false, 0.10), Verdict::Regressed);
        assert_eq!(verdict(s(100.0, 0.02), s(97.0, 0.02), false, 0.10), Verdict::Improved);
        assert_eq!(verdict(s(100.0, 0.02), s(99.0, 0.02), false, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(s(100.0, 0.12), s(50.0, 0.02), false, 0.10), Verdict::Unresolved);
        // Higher is better: the same numbers read the other way.
        assert_eq!(verdict(s(100.0, 0.02), s(111.0, 0.02), true, 0.10), Verdict::Improved);
        assert_eq!(verdict(s(100.0, 0.02), s(89.0, 0.02), true, 0.10), Verdict::Regressed);
    }

    #[test]
    fn sides_pool_untraced_runs_of_one_workload() {
        let doc = Json::parse(
            r#"{"runs": [
              {"workload": "a", "trace": false, "metrics": {"m": {"value": 10, "spread": 0.5}}},
              {"workload": "a", "trace": false, "metrics": {"m": {"value": 12, "spread": 0.5}}},
              {"workload": "a", "trace": false, "metrics": {"m": {"value": 11, "spread": 0.5}}},
              {"workload": "a", "trace": true,  "metrics": {"m": {"value": 99, "spread": 0.5}}},
              {"workload": "b", "trace": false, "metrics": {"m": {"value": 7, "spread": 0.25}}}
            ]}"#,
        )
        .unwrap();
        let a = side(&doc, "a", "m").unwrap();
        assert_eq!((a.value, a.runs), (11.0, 3));
        assert!((a.spread - 2.0 / 11.0).abs() < 1e-12);
        // A single run falls back on the spread over its own rounds.
        assert_eq!(side(&doc, "b", "m").unwrap(), Side { value: 7.0, spread: 0.25, runs: 1 });
        assert!(side(&doc, "c", "m").is_none());
        assert!(side(&doc, "a", "other").is_none());
    }
}
