//! Reporting structures produced by the adaptive optimizer.

use std::fmt::Write as _;

use apq_engine::{Plan, QueryOutput};

use crate::mutation::MutationKind;

/// Everything recorded about one adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveRunRecord {
    /// Run index (0 = serial plan).
    pub run: usize,
    /// Wall-clock execution time of the run, microseconds.
    pub exec_us: u64,
    /// The mutation that produced this run's plan (none for the serial run).
    pub mutation: Option<MutationKind>,
    /// True when the convergence algorithm classified the run as a noise peak.
    pub is_outlier: bool,
    /// Convergence balance (credit − debit) after the run.
    pub balance: f64,
}

/// Result of one adaptive optimization (a full convergence episode).
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Per-run records, starting with the serial run.
    pub records: Vec<AdaptiveRunRecord>,
    /// Serial (run 0) execution time, microseconds.
    pub serial_us: u64,
    /// Run index with the minimal observed execution time.
    pub best_run: usize,
    /// Minimal observed execution time, microseconds.
    pub best_us: u64,
    /// Run index of the global minimum execution per the GME rule.
    pub gme_run: usize,
    /// GME execution time, microseconds.
    pub gme_us: u64,
    /// Total number of adaptive runs performed (excluding the serial run).
    pub total_runs: usize,
    /// True when the run loop stopped because the credit/debit balance was
    /// exhausted (as opposed to running out of mutations or hitting the cap).
    pub converged_by_balance: bool,
    /// The plan of run `best_run`, the fastest run (the paper's plan
    /// administration policy). The GME is reported beside it.
    pub best_plan: Plan,
    /// Query result of the best plan (identical to the serial result).
    pub final_output: QueryOutput,
}

impl AdaptiveReport {
    /// Speedup of the best adaptive plan over the serial plan.
    pub fn speedup(&self) -> f64 {
        self.serial_us as f64 / self.best_us.max(1) as f64
    }

    /// `(run, milliseconds)` series of all runs — the convergence curves of
    /// paper Figs. 11, 14 and 15.
    pub fn convergence_curve(&self) -> Vec<(usize, f64)> {
        self.records.iter().map(|r| (r.run, r.exec_us as f64 / 1000.0)).collect()
    }

    /// Multi-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "adaptive parallelization: {} runs, serial {:.3} ms, best {:.3} ms (run {}), GME {:.3} ms (run {}), speedup {:.2}x{}",
            self.total_runs,
            self.serial_us as f64 / 1000.0,
            self.best_us as f64 / 1000.0,
            self.best_run,
            self.gme_us as f64 / 1000.0,
            self.gme_run,
            self.speedup(),
            if self.converged_by_balance { "" } else { " (stopped: no further mutation)" },
        );
        let _ = writeln!(
            out,
            "best plan: {} operators; {} select and {} join parts",
            self.best_plan.node_count(),
            self.best_plan.count_of("select"),
            self.best_plan.count_of("join"),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::ScalarValue;
    use apq_engine::plan::OperatorSpec;

    fn tiny_plan() -> Plan {
        let mut p = Plan::new();
        let s = p.add(OperatorSpec::ScanColumn { table: "t".into(), column: "a".into() }, vec![]);
        p.set_root(s);
        p
    }

    fn record(run: usize, exec_us: u64) -> AdaptiveRunRecord {
        AdaptiveRunRecord {
            run,
            exec_us,
            mutation: if run == 0 { None } else { Some(MutationKind::Basic) },
            is_outlier: false,
            balance: 1.0,
        }
    }

    fn report() -> AdaptiveReport {
        AdaptiveReport {
            records: vec![record(0, 10_000), record(1, 6_000), record(2, 2_500)],
            serial_us: 10_000,
            best_run: 2,
            best_us: 2_500,
            gme_run: 2,
            gme_us: 2_500,
            total_runs: 2,
            converged_by_balance: true,
            best_plan: tiny_plan(),
            final_output: QueryOutput::Scalar(ScalarValue::I64(1)),
        }
    }

    #[test]
    fn speedup_and_curve() {
        let r = report();
        assert!((r.speedup() - 4.0).abs() < 1e-9);
        let curve = r.convergence_curve();
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0], (0, 10.0));
        assert_eq!(curve[2], (2, 2.5));
    }

    #[test]
    fn summary_is_readable() {
        let s = report().summary();
        assert!(s.contains("speedup 4.00x"));
        assert!(s.contains("GME"));
        assert!(s.contains("best plan"));
        let mut r = report();
        r.converged_by_balance = false;
        assert!(r.summary().contains("no further mutation"));
    }
}
