//! The adaptive optimizer: the run loop tying mutation, execution feedback
//! and convergence together (paper Fig. 2 workflow).
//!
//! Starting from an optimal *serial* plan, every invocation executes the
//! current plan, profiles it, and derives the next plan by parallelizing the
//! most expensive operator. The convergence algorithm decides when to stop
//! and tracks the fastest run; the plan that run executed is the final one
//! (the paper's plan administration policy, §2).

use std::sync::Arc;

use apq_columnar::Catalog;
use apq_engine::{Engine, Plan, QueryExecution};

use crate::config::AdaptiveConfig;
use crate::convergence::ConvergenceState;
use crate::error::{CoreError, Result};
use crate::mutation::{mutate_most_expensive, MutationKind};
use crate::report::{AdaptiveReport, AdaptiveRunRecord};

/// Drives adaptive parallelization of one query.
#[derive(Debug, Clone)]
pub struct AdaptiveOptimizer {
    config: AdaptiveConfig,
}

impl AdaptiveOptimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: AdaptiveConfig) -> Self {
        AdaptiveOptimizer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Runs the full adaptive parallelization loop for `serial_plan`.
    ///
    /// Every run executes the current plan on `engine`; the returned report
    /// contains the per-run records, convergence statistics and the fastest
    /// plan found.
    pub fn optimize(
        &self,
        engine: &Engine,
        catalog: &Arc<Catalog>,
        serial_plan: &Plan,
    ) -> Result<AdaptiveReport> {
        self.optimize_with_observer(engine, catalog, serial_plan, |_| {})
    }

    /// Like [`AdaptiveOptimizer::optimize`], invoking `observer` after every
    /// run (used by experiments that plot live convergence curves).
    pub fn optimize_with_observer<F>(
        &self,
        engine: &Engine,
        catalog: &Arc<Catalog>,
        serial_plan: &Plan,
        mut observer: F,
    ) -> Result<AdaptiveReport>
    where
        F: FnMut(&AdaptiveRunRecord),
    {
        self.config.validate()?;
        serial_plan.validate().map_err(CoreError::from)?;

        let mut plan = serial_plan.clone();
        let mut convergence = ConvergenceState::new(self.config.clone());
        let mut records: Vec<AdaptiveRunRecord> = Vec::new();

        // Run 0: the serial plan.
        let serial_exec = engine.execute(&plan, catalog).map_err(CoreError::from)?;
        let serial_output = serial_exec.output.clone();
        let serial_us = serial_exec.profile.wall_us().max(1);
        convergence.record_serial(serial_us);
        let mut best_plan = plan.clone();
        let record = run_record(0, &serial_exec, None, false, convergence.balance());
        observer(&record);
        records.push(record);

        let mut last_profile = serial_exec.profile;
        let mut converged_by_balance = true;

        while convergence.should_continue() {
            // Morph the plan by parallelizing the most expensive operator of
            // the previous run.
            let mutation = mutate_most_expensive(&mut plan, &last_profile, &self.config)?;
            let Some(mutation) = mutation else {
                // Nothing left to parallelize: the plan reached its maximal
                // useful degree of parallelism.
                converged_by_balance = false;
                break;
            };

            let exec = engine.execute(&plan, catalog).map_err(CoreError::from)?;
            let run = convergence.runs() + 1;
            if self.config.verify_results && exec.output != serial_output {
                return Err(CoreError::ResultMismatch { run });
            }
            let exec_us = exec.profile.wall_us().max(1);
            let obs = convergence.record_run(exec_us);
            if convergence.best_run() == obs.run {
                best_plan = plan.clone();
            }
            let record =
                run_record(obs.run, &exec, Some(mutation.kind), obs.is_outlier, obs.balance);
            observer(&record);
            records.push(record);
            last_profile = exec.profile;
        }

        Ok(AdaptiveReport {
            serial_us,
            best_run: convergence.best_run(),
            best_us: convergence.best_us().unwrap_or(serial_us),
            gme_run: convergence.gme_run(),
            gme_us: convergence.gme_us().unwrap_or(serial_us),
            total_runs: convergence.runs(),
            converged_by_balance,
            best_plan,
            final_output: serial_output,
            records,
        })
    }
}

fn run_record(
    run: usize,
    exec: &QueryExecution,
    mutation: Option<MutationKind>,
    is_outlier: bool,
    balance: f64,
) -> AdaptiveRunRecord {
    AdaptiveRunRecord { run, exec_us: exec.profile.wall_us().max(1), mutation, is_outlier, balance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::{ScalarValue, TableBuilder};
    use apq_engine::plan::OperatorSpec;
    use apq_engine::QueryOutput;
    use apq_operators::{AggFunc, BinaryOp, CmpOp, Predicate};

    fn catalog(rows: usize) -> Arc<Catalog> {
        let mut c = Catalog::new();
        let values: Vec<i64> = (0..rows as i64).map(|v| (v * 7919) % 1000).collect();
        let payload: Vec<i64> = (0..rows as i64).map(|v| v % 97).collect();
        c.register(
            TableBuilder::new("t")
                .i64_column("a", values)
                .i64_column("b", payload)
                .build()
                .unwrap(),
        );
        Arc::new(c)
    }

    fn scan(column: &str) -> OperatorSpec {
        OperatorSpec::ScanColumn { table: "t".into(), column: column.into() }
    }

    /// Serial plan: sum(b * 2) over rows where a < 300.
    fn serial_plan() -> Plan {
        let mut p = Plan::new();
        let a = p.add(scan("a"), vec![]);
        let sel =
            p.add(OperatorSpec::Select { predicate: Predicate::cmp(CmpOp::Lt, 300i64) }, vec![a]);
        let b = p.add(scan("b"), vec![]);
        let fetch = p.add(OperatorSpec::Fetch, vec![sel, b]);
        let calc = p.add(
            OperatorSpec::Calc {
                op: BinaryOp::Mul,
                left_scalar: None,
                right_scalar: Some(ScalarValue::I64(2)),
            },
            vec![fetch],
        );
        let agg = p.add(OperatorSpec::ScalarAgg { func: AggFunc::Sum }, vec![calc]);
        let fin = p.add(OperatorSpec::FinalizeAgg { func: AggFunc::Sum }, vec![agg]);
        p.set_root(fin);
        p
    }

    fn expected_sum(catalog: &Catalog, rows: usize) -> i64 {
        let t = catalog.table("t").unwrap();
        let a = t.column("a").unwrap().i64_values().unwrap();
        let b = t.column("b").unwrap().i64_values().unwrap();
        (0..rows).filter(|&i| a[i] < 300).map(|i| b[i] * 2).sum()
    }

    #[test]
    fn adaptive_optimization_preserves_results_and_increases_parallelism() {
        let rows = 40_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(4);
        let config = AdaptiveConfig::for_cores(4)
            .with_min_partition_rows(256)
            .with_max_runs(12)
            .with_verification();
        let optimizer = AdaptiveOptimizer::new(config);
        let plan = serial_plan();
        let report = optimizer.optimize(&engine, &cat, &plan).unwrap();

        assert_eq!(
            report.final_output,
            QueryOutput::Scalar(ScalarValue::I64(expected_sum(&cat, rows)))
        );
        assert!(report.total_runs >= 1, "at least one adaptive run must happen");
        assert_eq!(report.records.len(), report.total_runs + 1);
        assert_eq!(report.records[0].run, 0);
        assert!(report.records[0].mutation.is_none());
        assert!(report.records[1].mutation.is_some());
        // The plan got more parallel over the runs, in parts, not nodes.
        let (serial, best) = (serial_plan(), &report.best_plan);
        assert_eq!(best.node_count(), serial.node_count());
        assert!(best.count_of("select") >= serial.count_of("select"));
        // The best plan is at least as fast as the serial plan.
        assert!(report.best_us <= report.serial_us);
        assert!(report.speedup() >= 1.0);
        report.best_plan.validate().unwrap();
        // The best plan re-executes to the same answer.
        let again = engine.execute(&report.best_plan, &cat).unwrap();
        assert_eq!(again.output, report.final_output);
    }

    #[test]
    fn best_run_is_the_earliest_fastest_record_and_its_plan_is_returned() {
        let rows = 40_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(2);
        let config = AdaptiveConfig::for_cores(2).with_min_partition_rows(256).with_max_runs(8);
        let report =
            AdaptiveOptimizer::new(config).optimize(&engine, &cat, &serial_plan()).unwrap();
        let fastest = report.records.iter().map(|r| r.exec_us).min().unwrap();
        assert_eq!(report.best_us, fastest);
        let earliest = report.records.iter().find(|r| r.exec_us == fastest).unwrap();
        assert_eq!(report.best_run, earliest.run);
        assert_eq!(report.best_plan.node_count(), serial_plan().node_count());
        assert_eq!(engine.execute(&report.best_plan, &cat).unwrap().output, report.final_output);
    }

    #[test]
    fn observer_sees_every_run() {
        let rows = 20_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(2);
        let config = AdaptiveConfig::for_cores(2).with_min_partition_rows(256).with_max_runs(6);
        let optimizer = AdaptiveOptimizer::new(config);
        let mut seen = Vec::new();
        let report = optimizer
            .optimize_with_observer(&engine, &cat, &serial_plan(), |r| seen.push(r.run))
            .unwrap();
        assert_eq!(seen.len(), report.records.len());
        assert_eq!(seen[0], 0);
    }

    #[test]
    fn stops_when_no_mutation_is_possible() {
        let rows = 4_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(2);
        // Minimum partition size so large that nothing can ever be split.
        let config =
            AdaptiveConfig::for_cores(2).with_min_partition_rows(1_000_000).with_max_runs(10);
        let optimizer = AdaptiveOptimizer::new(config);
        let report = optimizer.optimize(&engine, &cat, &serial_plan()).unwrap();
        assert_eq!(report.total_runs, 0);
        assert!(!report.converged_by_balance);
        assert_eq!(report.best_run, 0);
        assert_eq!(report.best_plan.node_count(), serial_plan().node_count());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let cat = catalog(100);
        let engine = Engine::with_workers(2);
        let mut bad_config = AdaptiveConfig::for_cores(2);
        bad_config.n_cores = 0;
        let optimizer = AdaptiveOptimizer::new(bad_config);
        assert!(matches!(
            optimizer.optimize(&engine, &cat, &serial_plan()),
            Err(CoreError::InvalidConfig(_))
        ));

        let optimizer = AdaptiveOptimizer::new(AdaptiveConfig::for_cores(2));
        let empty = Plan::new();
        assert!(optimizer.optimize(&engine, &cat, &empty).is_err());
    }

    #[test]
    fn respects_the_hard_run_cap() {
        let rows = 60_000;
        let cat = catalog(rows);
        let engine = Engine::with_workers(4);
        let config = AdaptiveConfig::for_cores(4).with_min_partition_rows(16).with_max_runs(3);
        let optimizer = AdaptiveOptimizer::new(config);
        let report = optimizer.optimize(&engine, &cat, &serial_plan()).unwrap();
        assert!(report.total_runs <= 3);
    }
}
