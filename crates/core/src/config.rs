//! Configuration of the adaptive parallelizer.

use crate::convergence::EXTRA_RUNS;
use crate::error::{CoreError, Result};

/// Tunables of adaptive parallelization and its convergence algorithm.
///
/// Only what callers set differently lives here. The values the paper prints
/// are constants beside their readers: [`crate::convergence::GME_THRESHOLD`],
/// [`crate::convergence::EXTRA_RUNS`], the outlier rule of
/// [`crate::convergence::ConvergenceState::record_run`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// `Number_Of_Cores`: drives credit/debit accumulation, the leaking-debit
    /// threshold run, and the convergence bounds. Usually set to the engine's
    /// worker count.
    pub n_cores: usize,
    /// Partitions smaller than this are never split further; keeps the
    /// mutation from creating degenerate single-row partitions.
    pub min_partition_rows: usize,
    /// Hard safety cap on the number of adaptive runs (the convergence
    /// algorithm normally terminates long before this).
    pub max_runs: usize,
    /// Re-execute the result comparison against the serial plan after every
    /// run (used by tests; disabled in benchmarks).
    pub verify_results: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            n_cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            min_partition_rows: 1024,
            max_runs: 256,
            verify_results: false,
        }
    }
}

impl AdaptiveConfig {
    /// Configuration for a machine (or engine) with `n_cores` workers.
    pub fn for_cores(n_cores: usize) -> Self {
        AdaptiveConfig { n_cores: n_cores.max(1), ..AdaptiveConfig::default() }
    }

    /// Enables per-run result verification against the serial plan.
    pub fn with_verification(mut self) -> Self {
        self.verify_results = true;
        self
    }

    /// Sets the minimum partition size (rows).
    pub fn with_min_partition_rows(mut self, rows: usize) -> Self {
        self.min_partition_rows = rows.max(1);
        self
    }

    /// Sets the hard cap on adaptive runs.
    pub fn with_max_runs(mut self, runs: usize) -> Self {
        self.max_runs = runs.max(1);
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n_cores == 0 {
            return Err(CoreError::InvalidConfig("n_cores must be at least 1".into()));
        }
        if self.max_runs == 0 {
            return Err(CoreError::InvalidConfig("max_runs must be at least 1".into()));
        }
        Ok(())
    }

    /// Lower bound on the convergence runs (`Number_Of_Cores + 1`, paper §3.3.4).
    pub fn lower_bound_runs(&self) -> usize {
        self.n_cores + 1
    }

    /// Approximate upper bound on the convergence runs
    /// (`Number_Of_Cores + 1 + Remaining_Runs`, paper §3.3.4).
    pub fn upper_bound_runs(&self) -> usize {
        self.n_cores + 1 + EXTRA_RUNS * self.n_cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::GME_THRESHOLD;

    #[test]
    fn defaults_follow_the_paper() {
        assert_eq!(EXTRA_RUNS, 8);
        assert!((GME_THRESHOLD - 0.05).abs() < 1e-12);
        let c = AdaptiveConfig::default();
        assert!(c.n_cores >= 1);
        c.validate().unwrap();
    }

    #[test]
    fn builders() {
        let c = AdaptiveConfig::for_cores(8)
            .with_verification()
            .with_min_partition_rows(10)
            .with_max_runs(50);
        assert_eq!(c.n_cores, 8);
        assert!(c.verify_results);
        assert_eq!(c.min_partition_rows, 10);
        assert_eq!(c.max_runs, 50);
        assert_eq!(c.lower_bound_runs(), 9);
        assert_eq!(c.upper_bound_runs(), 8 + 1 + 8 * 8);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = AdaptiveConfig::for_cores(4);
        c.n_cores = 0;
        assert!(c.validate().is_err());
        let mut c = AdaptiveConfig::for_cores(4);
        c.max_runs = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_core_builder_clamps() {
        assert_eq!(AdaptiveConfig::for_cores(0).n_cores, 1);
        assert_eq!(AdaptiveConfig::default().with_min_partition_rows(0).min_partition_rows, 1);
    }
}
