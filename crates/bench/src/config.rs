//! Experiment sizing.

/// Controls data sizes, worker counts and repetition counts of the
/// experiments. Three presets exist:
///
/// * [`ExperimentConfig::smoke`] — seconds-scale, used by unit tests;
/// * [`ExperimentConfig::quick`] — the default of `run_experiments` (a
///   couple of minutes end to end);
/// * [`ExperimentConfig::full`] — larger inputs (`run_experiments --full`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Worker threads of the execution engine (the paper's machines expose
    /// 32 / 96 hardware threads; experiments here scale with the host).
    pub workers: usize,
    /// TPC-H-like scale factor.
    pub tpch_sf: f64,
    /// TPC-DS-like scale factor.
    pub tpcds_sf: f64,
    /// Rows of the micro-benchmark columns (skewed select, join sweep).
    pub micro_rows: usize,
    /// Background clients of the concurrent-workload experiments.
    pub concurrent_clients: usize,
    /// Measured repetitions per reported number (the paper averages four runs).
    pub measure_reps: usize,
    /// Hard cap on adaptive runs per optimization episode.
    pub adaptive_max_runs: usize,
    /// Minimum partition size used by the adaptive optimizer.
    pub min_partition_rows: usize,
    /// RNG seed for data generation and workload mixing.
    pub seed: u64,
    /// Morsel size (rows) used by the morsel-driven execution comparisons
    /// (fig19's morsel-mode engines).
    pub morsel_rows: usize,
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8).min(8)
}

impl ExperimentConfig {
    /// Tiny sizes for unit tests (sub-second per experiment).
    pub fn smoke() -> Self {
        ExperimentConfig {
            workers: 4,
            tpch_sf: 0.002,
            tpcds_sf: 0.002,
            micro_rows: 40_000,
            concurrent_clients: 4,
            measure_reps: 1,
            adaptive_max_runs: 8,
            min_partition_rows: 512,
            seed: 42,
            morsel_rows: 2_048,
        }
    }

    /// Default sizes used by `run_experiments` and the benches.
    pub fn quick() -> Self {
        ExperimentConfig {
            workers: default_workers(),
            tpch_sf: 0.01,
            tpcds_sf: 0.01,
            micro_rows: 400_000,
            concurrent_clients: default_workers() * 2,
            measure_reps: 3,
            adaptive_max_runs: 24,
            min_partition_rows: 1024,
            seed: 42,
            morsel_rows: 16_384,
        }
    }

    /// Larger sizes for the recorded results.
    pub fn full() -> Self {
        ExperimentConfig {
            workers: default_workers(),
            tpch_sf: 0.05,
            tpcds_sf: 0.05,
            micro_rows: 2_000_000,
            concurrent_clients: default_workers() * 4,
            measure_reps: 4,
            adaptive_max_runs: 48,
            min_partition_rows: 2048,
            seed: 42,
            morsel_rows: 65_536,
        }
    }

    /// Scaled lineitem row count implied by the TPC-H scale factor.
    pub fn tpch_lineitem_rows(&self) -> usize {
        apq_workloads::tpch::TpchScale::new(self.tpch_sf).lineitem_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let smoke = ExperimentConfig::smoke();
        let quick = ExperimentConfig::quick();
        let full = ExperimentConfig::full();
        assert!(smoke.tpch_sf < quick.tpch_sf);
        assert!(quick.tpch_sf < full.tpch_sf);
        assert!(smoke.micro_rows < quick.micro_rows);
        assert!(quick.micro_rows < full.micro_rows);
        assert!(smoke.measure_reps <= quick.measure_reps);
        assert!(quick.workers >= 1);
        assert!(smoke.tpch_lineitem_rows() < quick.tpch_lineitem_rows());
    }
}
