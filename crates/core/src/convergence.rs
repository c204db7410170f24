//! The convergence algorithm (paper §3).
//!
//! Adaptive parallelization keeps re-invoking the query with an increasingly
//! parallel plan; the convergence algorithm decides when to stop and which
//! run holds the *global minimum execution* (GME). It models the remaining
//! budget of runs with a credit/debit pair driven by the rate of improvement
//! (ROI) of consecutive runs:
//!
//! ```text
//! ROI    = (PrevExec − CurExec) / max(CurExec, PrevExec)
//! Credit = Credit + max(ROI, 0) · Number_Of_Cores
//! Debit  = Debit  + max(−ROI, 0) · Number_Of_Cores
//! continue while Credit − Debit > 0
//! ```
//!
//! Three convergence scenarios are handled exactly as in the paper:
//! no premature convergence (the first improving run accumulates a large
//! credit), no extended convergence (a *leaking debit* drains the credit once
//! `Number_Of_Cores` runs have passed), and convergence in a noisy
//! environment (runs slower than the serial execution are treated as outlier
//! peaks and ignored).

use crate::config::AdaptiveConfig;

/// GME replacement threshold (§3.1): the fraction of the serial execution
/// time by which a run must beat the current GME's improvement. Paper: 5 %.
pub const GME_THRESHOLD: f64 = 0.05;

/// `Extra_Runs` (§3.3.2): multiplier on `Number_Of_Cores` bounding the
/// remaining runs over which the leaking debit drains the credit. Paper: 8.
pub const EXTRA_RUNS: usize = 8;

/// Bookkeeping for a single adaptive run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunObservation {
    /// Run index (0 is the serial run).
    pub run: usize,
    /// Execution time of the run, microseconds.
    pub exec_us: u64,
    /// Rate of improvement relative to the previous (non-outlier) run.
    pub roi: f64,
    /// True when the run was classified as a noise peak and ignored.
    pub is_outlier: bool,
    /// Credit accumulated so far.
    pub credit: f64,
    /// Debit accumulated so far.
    pub debit: f64,
    /// Remaining balance (`credit − debit`) after this run.
    pub balance: f64,
    /// True when this run became the new GME.
    pub became_gme: bool,
}

/// State of the convergence algorithm across runs of one query.
#[derive(Debug, Clone)]
pub struct ConvergenceState {
    config: AdaptiveConfig,
    serial_us: Option<u64>,
    prev_us: Option<u64>,
    best_us: Option<u64>,
    best_run: usize,
    gme_us: Option<u64>,
    gme_run: usize,
    credit: f64,
    debit: f64,
    leaking_debit: Option<f64>,
    run_index: usize,
}

impl ConvergenceState {
    /// Fresh state; the paper initializes credit to 1 and debit to 0.
    pub fn new(config: AdaptiveConfig) -> Self {
        ConvergenceState {
            config,
            serial_us: None,
            prev_us: None,
            best_us: None,
            best_run: 0,
            gme_us: None,
            gme_run: 0,
            credit: 1.0,
            debit: 0.0,
            leaking_debit: None,
            run_index: 0,
        }
    }

    /// Records the 0th (serial) run.
    pub fn record_serial(&mut self, exec_us: u64) {
        let exec_us = exec_us.max(1);
        self.serial_us = Some(exec_us);
        self.prev_us = Some(exec_us);
        self.best_us = Some(exec_us);
        self.best_run = 0;
        self.run_index = 0;
    }

    /// Records one adaptive (parallel) run and updates credit, debit, GME and
    /// the leaking debit.
    pub fn record_run(&mut self, exec_us: u64) -> RunObservation {
        let exec_us = exec_us.max(1);
        let serial = self.serial_us.expect("record_serial must be called first");
        self.run_index += 1;
        let run = self.run_index;

        // Outlier peaks (noisy environment, §3.3.3): a run slower than the
        // serial execution is ignored — no credit, no debit, no GME update —
        // which "allows the immediate next run to execute".
        let is_outlier = exec_us > serial;

        let prev = self.prev_us.unwrap_or(serial);
        let roi = if is_outlier {
            0.0
        } else {
            (prev as f64 - exec_us as f64) / (exec_us.max(prev) as f64)
        };

        let mut became_gme = false;
        if !is_outlier {
            if roi > 0.0 {
                self.credit += roi * self.config.n_cores as f64;
            } else {
                self.debit += roi.abs() * self.config.n_cores as f64;
            }
            self.prev_us = Some(exec_us);

            // Track the true minimum: the optimizer returns this run's plan.
            // Strict `<` keeps the earliest of equal runs; an outlier never
            // gets here, and it could not win anyway (it is slower than the
            // serial run, which is the first candidate).
            if self.best_us.is_none_or(|b| exec_us < b) {
                self.best_us = Some(exec_us);
                self.best_run = run;
            }

            // GME bookkeeping (§3.1): initialize with the first run after the
            // serial execution, then replace only when the improvement beats
            // the current GME's improvement by more than the threshold.
            match self.gme_us {
                None => {
                    self.gme_us = Some(exec_us);
                    self.gme_run = run;
                    became_gme = true;
                }
                Some(gme) => {
                    let cur_imprv = (serial as f64 - exec_us as f64).abs() / serial as f64;
                    let gme_imprv = (serial as f64 - gme as f64).abs() / serial as f64;
                    if exec_us < gme && cur_imprv - gme_imprv > GME_THRESHOLD {
                        self.gme_us = Some(exec_us);
                        self.gme_run = run;
                        became_gme = true;
                    }
                }
            }
        }

        // Leaking debit (§3.3.2): once the threshold run (Number_Of_Cores) is
        // crossed, a constant debit drains the credit accumulated so far.
        if run == self.config.n_cores {
            let remaining_runs = (EXTRA_RUNS * self.config.n_cores).max(1);
            self.leaking_debit = Some(self.credit / remaining_runs as f64);
        }
        if run > self.config.n_cores {
            if let Some(leak) = self.leaking_debit {
                self.debit += leak;
            }
        }

        RunObservation {
            run,
            exec_us,
            roi,
            is_outlier,
            credit: self.credit,
            debit: self.debit,
            balance: self.balance(),
            became_gme,
        }
    }

    /// Current balance of convergence runs (`credit − debit`).
    pub fn balance(&self) -> f64 {
        self.credit - self.debit
    }

    /// True while the algorithm should keep invoking the query
    /// (`credit − debit > 0`, bounded by the hard run cap).
    pub fn should_continue(&self) -> bool {
        self.balance() > 0.0 && self.run_index < self.config.max_runs
    }

    /// Serial (0th run) execution time.
    pub fn serial_us(&self) -> Option<u64> {
        self.serial_us
    }

    /// Global minimum execution time, per the paper's GME rule.
    pub fn gme_us(&self) -> Option<u64> {
        self.gme_us
    }

    /// Run index at which the GME was recorded.
    pub fn gme_run(&self) -> usize {
        self.gme_run
    }

    /// True minimum execution time observed (including the serial run).
    pub fn best_us(&self) -> Option<u64> {
        self.best_us
    }

    /// Run index of the true minimum.
    pub fn best_run(&self) -> usize {
        self.best_run
    }

    /// Number of adaptive runs recorded so far (excluding the serial run).
    pub fn runs(&self) -> usize {
        self.run_index
    }

    /// The leaking debit, once activated.
    pub fn leaking_debit(&self) -> Option<f64> {
        self.leaking_debit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(cores: usize) -> AdaptiveConfig {
        AdaptiveConfig::for_cores(cores)
    }

    #[test]
    fn first_improving_run_accumulates_large_credit() {
        // §3.3.1: the credit after the first run approaches Number_Of_Cores + 1.
        let mut c = ConvergenceState::new(config(16));
        c.record_serial(10_000);
        let obs = c.record_run(1_000); // 10x improvement => ROI = 0.9
        assert!(obs.roi > 0.89 && obs.roi < 0.91);
        assert!(c.balance() > 14.0 && c.balance() < 17.0);
        assert!(c.should_continue());
        assert_eq!(c.gme_us(), Some(1_000));
        assert_eq!(c.gme_run(), 1);
        assert!(obs.became_gme);
    }

    #[test]
    fn worsening_runs_drain_the_balance_and_converge() {
        let mut c = ConvergenceState::new(config(4));
        c.record_serial(10_000);
        c.record_run(9_000); // small improvement
        let mut runs = 1;
        while c.should_continue() && runs < 100 {
            c.record_run(9_500); // oscillating, no further improvement
            runs += 1;
        }
        assert!(!c.should_continue(), "algorithm must converge");
        assert!(runs < 100, "must converge well before the safety cap");
        assert_eq!(c.best_us(), Some(9_000));
        assert_eq!(c.best_run(), 1);
    }

    #[test]
    fn leaking_debit_forces_convergence_on_a_stable_system() {
        // §3.3.2: monotonically but ever-more-slowly improving runs on a
        // stable system would otherwise never converge.
        let cores = 8;
        let mut c = ConvergenceState::new(config(cores));
        c.record_serial(100_000);
        let mut exec = 50_000u64;
        let mut runs = 0;
        while c.should_continue() && runs < 500 {
            c.record_run(exec);
            // Tiny improvements forever.
            exec = (exec as f64 * 0.999) as u64;
            runs += 1;
        }
        assert!(!c.should_continue(), "leaking debit must drain the credit");
        assert!(runs >= cores, "at least Number_Of_Cores runs are used");
        assert!(
            runs <= AdaptiveConfig::for_cores(cores).upper_bound_runs() + cores,
            "converged after {runs} runs, beyond the paper's upper bound"
        );
        assert!(c.leaking_debit().is_some());
    }

    #[test]
    fn convergence_respects_the_paper_bounds_for_a_typical_curve() {
        // A curve like Fig. 11: steep improvement, plateau, slight noise.
        let cores = 8;
        let cfg = config(cores);
        let mut c = ConvergenceState::new(cfg.clone());
        c.record_serial(80_000);
        let curve = [40_000u64, 27_000, 20_000, 16_000, 16_500, 15_800, 15_900, 15_850];
        let mut i = 0;
        let mut runs = 0;
        while c.should_continue() && runs < cfg.max_runs {
            let exec = if i < curve.len() { curve[i] } else { 15_850 + (runs as u64 % 7) * 10 };
            c.record_run(exec);
            i += 1;
            runs += 1;
        }
        assert!(!c.should_continue());
        assert!(runs >= cfg.lower_bound_runs() - 1);
        assert!(runs <= cfg.upper_bound_runs() + cores);
        // GME close to the true minimum.
        let best = c.best_us().unwrap();
        let gme = c.gme_us().unwrap();
        assert!(gme as f64 <= best as f64 * 1.10, "gme {gme} far from best {best}");
    }

    #[test]
    fn outlier_peaks_do_not_stop_the_search() {
        // §3.3.3: a run much slower than the serial execution is a noise peak.
        let mut c = ConvergenceState::new(config(8));
        c.record_serial(10_000);
        c.record_run(5_000);
        let balance_before = c.balance();
        let obs = c.record_run(50_000); // peak, 5x the serial time
        assert!(obs.is_outlier);
        assert_eq!(obs.roi, 0.0);
        // The peak neither adds credit nor debit (leak may still apply later).
        assert!((c.balance() - balance_before).abs() < 1e-9);
        assert!(c.should_continue());
        // The next normal run is measured against the pre-peak run.
        let next = c.record_run(4_000);
        assert!(!next.is_outlier);
        assert!(next.roi > 0.0);
        assert_eq!(c.best_us(), Some(4_000));
    }

    #[test]
    fn gme_threshold_discards_marginal_improvements() {
        let mut c = ConvergenceState::new(config(8));
        c.record_serial(100_000);
        c.record_run(50_000); // GME = 50_000 (improvement 50%)
        assert_eq!(c.gme_us(), Some(50_000));
        // 2% better: below the 5% threshold, GME unchanged.
        let obs = c.record_run(48_000);
        assert!(!obs.became_gme);
        assert_eq!(c.gme_us(), Some(50_000));
        // 10% better than serial relative improvement: becomes the new GME.
        let obs = c.record_run(40_000);
        assert!(obs.became_gme);
        assert_eq!(c.gme_us(), Some(40_000));
        assert_eq!(c.gme_run(), 3);
        // The true best still tracks the actual minimum.
        assert_eq!(c.best_us(), Some(40_000));
        c.record_run(39_000);
        assert_eq!(c.best_us(), Some(39_000));
        assert_eq!(c.gme_us(), Some(40_000));
    }

    #[test]
    fn runs_are_numbered_in_order() {
        let mut c = ConvergenceState::new(config(2));
        c.record_serial(1_000);
        assert_eq!(c.record_run(800).run, 1);
        assert_eq!(c.record_run(700).run, 2);
        assert_eq!(c.runs(), 2);
        assert_eq!(c.serial_us(), Some(1_000));
    }

    #[test]
    fn zero_times_are_clamped() {
        let mut c = ConvergenceState::new(config(2));
        c.record_serial(0);
        assert_eq!(c.serial_us(), Some(1));
        let obs = c.record_run(0);
        assert_eq!(obs.exec_us, 1);
    }

    #[test]
    #[should_panic(expected = "record_serial")]
    fn recording_a_run_before_the_serial_run_panics() {
        let mut c = ConvergenceState::new(config(2));
        c.record_run(100);
    }
}
