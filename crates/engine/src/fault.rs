//! Deterministic fault injection: the chaos layer of the robustness story.
//!
//! The source paper motivates its convergence algorithm with survival in "a
//! noisy environment (operating system process interference, memory flushes,
//! etc.)" (§3.3.3), where "the execution time of some of the runs is often
//! greater than the serial plan execution time". Real OS noise is neither
//! controllable nor reproducible, so the engine injects it synthetically —
//! and this module is the *only* place it does: timing noise, emulated
//! slower platforms and the full failure menagerie a production service must
//! shrug off are all [`FaultKind`]s of one seeded layer:
//!
//! * [`FaultKind::Delay`] — an operator execution is stretched by a delay
//!   drawn from `[min_delay_us, max_delay_us]`: random jitter for
//!   convergence-robustness runs, or a fixed per-operator cost
//!   ([`FaultConfig::fixed_delay`]) emulating a platform with slower memory
//!   access (the 4-socket machine of paper Fig. 17b);
//! * [`FaultKind::OperatorPanic`] — an operator panics mid-execution,
//!   exercising the executor's panic containment
//!   ([`crate::EngineError::WorkerPanicked`] must wake the client, the
//!   worker must survive, no DOP slot may leak);
//! * [`FaultKind::DispatchStall`] — a worker stalls between taking a task
//!   off the queue and running it (emulates preemption / page faults at the
//!   *scheduler* boundary, which queue-wait accounting must absorb);
//! * [`FaultKind::SpuriousCancel`] — a query's cancel flag flips as if an
//!   external client raced a cancellation, exercising every cancel
//!   checkpoint.
//!
//! # Determinism
//!
//! Worker interleaving is not reproducible, so a shared-RNG design (draws
//! consumed in arrival order) would make chaos runs unrepeatable. Here
//! every decision is a **pure function of the fault site**:
//! `hash(seed, kind, query_id, operator)` decides
//! whether the fault fires and how large it is. Two runs with the same seed
//! and the same (query id, operator) population inject byte-for-byte the
//! same outcome-changing faults regardless of thread timing — which is what
//! lets `tests/chaos_stress.rs` assert exact error outcomes from a seed.
//! Timing-only faults ([`FaultKind::Delay`], [`FaultKind::DispatchStall`])
//! never change results by construction, so their per-run jitter is
//! harmless.
//!
//! On top of the probabilistic layer, a **scripted schedule**
//! ([`FaultConfig::schedule`]) fires a chosen fault every time an exact
//! `(query_id, operator)` site executes — the precision tool for regression
//! tests ("query 3's join panics") and for the chaos suite's directed
//! scenarios.
//!
//! Enable injection with [`crate::EngineConfig::with_faults`]; the injector
//! threads through the executor's panic-guarded operator runner and the
//! scheduler's dispatch loop. The failure semantics each injected
//! fault must surface as are specified in `docs/architecture.md` §9.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::plan::NodeId;

/// The kinds of synthetic fault the injector can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Stretch one operator execution by a bounded delay (timing-only;
    /// results are unaffected).
    Delay,
    /// Panic inside one operator execution. Must surface as
    /// [`crate::EngineError::WorkerPanicked`] on the submitting client,
    /// leave the worker thread alive and release the query's DOP slot.
    OperatorPanic,
    /// Stall the dispatching worker between dequeue and execution
    /// (timing-only; emulates OS preemption at the scheduler boundary).
    DispatchStall,
    /// Flip the query's cancel flag as if an external cancellation raced
    /// the execution. Must surface as [`crate::EngineError::Cancelled`].
    SpuriousCancel,
}

impl FaultKind {
    /// All kinds, for sweeps and reports.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Delay,
        FaultKind::OperatorPanic,
        FaultKind::DispatchStall,
        FaultKind::SpuriousCancel,
    ];

    fn salt(self) -> u64 {
        match self {
            FaultKind::Delay => 0x1,
            FaultKind::OperatorPanic => 0x2,
            FaultKind::DispatchStall => 0x3,
            FaultKind::SpuriousCancel => 0x4,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Delay => f.write_str("delay"),
            FaultKind::OperatorPanic => f.write_str("operator-panic"),
            FaultKind::DispatchStall => f.write_str("dispatch-stall"),
            FaultKind::SpuriousCancel => f.write_str("spurious-cancel"),
        }
    }
}

/// One scripted fault: fires every time the exact `(query_id, node)` site
/// executes (probabilities do not apply to scripted entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Engine-assigned query id the fault targets.
    pub query_id: u64,
    /// Plan node (operator) the fault fires at.
    pub node: NodeId,
    /// What happens at the site.
    pub kind: FaultKind,
}

/// Configuration of the deterministic fault injector
/// ([`crate::EngineConfig::faults`]; `None` disables injection entirely).
///
/// ```
/// use apq_engine::fault::{FaultConfig, FaultKind};
///
/// // A mild chaos profile: occasional delays and rare panics/cancels.
/// let cfg = FaultConfig::chaos(42);
/// assert!(cfg.panic_probability > 0.0);
///
/// // A scripted schedule: query 7's node 3 always panics.
/// let cfg = FaultConfig::quiet(42).with_scheduled(7, 3, FaultKind::OperatorPanic);
/// assert_eq!(cfg.schedule.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the site-keyed decision hash; same seed + same sites =
    /// same outcome-changing faults, independent of thread interleaving.
    pub seed: u64,
    /// Per-operator probability of a [`FaultKind::Delay`] (0.0 ..= 1.0).
    pub delay_probability: f64,
    /// Minimum injected operator delay, microseconds (the delay floor: a
    /// firing site sleeps for a value in `[min_delay_us, max_delay_us]`).
    pub min_delay_us: u64,
    /// Maximum injected operator delay, microseconds (raised to
    /// `min_delay_us` when configured below it).
    pub max_delay_us: u64,
    /// Per-operator probability of a [`FaultKind::OperatorPanic`].
    pub panic_probability: f64,
    /// Per-dispatch probability of a [`FaultKind::DispatchStall`].
    pub stall_probability: f64,
    /// Maximum injected dispatch stall, microseconds.
    pub max_stall_us: u64,
    /// Per-operator probability of a [`FaultKind::SpuriousCancel`].
    pub cancel_probability: f64,
    /// Scripted faults fired on exact `(query_id, node)` matches, on top
    /// of the probabilistic layer.
    pub schedule: Vec<ScheduledFault>,
}

impl FaultConfig {
    /// All probabilities zero, empty schedule: a base to build scripted
    /// configurations on.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            delay_probability: 0.0,
            min_delay_us: 0,
            max_delay_us: 0,
            panic_probability: 0.0,
            stall_probability: 0.0,
            max_stall_us: 0,
            cancel_probability: 0.0,
            schedule: Vec::new(),
        }
    }

    /// A mixed chaos profile: frequent small delays and stalls, rare
    /// panics and spurious cancels — the default diet of the chaos suite.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            delay_probability: 0.05,
            max_delay_us: 500,
            panic_probability: 0.02,
            stall_probability: 0.05,
            max_stall_us: 500,
            cancel_probability: 0.01,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Timing-only faults (delays + stalls, no panics or cancels): results
    /// must stay byte-identical to a fault-free run.
    pub fn timing_only(seed: u64) -> Self {
        FaultConfig {
            delay_probability: 0.1,
            max_delay_us: 1_000,
            stall_probability: 0.1,
            max_stall_us: 1_000,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Every operator execution is stretched by exactly `delay_us`
    /// microseconds and nothing else is injected: the emulation of a
    /// platform with slower memory access (paper Fig. 17b's 4-socket
    /// machine) and of a deliberately slow service in overload tests.
    /// Timing-only, so no seed is involved.
    pub fn fixed_delay(delay_us: u64) -> Self {
        FaultConfig {
            delay_probability: 1.0,
            min_delay_us: delay_us,
            max_delay_us: delay_us,
            ..FaultConfig::quiet(0)
        }
    }

    /// Adds a scripted fault (builder style).
    pub fn with_scheduled(mut self, query_id: u64, node: NodeId, kind: FaultKind) -> Self {
        self.schedule.push(ScheduledFault { query_id, node, kind });
        self
    }

    fn probability(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::Delay => self.delay_probability,
            FaultKind::OperatorPanic => self.panic_probability,
            FaultKind::DispatchStall => self.stall_probability,
            FaultKind::SpuriousCancel => self.cancel_probability,
        }
    }
}

/// Cumulative injection counters ([`FaultInjector::stats`]), one per kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected operator delays.
    pub delays: u64,
    /// Injected operator panics.
    pub panics: u64,
    /// Injected dispatch stalls.
    pub stalls: u64,
    /// Injected spurious cancellations.
    pub cancels: u64,
}

impl FaultStats {
    /// Total faults injected across kinds.
    pub fn total(&self) -> u64 {
        self.delays + self.panics + self.stalls + self.cancels
    }
}

/// SplitMix64: a tiny, high-quality mixing function — the entire source of
/// the injector's randomness, so decisions are pure functions of the site.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Run-time state of the fault injector (shared by all workers). All
/// methods are lock-free.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    delays: AtomicU64,
    panics: AtomicU64,
    stalls: AtomicU64,
    cancels: AtomicU64,
}

impl FaultInjector {
    /// Creates an injector from its configuration.
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector {
            config,
            delays: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            cancels: AtomicU64::new(0),
        }
    }

    /// The configuration this injector was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Snapshot of the cumulative injection counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            delays: self.delays.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            cancels: self.cancels.load(Ordering::Relaxed),
        }
    }

    fn counter(&self, kind: FaultKind) -> &AtomicU64 {
        match kind {
            FaultKind::Delay => &self.delays,
            FaultKind::OperatorPanic => &self.panics,
            FaultKind::DispatchStall => &self.stalls,
            FaultKind::SpuriousCancel => &self.cancels,
        }
    }

    /// The site hash: uniform in `[0, 2^64)`, fully determined by
    /// `(seed, kind, query_id, node)`.
    fn site_hash(&self, kind: FaultKind, query_id: u64, node: u64) -> u64 {
        let mut h = splitmix64(self.config.seed ^ kind.salt().wrapping_mul(0xA24BAED4963EE407));
        h = splitmix64(h ^ query_id.wrapping_mul(0x9FB21C651E98DF25));
        splitmix64(h ^ node)
    }

    /// Does `kind` fire at this site? Pure in the site; does not count.
    fn fires(&self, kind: FaultKind, query_id: u64, node: u64) -> bool {
        let p = self.config.probability(kind).clamp(0.0, 1.0);
        if p <= 0.0 {
            return false;
        }
        // Compare the top 53 bits against the probability: exact for p=1.0,
        // unbiased elsewhere.
        let h = self.site_hash(kind, query_id, node) >> 11;
        (h as f64) < p * (1u64 << 53) as f64
    }

    /// Decides whether an *outcome-changing* fault fires at operator
    /// boundary `(query_id, node)`: a scripted match wins, then the
    /// probabilistic layer (cancel checked before panic so a site scripted
    /// with both surfaces deterministically). Returns `None` for
    /// fault-free or timing-only sites; timing faults are applied
    /// separately by [`FaultInjector::operator_delay_us`]. Counts every
    /// fired fault.
    pub fn operator_fault(&self, query_id: u64, node: NodeId) -> Option<FaultKind> {
        for fault in &self.config.schedule {
            if fault.query_id == query_id
                && fault.node == node
                && matches!(fault.kind, FaultKind::OperatorPanic | FaultKind::SpuriousCancel)
            {
                self.counter(fault.kind).fetch_add(1, Ordering::Relaxed);
                return Some(fault.kind);
            }
        }
        let node = node as u64;
        if self.fires(FaultKind::SpuriousCancel, query_id, node) {
            self.cancels.fetch_add(1, Ordering::Relaxed);
            return Some(FaultKind::SpuriousCancel);
        }
        if self.fires(FaultKind::OperatorPanic, query_id, node) {
            self.panics.fetch_add(1, Ordering::Relaxed);
            return Some(FaultKind::OperatorPanic);
        }
        None
    }

    /// The delay (microseconds) to inject after executing `(query_id,
    /// node)`: 0 unless the site fires, then a site-keyed value in
    /// `[min_delay_us, max_delay_us]`. Timing-only: never changes results.
    pub fn operator_delay_us(&self, query_id: u64, node: NodeId) -> u64 {
        let scripted = self
            .config
            .schedule
            .iter()
            .any(|f| f.query_id == query_id && f.node == node && f.kind == FaultKind::Delay);
        let node = node as u64;
        if !scripted && !self.fires(FaultKind::Delay, query_id, node) {
            return 0;
        }
        self.delays.fetch_add(1, Ordering::Relaxed);
        let min = self.config.min_delay_us;
        let spread = self.config.max_delay_us.saturating_sub(min);
        min + self.site_hash(FaultKind::Delay, query_id, node ^ 0x5D) % (spread + 1)
    }

    /// The stall (microseconds) a worker injects before dispatching the
    /// `seq`-th observed task of `query_id`; 0 most of the time. Called
    /// from the scheduler's dispatch loop. Timing-only.
    pub fn dispatch_stall_us(&self, query_id: u64, seq: u64) -> u64 {
        if !self.fires(FaultKind::DispatchStall, query_id, seq) {
            return 0;
        }
        self.stalls.fetch_add(1, Ordering::Relaxed);
        if self.config.max_stall_us == 0 {
            return 0;
        }
        self.site_hash(FaultKind::DispatchStall, query_id, seq ^ 0xC3)
            % (self.config.max_stall_us + 1)
    }

    /// Sleeps for an injected dispatch stall (no-op most of the time);
    /// convenience wrapper for the scheduler's dispatch loop.
    pub fn maybe_stall(&self, query_id: u64, seq: u64) {
        let stall = self.dispatch_stall_us(query_id, seq);
        if stall > 0 {
            std::thread::sleep(std::time::Duration::from_micros(stall));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_config_never_fires() {
        let inj = FaultInjector::new(FaultConfig::quiet(1));
        for q in 0..20 {
            for n in 0..20 {
                assert_eq!(inj.operator_fault(q, n), None);
                assert_eq!(inj.operator_delay_us(q, n), 0);
                assert_eq!(inj.dispatch_stall_us(q, n as u64), 0);
            }
        }
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn decisions_are_deterministic_per_site() {
        let a = FaultInjector::new(FaultConfig::chaos(42));
        let b = FaultInjector::new(FaultConfig::chaos(42));
        for q in 0..50 {
            for n in 0..20 {
                assert_eq!(a.operator_fault(q, n), b.operator_fault(q, n));
                assert_eq!(a.operator_delay_us(q, n), b.operator_delay_us(q, n));
                assert_eq!(a.dispatch_stall_us(q, n as u64), b.dispatch_stall_us(q, n as u64));
            }
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "chaos profile fired nothing over 1000 sites");
    }

    #[test]
    fn different_seeds_disagree_somewhere() {
        let a = FaultInjector::new(FaultConfig::chaos(1));
        let b = FaultInjector::new(FaultConfig::chaos(2));
        let mut differs = false;
        for q in 0..50 {
            for n in 0..20 {
                differs |= a.operator_fault(q, n) != b.operator_fault(q, n);
                differs |= a.operator_delay_us(q, n) != b.operator_delay_us(q, n);
            }
        }
        assert!(differs, "seeds 1 and 2 injected identical faults at 1000 sites");
    }

    #[test]
    fn full_probability_always_fires_within_bounds() {
        let cfg = FaultConfig {
            delay_probability: 1.0,
            max_delay_us: 50,
            stall_probability: 1.0,
            max_stall_us: 75,
            ..FaultConfig::quiet(3)
        };
        let inj = FaultInjector::new(cfg);
        let mut nonzero_delay = false;
        for q in 0..10 {
            for n in 0..10 {
                let d = inj.operator_delay_us(q, n);
                assert!(d <= 50);
                nonzero_delay |= d > 0;
                assert!(inj.dispatch_stall_us(q, n as u64) <= 75);
            }
        }
        assert!(nonzero_delay);
        assert_eq!(inj.stats().delays, 100);
        assert_eq!(inj.stats().stalls, 100);
    }

    #[test]
    fn delay_floor_bounds_every_draw_and_fixed_delay_is_exact() {
        let cfg = FaultConfig {
            delay_probability: 1.0,
            min_delay_us: 40,
            max_delay_us: 60,
            ..FaultConfig::quiet(5)
        };
        let inj = FaultInjector::new(cfg);
        let fixed = FaultInjector::new(FaultConfig::fixed_delay(30));
        for q in 0..10 {
            for n in 0..10 {
                assert!((40..=60).contains(&inj.operator_delay_us(q, n)));
                assert_eq!(fixed.operator_delay_us(q, n), 30);
                assert_eq!(fixed.operator_fault(q, n), None);
                assert_eq!(fixed.dispatch_stall_us(q, n as u64), 0);
            }
        }
        assert_eq!(fixed.stats(), FaultStats { delays: 100, ..FaultStats::default() });
    }

    #[test]
    fn scripted_schedule_overrides_probabilities() {
        let cfg = FaultConfig::quiet(9)
            .with_scheduled(3, 1, FaultKind::OperatorPanic)
            .with_scheduled(4, 2, FaultKind::SpuriousCancel)
            .with_scheduled(5, 0, FaultKind::Delay);
        let inj = FaultInjector::new(cfg);
        assert_eq!(inj.operator_fault(3, 1), Some(FaultKind::OperatorPanic));
        assert_eq!(inj.operator_fault(3, 2), None, "only the exact node matches");
        assert_eq!(inj.operator_fault(2, 1), None, "only the exact query matches");
        assert_eq!(inj.operator_fault(4, 2), Some(FaultKind::SpuriousCancel));
        // Scripted delays fire even with probability 0 (bounded by
        // max_delay_us, which is 0 here, so the duration collapses to 0 but
        // the site still counts as fired).
        inj.operator_delay_us(5, 0);
        let stats = inj.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.cancels, 1);
        assert_eq!(stats.delays, 1);
    }

    #[test]
    fn kind_display_and_salts_are_distinct() {
        let mut salts: Vec<u64> = FaultKind::ALL.iter().map(|k| k.salt()).collect();
        salts.dedup();
        assert_eq!(salts.len(), 4);
        assert_eq!(FaultKind::OperatorPanic.to_string(), "operator-panic");
        assert_eq!(FaultKind::ALL.len(), 4);
    }
}
