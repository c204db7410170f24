//! Deterministic fault injection: the chaos layer of the robustness story.
//!
//! The source paper motivates its convergence algorithm with survival in "a
//! noisy environment (operating system process interference, memory flushes,
//! etc.)" (§3.3.3), where "the execution time of some of the runs is often
//! greater than the serial plan execution time". Real OS noise is neither
//! controllable nor reproducible, so the engine injects it synthetically —
//! and this module is the *only* place it does. One seeded layer injects
//! three kinds of fault, each with its own probability in [`FaultConfig`]:
//!
//! * **delay** (`delay_probability`) — an operator execution is stretched by
//!   a delay drawn from `[min_delay_us, max_delay_us]`: random jitter for
//!   convergence-robustness runs, or a fixed per-operator cost
//!   ([`FaultConfig::fixed_delay`]) that makes every operator deliberately
//!   slow, for tests whose queries must stay in flight or whose operators
//!   must outlast thread wake-up;
//! * **operator panic** (`panic_probability`) — an operator panics
//!   mid-execution, exercising the executor's panic containment
//!   ([`crate::EngineError::WorkerPanicked`] must wake the client, the
//!   worker must survive, no DOP slot may leak);
//! * **spurious cancel** (`cancel_probability`) — a query's cancel flag flips
//!   as if an external client raced a cancellation, surfacing as
//!   [`crate::EngineError::Cancelled`].
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
//! Delays never change results by construction, so their per-run jitter is
//! harmless.
//!
//! Enable injection with [`crate::EngineConfig::with_faults`]. Every site is
//! an operator execution in the executor's driver: its checkpoint decides
//! panics and cancels, and the delay follows the execution. The failure
//! semantics each injected fault must surface as are specified in
//! `docs/architecture.md` §9.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::plan::NodeId;

/// The kinds of synthetic fault the injector can fire. The discriminant is
/// the kind's salt in the site hash (the compiler keeps them distinct).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// Stretch one operator execution by a bounded delay (timing-only;
    /// results are unaffected).
    Delay = 0x1,
    /// Panic inside one operator execution.
    OperatorPanic = 0x2,
    /// Flip the query's cancel flag as if an external cancellation raced
    /// the execution.
    SpuriousCancel = 0x4,
}

/// Configuration of the deterministic fault injector
/// ([`crate::EngineConfig::faults`]; `None` disables injection entirely).
///
/// ```
/// use apq_engine::fault::FaultConfig;
///
/// // A mild chaos profile: occasional delays and rare panics/cancels.
/// let cfg = FaultConfig::chaos(42);
/// assert!(cfg.panic_probability > 0.0);
///
/// // Any preset can be made harsher field by field.
/// let cfg = FaultConfig { cancel_probability: 0.2, ..FaultConfig::quiet(42) };
/// assert_eq!(cfg.delay_probability, 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the site-keyed decision hash; same seed + same sites =
    /// same outcome-changing faults, independent of thread interleaving.
    pub seed: u64,
    /// Per-operator probability of an injected delay (0.0 ..= 1.0).
    pub delay_probability: f64,
    /// Minimum injected operator delay, microseconds (the delay floor: a
    /// firing site sleeps for a value in `[min_delay_us, max_delay_us]`).
    pub min_delay_us: u64,
    /// Maximum injected operator delay, microseconds (raised to
    /// `min_delay_us` when configured below it).
    pub max_delay_us: u64,
    /// Per-operator probability of an injected operator panic.
    pub panic_probability: f64,
    /// Per-operator probability of a spurious cancellation.
    pub cancel_probability: f64,
}

impl FaultConfig {
    /// All probabilities zero: injects nothing.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            delay_probability: 0.0,
            min_delay_us: 0,
            max_delay_us: 0,
            panic_probability: 0.0,
            cancel_probability: 0.0,
        }
    }

    /// A mixed chaos profile: frequent small delays, rare panics and
    /// spurious cancels — the default diet of the chaos suite.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            delay_probability: 0.05,
            max_delay_us: 500,
            panic_probability: 0.02,
            cancel_probability: 0.01,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Delays only, no panics or cancels: results must stay byte-identical
    /// to a fault-free run.
    pub fn timing_only(seed: u64) -> Self {
        FaultConfig { delay_probability: 0.1, max_delay_us: 1_000, ..FaultConfig::quiet(seed) }
    }

    /// Every operator execution is stretched by exactly `delay_us`
    /// microseconds and nothing else is injected: a deliberately slow
    /// engine, for tests whose queries must stay in flight (admission,
    /// overload) or whose operators must outlast thread wake-up.
    /// Timing-only, so no seed is involved.
    pub fn fixed_delay(delay_us: u64) -> Self {
        FaultConfig {
            delay_probability: 1.0,
            min_delay_us: delay_us,
            max_delay_us: delay_us,
            ..FaultConfig::quiet(0)
        }
    }

    fn probability(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::Delay => self.delay_probability,
            FaultKind::OperatorPanic => self.panic_probability,
            FaultKind::SpuriousCancel => self.cancel_probability,
        }
    }
}

/// Cumulative injection counters ([`crate::Engine::fault_stats`]), one per
/// kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected operator delays.
    pub delays: u64,
    /// Injected operator panics.
    pub panics: u64,
    /// Injected spurious cancellations.
    pub cancels: u64,
}

impl FaultStats {
    /// Total faults injected across kinds.
    pub fn total(&self) -> u64 {
        self.delays + self.panics + self.cancels
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
pub(crate) struct FaultInjector {
    config: FaultConfig,
    delays: AtomicU64,
    panics: AtomicU64,
    cancels: AtomicU64,
}

impl FaultInjector {
    pub(crate) fn new(config: FaultConfig) -> Self {
        FaultInjector {
            config,
            delays: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            cancels: AtomicU64::new(0),
        }
    }

    /// Snapshot of the cumulative injection counters.
    pub(crate) fn stats(&self) -> FaultStats {
        FaultStats {
            delays: self.delays.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            cancels: self.cancels.load(Ordering::Relaxed),
        }
    }

    /// The site hash: uniform in `[0, 2^64)`, fully determined by
    /// `(seed, kind, query_id, node)`.
    fn site_hash(&self, kind: FaultKind, query_id: u64, node: u64) -> u64 {
        let salt = kind as u64;
        let mut h = splitmix64(self.config.seed ^ salt.wrapping_mul(0xA24BAED4963EE407));
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
    /// boundary `(query_id, node)`, cancel checked before panic so a site
    /// where both fire surfaces deterministically. Returns `None` for
    /// fault-free sites; delays are applied separately by
    /// [`FaultInjector::operator_delay_us`]. Counts every fired fault.
    pub(crate) fn operator_fault(&self, query_id: u64, node: NodeId) -> Option<FaultKind> {
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
    pub(crate) fn operator_delay_us(&self, query_id: u64, node: NodeId) -> u64 {
        let node = node as u64;
        if !self.fires(FaultKind::Delay, query_id, node) {
            return 0;
        }
        self.delays.fetch_add(1, Ordering::Relaxed);
        let min = self.config.min_delay_us;
        let spread = self.config.max_delay_us.saturating_sub(min);
        let draw = self.site_hash(FaultKind::Delay, query_id, node ^ 0x5D);
        // A spread of `u64::MAX` has no `spread + 1`: the range is all of
        // `u64` (so `min` is 0), and every draw already lies in it.
        min + spread.checked_add(1).map_or(draw, |width| draw % width)
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
        let cfg = FaultConfig { delay_probability: 1.0, max_delay_us: 50, ..FaultConfig::quiet(3) };
        let inj = FaultInjector::new(cfg);
        let mut nonzero_delay = false;
        for q in 0..10 {
            for n in 0..10 {
                let d = inj.operator_delay_us(q, n);
                assert!(d <= 50);
                nonzero_delay |= d > 0;
            }
        }
        assert!(nonzero_delay);
        assert_eq!(inj.stats().delays, 100);
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
            }
        }
        assert_eq!(fixed.stats(), FaultStats { delays: 100, ..FaultStats::default() });
    }

    #[test]
    fn a_delay_range_spanning_all_of_u64_draws_without_overflow() {
        let cfg = FaultConfig {
            delay_probability: 1.0,
            min_delay_us: 0,
            max_delay_us: u64::MAX,
            ..FaultConfig::quiet(9)
        };
        let inj = FaultInjector::new(cfg);
        let draws: Vec<u64> = (0..10)
            .flat_map(|q| (0..10).map(move |n| (q, n)))
            .map(|(q, n)| inj.operator_delay_us(q, n))
            .collect();
        // Every draw is in range by type; the hash spreads them far apart.
        assert!(draws.iter().any(|&d| d > u64::from(u32::MAX)), "{draws:?}");
        assert_eq!(inj.stats().delays, 100);
    }
}
