//! Adaptive query parallelization — the paper's primary contribution.
//!
//! "We introduce adaptive parallelization, which exploits execution feedback
//! to gradually increase the level of parallelism until we reach a
//! sweet-spot. After each query has been executed, we replace an expensive
//! operator (or a sequence) by a faster parallel version, i.e. the query plan
//! is morphed into a faster one. A convergence algorithm is designed to reach
//! the optimum as quick as possible." (Gawade & Kersten, EDBT 2016)
//!
//! The crate is organized along the paper's architecture (§2, §3):
//!
//! * [`mutation`] — the basic, medium and advanced plan mutations, each a
//!   change to one node's cuts, and [`mutate_most_expensive`], which tries
//!   the previous run's operators by the time of their dearest part and
//!   mutates the first one a mutation applies to;
//! * [`convergence`] — the credit/debit convergence algorithm with leaking
//!   debit, outlier handling, GME tracking and the fastest run so far;
//! * [`optimizer`] — the run loop (paper Fig. 2) driving it all, and the
//!   paper's plan administration policy: it keeps the fastest run's plan
//!   and returns it as [`AdaptiveReport::best_plan`];
//! * [`config`] / [`report`] — tunables and result structures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod convergence;
pub mod error;
pub mod mutation;
pub mod optimizer;
pub mod report;

pub use config::AdaptiveConfig;
pub use convergence::{ConvergenceState, RunObservation};
pub use error::{CoreError, Result};
pub use mutation::{mutate_most_expensive, MutationKind, MutationOutcome};
pub use optimizer::AdaptiveOptimizer;
pub use report::{AdaptiveReport, AdaptiveRunRecord};
