//! Baselines the paper's evaluation compares adaptive parallelization against.
//!
//! * [`heuristic`] — static *heuristic parallelization* (HP), "the default
//!   parallelization technique in MonetDB" (§4.2.1): the serial plan is
//!   rewritten by splitting the largest table into a fixed number of
//!   partitions (one per thread) and propagating the partitions to all
//!   data-flow dependent operators. The work-stealing-style configuration
//!   of §4.1.1 is the same rewrite over-partitioned
//!   ([`DEFAULT_WORK_STEALING_PARTITIONS`] small partitions on few threads,
//!   so idle threads pick up remaining partitions from the shared queue).
//! * [`admission`] — an admission-controlled exchange engine modelling the
//!   Vectorwise behaviour of §4.2.4: under a concurrent workload the first
//!   client receives full parallelism while later clients are throttled.

#![forbid(unsafe_code)]

pub mod admission;
pub mod heuristic;

pub use admission::{AdmissionController, AdmissionTicket};
pub use heuristic::{heuristic_parallelize, DEFAULT_WORK_STEALING_PARTITIONS};
