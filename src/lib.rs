//! Umbrella crate for the adaptive-query-parallelization reproduction.
//!
//! This crate only re-exports the workspace members so that the runnable
//! examples under `examples/` and the cross-crate integration tests under
//! `tests/` have a single, convenient dependency. The actual functionality
//! lives in the `apq-*` crates:
//!
//! * [`apq_columnar`] — columnar storage, partitioning, data generation.
//! * [`apq_operators`] — physical relational operators.
//! * [`apq_engine`] — dataflow plan IR, scheduler, profiler.
//! * [`apq_core`] — adaptive parallelization (plan mutation + convergence).
//! * [`apq_baselines`] — heuristic / work-stealing / admission-control baselines.
//! * [`apq_workloads`] — TPC-H-like and TPC-DS-like workloads, micro-benchmarks.

#![forbid(unsafe_code)]

pub use apq_baselines as baselines;
pub use apq_columnar as columnar;
pub use apq_core as adaptive;
pub use apq_engine as engine;
pub use apq_operators as operators;
pub use apq_workloads as workloads;
