//! Synthetic workloads reproducing the paper's evaluation inputs.
//!
//! * [`tpch`] — a TPC-H-like schema, data generator (uniform value
//!   distributions, scale-factor controlled sizes) and serial plans for the
//!   evaluated query subset (Q4, Q6, Q8, Q9, Q14, Q19, Q22 — paper Table 4).
//! * [`tpcds`] — a TPC-DS-like star schema with *skewed* fact-table foreign
//!   keys and five report-style queries (paper §4.2.2 uses "a few modified
//!   queries ... chosen such that they contain the large tables and a few
//!   smaller dimension tables").
//! * [`micro`] — the operator-level micro-benchmarks: the skewed-column
//!   select of Fig. 12/13, the selectivity/size select sweep of Fig. 14 /
//!   Table 2, and the join size sweep of Fig. 15 / Table 3.
//! * [`concurrent`] — the concurrent-workload driver (32 clients firing
//!   random queries) used by Figs. 1 and 16.
//! * [`builder`] / [`dates`] — shared plan-construction and calendar helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod concurrent;
pub mod dates;
pub mod micro;
pub mod tpcds;
pub mod tpch;

pub use builder::PlanBuilder;
pub use concurrent::{measure_under_load, BackgroundLoad, ConcurrentMeasurement};
pub use tpcds::{TpcdsQuery, TpcdsScale};
pub use tpch::{TpchQuery, TpchScale};

#[cfg(test)]
mod string_reference;
