//! Operator-at-a-time dataflow execution engine.
//!
//! This crate is the MonetDB-analogue substrate the paper's adaptive
//! parallelization runs on:
//!
//! * [`plan`] — the dataflow plan DAG ([`Plan`], [`OperatorSpec`]) in which
//!   "identification of individual expensive operators" is possible, plus the
//!   per-operator metadata (partitionable inputs, combiner kind) the plan
//!   mutations rely on;
//! * [`chunk`] — materialized intermediates flowing along plan edges;
//! * [`interpreter`] — executes one operator over its inputs;
//! * [`executor`] — the shared worker pool, the admission census and the
//!   one dependency-driven execution runtime ("an operator is scheduled for
//!   execution once all its input sources are available"), usable
//!   concurrently by many client threads;
//! * [`pipeline`] — how a plan is *planned* into that runtime's steps along
//!   its cuts: a node with cuts streams its input one task per part, and
//!   nodes cut into morsels ([`Plan::cut_into_morsels`]) or adopting their
//!   stream's parts fuse into their producer's pipeline;
//! * [`scheduler`] — the work-stealing task scheduler (per-worker deques
//!   plus one shared injector), per-query scheduling state
//!   ([`QueryHandle`]: admitted DOP, cancellation, deadline) and per-worker
//!   dispatch counters;
//! * [`profiler`] — per-operator execution feedback (time, worker, memory
//!   claim) and query-level multi-core-utilization metrics;
//! * [`fault`] — the deterministic chaos layer and the engine's one
//!   injected-latency mechanism: seeded injection of operator delays,
//!   operator panics and spurious cancellations, each keyed on its
//!   `(query, operator)` site ([`EngineConfig::with_faults`]) and
//!   reproducible byte-for-byte from a seed;
//! * [`service`] — the long-lived production query service: sessions with
//!   per-session submission queues, unified admission (a ticket *is* a
//!   registry reservation whose DOP share follows the census) and shared
//!   plan/result caches ([`QueryService`], [`Session`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod error;
pub mod executor;
pub mod fault;
pub mod interpreter;
pub mod pipeline;
pub mod plan;
pub mod profiler;
pub mod scheduler;
pub mod service;
mod sync;

pub use chunk::{Chunk, JoinView, OidsView, QueryOutput};
pub use error::{EngineError, Result};
pub use executor::{Engine, EngineConfig, QueryExecution, ReservedQuery};
#[doc(hidden)]
pub use executor::{ExecutionMode, SchedulerPolicy};
pub use fault::{FaultConfig, FaultStats};
pub use plan::{JoinSide, NodeId, OperatorSpec, Plan, PlanNode, DEFAULT_MORSEL_ROWS};
pub use profiler::{DopEvent, DopPhase, OperatorProfile, QueryProfile};
pub use scheduler::{QueryHandle, SchedulerStats};
pub use service::{QueryService, ServiceConfig, ServiceResponse, ServiceStats, Session};
