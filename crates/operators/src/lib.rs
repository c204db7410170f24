//! Physical relational operators for the adaptive-parallelization engine.
//!
//! These are MonetDB-style *operator-at-a-time* primitives: each call
//! consumes whole columns (or column slices) and materializes its complete
//! result. The execution engine wraps them into dataflow plan nodes; the
//! adaptive parallelizer clones them over dynamically sized range partitions.
//!
//! Operator inventory (paper §2.1/§2.2):
//!
//! * [`mod@select`] — predicate evaluation producing a candidate oid list
//!   (`algebra.select` / `uselect`), optionally restricted by a previous
//!   candidate list (the "filter operator which ... accepts column and also a
//!   bit vector from another selection operator's output").
//! * [`mod@fetch`] — tuple reconstruction (`algebra.leftfetchjoin`); an oid
//!   outside the value slice is an error (the hazard of paper Fig. 9/10).
//! * [`join`] — hash join build and probe; only the outer side is ever
//!   partitioned, matching the paper's join parallelization.
//! * [`calc`] — vectorized arithmetic (`batcalc.*`).
//! * [`aggregate`] — scalar and single-attribute grouped aggregation with
//!   mergeable partial states (`aggr.sum`, `group.*`).
//! * [`exchange`] — the exchange-union operator (`mat.pack`) combining the
//!   results of cloned operators while preserving the mutation order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod calc;
pub mod error;
pub mod exchange;
pub mod fetch;
pub mod join;
pub mod predicate;
pub mod select;

pub use aggregate::{
    grouped_agg, merge_grouped, scalar_agg, AggFunc, AggState, GroupKey, GroupedAgg,
};
pub use calc::{calc_col_col, calc_col_scalar, calc_scalar_col, BinaryOp};
pub use error::{OperatorError, Result};
pub use exchange::{pack_columns, pack_oids};
pub use fetch::fetch;
pub use join::{JoinHashTable, JoinResult, KeySetPart};
pub use predicate::{CmpOp, Predicate};
pub use select::{select, select_with_candidates, selectivity};
