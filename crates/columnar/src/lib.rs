//! Columnar storage substrate for the adaptive-parallelization reproduction.
//!
//! The paper's evaluation system (MonetDB) stores every attribute as a
//! *Binary Association Table* (BAT): a head column of densely increasing
//! object identifiers (oids) and a tail column holding the values. Because
//! the head is dense it is kept *virtual* and a column is effectively a typed
//! array whose position encodes the oid. Range partitioning then amounts to
//! creating read-only *slices* of the array — no data is copied (paper §2.3).
//!
//! This crate provides exactly that model:
//!
//! * [`Column`] — an `Arc`-backed typed vector plus an `(offset, len)` view,
//!   so slicing is O(1) and zero-copy. The offset doubles as the *base oid*
//!   of the first element, which is what keeps dynamically sized partitions
//!   aligned with the base column (paper Fig. 8).
//! * [`StringColumn`] — dictionary-encoded strings (codes + shared dictionary).
//! * [`Table`] / [`Catalog`] — named collections of equally long columns.
//! * [`partition`] — the range-partition descriptor ([`RowRange`]): the row
//!   window a plan edge carries, with the halving and equi-range cuts the
//!   adaptive and heuristic parallelizers make.
//! * [`datagen`] — synthetic data generators: uniform, sequential, Zipf and
//!   the skewed distribution of paper Fig. 13, plus TPC-style helpers.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod column;
pub mod datagen;
pub mod error;
pub mod partition;
pub mod strings;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use column::{typed_cache_hits, Column, ColumnData};
pub use error::{ColumnarError, Result};
pub use partition::RowRange;
pub use strings::StringColumn;
pub use table::{Table, TableBuilder};
pub use value::{DataType, ScalarValue};

/// Object identifier type (row id). MonetDB calls these *oids*.
pub type Oid = u64;
