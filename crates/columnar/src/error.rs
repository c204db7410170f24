//! Error type shared by the storage layer.

use std::fmt;

/// Convenience alias used throughout the columnar crate.
pub type Result<T> = std::result::Result<T, ColumnarError>;

/// Errors raised by the storage layer.
///
/// The higher layers (operators, engine) wrap these into their own error
/// types; none of them should ever surface during a correctly constructed
/// query plan, but the adaptive mutation machinery relies on them to detect
/// mis-aligned partitions early (paper §2.3 discusses how misalignment causes
/// "repetition of data" or "omission of data").
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnarError {
    /// A column was addressed with a position outside its view.
    OutOfBounds {
        /// Offending position.
        index: usize,
        /// Length of the addressed view.
        len: usize,
    },
    /// Two columns that must be equally long are not.
    LengthMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// An operation expected a different physical type.
    TypeMismatch {
        /// Type that was expected.
        expected: &'static str,
        /// Type that was found.
        found: &'static str,
    },
    /// A requested column does not exist in the table.
    UnknownColumn(String),
    /// A requested table does not exist in the catalog.
    UnknownTable(String),
    /// A slice request exceeded the bounds of the underlying column.
    InvalidSlice {
        /// Requested start of the slice.
        start: usize,
        /// Requested length of the slice.
        len: usize,
        /// Length of the column being sliced.
        column_len: usize,
    },
    /// A partition set does not cover its domain exactly once.
    InvalidPartitioning(String),
    /// An oid used for tuple reconstruction falls outside the target slice.
    MisalignedOid {
        /// The offending oid.
        oid: u64,
        /// First valid oid of the target slice.
        lo: u64,
        /// One past the last valid oid of the target slice.
        hi: u64,
    },
    /// A table was built from columns of differing lengths.
    RaggedTable {
        /// Name of the offending column.
        column: String,
        /// Its length.
        len: usize,
        /// The length of the first column.
        expected: usize,
    },
    /// A table was built with two columns of the same name.
    DuplicateColumn(String),
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarError::OutOfBounds { index, len } => {
                write!(f, "position {index} out of bounds for view of length {len}")
            }
            ColumnarError::LengthMismatch { left, right } => {
                write!(f, "column length mismatch: {left} vs {right}")
            }
            ColumnarError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            ColumnarError::UnknownColumn(name) => write!(f, "unknown column '{name}'"),
            ColumnarError::UnknownTable(name) => write!(f, "unknown table '{name}'"),
            ColumnarError::InvalidSlice { start, len, column_len } => write!(
                f,
                "invalid slice [{start}, {}) of column with {column_len} rows",
                start + len
            ),
            ColumnarError::InvalidPartitioning(msg) => write!(f, "invalid partitioning: {msg}"),
            ColumnarError::MisalignedOid { oid, lo, hi } => {
                write!(f, "oid {oid} outside aligned slice [{lo}, {hi})")
            }
            ColumnarError::RaggedTable { column, len, expected } => {
                write!(f, "column '{column}' has {len} rows but the table has {expected}")
            }
            ColumnarError::DuplicateColumn(column) => {
                write!(f, "column '{column}' appears twice in the table")
            }
        }
    }
}

impl std::error::Error for ColumnarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ColumnarError::OutOfBounds { index: 10, len: 4 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('4'));

        let e = ColumnarError::UnknownColumn("l_extendedprice".into());
        assert!(e.to_string().contains("l_extendedprice"));

        let e = ColumnarError::MisalignedOid { oid: 9, lo: 0, hi: 8 };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ColumnarError>();
    }
}
