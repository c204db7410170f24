//! Error type for the operator layer.

use std::fmt;

use apq_columnar::ColumnarError;

/// Convenience alias used throughout the operators crate.
pub type Result<T> = std::result::Result<T, OperatorError>;

/// Errors raised while evaluating a physical operator.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorError {
    /// An error bubbled up from the storage layer.
    Columnar(ColumnarError),
    /// The predicate cannot be applied to the column's type.
    PredicateTypeMismatch {
        /// Type of the column being filtered.
        column_type: &'static str,
        /// Description of the predicate.
        predicate: String,
    },
    /// An arithmetic operator received incompatible inputs.
    InvalidCalc(String),
    /// The operator received inputs of mismatching lengths.
    LengthMismatch {
        /// Length of the left input.
        left: usize,
        /// Length of the right input.
        right: usize,
    },
    /// An aggregate was asked to combine incompatible partial states.
    IncompatibleAggregates(String),
    /// The join received a key column of an unsupported type.
    UnsupportedJoinKey(&'static str),
    /// The join's build side has more rows than the table can number (`u32`
    /// row indices, `u32::MAX` reserved).
    JoinBuildTooLarge {
        /// Rows of the build column.
        rows: usize,
    },
    /// Join pairs were asked of a key set whose table is a bitmap: it knows
    /// which keys the build side holds, not which rows.
    KeySetHasNoPairs,
    /// Division by zero during `calc` evaluation.
    DivisionByZero,
    /// An operator that requires at least one input got none.
    EmptyInput(&'static str),
}

impl fmt::Display for OperatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperatorError::Columnar(e) => write!(f, "storage error: {e}"),
            OperatorError::PredicateTypeMismatch { column_type, predicate } => {
                write!(f, "predicate {predicate} cannot be applied to {column_type} column")
            }
            OperatorError::InvalidCalc(msg) => write!(f, "invalid calc: {msg}"),
            OperatorError::LengthMismatch { left, right } => {
                write!(f, "operator input length mismatch: {left} vs {right}")
            }
            OperatorError::IncompatibleAggregates(msg) => {
                write!(f, "incompatible aggregate states: {msg}")
            }
            OperatorError::UnsupportedJoinKey(ty) => {
                write!(f, "unsupported join key type: {ty}")
            }
            OperatorError::JoinBuildTooLarge { rows } => {
                write!(
                    f,
                    "join build side of {rows} rows exceeds the limit of {} rows",
                    u32::MAX - 1
                )
            }
            OperatorError::KeySetHasNoPairs => {
                write!(f, "a key set answers membership only and has no rows to pair")
            }
            OperatorError::DivisionByZero => write!(f, "division by zero"),
            OperatorError::EmptyInput(op) => write!(f, "operator {op} requires at least one input"),
        }
    }
}

impl std::error::Error for OperatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OperatorError::Columnar(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ColumnarError> for OperatorError {
    fn from(e: ColumnarError) -> Self {
        OperatorError::Columnar(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_columnar_errors() {
        let e: OperatorError = ColumnarError::UnknownColumn("x".into()).into();
        assert!(matches!(e, OperatorError::Columnar(_)));
        assert!(e.to_string().contains("storage error"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_variants() {
        assert!(OperatorError::DivisionByZero.to_string().contains("zero"));
        assert!(OperatorError::EmptyInput("pack").to_string().contains("pack"));
        assert!(OperatorError::UnsupportedJoinKey("bool").to_string().contains("bool"));
        assert!(OperatorError::KeySetHasNoPairs.to_string().contains("key set"));
        let e = OperatorError::LengthMismatch { left: 3, right: 5 };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
        let e = OperatorError::JoinBuildTooLarge { rows: 5_000_000_000 };
        assert!(e.to_string().contains("5000000000") && e.to_string().contains("4294967294"));
    }
}
