//! Error type for the execution engine.

use std::fmt;

use apq_columnar::ColumnarError;
use apq_operators::OperatorError;

/// Convenience alias used throughout the engine crate.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Errors raised while validating or executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An error bubbled up from an operator.
    Operator(OperatorError),
    /// An error bubbled up from the storage layer.
    Columnar(ColumnarError),
    /// The plan is structurally invalid (cycle, dangling input, bad arity, ...).
    InvalidPlan(String),
    /// A node received an input chunk of the wrong kind.
    InvalidInput {
        /// The node that rejected its input.
        node: usize,
        /// Description of what was expected.
        expected: &'static str,
        /// Kind of chunk that was found.
        found: &'static str,
    },
    /// The referenced table or column does not exist in the catalog.
    UnknownObject(String),
    /// A worker thread panicked while executing an operator.
    WorkerPanicked(String),
    /// The engine was shut down while queries were still running.
    EngineShutDown,
    /// The query's handle was cancelled before it finished.
    Cancelled,
    /// A submission was made on a closed service session
    /// ([`crate::service::Session`]).
    SessionClosed,
    /// The query's deadline ([`crate::QueryHandle::deadline`]) expired
    /// before it finished; partial work was cancelled.
    DeadlineExceeded,
    /// The service refused this submission because its queues are full
    /// ([`crate::ServiceConfig::max_queued`]); retry after backing off.
    Overloaded {
        /// Suggested client backoff before resubmitting, derived from the
        /// observed service latency and current queue depth.
        retry_after_hint: std::time::Duration,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Operator(e) => write!(f, "operator error: {e}"),
            EngineError::Columnar(e) => write!(f, "storage error: {e}"),
            EngineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            EngineError::InvalidInput { node, expected, found } => {
                write!(f, "node {node}: expected {expected} input, found {found}")
            }
            EngineError::UnknownObject(name) => write!(f, "unknown catalog object: {name}"),
            EngineError::WorkerPanicked(msg) => write!(f, "worker panicked: {msg}"),
            EngineError::EngineShutDown => write!(f, "engine has been shut down"),
            EngineError::Cancelled => write!(f, "query was cancelled"),
            EngineError::SessionClosed => write!(f, "session is closed"),
            EngineError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            EngineError::Overloaded { retry_after_hint } => {
                write!(f, "service overloaded; retry after {retry_after_hint:?}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Operator(e) => Some(e),
            EngineError::Columnar(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OperatorError> for EngineError {
    fn from(e: OperatorError) -> Self {
        EngineError::Operator(e)
    }
}

impl From<ColumnarError> for EngineError {
    fn from(e: ColumnarError) -> Self {
        EngineError::Columnar(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = OperatorError::DivisionByZero.into();
        assert!(matches!(e, EngineError::Operator(_)));
        assert!(e.to_string().contains("operator error"));
        let e: EngineError = ColumnarError::UnknownTable("t".into()).into();
        assert!(matches!(e, EngineError::Columnar(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e = EngineError::InvalidInput { node: 3, expected: "oids", found: "column" };
        assert!(e.to_string().contains("node 3"));
        assert!(EngineError::EngineShutDown.to_string().contains("shut down"));
        assert!(EngineError::Cancelled.to_string().contains("cancelled"));
        assert!(EngineError::SessionClosed.to_string().contains("session"));
        assert!(EngineError::DeadlineExceeded.to_string().contains("deadline"));
        let e = EngineError::Overloaded { retry_after_hint: std::time::Duration::from_millis(5) };
        assert!(e.to_string().contains("overloaded"));
    }
}
