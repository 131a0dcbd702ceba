//! Engine error type.

use std::fmt;

use crate::schema::ColumnType;

/// Errors surfaced by planning and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum PdbError {
    /// A referenced table does not exist in the catalog.
    UnknownTable(String),
    /// A referenced column does not exist in the input schema.
    UnknownColumn(String),
    /// A referenced black-box function is not registered.
    UnknownFunction(String),
    /// A referenced query parameter was not declared.
    UnknownParam(String),
    /// A black-box call has the wrong number of arguments.
    ArityMismatch {
        /// Function name.
        function: String,
        /// Declared arity.
        expected: usize,
        /// Provided argument count.
        got: usize,
    },
    /// The operation requires a deterministic input (e.g. join keys, sort
    /// keys, group-by keys) but got a stochastic expression.
    StochasticNotAllowed(&'static str),
    /// The plan shape is unsupported by the chosen engine.
    Unsupported(String),
    /// A type error during evaluation.
    TypeError(String),
    /// A boolean connective (`AND`, `OR`, `NOT`) over an operand whose
    /// static type is not boolean (a NULL literal is allowed). The
    /// engines would read such an operand differently, so binding refuses
    /// it.
    NonBooleanOperand {
        /// The connective.
        op: &'static str,
        /// The operand's static type.
        found: ColumnType,
    },
    /// Loading or saving a basis snapshot failed (the stringified
    /// `jigsaw_core::basis::SnapshotError`; typed handling lives upstream).
    Snapshot(String),
    /// A session-server wire-protocol exchange failed (the stringified
    /// `jigsaw_server::protocol::ProtocolError`; typed handling lives
    /// upstream). Carried here so protocol failures flow through the same
    /// `Result` plumbing as every other engine error.
    Protocol(String),
    /// A simulation panicked during world evaluation. The panic is caught at
    /// the evaluation boundary (caller thread or worker) and surfaced as a
    /// regular error so long-lived hosts — the session server above all —
    /// answer `ERR` and keep serving instead of aborting the process.
    WorkerPanic(String),
    /// An `OPTIMIZE` metric evaluated to NaN. NaN is poison for selector
    /// comparisons (`f64::max` silently drops it, orderings silently fail),
    /// so the selector refuses to rank candidates on it.
    NanMetric(String),
    /// A client-supplied index (parameter point, output column, …) is
    /// outside the valid range. Long-lived hosts answer `ERR` and keep
    /// serving — the same contract as `WorkerPanic` — instead of tripping
    /// an `assert!` and taking the whole server down.
    OutOfRange(String),
}

impl fmt::Display for PdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdbError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            PdbError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            PdbError::UnknownFunction(x) => write!(f, "unknown black-box function `{x}`"),
            PdbError::UnknownParam(p) => write!(f, "unknown parameter `@{p}`"),
            PdbError::ArityMismatch { function, expected, got } => {
                write!(f, "`{function}` expects {expected} argument(s), got {got}")
            }
            PdbError::StochasticNotAllowed(what) => {
                write!(f, "{what} must be deterministic")
            }
            PdbError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            PdbError::TypeError(msg) => write!(f, "type error: {msg}"),
            PdbError::NonBooleanOperand { op, found } => {
                write!(f, "type error: `{op}` needs boolean operands, got {found:?}")
            }
            PdbError::Snapshot(msg) => write!(f, "basis snapshot: {msg}"),
            PdbError::Protocol(msg) => write!(f, "protocol: {msg}"),
            PdbError::WorkerPanic(msg) => {
                write!(f, "simulation panicked during world evaluation: {msg}")
            }
            PdbError::NanMetric(msg) => write!(f, "metric is NaN: {msg}"),
            PdbError::OutOfRange(msg) => write!(f, "out of range: {msg}"),
        }
    }
}

impl std::error::Error for PdbError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, PdbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(PdbError::UnknownTable("t".into()).to_string(), "unknown table `t`");
        assert_eq!(
            PdbError::ArityMismatch { function: "F".into(), expected: 2, got: 3 }.to_string(),
            "`F` expects 2 argument(s), got 3"
        );
        assert_eq!(PdbError::UnknownParam("p".into()).to_string(), "unknown parameter `@p`");
        assert_eq!(
            PdbError::NonBooleanOperand { op: "AND", found: ColumnType::Float }.to_string(),
            "type error: `AND` needs boolean operands, got Float"
        );
        assert_eq!(
            PdbError::Protocol("frame truncated".into()).to_string(),
            "protocol: frame truncated"
        );
        assert_eq!(
            PdbError::WorkerPanic("boom".into()).to_string(),
            "simulation panicked during world evaluation: boom"
        );
        assert_eq!(
            PdbError::NanMetric("constraint on `x`".into()).to_string(),
            "metric is NaN: constraint on `x`"
        );
        assert_eq!(
            PdbError::OutOfRange("point 99 of 10".into()).to_string(),
            "out of range: point 99 of 10"
        );
    }
}
