//! The typed error hierarchy shared by the whole workspace.
//!
//! Library crates return [`ProxError`] instead of `String` so callers can
//! distinguish *bad input* (reject, fix the data), *budget exhaustion*
//! (retry with a bigger budget or accept a partial answer), and *internal
//! invariant violations* (a bug — report it). The CLI maps the three
//! [`ErrorKind`]s to distinct non-zero exit codes.

use std::fmt;

use crate::budget::BudgetStop;

/// Coarse classification of a [`ProxError`], used for exit codes and retry
/// policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The caller handed us something malformed: an unparsable request,
    /// corrupt store bytes, an invalid configuration, a degenerate
    /// taxonomy, or a request the engine does not support.
    Input,
    /// An execution budget was exhausted before any work could be done.
    /// (Mid-run exhaustion is *not* an error: the anytime contract returns
    /// the best-so-far summary instead.)
    Budget,
    /// An internal invariant broke; this is a bug in PROX, not bad input.
    Internal,
}

impl ErrorKind {
    /// The CLI exit code for this kind: input → 2, budget → 3, internal → 4.
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorKind::Input => 2,
            ErrorKind::Budget => 3,
            ErrorKind::Internal => 4,
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::Input => "input",
            ErrorKind::Budget => "budget",
            ErrorKind::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// The workspace-wide typed error.
#[derive(Clone, Debug, PartialEq)]
pub enum ProxError {
    /// A provenance expression failed to parse.
    Parse {
        /// Human-readable description of the syntax problem.
        message: String,
        /// Byte offset into the input where parsing failed.
        offset: usize,
    },
    /// An I/O operation failed (reading or writing a segment store, a
    /// report or a manifest).
    Io {
        /// What we were doing (e.g. the path involved).
        context: String,
        /// The underlying OS error, stringified.
        message: String,
    },
    /// Persisted or generated data violated a structural invariant
    /// (truncated file, annotation id out of range, bad JSON shape).
    Corrupt {
        /// What was being validated.
        context: String,
        /// Which invariant broke.
        detail: String,
    },
    /// A summarization configuration failed validation.
    Config(String),
    /// An execution budget was exhausted before any work was done.
    Budget(BudgetStop),
    /// The taxonomy is degenerate (e.g. contains a cycle).
    Taxonomy(String),
    /// The request is well-formed but outside what the engine supports
    /// (e.g. exact optimum on a workload too large to enumerate).
    Unsupported(String),
    /// An internal invariant broke — a bug in PROX.
    Internal(String),
}

impl ProxError {
    /// Build a [`ProxError::Config`].
    pub fn config(message: impl Into<String>) -> Self {
        ProxError::Config(message.into())
    }

    /// Build a [`ProxError::Corrupt`].
    pub fn corrupt(context: impl Into<String>, detail: impl Into<String>) -> Self {
        ProxError::Corrupt {
            context: context.into(),
            detail: detail.into(),
        }
    }

    /// Build a [`ProxError::Io`] from a context and an `std::io::Error`.
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> Self {
        ProxError::Io {
            context: context.into(),
            message: err.to_string(),
        }
    }

    /// Build a [`ProxError::Taxonomy`].
    pub fn taxonomy(message: impl Into<String>) -> Self {
        ProxError::Taxonomy(message.into())
    }

    /// Build a [`ProxError::Unsupported`].
    pub fn unsupported(message: impl Into<String>) -> Self {
        ProxError::Unsupported(message.into())
    }

    /// Build a [`ProxError::Internal`].
    pub fn internal(message: impl Into<String>) -> Self {
        ProxError::Internal(message.into())
    }

    /// Coarse classification (drives CLI exit codes).
    pub fn kind(&self) -> ErrorKind {
        match self {
            ProxError::Parse { .. }
            | ProxError::Io { .. }
            | ProxError::Corrupt { .. }
            | ProxError::Config(_)
            | ProxError::Taxonomy(_)
            | ProxError::Unsupported(_) => ErrorKind::Input,
            ProxError::Budget(_) => ErrorKind::Budget,
            ProxError::Internal(_) => ErrorKind::Internal,
        }
    }
}

impl fmt::Display for ProxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            ProxError::Io { context, message } => write!(f, "io error ({context}): {message}"),
            ProxError::Corrupt { context, detail } => {
                write!(f, "corrupt data ({context}): {detail}")
            }
            ProxError::Config(m) => write!(f, "invalid configuration: {m}"),
            ProxError::Budget(stop) => write!(f, "budget exhausted before any work: {stop}"),
            ProxError::Taxonomy(m) => write!(f, "degenerate taxonomy: {m}"),
            ProxError::Unsupported(m) => write!(f, "unsupported request: {m}"),
            ProxError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ProxError {}

impl From<BudgetStop> for ProxError {
    fn from(stop: BudgetStop) -> Self {
        ProxError::Budget(stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_distinct_exit_codes() {
        assert_eq!(ProxError::config("w").kind().exit_code(), 2);
        assert_eq!(ProxError::corrupt("f", "d").kind().exit_code(), 2);
        assert_eq!(ProxError::taxonomy("cycle").kind().exit_code(), 2);
        assert_eq!(ProxError::unsupported("n").kind().exit_code(), 2);
        assert_eq!(
            ProxError::Budget(BudgetStop::Deadline).kind().exit_code(),
            3
        );
        assert_eq!(ProxError::internal("bug").kind().exit_code(), 4);
    }

    #[test]
    fn display_is_informative() {
        let e = ProxError::Parse {
            message: "unexpected '+'".into(),
            offset: 7,
        };
        let s = e.to_string();
        assert!(s.contains("byte 7") && s.contains("unexpected"), "{s}");
        assert!(ProxError::Budget(BudgetStop::Cancelled)
            .to_string()
            .contains("cancel"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(ProxError::internal("x"));
        assert!(e.to_string().contains("internal"));
    }
}
