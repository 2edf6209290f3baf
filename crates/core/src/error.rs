//! Engine error type.

use std::fmt;
use std::time::Duration;

use parj_store::audit::AuditReport;

use crate::result::QueryRunStats;

/// Anything that can go wrong between a query string and its results.
#[derive(Debug)]
pub enum ParjError {
    /// SPARQL lex/parse failure.
    Sparql(parj_sparql::SparqlError),
    /// RDF data parse failure.
    Rio(parj_rio::ParseError),
    /// Join-order optimization failure (e.g. cartesian product).
    Optimize(parj_optimizer::OptimizeError),
    /// Plan validation failure (internal invariant).
    Plan(parj_join::PlanError),
    /// Snapshot persistence failure.
    Snapshot(parj_store::SnapshotError),
    /// I/O failure.
    Io(std::io::Error),
    /// Query uses a feature the engine rejects, with an explanation.
    Unsupported(String),
    /// Execution options were invalid — e.g. a per-run thread override
    /// of zero. Raised at option construction instead of silently
    /// clamping.
    InvalidOptions(String),
    /// The query was cancelled through its [`crate::CancelToken`]
    /// before it finished.
    Cancelled {
        /// Progress made before the cancellation was observed.
        partial: Box<QueryRunStats>,
    },
    /// The query ran past its wall-clock deadline
    /// ([`crate::QueryRequest::timeout`] /
    /// [`crate::EngineConfig::timeout`]).
    DeadlineExceeded {
        /// Time elapsed when a worker noticed the deadline.
        elapsed: Duration,
        /// Progress made before the deadline tripped.
        partial: Box<QueryRunStats>,
    },
    /// The query produced more result rows than its budget allows
    /// ([`crate::QueryRequest::max_rows`] /
    /// [`crate::EngineConfig::max_result_rows`]). The budget counts
    /// rows *produced by the join* — before `LIMIT`/`OFFSET` trimming.
    BudgetExceeded {
        /// Rows counted when the budget tripped (bounded overshoot of
        /// up to `threads × GUARD_BATCH` past the limit).
        rows: u64,
        /// Progress made before the budget tripped.
        partial: Box<QueryRunStats>,
    },
    /// The store failed the deep structural audit
    /// ([`crate::Parj::audit_strict`]): a physical invariant — CSR
    /// shape, replica-pair multiset equality, dictionary bijectivity,
    /// snapshot stability — does not hold.
    CorruptStore {
        /// Full report with per-violation predicate/replica/row
        /// coordinates.
        report: AuditReport,
    },
    /// A worker thread panicked mid-query. The panic was contained,
    /// sibling workers were cancelled, and the engine remains usable.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        message: String,
        /// Progress made by the workers that did not panic.
        partial: Box<QueryRunStats>,
    },
    /// An internal engine invariant did not hold (e.g. an id produced
    /// by the join failed to decode through the dictionary). These were
    /// once panics in facade callers; they are surfaced as errors so a
    /// serving layer can answer 500 and keep running instead of dying.
    Internal(String),
}

impl fmt::Display for ParjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParjError::Sparql(e) => write!(f, "{e}"),
            ParjError::Rio(e) => write!(f, "RDF parse error: {e}"),
            ParjError::Optimize(e) => write!(f, "optimizer error: {e}"),
            ParjError::Plan(e) => write!(f, "plan error: {e}"),
            ParjError::Snapshot(e) => write!(f, "{e}"),
            ParjError::Io(e) => write!(f, "I/O error: {e}"),
            ParjError::Unsupported(m) => write!(f, "unsupported query: {m}"),
            ParjError::InvalidOptions(m) => write!(f, "invalid execution options: {m}"),
            ParjError::Cancelled { partial } => {
                write!(f, "query cancelled after {} rows", partial.rows)
            }
            ParjError::DeadlineExceeded { elapsed, .. } => {
                write!(f, "query deadline exceeded after {elapsed:.2?}")
            }
            ParjError::BudgetExceeded { rows, .. } => {
                write!(f, "query result budget exceeded at {rows} rows")
            }
            ParjError::CorruptStore { report } => {
                write!(f, "corrupt store: {report}")
            }
            ParjError::WorkerPanicked { message, .. } => {
                write!(f, "query worker panicked: {message}")
            }
            ParjError::Internal(m) => write!(f, "internal engine invariant violated: {m}"),
        }
    }
}

impl ParjError {
    /// Partial-progress statistics for failures that interrupted a
    /// running query (`Cancelled`, `DeadlineExceeded`, `BudgetExceeded`,
    /// `WorkerPanicked`); `None` for errors raised before execution.
    pub fn partial_stats(&self) -> Option<&QueryRunStats> {
        match self {
            ParjError::Cancelled { partial }
            | ParjError::DeadlineExceeded { partial, .. }
            | ParjError::BudgetExceeded { partial, .. }
            | ParjError::WorkerPanicked { partial, .. } => Some(partial),
            _ => None,
        }
    }
}

impl std::error::Error for ParjError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParjError::Sparql(e) => Some(e),
            ParjError::Rio(e) => Some(e),
            ParjError::Optimize(e) => Some(e),
            ParjError::Plan(e) => Some(e),
            ParjError::Snapshot(e) => Some(e),
            ParjError::Io(e) => Some(e),
            ParjError::Unsupported(_)
            | ParjError::InvalidOptions(_)
            | ParjError::CorruptStore { .. }
            | ParjError::Cancelled { .. }
            | ParjError::DeadlineExceeded { .. }
            | ParjError::BudgetExceeded { .. }
            | ParjError::WorkerPanicked { .. }
            | ParjError::Internal(_) => None,
        }
    }
}

impl From<parj_sparql::SparqlError> for ParjError {
    fn from(e: parj_sparql::SparqlError) -> Self {
        ParjError::Sparql(e)
    }
}

impl From<parj_rio::ParseError> for ParjError {
    fn from(e: parj_rio::ParseError) -> Self {
        ParjError::Rio(e)
    }
}

impl From<parj_optimizer::OptimizeError> for ParjError {
    fn from(e: parj_optimizer::OptimizeError) -> Self {
        ParjError::Optimize(e)
    }
}

impl From<parj_join::PlanError> for ParjError {
    fn from(e: parj_join::PlanError) -> Self {
        ParjError::Plan(e)
    }
}

impl From<parj_store::SnapshotError> for ParjError {
    fn from(e: parj_store::SnapshotError) -> Self {
        ParjError::Snapshot(e)
    }
}

impl From<std::io::Error> for ParjError {
    fn from(e: std::io::Error) -> Self {
        ParjError::Io(e)
    }
}
