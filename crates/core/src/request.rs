//! The query API: one builder, the only way to run a query on
//! [`Parj`].
//!
//! A request pins the engine version published when it is built and
//! runs on it, taking no engine lock: a [`Parj::mutate`] batch that
//! publishes meanwhile neither waits for it nor changes its answer.
//!
//! Every axis of a run is a builder knob:
//!
//! * **result shape** — the answer's rows (default; held by reference
//!   as an [`Answer`], read as ids or terms), or a silent-mode count
//!   ([`QueryRequest::count_only`], the paper's primary measurement);
//! * **lifecycle limits** — [`QueryRequest::timeout`],
//!   [`QueryRequest::max_rows`], [`QueryRequest::cancel`];
//! * **execution overrides** — [`QueryRequest::threads`],
//!   [`QueryRequest::strategy`], or a whole [`RunOverrides`] via
//!   [`QueryRequest::overrides`];
//! * **introspection** — [`QueryRequest::explain`] attaches an
//!   `EXPLAIN ANALYZE`-style annotated plan from the *actual* parallel
//!   run to the outcome.
//!
//! ```
//! use parj_core::{LoadSource, OnParseError, Parj, RdfFormat};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let mut loader = Parj::builder().loader();
//! loader.load(
//!     LoadSource::Text("<http://e/a> <http://e/p> <http://e/b> ."),
//!     RdfFormat::NTriples,
//!     OnParseError::Abort,
//! ).unwrap();
//! let engine: Arc<Parj> = Arc::new(loader.finish());
//! let outcome = engine
//!     .request("SELECT ?x ?y WHERE { ?x <http://e/p> ?y }")
//!     .timeout(Duration::from_secs(5))
//!     .max_rows(10_000)
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.count, 1);
//! ```

use std::time::Duration;

use parj_dict::{Id, Term, TermRef};
use parj_join::{CancelToken, ProbeStrategy};

use parj_sync::Arc;

use crate::engine::{Parj, Ready, RunOverrides};
use crate::error::ParjError;
use crate::result::{Answer, QueryRunStats};

/// Everything the engine needs to run one request (the builder's
/// resolved state, minus the engine and the pinned version).
pub(crate) struct RunSpec {
    pub(crate) over: RunOverrides,
    /// Silent mode: count only (no materialization unless forced by
    /// `DISTINCT`/entailment dedup).
    pub(crate) count_only: bool,
    pub(crate) explain: bool,
    pub(crate) no_cache: bool,
}

/// A configured query, ready to [`run`](QueryRequest::run). Built by
/// [`Parj::request`].
pub struct QueryRequest<'e> {
    engine: &'e Parj,
    /// The version this request reads, pinned when it was built.
    ready: Arc<Ready>,
    query: String,
    spec: RunSpec,
}

impl<'e> QueryRequest<'e> {
    fn new(engine: &'e Parj, query: &str) -> Self {
        QueryRequest {
            engine,
            ready: engine.snapshot(),
            query: query.to_string(),
            spec: RunSpec {
                over: RunOverrides::default(),
                count_only: false,
                explain: false,
                no_cache: false,
            },
        }
    }

    /// Wall-clock deadline for this run (wins over
    /// [`crate::EngineConfig::timeout`]).
    pub fn timeout(mut self, limit: Duration) -> Self {
        self.spec.over.timeout = Some(limit);
        self
    }

    /// Result-row budget: the join aborts with
    /// [`ParjError::BudgetExceeded`] once it has produced more rows
    /// (counted pre-`LIMIT`, with bounded overshoot).
    pub fn max_rows(mut self, rows: u64) -> Self {
        self.spec.over.max_rows = Some(rows);
        self
    }

    /// Attaches a cancellation token; trip it from any thread to stop
    /// the run.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.spec.over.cancel = Some(token);
        self
    }

    /// Overrides the worker thread count for this run
    /// ([`crate::EngineConfig::threads`] is the ceiling). Zero is
    /// rejected at [`run`](QueryRequest::run) with
    /// [`ParjError::InvalidOptions`].
    pub fn threads(mut self, n: usize) -> Self {
        self.spec.over.threads = Some(n);
        self
    }

    /// Overrides the probe strategy for this run.
    pub fn strategy(mut self, s: ProbeStrategy) -> Self {
        self.spec.over.strategy = Some(s);
        self
    }

    /// Overrides the morsel size (driver keys per work unit) for this
    /// run. Results are byte-identical at any value; zero is rejected
    /// at [`run`](QueryRequest::run) with
    /// [`ParjError::InvalidOptions`].
    pub fn morsel_size(mut self, n: usize) -> Self {
        self.spec.over.morsel_size = Some(n);
        self
    }

    /// Replaces *all* per-run overrides with `over` (any
    /// `timeout`/`max_rows`/`cancel`/`threads`/`strategy` set earlier
    /// on this builder is discarded; knobs chained afterwards apply on
    /// top).
    pub fn overrides(mut self, over: &RunOverrides) -> Self {
        self.spec.over = over.clone();
        self
    }

    /// Request only the result count (the paper's silent mode).
    pub fn count_only(mut self) -> Self {
        self.spec.count_only = true;
        self
    }

    /// Skip the plan/result cache for this run: nothing is served from
    /// it and nothing is inserted. A no-op when the engine has caching
    /// disabled ([`crate::EngineConfig::cache`]); with caching enabled
    /// the run reports [`crate::CacheStatus::Bypassed`].
    pub fn bypass_cache(mut self) -> Self {
        self.spec.no_cache = true;
        self
    }

    /// Attach an `EXPLAIN ANALYZE`-style annotated plan — per pipeline
    /// stage, the tuples that entered it and the search decisions it
    /// made, aggregated over all workers of the real parallel run — to
    /// [`QueryOutcome::profile`].
    pub fn explain(mut self, on: bool) -> Self {
        self.spec.explain = on;
        self
    }

    /// Executes the request on the version it pinned.
    pub fn run(self) -> Result<QueryOutcome, ParjError> {
        self.engine
            .run_request(&self.ready, &self.query, &self.spec)
    }
}

impl std::fmt::Debug for QueryRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRequest")
            .field("query", &self.query)
            .field("count_only", &self.spec.count_only)
            .field("explain", &self.spec.explain)
            .field("overrides", &self.spec.over)
            .finish()
    }
}

/// The result of one [`QueryRequest::run`]. `count` and `stats` are
/// always set; the rows are held by reference in an [`Answer`] unless
/// the request was [`QueryRequest::count_only`], and are read as ids or
/// terms on demand.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Projected variable names, in output order.
    pub vars: Vec<String>,
    /// Result rows (post `DISTINCT`/`OFFSET`/`LIMIT`).
    pub count: u64,
    /// Timing, counters and the executed plan text.
    pub stats: QueryRunStats,
    /// Annotated-plan report — `Some` under
    /// [`QueryRequest::explain`]`(true)`.
    pub profile: Option<String>,
    pub(crate) answer: Option<Answer>,
}

impl QueryOutcome {
    /// The answer's rows by reference — `None` under
    /// [`QueryRequest::count_only`].
    pub fn answer(&self) -> Option<&Answer> {
        self.answer.as_ref()
    }

    /// Copies of the answer's dictionary-id rows (empty under
    /// [`QueryRequest::count_only`]).
    pub fn id_rows(&self) -> Vec<Vec<Id>> {
        self.answer
            .iter()
            .flat_map(Answer::rows)
            .map(<[Id]>::to_vec)
            .collect()
    }

    /// The answer's rows decoded to owned terms (empty under
    /// [`QueryRequest::count_only`]). An id that fails to decode is
    /// [`ParjError::Internal`].
    pub fn term_rows(&self) -> Result<Vec<Vec<Term>>, ParjError> {
        let Some(answer) = &self.answer else {
            return Ok(Vec::new());
        };
        let term = |&id: &Id| answer.term(id).map(TermRef::to_term);
        answer
            .rows()
            .map(|row| row.iter().map(term).collect())
            .collect()
    }

    /// Renders a compact tab-separated table — variable names, then one
    /// N-Triples term per cell — for examples and debugging.
    pub fn to_table(&self) -> Result<String, ParjError> {
        let mut out = self.vars.join("\t");
        out.push('\n');
        for row in self.term_rows()? {
            let cells: Vec<String> = row.iter().map(Term::to_string).collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        Ok(out)
    }

    /// The full run report: the annotated plan (when requested) plus
    /// the phase/search summary from [`QueryRunStats::report`].
    pub fn report(&self) -> String {
        match &self.profile {
            Some(p) => format!("{p}{}", self.stats.report()),
            None => self.stats.report(),
        }
    }
}

impl Parj {
    /// Starts a query request on the version published now — any
    /// number of callers run concurrently, and none waits for a writer.
    pub fn request(&self, query: &str) -> QueryRequest<'_> {
        QueryRequest::new(self, query)
    }
}
