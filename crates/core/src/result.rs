//! Query result and run-statistics types.

use parj_sync::Arc;

use parj_dict::{Id, TermRef};
use parj_join::{RowBatch, SearchStats};

use crate::engine::Ready;
use crate::error::ParjError;

/// Per-phase breakdown of the prepare pipeline (the component the
/// paper notes "cannot be avoided in multi-threaded execution").
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// SPARQL lex + parse wall time, microseconds.
    pub parse_micros: u64,
    /// Translation (dictionary lookups, hierarchy expansion) wall
    /// time, microseconds.
    pub translate_micros: u64,
    /// Fingerprint canonicalization and cache probe wall time,
    /// microseconds (zero when caching is off).
    pub cache_lookup_micros: u64,
    /// Join-order optimization wall time, microseconds.
    pub optimize_micros: u64,
}

impl PhaseTimings {
    /// Sum of all prepare phases, microseconds.
    pub fn total(&self) -> u64 {
        self.parse_micros + self.translate_micros + self.cache_lookup_micros + self.optimize_micros
    }
}

/// How the plan/result cache participated in one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CacheStatus {
    /// Caching disabled on the engine.
    #[default]
    Off,
    /// Caching enabled but this request skipped it (explicit bypass,
    /// or guarded/EXPLAIN runs, which are never cached).
    Bypassed,
    /// Probed both tiers; neither held the query.
    Miss,
    /// The optimized plan was served from cache; execution ran.
    PlanHit,
    /// The finished result was served from cache; nothing executed.
    ResultHit,
}

impl CacheStatus {
    /// The label rendered in run reports.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Off => "off",
            CacheStatus::Bypassed => "bypassed",
            CacheStatus::Miss => "miss",
            CacheStatus::PlanHit => "plan-hit",
            CacheStatus::ResultHit => "result-hit",
        }
    }
}

/// Timing and counter record for one query run.
///
/// `prepare_micros` covers parsing, translation and optimization — the
/// component the paper notes "cannot be avoided in multi-threaded
/// execution" and which dominates very simple queries (§5.2.3, query
/// S1). `exec_micros` is pure join time, the quantity the paper's
/// tables report in silent mode.
#[derive(Debug, Clone, Default)]
pub struct QueryRunStats {
    /// Parse + translate + optimize wall time, microseconds
    /// (equals `phases.total()`).
    pub prepare_micros: u64,
    /// Per-phase breakdown of `prepare_micros`.
    pub phases: PhaseTimings,
    /// Join execution wall time, microseconds.
    pub exec_micros: u64,
    /// Id-row shaping wall time (entailment dedup, `ORDER BY`,
    /// projection, `DISTINCT`, `OFFSET`/`LIMIT`), microseconds; zero in
    /// silent mode and on result-cache hits. Terms are not decoded here:
    /// an [`Answer`] resolves them by reference when it is read.
    pub decode_micros: u64,
    /// Merged search counters from all workers.
    pub search: SearchStats,
    /// Result rows produced (pre-LIMIT count in silent mode).
    pub rows: u64,
    /// `explain` text of the executed plan(s).
    pub plan: String,
    /// How the plan/result cache participated in this run.
    pub cache: CacheStatus,
}

impl QueryRunStats {
    /// Total wall time in microseconds.
    pub fn total_micros(&self) -> u64 {
        self.prepare_micros + self.exec_micros + self.decode_micros
    }

    /// Renders a compact `EXPLAIN ANALYZE`-style run summary: phase
    /// timings, result rows, and the search-kind mix.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "phases: parse {}µs | translate {}µs | cache {}µs | optimize {}µs | execute {}µs | decode {}µs  (total {}µs)",
            self.phases.parse_micros,
            self.phases.translate_micros,
            self.phases.cache_lookup_micros,
            self.phases.optimize_micros,
            self.exec_micros,
            self.decode_micros,
            self.total_micros(),
        )
        .expect("write");
        writeln!(out, "rows: {}", self.rows).expect("write");
        if self.cache != CacheStatus::Off {
            writeln!(out, "cache: {}", self.cache.as_str()).expect("write");
        }
        writeln!(
            out,
            "searches: {} sequential / {} binary / {} index ({} group checks, {} words touched)",
            self.search.sequential_searches,
            self.search.binary_searches,
            self.search.index_lookups,
            self.search.group_probes,
            self.search.words_touched(),
        )
        .expect("write");
        out
    }
}

/// A materialized answer, held by reference: the id rows the executor
/// (or the result cache) produced, plus the version they were computed
/// on, so ids resolve to the same terms after later writes have moved
/// the engine on.
#[derive(Clone)]
pub struct Answer {
    pub(crate) rows: Arc<RowBatch>,
    pub(crate) ready: Arc<Ready>,
}

impl Answer {
    /// The id rows, in answer order (one id per projected variable).
    pub fn rows(&self) -> impl Iterator<Item = &[Id]> {
        self.rows.rows()
    }

    /// The term an id of this answer stands for, borrowed from the
    /// snapshot's dictionary. An id that does not decode means store and
    /// dictionary disagree: [`ParjError::Internal`], never a panic.
    pub fn term(&self, id: Id) -> Result<TermRef<'_>, ParjError> {
        self.ready
            .dict_view()
            .decode_resource_ref(id)
            .map_err(|e| ParjError::Internal(format!("result id {id} failed to decode: {e}")))
    }
}

impl std::fmt::Debug for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Answer({} rows)", self.rows.len())
    }
}
