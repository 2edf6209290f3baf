//! # parj-core — PARJ: Parallel Adaptive RDF Joins
//!
//! The public engine API of this reproduction of *"Scalable
//! Parallelization of RDF Joins on Multicore Architectures"* (Bilidas &
//! Koubarakis, EDBT 2019). It wires together the workspace substrates:
//!
//! | layer | crate |
//! |---|---|
//! | dictionary encoding | `parj-dict` |
//! | N-Triples I/O | `parj-rio` |
//! | vertical partitions, S-O/O-S replicas, ID-to-Position index | `parj-store` |
//! | adaptive join, calibration, parallel executor | `parj-join` |
//! | SPARQL BGP parsing | `parj-sparql` |
//! | statistics + DP join ordering | `parj-optimizer` |
//!
//! ## Lifecycle
//!
//! 1. configure: [`Parj::builder`] returns the default
//!    [`EngineConfig`], whose chainable setters (thread count, probe
//!    strategy, index options, …) end in [`EngineConfig::loader`];
//! 2. load data into the [`Loader`] with [`Loader::load`] — text, a
//!    file or a reader, as N-Triples or Turtle — or start from a
//!    snapshot ([`Parj::load_snapshot`]);
//! 3. [`Loader::finish`] builds partitions and statistics once and runs
//!    the calibration of Algorithm 2 (or adopts the paper's default
//!    windows), returning a ready [`Parj`];
//! 4. query through [`Parj::request`]: the answer's rows by default
//!    (held by reference, read as ids or terms),
//!    [`QueryRequest::count_only`] for the paper's "silent mode" —
//!    with per-run deadline / row-budget / cancellation / thread
//!    knobs on the same builder;
//! 5. change data with [`Parj::mutate`].
//!
//! Every method of a ready engine takes `&self`, so one `Arc<Parj>`
//! serves many threads: a request runs on the version published when it
//! was built, and a mutation batch publishes the next. Neither waits
//! for the other.
//!
//! ```
//! use parj_core::{LoadSource, OnParseError, Parj, RdfFormat};
//! use std::sync::Arc;
//!
//! let mut loader = Parj::builder().threads(2).loader();
//! loader.load(LoadSource::Text(r#"
//!     <http://e/ProfA> <http://e/teaches> <http://e/Math> .
//!     <http://e/ProfA> <http://e/worksFor> <http://e/U1> .
//!     <http://e/ProfB> <http://e/teaches> <http://e/Chem> .
//!     <http://e/ProfB> <http://e/worksFor> <http://e/U2> .
//! "#), RdfFormat::NTriples, OnParseError::Abort).unwrap();
//! let engine = Arc::new(loader.finish());
//! let reader = {
//!     let engine = Arc::clone(&engine);
//!     std::thread::spawn(move || {
//!         engine.request(
//!             "SELECT ?x ?y WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> ?y . }"
//!         ).run().unwrap()
//!     })
//! };
//! let outcome = reader.join().unwrap();
//! assert_eq!(outcome.count, 2);
//! assert_eq!(outcome.term_rows().unwrap().len(), 2);
//! ```
//!
//! ## Observability
//!
//! Every engine owns a lock-light [`EngineMetrics`] registry
//! ([`Parj::metrics`]): query outcomes and phase timings, executor
//! internals (search-kind mix, probe volume, morsel-load imbalance),
//! load-pipeline throughput, and store/dictionary memory gauges.
//! [`Parj::metrics_snapshot`] yields Prometheus-text or JSON
//! exposition; `request(..).explain(true)` attaches a per-query
//! `EXPLAIN ANALYZE` report to the outcome.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod fingerprint;
mod hierarchy;
mod loader;
mod mutate;
mod request;
mod result;
mod translate;

pub use engine::{EngineConfig, Parj, RunOverrides};
pub use error::ParjError;
pub use fingerprint::{canonicalize_query, query_fingerprint};
pub use hierarchy::{Hierarchy, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, RDF_TYPE};
pub use loader::{LoadSource, Loader, RdfFormat};
pub use mutate::{MutationOutcome, MutationPhases, MutationRequest};
pub use request::{QueryOutcome, QueryRequest};
pub use result::{Answer, CacheStatus, PhaseTimings, QueryRunStats};
pub use translate::{TranslatedQuery, Translation};

/// The engine, under the name the benchmark harness still uses for
/// its shared handle.
#[doc(hidden)]
pub type SharedParj = Parj;

// Deep structural auditing (the store's `audit` module).
pub use parj_store::audit::{AuditReport, Coordinates, Violation};

// Observability vocabulary (the `parj-obs` substrate).
pub use parj_obs::{
    CacheKind, EngineMetrics, FamilySnapshot, MetricKind, MetricsSnapshot, QueryOutcomeClass,
    QueryPhase, Sample, SampleValue,
};

// Re-export the workspace vocabulary so downstream users need only this
// crate.
pub use parj_dict::{Dictionary, EncodedTriple, Id, Term, TermRef};
pub use parj_join::{
    CalibrationConfig, CalibrationResult, CancelToken, ExecOptions, GuardTrip, PhysicalPlan,
    ProbeStrategy, QueryGuard, SearchStats, ThresholdTable, GUARD_BATCH,
};
pub use parj_optimizer::Stats;
pub use parj_rio::{parse_ntriples_str, LoadReport, NTriplesParser, OnParseError};
pub use parj_sparql::{parse_query, ParsedQuery, STerm, TriplePattern};
pub use parj_store::{SortOrder, StoreOptions, TripleStore};
