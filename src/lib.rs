//! # parj — Parallel Adaptive RDF Joins
//!
//! Facade crate for the PARJ workspace: a Rust reproduction of
//! *"Scalable Parallelization of RDF Joins on Multicore Architectures"*
//! (Bilidas & Koubarakis, EDBT 2019).
//!
//! Everything a user needs is re-exported here: the engine
//! ([`Parj`]), the benchmark data generators ([`datagen`]), and the
//! baseline engines ([`baseline`]) used to reproduce the paper's
//! comparisons. See the repository README for a tour and
//! `examples/quickstart.rs` for a two-minute introduction.
//!
//! ```
//! use parj::{LoadSource, OnParseError, Parj, RdfFormat};
//! use std::sync::Arc;
//!
//! let mut loader = Parj::builder().threads(4).loader();
//! loader.load(
//!     LoadSource::Text(
//!         "<http://e/a> <http://e/knows> <http://e/b> .\n\
//!          <http://e/b> <http://e/knows> <http://e/c> .\n",
//!     ),
//!     RdfFormat::NTriples,
//!     OnParseError::Abort,
//! ).unwrap();
//! // One shared handle: every method of a ready engine takes `&self`.
//! let engine = Arc::new(loader.finish());
//! let outcome = engine
//!     .request("SELECT ?x ?z WHERE { ?x <http://e/knows> ?y . ?y <http://e/knows> ?z }")
//!     .count_only()
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.count, 1);
//! ```

pub use parj_core::*;

/// Benchmark data generators (LUBM-like and WatDiv-like).
pub mod datagen {
    pub use parj_datagen::*;
}

/// Baseline engines and the reference evaluator.
pub mod baseline {
    pub use parj_baseline::*;
}
