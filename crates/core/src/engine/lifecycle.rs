//! Engine lifecycle: loading, finalize / unfinalize, snapshots,
//! construction around a built store, and the finalized-state
//! accessors.

use std::path::Path;
use std::time::Instant;

use parj_sync::Arc;

use parj_cache::QueryCache;
use parj_join::CalibrationResult;
use parj_optimizer::Stats;
use parj_rio::{LoadReport, NTriplesParser, OnParseError};
use parj_store::{StoreBuilder, TripleStore};

use super::{EngineConfig, Parj, Ready};
use crate::error::ParjError;

impl Parj {
    /// Starts building an engine: the default [`EngineConfig`], whose
    /// chainable setters end in [`EngineConfig::build`].
    pub fn builder() -> EngineConfig {
        EngineConfig::default()
    }

    /// Engine with all-default configuration.
    pub fn new() -> Parj {
        EngineConfig::default().build()
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Parses and loads N-Triples text; returns the number of statements
    /// read. Strict mode: the first malformed line aborts the load (see
    /// [`Parj::load_ntriples_str_with`] for lossy loading). Runs the
    /// parallel load pipeline on [`EngineConfig::load_threads`] workers;
    /// the result is identical at any thread count.
    pub fn load_ntriples_str(&mut self, text: &str) -> Result<usize, ParjError> {
        self.load_ntriples_str_with(text, OnParseError::Abort)
            .map(|r| r.loaded)
    }

    /// [`Parj::load_ntriples_str`] under an error policy: with
    /// [`OnParseError::Skip`], malformed lines are dropped (bounded by
    /// `max_errors`) and the returned [`LoadReport`] records their
    /// positioned diagnostics. Lines parsed before an abort remain
    /// staged, exactly as in the serial reader path.
    pub fn load_ntriples_str_with(
        &mut self,
        text: &str,
        on_error: OnParseError,
    ) -> Result<LoadReport, ParjError> {
        self.unfinalize();
        let t0 = Instant::now();
        let staged = self.staged.as_mut().expect("unfinalize staged a builder");
        let report =
            crate::loader::load_ntriples_text(staged, text, on_error, self.config.load_threads)?;
        self.record_load(&report, t0, text.len());
        Ok(report)
    }

    /// Loads an N-Triples file (strict mode) through the parallel load
    /// pipeline (the file is read into memory; use
    /// [`Parj::load_ntriples_reader`] to stream serially instead).
    pub fn load_ntriples_path(&mut self, path: impl AsRef<Path>) -> Result<usize, ParjError> {
        let text = std::fs::read_to_string(path)?;
        self.load_ntriples_str(&text)
    }

    /// Loads an N-Triples file under an error policy.
    pub fn load_ntriples_path_with(
        &mut self,
        path: impl AsRef<Path>,
        on_error: OnParseError,
    ) -> Result<LoadReport, ParjError> {
        let text = std::fs::read_to_string(path)?;
        self.load_ntriples_str_with(&text, on_error)
    }

    /// Parses and loads Turtle text; returns the number of triples
    /// read (strict mode).
    pub fn load_turtle_str(&mut self, text: &str) -> Result<usize, ParjError> {
        self.load_turtle_str_with(text, OnParseError::Abort)
            .map(|r| r.loaded)
    }

    /// [`Parj::load_turtle_str`] under an error policy: with
    /// [`OnParseError::Skip`], malformed statements are dropped whole
    /// and recorded in the returned [`LoadReport`].
    pub fn load_turtle_str_with(
        &mut self,
        text: &str,
        on_error: OnParseError,
    ) -> Result<LoadReport, ParjError> {
        let t0 = Instant::now();
        let (parts, report) =
            crate::loader::parse_turtle_text(text, on_error, self.config.load_threads)?;
        self.unfinalize();
        let staged = self.staged.as_mut().expect("unfinalize staged a builder");
        staged.add_triples_parallel(parts, self.config.load_threads);
        self.record_load(&report, t0, text.len());
        Ok(report)
    }

    /// Loads a Turtle file (strict mode).
    pub fn load_turtle_path(&mut self, path: impl AsRef<Path>) -> Result<usize, ParjError> {
        let text = std::fs::read_to_string(path)?;
        self.load_turtle_str(&text)
    }

    /// Loads a Turtle file under an error policy.
    pub fn load_turtle_path_with(
        &mut self,
        path: impl AsRef<Path>,
        on_error: OnParseError,
    ) -> Result<LoadReport, ParjError> {
        let text = std::fs::read_to_string(path)?;
        self.load_turtle_str_with(&text, on_error)
    }

    /// Loads N-Triples from any buffered reader (strict mode). Streams
    /// serially; prefer the `str`/`path` variants for large inputs —
    /// they run the parallel load pipeline.
    pub fn load_ntriples_reader<R: std::io::BufRead>(
        &mut self,
        reader: R,
    ) -> Result<usize, ParjError> {
        self.load_ntriples_reader_with(reader, OnParseError::Abort)
            .map(|r| r.loaded)
    }

    /// Loads N-Triples from any buffered reader under an error policy.
    /// Lines parsed before an abort remain staged (both modes); in skip
    /// mode the load only aborts when `max_errors` is exceeded or on an
    /// I/O error.
    pub fn load_ntriples_reader_with<R: std::io::BufRead>(
        &mut self,
        reader: R,
        on_error: OnParseError,
    ) -> Result<LoadReport, ParjError> {
        self.unfinalize();
        let t0 = Instant::now();
        let staged = self.staged.as_mut().expect("unfinalize staged a builder");
        let report = parj_rio::drain_triples(NTriplesParser::new(reader), on_error, |(s, p, o)| {
            staged.add_term_triple(&s, &p, &o);
        })?;
        // Input size is unknown for a streaming reader; only the
        // statement counters advance.
        self.record_load(&report, t0, 0);
        Ok(report)
    }

    /// Builds partitions, statistics and thresholds from the staged
    /// triples. Idempotent; called implicitly by the query methods.
    pub fn finalize(&mut self) {
        let Some(staged) = self.staged.take() else {
            return;
        };
        self.install(staged.build_with(self.config.effective_store_options()));
    }

    /// Makes `store` the finalized state — the one way from a built
    /// store to a query-ready engine, shared by [`Parj::finalize`] and
    /// [`Parj::from_store`].
    fn install(&mut self, store: TripleStore) {
        self.staged = None;
        let ready = Ready::new(&self.config, store);
        // The store was (re)built: no cached entry answers for it. With
        // `&mut self` no request is running, so a fresh cache is all it
        // takes, and the new version's stamps start over.
        self.cache = QueryCache::new(self.config.cache_bytes);
        self.publish_store_gauges(&ready);
        // A rebuild folds (or predates) any delta: zero its gauges.
        self.publish_delta_gauges(&ready);
        *self.published.get_mut() = Some(Arc::new(ready));
    }

    /// True once finalized (and not re-opened by later loads).
    pub fn is_finalized(&self) -> bool {
        self.staged.is_none()
    }

    /// Pins the published version. Every path that reads it has
    /// finalized first ([`Parj::request`], [`Parj::mutate`] and
    /// [`crate::SharedParj::new`] do), so one is always there.
    pub(crate) fn snapshot(&self) -> Arc<Ready> {
        let published = self.published.lock();
        Arc::clone(published.as_ref().expect("finalized before any read"))
    }

    /// Moves a finalized store back into staging for further loads,
    /// folding any pending mutation delta in: the staged dictionary is
    /// the base plus the delta's new terms (re-encoded in insertion
    /// order, which reproduces identical dense ids), and the staged
    /// triples are the merged visible view (base minus tombstones plus
    /// inserts). A rebuild from this staging is therefore byte-identical
    /// to the store the delta-overlaid probes answered from.
    fn unfinalize(&mut self) {
        if self.staged.is_some() {
            return;
        }
        let ready = self.published.get_mut().take().expect("either staged or ready");
        let mut builder = StoreBuilder::new();
        let mut dict = ready.store.dict().clone();
        ready.delta.dict().fold_into(&mut dict);
        *builder.dict_mut() = dict;
        if ready.delta.is_clean() {
            for t in ready.store.iter_triples() {
                builder.add_encoded(t);
            }
        } else {
            for t in ready.delta.iter_merged_triples(&ready.store) {
                builder.add_encoded(t);
            }
        }
        self.staged = Some(builder);
    }

    fn ensure_ready(&mut self) -> &Ready {
        self.finalize();
        self.published.get_mut().as_ref().expect("finalize publishes a version")
    }

    /// The underlying store (finalizing first if needed).
    pub fn store(&mut self) -> &TripleStore {
        &self.ensure_ready().store
    }

    /// Optimizer statistics.
    pub fn stats(&mut self) -> &Stats {
        &self.ensure_ready().stats
    }

    /// The calibration result in effect.
    pub fn calibration(&mut self) -> CalibrationResult {
        self.ensure_ready().calibration
    }

    /// Total triples visible to queries (the finalized base adjusted by
    /// any pending mutation delta).
    pub fn num_triples(&mut self) -> usize {
        self.ensure_ready().visible_triples()
    }

    /// Runs the deep structural audit over the finalized store:
    /// CSR/index invariants, replica-pair multiset equality, dictionary
    /// bijectivity, and snapshot round-trip stability
    /// ([`parj_audit::audit_all`]). Finalizes first if needed.
    ///
    /// Loading already performs the linear structural checks; this adds
    /// the `O(n log n)` cross-structure checks that loads skip.
    pub fn audit(&mut self) -> parj_audit::AuditReport {
        self.ensure_ready().audit()
    }

    /// Like [`Parj::audit`], but folds a dirty report into
    /// [`ParjError::CorruptStore`] for `?`-style propagation.
    pub fn audit_strict(&mut self) -> Result<(), ParjError> {
        let report = self.audit();
        if report.is_clean() {
            Ok(())
        } else {
            Err(ParjError::CorruptStore { report })
        }
    }

    /// Saves a snapshot of the finalized store. A pending mutation
    /// delta is folded into a full rebuild first, so the snapshot
    /// captures exactly the triples queries were seeing.
    pub fn save_snapshot(&mut self, path: impl AsRef<Path>) -> Result<(), ParjError> {
        if !self.ensure_ready().delta.is_clean() {
            self.unfinalize();
        }
        self.ensure_ready().store.save_snapshot(path)?;
        Ok(())
    }

    /// Loads an engine from a snapshot, rebuilding statistics and
    /// thresholds under `config`.
    pub fn load_snapshot(
        path: impl AsRef<Path>,
        config: EngineConfig,
    ) -> Result<Parj, ParjError> {
        let store = TripleStore::load_snapshot(path)?;
        Ok(Self::from_store(store, config))
    }

    /// Manually constructs an engine around an existing store (used by
    /// the benchmark harness, which builds stores via the generators).
    pub fn from_store(store: TripleStore, config: EngineConfig) -> Parj {
        let mut engine = config.build();
        engine.install(store);
        engine
    }

    /// Live statistics of the persistent worker pool, when one exists.
    pub fn pool_stats(&self) -> Option<parj_join::PoolStats> {
        self.pool.as_ref().map(|p| p.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{engine, run_count, run_query};
    use parj_dict::Term;

    #[test]
    fn incremental_load_after_finalize() {
        let mut e = engine();
        assert_eq!(e.num_triples(), 8);
        e.mutate()
            .insert(
                Term::iri("http://e/ProfD"),
                Term::iri("http://e/worksFor"),
                Term::iri("http://e/U1"),
            )
            .run()
            .unwrap();
        let (count, _) = run_count(&mut e, "SELECT ?x WHERE { ?x <http://e/worksFor> ?u }").unwrap();
        assert_eq!(count, 4);
        assert_eq!(e.num_triples(), 9);
    }

    #[test]
    fn snapshot_roundtrip_via_engine() {
        let mut e = engine();
        let dir = std::env::temp_dir().join(format!("parj-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.parj");
        e.save_snapshot(&path).unwrap();
        let mut back = Parj::load_snapshot(&path, EngineConfig::default()).unwrap();
        let q = "SELECT ?x ?y WHERE { ?x <http://e/worksFor> ?y }";
        assert_eq!(
            run_count(&mut back, q).unwrap().0,
            run_count(&mut e, q).unwrap().0
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_on_empty_engine() {
        let mut e = Parj::new();
        let res = run_query(&mut e, "SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        assert!(res.rows.is_empty());
    }
}
