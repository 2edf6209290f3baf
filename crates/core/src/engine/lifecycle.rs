//! Engine lifecycle: construction around a built store, snapshots,
//! re-opening staging, and the accessors of the published version.

use std::path::Path;

use parj_sync::Arc;

use parj_join::CalibrationResult;
use parj_obs::EngineMetrics;
use parj_optimizer::Stats;
use parj_rio::OnParseError;
use parj_store::audit::AuditReport;
use parj_store::TripleStore;

use super::{EngineConfig, Parj};
use crate::error::ParjError;
use crate::loader::{LoadSource, Loader, RdfFormat};

impl Parj {
    /// Starts configuring an engine: the default [`EngineConfig`],
    /// whose chainable setters end in [`EngineConfig::loader`] (or
    /// [`EngineConfig::build`] for an empty engine).
    pub fn builder() -> EngineConfig {
        EngineConfig::default()
    }

    /// Identity: `engine` itself. Kept while the benchmark harness
    /// still spells the shared handle `SharedParj::new(engine)`.
    #[doc(hidden)]
    pub fn new(engine: Parj) -> Parj {
        engine
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Re-opens staging with this engine's visible triples (any pending
    /// mutation delta folded in), its configuration and its metrics
    /// registry, so more bulk loads can go in before the next
    /// [`Loader::finish`]. Small changes to a live engine go through
    /// [`Parj::mutate`] instead.
    pub fn into_loader(self) -> Loader {
        self.loader()
    }

    fn loader(&self) -> Loader {
        Loader::new(
            self.config,
            self.snapshot().fold(),
            Arc::clone(&self.metrics),
        )
    }

    /// Loads N-Triples text (strict) into a rebuild of this engine,
    /// which replaces it on success and is left as it was on error.
    /// Kept while the benchmark harness still loads through it.
    #[doc(hidden)]
    pub fn load_ntriples_str(&mut self, text: &str) -> Result<usize, ParjError> {
        let mut loader = self.loader();
        let report = loader.load(
            LoadSource::Text(text),
            RdfFormat::NTriples,
            OnParseError::Abort,
        )?;
        // The rebuild keeps this engine's workers: no threads start.
        let pool = self.pool.take();
        *self = loader.finish_on(pool);
        Ok(report.loaded)
    }

    /// A no-op: an engine is always ready. Kept while the benchmark
    /// harness still calls it.
    #[doc(hidden)]
    pub fn finalize(&mut self) {}

    /// The published version's base store. Takes `&mut self` to borrow
    /// it for as long as the caller holds the reference; pending
    /// mutations sit in a delta beside it.
    pub fn store(&mut self) -> &TripleStore {
        &self.published.get_mut().store
    }

    /// Optimizer statistics of the published version.
    pub fn stats(&self) -> Arc<Stats> {
        Arc::clone(&self.snapshot().stats)
    }

    /// The calibration result in effect.
    pub fn calibration(&self) -> CalibrationResult {
        self.snapshot().calibration
    }

    /// Total triples visible to queries (the base store adjusted by any
    /// pending mutation delta).
    pub fn num_triples(&self) -> usize {
        self.snapshot().visible_triples()
    }

    /// Runs the deep structural audit over the published version:
    /// CSR/index invariants, replica-pair multiset equality, dictionary
    /// bijectivity, snapshot round-trip stability
    /// ([`parj_store::audit::audit_all`]) and, with a pending delta, the merged
    /// view against a from-scratch rebuild. Runs concurrently with
    /// queries and writes.
    ///
    /// Loading already performs the linear structural checks; this adds
    /// the `O(n log n)` cross-structure checks that loads skip.
    pub fn audit(&self) -> AuditReport {
        self.snapshot().audit()
    }

    /// Like [`Parj::audit`], but folds a dirty report into
    /// [`ParjError::CorruptStore`] for `?`-style propagation.
    pub fn audit_strict(&self) -> Result<(), ParjError> {
        let report = self.audit();
        if report.is_clean() {
            Ok(())
        } else {
            Err(ParjError::CorruptStore { report })
        }
    }

    /// Saves a snapshot of the published version. A pending mutation
    /// delta is folded into a rebuilt copy first, so the snapshot
    /// captures exactly the triples queries were seeing; the published
    /// version is left as it is, and neither queries nor writes wait.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), ParjError> {
        let ready = self.snapshot();
        if ready.delta.is_clean() {
            ready.store.save_snapshot(path)?;
        } else {
            let folded = ready
                .fold()
                .build_with(self.config.effective_store_options());
            folded.save_snapshot(path)?;
        }
        Ok(())
    }

    /// Loads an engine from a snapshot, rebuilding statistics and
    /// thresholds under `config`.
    pub fn load_snapshot(path: impl AsRef<Path>, config: EngineConfig) -> Result<Parj, ParjError> {
        let store = TripleStore::load_snapshot(path)?;
        Ok(Self::from_store(store, config))
    }

    /// Builds an engine around an existing store (the benchmark harness
    /// builds stores via the generators).
    pub fn from_store(store: TripleStore, config: EngineConfig) -> Parj {
        let pool = config.worker_pool();
        Parj::assemble(config, Arc::new(EngineMetrics::new()), pool, store)
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
    fn mutations_on_a_built_engine() {
        let e = engine();
        e.mutate()
            .insert(
                Term::iri("http://e/ProfD"),
                Term::iri("http://e/worksFor"),
                Term::iri("http://e/U1"),
            )
            .run()
            .unwrap();
        let (count, _) = run_count(&e, "SELECT ?x WHERE { ?x <http://e/worksFor> ?u }").unwrap();
        assert_eq!(count, 4);
        assert_eq!(e.num_triples(), 9);
    }

    #[test]
    fn failed_forward_load_keeps_the_published_version() {
        let mut e = engine();
        assert!(e
            .load_ntriples_str("<http://e/x> <http://e/p> <http://e/y> .\nbroken\n")
            .is_err());
        assert_eq!(e.num_triples(), 8);
        assert_eq!(
            e.load_ntriples_str("<http://e/x> <http://e/p> <http://e/y> .")
                .unwrap(),
            1
        );
        assert_eq!(e.num_triples(), 9);
    }

    #[test]
    fn snapshot_roundtrip_via_engine() {
        let e = engine();
        let dir = std::env::temp_dir().join(format!("parj-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.parj");
        e.save_snapshot(&path).unwrap();
        let back = Parj::load_snapshot(&path, EngineConfig::default()).unwrap();
        let q = "SELECT ?x ?y WHERE { ?x <http://e/worksFor> ?y }";
        assert_eq!(run_count(&back, q).unwrap().0, run_count(&e, q).unwrap().0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_on_empty_engine() {
        let e = Parj::default();
        let res = run_query(&e, "SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        assert!(res.rows.is_empty());
    }
}
