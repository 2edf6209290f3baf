//! The transactional mutation API: one builder mirroring
//! [`Parj::request`] for writes.
//!
//! A [`MutationRequest`] batches inserts and deletes and applies them
//! atomically with respect to queries: batches serialize on the
//! engine's writer lock, and each builds the next engine version
//! copy-on-write beside the published one, then publishes it with one
//! pointer swap. A query reads the version it pinned, so it sees a
//! batch whole or not at all, and neither side waits for the other.
//! The batch lands in the version's per-predicate **delta overlay** —
//! sorted insert runs plus tombstone delete runs consulted by probes
//! alongside the base CSR replicas — so applying costs
//! `O(batch + resident delta)` in the touched predicates, never a store
//! rebuild. Predicates whose resident delta crosses
//! [`crate::EngineConfig::delta_compaction_threshold`] are compacted
//! inline (a linear two-run merge into a replacement partition), and
//! the cache stamps of a touched predicate move — queries over
//! untouched predicates keep serving hits.
//!
//! ```
//! use parj_core::{LoadSource, OnParseError, Parj, RdfFormat, Term};
//! use std::sync::Arc;
//!
//! let mut loader = Parj::builder().loader();
//! loader.load(
//!     LoadSource::Text("<http://e/a> <http://e/p> <http://e/b> ."),
//!     RdfFormat::NTriples,
//!     OnParseError::Abort,
//! ).unwrap();
//! let engine: Arc<Parj> = Arc::new(loader.finish());
//! let outcome = engine
//!     .mutate()
//!     .insert(Term::iri("http://e/b"), Term::iri("http://e/p"), Term::iri("http://e/c"))
//!     .delete(Term::iri("http://e/a"), Term::iri("http://e/p"), Term::iri("http://e/b"))
//!     .run()
//!     .unwrap();
//! assert_eq!((outcome.inserted, outcome.deleted), (1, 1));
//! assert_eq!(outcome.visible_triples, 1);
//! assert_eq!(engine.request("SELECT ?s ?o WHERE { ?s <http://e/p> ?o }").run().unwrap().count, 1);
//! ```

use std::time::Instant;

use parj_sync::Arc;

use parj_dict::{Id, Term};

use crate::engine::Parj;
use crate::error::ParjError;
use crate::hierarchy::Hierarchy;

/// One operation of a mutation batch, in call order (later operations
/// on the same triple win).
#[derive(Debug, Clone)]
pub(crate) enum MutationOp {
    /// Insert a triple (a no-op if it is already visible).
    Insert(Term, Term, Term),
    /// Delete a triple (a no-op if it is not visible; unknown terms
    /// resolve to "not visible" without being interned).
    Delete(Term, Term, Term),
}

/// A configured mutation batch, ready to [`run`](MutationRequest::run).
/// Built by [`Parj::mutate`].
pub struct MutationRequest<'e> {
    engine: &'e Parj,
    ops: Vec<MutationOp>,
}

impl<'e> MutationRequest<'e> {
    fn new(engine: &'e Parj) -> Self {
        MutationRequest {
            engine,
            ops: Vec::new(),
        }
    }

    /// Adds one triple insertion to the batch. Inserting a triple that
    /// is already visible is a no-op (set semantics) and does not count
    /// toward [`MutationOutcome::inserted`].
    pub fn insert(mut self, s: Term, p: Term, o: Term) -> Self {
        self.ops.push(MutationOp::Insert(s, p, o));
        self
    }

    /// Adds one triple deletion to the batch. Deleting a triple that is
    /// not visible is a no-op; terms the engine has never seen are not
    /// interned by a delete.
    pub fn delete(mut self, s: Term, p: Term, o: Term) -> Self {
        self.ops.push(MutationOp::Delete(s, p, o));
        self
    }

    /// Adds many insertions (chainable convenience over
    /// [`MutationRequest::insert`]).
    pub fn insert_all(mut self, triples: impl IntoIterator<Item = (Term, Term, Term)>) -> Self {
        self.ops.extend(
            triples
                .into_iter()
                .map(|(s, p, o)| MutationOp::Insert(s, p, o)),
        );
        self
    }

    /// Adds many deletions (chainable convenience over
    /// [`MutationRequest::delete`]).
    pub fn delete_all(mut self, triples: impl IntoIterator<Item = (Term, Term, Term)>) -> Self {
        self.ops.extend(
            triples
                .into_iter()
                .map(|(s, p, o)| MutationOp::Delete(s, p, o)),
        );
        self
    }

    /// Operations queued so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operation has been queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies the batch. Later operations on the same triple win
    /// (insert-then-delete deletes; delete-then-insert inserts); the
    /// batch is visible as a whole to every query built after `run`
    /// returns, and to none built before.
    pub fn run(self) -> Result<MutationOutcome, ParjError> {
        Ok(self.engine.apply_mutation(&self.ops))
    }
}

impl std::fmt::Debug for MutationRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inserts = self
            .ops
            .iter()
            .filter(|op| matches!(op, MutationOp::Insert(..)))
            .count();
        f.debug_struct("MutationRequest")
            .field("inserts", &inserts)
            .field("deletes", &(self.ops.len() - inserts))
            .finish()
    }
}

/// Per-phase wall timings of one mutation batch, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationPhases {
    /// Term → id encoding through the delta dictionary.
    pub encode_micros: u64,
    /// Per-predicate sorted run merges.
    pub apply_micros: u64,
    /// Inline compactions of threshold-crossed predicates.
    pub compact_micros: u64,
    /// Cache invalidation: per-predicate epoch bumps, and on reasoning
    /// engines the hierarchy refresh.
    pub invalidate_micros: u64,
}

impl MutationPhases {
    /// Sum of every phase.
    pub fn total(&self) -> u64 {
        self.encode_micros + self.apply_micros + self.compact_micros + self.invalidate_micros
    }
}

/// The result of one [`MutationRequest::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MutationOutcome {
    /// Insertions that changed visibility (already-visible triples are
    /// no-ops).
    pub inserted: u64,
    /// Deletions that changed visibility (absent triples are no-ops).
    pub deleted: u64,
    /// Distinct predicates the batch actually changed.
    pub predicates_touched: usize,
    /// Predicates compacted inline by this batch.
    pub compactions: u64,
    /// Per-predicate cache epoch bumps performed (0 when the batch
    /// changed a reasoning engine's RDFS hierarchy, which invalidates
    /// every entry by generation instead).
    pub cache_invalidations: u64,
    /// Uncompacted add/delete pairs resident in the delta after the
    /// batch.
    pub delta_resident_pairs: usize,
    /// Delta overlay heap bytes after the batch.
    pub delta_bytes: usize,
    /// Triples visible to queries after the batch.
    pub visible_triples: usize,
    /// Per-phase wall timings.
    pub phases: MutationPhases,
}

impl Parj {
    /// Starts a mutation batch — the write counterpart of
    /// [`Parj::request`]. Batches serialize among themselves; queries
    /// keep running on the version they pinned, and those built after
    /// [`MutationRequest::run`] returns see the batch.
    pub fn mutate(&self) -> MutationRequest<'_> {
        MutationRequest::new(self)
    }

    /// Applies one mutation batch (ordered insert/delete operations, in
    /// call order so later operations on the same triple win) to a copy
    /// of the published version, and publishes the result — the
    /// execution path behind [`Parj::mutate`].
    ///
    /// Cost is `O(batch + resident delta)` in the touched predicates
    /// only; the base store is never rebuilt, and the copy shares every
    /// untouched partition and dictionary run with the published
    /// version. Reasoning engines also re-extract the RDFS hierarchy
    /// from the merged view, so it stays consistent with the data.
    pub(crate) fn apply_mutation(&self, ops: &[MutationOp]) -> MutationOutcome {
        use std::collections::BTreeMap;

        let _writer = self.writer.lock();
        let mut next = crate::engine::Ready::clone(&self.snapshot());
        let mut phases = MutationPhases::default();
        let mut outcome = MutationOutcome::default();

        // -- encode: terms -> ids through the delta dictionary --------
        // Per predicate, per (s, o) pair: the last operation in batch
        // order wins (`true` = insert). BTreeMaps keep predicate and
        // pair iteration sorted, which `apply_pred` requires.
        let t = Instant::now();
        let base = Arc::clone(&next.store);
        let delta = Arc::make_mut(&mut next.delta);
        let mut by_pred: BTreeMap<Id, BTreeMap<(Id, Id), bool>> = BTreeMap::new();
        for op in ops {
            match op {
                MutationOp::Insert(s, p, o) => {
                    // Resolve read-only and intern only on a miss: a
                    // batch of known terms leaves the dictionary it
                    // shares with the published version and with live
                    // answers untouched.
                    let dict = delta.dict();
                    let (sid, pid, oid) = match (
                        dict.resource_id(base.dict(), s),
                        dict.predicate_id(base.dict(), p),
                        dict.resource_id(base.dict(), o),
                    ) {
                        (Some(sid), Some(pid), Some(oid)) => (sid, pid, oid),
                        _ => {
                            let dict = delta.dict_mut();
                            let sid = dict.encode_resource(base.dict(), s);
                            let pid = dict.encode_predicate(base.dict(), p);
                            (sid, pid, dict.encode_resource(base.dict(), o))
                        }
                    };
                    by_pred.entry(pid).or_default().insert((sid, oid), true);
                }
                MutationOp::Delete(s, p, o) => {
                    // Non-inserting resolve: a triple with an unknown
                    // term cannot be stored, so the delete is a no-op
                    // (set semantics, like deleting an absent triple).
                    let dict = delta.dict();
                    let (Some(sid), Some(pid), Some(oid)) = (
                        dict.resource_id(base.dict(), s),
                        dict.predicate_id(base.dict(), p),
                        dict.resource_id(base.dict(), o),
                    ) else {
                        continue;
                    };
                    by_pred.entry(pid).or_default().insert((sid, oid), false);
                }
            }
        }
        phases.encode_micros = t.elapsed().as_micros() as u64;

        // -- apply: per-predicate sorted run merges --------------------
        let t = Instant::now();
        let mut touched: Vec<Id> = Vec::with_capacity(by_pred.len());
        for (&pid, pairs) in &by_pred {
            let inserts: Vec<(Id, Id)> = pairs
                .iter()
                .filter(|&(_, &ins)| ins)
                .map(|(&k, _)| k)
                .collect();
            let deletes: Vec<(Id, Id)> = pairs
                .iter()
                .filter(|&(_, &ins)| !ins)
                .map(|(&k, _)| k)
                .collect();
            let applied = delta.apply_pred(&base, pid, &inserts, &deletes);
            outcome.inserted += applied.inserted as u64;
            outcome.deleted += applied.deleted as u64;
            if applied.inserted + applied.deleted > 0 {
                touched.push(pid);
            }
        }
        outcome.predicates_touched = touched.len();
        phases.apply_micros = t.elapsed().as_micros() as u64;

        // -- compact: threshold-crossed predicates ---------------------
        let t = Instant::now();
        let threshold = self.config.delta_compaction_threshold;
        for &pid in &touched {
            if delta.needs_compaction(pid, threshold) {
                delta.compact_pred(&base, pid);
                outcome.compactions += 1;
            }
        }
        phases.compact_micros = t.elapsed().as_micros() as u64;
        outcome.delta_resident_pairs = delta.resident_pairs();
        outcome.delta_bytes = delta.memory_bytes(&base);
        outcome.visible_triples = delta.visible_triples(&base);

        // -- invalidate: the next version's cache stamps ---------------
        // On a reasoning engine the batch may change the RDFS hierarchy,
        // and with it the answers for predicates the batch never
        // touched: re-extract the hierarchy from the merged view, and if
        // it changed, move the generation (every entry goes stale, so no
        // per-predicate bumps are needed).
        let t = Instant::now();
        let hierarchy_changed = self.config.reasoning && !touched.is_empty() && {
            let fresh = Hierarchy::extract_merged(&base, delta);
            let changed = next.hierarchy.as_ref() != Some(&fresh);
            next.hierarchy = Some(fresh);
            changed
        };
        if hierarchy_changed {
            next.generation += 1;
        } else {
            for &pid in &touched {
                let p = pid as usize;
                if p >= next.epochs.len() {
                    next.epochs.resize(p + 1, 0);
                }
                next.epochs[p] += 1;
            }
            outcome.cache_invalidations = touched.len() as u64;
        }
        phases.invalidate_micros = t.elapsed().as_micros() as u64;
        outcome.phases = phases;

        if self.config.record_metrics {
            self.metrics
                .record_compaction(outcome.compactions, outcome.phases.compact_micros);
            self.metrics
                .record_cache_invalidations(outcome.cache_invalidations);
            self.publish_delta_gauges(&next);
        }
        // Publish: requests built from here on read `next`; running ones
        // keep theirs. The old version is freed, when this was its last
        // pin, outside the cell's lock.
        let old = std::mem::replace(&mut *self.published.lock(), Arc::new(next));
        drop(old);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{load, reload};
    use crate::result::CacheStatus;
    use parj_dict::Term;

    const DATA: &str = "\
<http://e/a> <http://e/p> <http://e/b> .\n\
<http://e/b> <http://e/p> <http://e/c> .\n\
<http://e/a> <http://e/q> <http://e/c> .\n";

    fn engine() -> Parj {
        load(Parj::builder().threads(2), DATA)
    }

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://e/{s}"))
    }

    fn count(e: &Parj, q: &str) -> u64 {
        e.request(q).count_only().run().unwrap().count
    }

    #[test]
    fn insert_and_delete_change_visibility() {
        let e = engine();
        let out = e
            .mutate()
            .insert(iri("c"), iri("p"), iri("d"))
            .delete(iri("a"), iri("p"), iri("b"))
            .run()
            .unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(out.deleted, 1);
        assert_eq!(out.predicates_touched, 1);
        assert_eq!(out.visible_triples, 3);
        assert_eq!(count(&e, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 2);
        assert_eq!(e.num_triples(), 3);
    }

    #[test]
    fn duplicate_insert_and_absent_delete_are_noops() {
        let e = engine();
        let out = e
            .mutate()
            .insert(iri("a"), iri("p"), iri("b")) // already stored
            .delete(iri("zzz"), iri("p"), iri("zzz")) // never stored
            .delete(iri("a"), iri("q"), iri("b")) // wrong predicate
            .run()
            .unwrap();
        assert_eq!(out.inserted, 0);
        assert_eq!(out.deleted, 0);
        assert_eq!(out.predicates_touched, 0);
        assert_eq!(out.cache_invalidations, 0);
        assert_eq!(e.num_triples(), 3);
    }

    #[test]
    fn later_ops_on_the_same_triple_win() {
        let e = engine();
        // insert-then-delete: net nothing.
        let out = e
            .mutate()
            .insert(iri("x"), iri("p"), iri("y"))
            .delete(iri("x"), iri("p"), iri("y"))
            .run()
            .unwrap();
        assert_eq!((out.inserted, out.deleted), (0, 0));
        assert_eq!(e.num_triples(), 3);
        // delete-then-insert of a stored triple: still stored.
        let out = e
            .mutate()
            .delete(iri("a"), iri("p"), iri("b"))
            .insert(iri("a"), iri("p"), iri("b"))
            .run()
            .unwrap();
        assert_eq!((out.inserted, out.deleted), (0, 0));
        assert_eq!(count(&e, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 2);
    }

    #[test]
    fn new_terms_and_predicates_are_queryable() {
        let e = engine();
        let out = e
            .mutate()
            .insert(iri("fresh"), iri("brandnew"), iri("alsofresh"))
            .run()
            .unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(
            count(
                &e,
                "SELECT ?o WHERE { <http://e/fresh> <http://e/brandnew> ?o }"
            ),
            1
        );
        // The new terms decode in materialized rows.
        let rows = e
            .request("SELECT ?s ?o WHERE { ?s <http://e/brandnew> ?o }")
            .run()
            .unwrap()
            .term_rows()
            .unwrap();
        assert_eq!(rows, vec![vec![iri("fresh"), iri("alsofresh")]]);
    }

    #[test]
    fn delete_then_reinsert_across_batches() {
        let e = engine();
        e.mutate()
            .delete(iri("a"), iri("p"), iri("b"))
            .run()
            .unwrap();
        assert_eq!(count(&e, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 1);
        let out = e
            .mutate()
            .insert(iri("a"), iri("p"), iri("b"))
            .run()
            .unwrap();
        assert_eq!(out.inserted, 1, "un-tombstoning counts as an insert");
        assert_eq!(count(&e, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 2);
        assert_eq!(e.num_triples(), 3);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let e = engine();
        let out = e.mutate().run().unwrap();
        assert_eq!(out.inserted + out.deleted, 0);
        assert_eq!(out.predicates_touched, 0);
        assert_eq!(out.visible_triples, 3);
    }

    #[test]
    fn batch_compaction_threshold_triggers_inline_compaction() {
        let e = load(
            Parj::builder().threads(1).delta_compaction_threshold(8),
            DATA,
        );
        let batch: Vec<(Term, Term, Term)> = (0..20)
            .map(|i| (iri(&format!("s{i}")), iri("p"), iri("o")))
            .collect();
        let out = e.mutate().insert_all(batch).run().unwrap();
        assert_eq!(out.inserted, 20);
        assert_eq!(out.compactions, 1, "20 resident pairs >= threshold 8");
        assert_eq!(out.delta_resident_pairs, 0, "compaction emptied the runs");
        assert!(
            out.delta_bytes > 0,
            "compacted partition stays in the overlay"
        );
        assert_eq!(
            count(&e, "SELECT ?s WHERE { ?s <http://e/p> <http://e/o> }"),
            20
        );
        // A second batch probes against the compacted partition.
        let out = e
            .mutate()
            .delete(iri("s3"), iri("p"), iri("o"))
            .run()
            .unwrap();
        assert_eq!(out.deleted, 1);
        assert_eq!(
            count(&e, "SELECT ?s WHERE { ?s <http://e/p> <http://e/o> }"),
            19
        );
    }

    #[test]
    fn zero_threshold_disables_compaction() {
        let e = load(
            Parj::builder().threads(1).delta_compaction_threshold(0),
            DATA,
        );
        let batch: Vec<(Term, Term, Term)> = (0..50)
            .map(|i| (iri(&format!("s{i}")), iri("p"), iri("o")))
            .collect();
        let out = e.mutate().insert_all(batch).run().unwrap();
        assert_eq!(out.compactions, 0);
        assert_eq!(out.delta_resident_pairs, 50);
        assert_eq!(
            count(&e, "SELECT ?s WHERE { ?s <http://e/p> <http://e/o> }"),
            50
        );
    }

    #[test]
    fn outcome_reports_phase_timings() {
        let e = engine();
        let out = e
            .mutate()
            .insert(iri("x"), iri("p"), iri("y"))
            .run()
            .unwrap();
        assert_eq!(
            out.phases.total(),
            out.phases.encode_micros
                + out.phases.apply_micros
                + out.phases.compact_micros
                + out.phases.invalidate_micros
        );
    }

    #[test]
    fn mutations_then_unrelated_load_rebuilds_consistently() {
        let e = engine();
        e.mutate()
            .insert(iri("c"), iri("p"), iri("d"))
            .delete(iri("a"), iri("q"), iri("c"))
            .run()
            .unwrap();
        // Re-opened staging folds the delta in; the rebuilt store must
        // carry exactly the merged view plus the new data.
        let e = reload(e, "<http://e/z> <http://e/p> <http://e/z2> .\n");
        assert_eq!(e.num_triples(), 4);
        assert_eq!(count(&e, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 4);
        assert_eq!(count(&e, "SELECT ?s WHERE { ?s <http://e/q> ?o }"), 0);
        let report = e.audit();
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn snapshot_after_mutations_captures_merged_view() {
        let e = engine();
        e.mutate()
            .insert(iri("c"), iri("p"), iri("d"))
            .delete(iri("a"), iri("p"), iri("b"))
            .run()
            .unwrap();
        let dir = std::env::temp_dir().join(format!("parj-mutate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mutated.parj");
        e.save_snapshot(&path).unwrap();
        let back = Parj::load_snapshot(&path, crate::EngineConfig::default()).unwrap();
        assert_eq!(back.num_triples(), 3);
        assert_eq!(count(&back, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 2);
        assert_eq!(
            count(&back, "SELECT ?o WHERE { <http://e/c> <http://e/p> ?o }"),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reasoning_engine_batches_refresh_the_hierarchy() {
        // Once with the batches resident in the delta's runs, once with
        // every touched predicate compacted straight into a fresh
        // partition, so the refresh reads both halves of the merged view.
        for threshold in [0, 1] {
            refresh_the_hierarchy(threshold);
        }
    }

    fn refresh_the_hierarchy(threshold: usize) {
        use crate::hierarchy::{RDFS_SUBCLASSOF as SUBCLASS, RDF_TYPE};
        let e = load(
            Parj::builder()
                .threads(1)
                .rdfs_reasoning(true)
                .cache(true)
                .delta_compaction_threshold(threshold),
            &format!(
                "{DATA}<http://e/D> <{SUBCLASS}> <http://e/C> .\n<http://e/y> <{RDF_TYPE}> <http://e/D> .\n"
            ),
        );
        let rows = |e: &Parj, q: &str| {
            let out = e.request(q).run().unwrap();
            let mut rows = out.term_rows().unwrap();
            rows.sort();
            (rows, out.stats.cache)
        };
        let compacts = u64::from(threshold > 0);
        // A batch that leaves the hierarchy alone invalidates only the
        // predicates it touched: a cached query on another one is still
        // a hit, and the batch rides the delta.
        let on_q = "SELECT ?s ?o WHERE { ?s <http://e/q> ?o }";
        rows(&e, on_q);
        let out = e
            .mutate()
            .insert(iri("x"), iri("p"), iri("y"))
            .run()
            .unwrap();
        assert_eq!(out.cache_invalidations, 1);
        assert_eq!(out.compactions, compacts);
        assert_eq!(
            out.delta_resident_pairs,
            usize::from(threshold == 0),
            "no rebuild folded it"
        );
        assert_eq!(rows(&e, on_q).1, CacheStatus::ResultHit);
        // One batch that adds a subclass and an instance of it.
        let of_c = format!("SELECT ?x WHERE {{ ?x <{RDF_TYPE}> <http://e/C> }}");
        assert_eq!(rows(&e, &of_c).0, vec![vec![iri("y")]]);
        e.mutate()
            .insert(iri("S"), Term::iri(SUBCLASS), iri("C"))
            .insert(iri("x"), Term::iri(RDF_TYPE), iri("S"))
            .run()
            .unwrap();
        assert_eq!(rows(&e, &of_c).0, vec![vec![iri("x")], vec![iri("y")]]);
        // A batch that touches only `subClassOf` still changes the
        // answers over `rdf:type`: the hierarchy changed, so every
        // cached entry goes stale.
        e.mutate()
            .insert(iri("z"), Term::iri(RDF_TYPE), iri("T"))
            .run()
            .unwrap();
        rows(&e, &of_c);
        let out = e
            .mutate()
            .insert(iri("T"), Term::iri(SUBCLASS), iri("S"))
            .run()
            .unwrap();
        assert_eq!(
            out.cache_invalidations, 0,
            "invalidated by generation instead"
        );
        let (got, status) = rows(&e, &of_c);
        assert_eq!(status, CacheStatus::Miss);
        assert_eq!(got, vec![vec![iri("x")], vec![iri("y")], vec![iri("z")]]);
        // Deleting an edge shrinks the hierarchy: `:x` and `:z` reached
        // `:C` only through `:S`, and the cached answer goes stale.
        assert_eq!(rows(&e, &of_c).1, CacheStatus::ResultHit);
        let out = e
            .mutate()
            .delete(iri("S"), Term::iri(SUBCLASS), iri("C"))
            .run()
            .unwrap();
        assert_eq!(out.deleted, 1);
        assert_eq!(
            out.cache_invalidations, 0,
            "invalidated by generation instead"
        );
        let (got, status) = rows(&e, &of_c);
        assert_eq!(status, CacheStatus::Miss);
        assert_eq!(got, vec![vec![iri("y")]]);
        // The edge left in the base store goes the same way.
        let out = e
            .mutate()
            .delete(iri("D"), Term::iri(SUBCLASS), iri("C"))
            .run()
            .unwrap();
        assert_eq!(out.deleted, 1);
        assert_eq!(rows(&e, &of_c), (vec![], CacheStatus::Miss));
        assert!(e.audit().is_clean());
    }

    #[test]
    fn term_free_batch_leaves_a_live_answers_dictionary_shared() {
        let e = engine();
        // Delta terms for the answer to hold.
        e.mutate()
            .insert(iri("n1"), iri("p"), iri("n2"))
            .run()
            .unwrap();
        let out = e
            .request("SELECT ?s ?o WHERE { ?s <http://e/p> ?o } LIMIT 10")
            .run()
            .unwrap();
        let held = out
            .answer()
            .expect("rows were requested")
            .ready
            .delta
            .shared_dict();
        // Every term already exists: the batch interns nothing.
        let batch = e
            .mutate()
            .insert(iri("n2"), iri("p"), iri("a"))
            .run()
            .unwrap();
        assert_eq!(batch.inserted, 1);
        assert!(Arc::ptr_eq(held, e.snapshot().delta.shared_dict()));
        assert_eq!(out.term_rows().unwrap().len(), 3);
    }

    #[test]
    fn delta_metrics_feed_the_registry() {
        let e = load(
            Parj::builder().threads(1).delta_compaction_threshold(4),
            DATA,
        );
        let batch: Vec<(Term, Term, Term)> = (0..6)
            .map(|i| (iri(&format!("s{i}")), iri("p"), iri("o")))
            .collect();
        e.mutate().insert_all(batch).run().unwrap();
        let snap = e.metrics_snapshot();
        assert_eq!(snap.value("parj_delta_compactions_total", &[]), Some(1));
        assert_eq!(snap.value("parj_delta_resident_triples", &[]), Some(0));
        assert!(snap.value("parj_delta_resident_bytes", &[]).unwrap() > 0);
        // A below-threshold batch leaves resident pairs behind.
        e.mutate()
            .insert(iri("q1"), iri("p"), iri("q2"))
            .run()
            .unwrap();
        let snap = e.metrics_snapshot();
        assert_eq!(snap.value("parj_delta_resident_triples", &[]), Some(1));
        // A full rebuild zeroes the residency gauges.
        let e = reload(e, "<http://e/w> <http://e/p> <http://e/w2> .\n");
        let snap = e.metrics_snapshot();
        assert_eq!(snap.value("parj_delta_resident_triples", &[]), Some(0));
        assert_eq!(snap.value("parj_delta_resident_bytes", &[]), Some(0));
    }
}
