//! The transactional mutation API: one builder mirroring
//! [`Parj::request`] for writes.
//!
//! A [`MutationRequest`] batches inserts and deletes and applies them
//! atomically with respect to queries: no query observes a partially
//! applied batch ([`Parj::mutate`] holds `&mut self`;
//! [`SharedParj::mutate`] holds the write lock). The batch lands in the
//! engine's per-predicate **delta overlay** — sorted insert runs plus
//! tombstone delete runs consulted by probes alongside the base CSR
//! replicas — so applying costs `O(batch + resident delta)` in the
//! touched predicates, never a store rebuild. Predicates whose resident
//! delta crosses [`crate::EngineConfig::delta_compaction_threshold`]
//! are compacted inline (a linear two-run merge into a replacement
//! partition), and cached entries referencing a touched predicate are
//! invalidated per predicate — queries over untouched predicates keep
//! serving hits.
//!
//! ```
//! use parj_core::{Parj, Term};
//!
//! let mut engine = Parj::new();
//! engine.load_ntriples_str("<http://e/a> <http://e/p> <http://e/b> .").unwrap();
//! engine.finalize();
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

use parj_dict::Term;

use crate::engine::Parj;
use crate::error::ParjError;
use crate::shared::SharedParj;

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

/// What a mutation request may borrow while it runs.
enum MutTarget<'e> {
    /// Exclusive engine access.
    Mut(&'e mut Parj),
    /// A [`SharedParj`] handle: applies under its write lock.
    Shared(&'e SharedParj),
}

/// A configured mutation batch, ready to [`run`](MutationRequest::run).
/// Built by [`Parj::mutate`] or [`SharedParj::mutate`].
pub struct MutationRequest<'e> {
    target: MutTarget<'e>,
    ops: Vec<MutationOp>,
}

impl<'e> MutationRequest<'e> {
    fn new(target: MutTarget<'e>) -> Self {
        MutationRequest {
            target,
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
        self.ops
            .extend(triples.into_iter().map(|(s, p, o)| MutationOp::Insert(s, p, o)));
        self
    }

    /// Adds many deletions (chainable convenience over
    /// [`MutationRequest::delete`]).
    pub fn delete_all(mut self, triples: impl IntoIterator<Item = (Term, Term, Term)>) -> Self {
        self.ops
            .extend(triples.into_iter().map(|(s, p, o)| MutationOp::Delete(s, p, o)));
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
    /// batch is visible to the next query as a whole or, on error, not
    /// at all.
    pub fn run(self) -> Result<MutationOutcome, ParjError> {
        match self.target {
            MutTarget::Mut(engine) => engine.apply_mutation(&self.ops),
            MutTarget::Shared(shared) => shared.with_write(|engine| engine.apply_mutation(&self.ops)),
        }
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
    /// Cache invalidation (per-predicate epoch bumps, or the full fold
    /// on reasoning engines).
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
    /// Per-predicate cache epoch bumps performed (0 when the engine has
    /// no cache entries to protect or the batch folded into a rebuild,
    /// which invalidates by generation instead).
    pub cache_invalidations: u64,
    /// Uncompacted add/delete pairs resident in the delta after the
    /// batch.
    pub delta_resident_pairs: usize,
    /// Delta overlay heap bytes after the batch.
    pub delta_bytes: usize,
    /// Triples visible to queries after the batch.
    pub visible_triples: usize,
    /// True when the batch folded into a full store rebuild (reasoning
    /// engines, which must re-extract the RDFS hierarchy).
    pub folded: bool,
    /// Per-phase wall timings.
    pub phases: MutationPhases,
}

impl Parj {
    /// Starts a mutation batch with exclusive engine access — the write
    /// counterpart of [`Parj::request`]. Staged (never-finalized) data
    /// is finalized first when the batch runs.
    pub fn mutate(&mut self) -> MutationRequest<'_> {
        MutationRequest::new(MutTarget::Mut(self))
    }
}

impl SharedParj {
    /// Starts a mutation batch that applies under this handle's write
    /// lock: queries drain first, the batch applies atomically, and
    /// readers resume against the updated delta — no store rebuild, so
    /// the write lock is held for `O(batch + resident delta)` only.
    pub fn mutate(&self) -> MutationRequest<'_> {
        MutationRequest::new(MutTarget::Shared(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_dict::Term;

    const DATA: &str = "\
<http://e/a> <http://e/p> <http://e/b> .\n\
<http://e/b> <http://e/p> <http://e/c> .\n\
<http://e/a> <http://e/q> <http://e/c> .\n";

    fn engine() -> Parj {
        let mut e = Parj::builder().threads(2).build();
        e.load_ntriples_str(DATA).unwrap();
        e.finalize();
        e
    }

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://e/{s}"))
    }

    fn count(e: &mut Parj, q: &str) -> u64 {
        e.request(q).count_only().run().unwrap().count
    }

    #[test]
    fn insert_and_delete_change_visibility() {
        let mut e = engine();
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
        assert!(!out.folded);
        assert_eq!(count(&mut e, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 2);
        assert_eq!(e.num_triples(), 3);
    }

    #[test]
    fn duplicate_insert_and_absent_delete_are_noops() {
        let mut e = engine();
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
        let mut e = engine();
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
        assert_eq!(count(&mut e, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 2);
    }

    #[test]
    fn new_terms_and_predicates_are_queryable() {
        let mut e = engine();
        let out = e
            .mutate()
            .insert(iri("fresh"), iri("brandnew"), iri("alsofresh"))
            .run()
            .unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(
            count(&mut e, "SELECT ?o WHERE { <http://e/fresh> <http://e/brandnew> ?o }"),
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
        let mut e = engine();
        e.mutate().delete(iri("a"), iri("p"), iri("b")).run().unwrap();
        assert_eq!(count(&mut e, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 1);
        let out = e.mutate().insert(iri("a"), iri("p"), iri("b")).run().unwrap();
        assert_eq!(out.inserted, 1, "un-tombstoning counts as an insert");
        assert_eq!(count(&mut e, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 2);
        assert_eq!(e.num_triples(), 3);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut e = engine();
        let out = e.mutate().run().unwrap();
        assert_eq!(out.inserted + out.deleted, 0);
        assert_eq!(out.predicates_touched, 0);
        assert_eq!(out.visible_triples, 3);
    }

    #[test]
    fn mutate_on_staged_engine_finalizes_first() {
        let mut e = Parj::builder().threads(1).build();
        e.load_ntriples_str(DATA).unwrap();
        // Never finalized: mutate() folds the staged triples first.
        let out = e.mutate().insert(iri("c"), iri("p"), iri("d")).run().unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(out.visible_triples, 4);
        assert!(e.is_finalized());
    }

    #[test]
    fn batch_compaction_threshold_triggers_inline_compaction() {
        let mut e = Parj::builder().threads(1).delta_compaction_threshold(8).build();
        e.load_ntriples_str(DATA).unwrap();
        e.finalize();
        let batch: Vec<(Term, Term, Term)> =
            (0..20).map(|i| (iri(&format!("s{i}")), iri("p"), iri("o"))).collect();
        let out = e.mutate().insert_all(batch).run().unwrap();
        assert_eq!(out.inserted, 20);
        assert_eq!(out.compactions, 1, "20 resident pairs >= threshold 8");
        assert_eq!(out.delta_resident_pairs, 0, "compaction emptied the runs");
        assert!(out.delta_bytes > 0, "compacted partition stays in the overlay");
        assert_eq!(count(&mut e, "SELECT ?s WHERE { ?s <http://e/p> <http://e/o> }"), 20);
        // A second batch probes against the compacted partition.
        let out = e.mutate().delete(iri("s3"), iri("p"), iri("o")).run().unwrap();
        assert_eq!(out.deleted, 1);
        assert_eq!(count(&mut e, "SELECT ?s WHERE { ?s <http://e/p> <http://e/o> }"), 19);
    }

    #[test]
    fn zero_threshold_disables_compaction() {
        let mut e = Parj::builder().threads(1).delta_compaction_threshold(0).build();
        e.load_ntriples_str(DATA).unwrap();
        e.finalize();
        let batch: Vec<(Term, Term, Term)> =
            (0..50).map(|i| (iri(&format!("s{i}")), iri("p"), iri("o"))).collect();
        let out = e.mutate().insert_all(batch).run().unwrap();
        assert_eq!(out.compactions, 0);
        assert_eq!(out.delta_resident_pairs, 50);
        assert_eq!(count(&mut e, "SELECT ?s WHERE { ?s <http://e/p> <http://e/o> }"), 50);
    }

    #[test]
    fn outcome_reports_phase_timings() {
        let mut e = engine();
        let out = e.mutate().insert(iri("x"), iri("p"), iri("y")).run().unwrap();
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
        let mut e = engine();
        e.mutate()
            .insert(iri("c"), iri("p"), iri("d"))
            .delete(iri("a"), iri("q"), iri("c"))
            .run()
            .unwrap();
        // A bulk load folds the delta into staging; the rebuilt store
        // must carry exactly the merged view plus the new data.
        e.load_ntriples_str("<http://e/z> <http://e/p> <http://e/z2> .\n").unwrap();
        assert_eq!(e.num_triples(), 4);
        assert_eq!(count(&mut e, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 4);
        assert_eq!(count(&mut e, "SELECT ?s WHERE { ?s <http://e/q> ?o }"), 0);
        let report = e.audit();
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn snapshot_after_mutations_captures_merged_view() {
        let mut e = engine();
        e.mutate()
            .insert(iri("c"), iri("p"), iri("d"))
            .delete(iri("a"), iri("p"), iri("b"))
            .run()
            .unwrap();
        let dir = std::env::temp_dir().join(format!("parj-mutate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mutated.parj");
        e.save_snapshot(&path).unwrap();
        let mut back = Parj::load_snapshot(&path, crate::EngineConfig::default()).unwrap();
        assert_eq!(back.num_triples(), 3);
        assert_eq!(count(&mut back, "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }"), 2);
        assert_eq!(
            count(&mut back, "SELECT ?o WHERE { <http://e/c> <http://e/p> ?o }"),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reasoning_engine_folds_batches() {
        let mut e = Parj::builder().threads(1).rdfs_reasoning(true).build();
        e.load_ntriples_str(
            "<http://e/Sub> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://e/Sup> .\n",
        )
        .unwrap();
        e.finalize();
        let out = e
            .mutate()
            .insert(
                iri("x"),
                Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                iri("Sub"),
            )
            .run()
            .unwrap();
        assert!(out.folded, "reasoning engines rebuild to refresh the hierarchy");
        assert_eq!(out.delta_resident_pairs, 0);
        // The entailment sees the new instance through the hierarchy.
        assert_eq!(
            count(
                &mut e,
                "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Sup> }"
            ),
            1
        );
    }

    #[test]
    fn shared_mutate_applies_under_the_write_lock() {
        let shared = SharedParj::new(engine());
        let q = "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }";
        assert_eq!(shared.request(q).count_only().run().unwrap().count, 2);
        let out = shared
            .mutate()
            .insert(iri("c"), iri("p"), iri("d"))
            .run()
            .unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(shared.request(q).count_only().run().unwrap().count, 3);
        assert_eq!(shared.try_num_triples().unwrap(), 4);
    }

    #[test]
    fn delta_metrics_feed_the_registry() {
        let mut e = Parj::builder().threads(1).delta_compaction_threshold(4).build();
        e.load_ntriples_str(DATA).unwrap();
        e.finalize();
        let batch: Vec<(Term, Term, Term)> =
            (0..6).map(|i| (iri(&format!("s{i}")), iri("p"), iri("o"))).collect();
        e.mutate().insert_all(batch).run().unwrap();
        let snap = e.metrics_snapshot();
        assert_eq!(snap.value("parj_delta_compactions_total", &[]), Some(1));
        assert_eq!(snap.value("parj_delta_resident_triples", &[]), Some(0));
        assert!(snap.value("parj_delta_resident_bytes", &[]).unwrap() > 0);
        // A below-threshold batch leaves resident pairs behind.
        e.mutate().insert(iri("q1"), iri("p"), iri("q2")).run().unwrap();
        let snap = e.metrics_snapshot();
        assert_eq!(snap.value("parj_delta_resident_triples", &[]), Some(1));
        // A full rebuild zeroes the residency gauges.
        e.load_ntriples_str("<http://e/w> <http://e/p> <http://e/w2> .\n").unwrap();
        e.finalize();
        let snap = e.metrics_snapshot();
        assert_eq!(snap.value("parj_delta_resident_triples", &[]), Some(0));
        assert_eq!(snap.value("parj_delta_resident_bytes", &[]), Some(0));
    }
}
