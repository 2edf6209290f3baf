//! Append-only dictionary overlay for incremental mutations.
//!
//! The base [`Dictionary`] is immutable once a store is finalized —
//! query workers share it read-only with no synchronization. Mutation
//! batches can still introduce *new* terms, so the engine keeps a small
//! [`DictDelta`] beside the base dictionary: two extra namespaces whose
//! ids **continue the base dense id spaces** (a delta resource with
//! delta-index `i` has the global id `base.num_resources() + i`, and
//! likewise for predicates).
//!
//! Continuing the dense spaces is load-bearing twice over:
//!
//! * probe structures and the ID-to-Position index assume dense ids, so
//!   a delta term is indistinguishable from a base term downstream;
//! * folding the delta into a cloned base dictionary **in insertion
//!   order** reassigns exactly the same ids (dense ids are handed out
//!   in first-seen order), which is what lets the audit layer compare a
//!   delta-overlaid store against a from-scratch rebuild byte for byte.
//!
//! Each namespace is a list of immutable runs behind [`Arc`]s, so a
//! published engine version, a query answer and the version a writer
//! builds next share every run but the newest: cloning a `DictDelta`
//! copies O(log n) pointers, never the terms.
//!
//! Reads go through [`DictView`], a borrowed (base, delta) pair with
//! the same lookup surface as [`Dictionary`]; every decode consults the
//! base first and falls through to the delta by offset.

use parj_sync::Arc;

use crate::dict::{Dictionary, Namespace};
use crate::hash::fx_hash_bytes;
use crate::term::{Term, TermParseError, TermRef};
use crate::Id;

/// One namespace of the extension: immutable runs of keys, oldest
/// first, each paired with the delta index of its first key.
///
/// The newest run grows in place while no other version holds it; once
/// a clone shares it, the next key opens a new run. Runs merge
/// geometrically — while the newest holds at least half as many keys
/// as the one before it, the two become one — so a namespace of `n`
/// keys has O(log n) runs, a lookup probes each once, and a key is
/// copied O(log n) times over its life.
#[derive(Debug, Clone, Default)]
struct Runs(Vec<(Id, Arc<Namespace>)>);

impl Runs {
    fn len(&self) -> usize {
        self.0
            .last()
            .map_or(0, |(first, run)| *first as usize + run.len())
    }

    fn get_key(&self, key: &str) -> Option<Id> {
        let hash = fx_hash_bytes(key.as_bytes());
        self.0
            .iter()
            .find_map(|(first, run)| run.get_key_hashed(hash, key).map(|i| first + i))
    }

    fn key(&self, i: Id) -> Option<&str> {
        let r = self
            .0
            .partition_point(|&(first, _)| first <= i)
            .checked_sub(1)?;
        let (first, run) = &self.0[r];
        run.key(i - first)
    }

    fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.iter().flat_map(|(_, run)| run.keys())
    }

    fn encode_key(&mut self, key: &str) -> Id {
        if let Some(i) = self.get_key(key) {
            return i;
        }
        let next = self.len() as Id;
        let open = self
            .0
            .last_mut()
            .and_then(|(first, run)| Some((*first, Arc::get_mut(run)?)));
        let i = match open {
            Some((first, run)) => first + run.encode_key(key),
            None => {
                let run = Namespace::from_keys([key].into_iter()).expect("one key");
                self.0.push((next, Arc::new(run)));
                next
            }
        };
        while let [.., (_, older), (_, newer)] = self.0.as_slice() {
            if newer.len() * 2 < older.len() {
                break;
            }
            let (Some((_, newer)), Some((first, older))) = (self.0.pop(), self.0.pop()) else {
                break;
            };
            let merged = Namespace::from_keys(older.keys().chain(newer.keys()));
            self.0
                .push((first, Arc::new(merged.expect("runs hold distinct keys"))));
        }
        i
    }

    fn memory_bytes(&self) -> usize {
        self.0.iter().map(|(_, run)| run.memory_bytes()).sum()
    }
}

/// New terms introduced by mutations since the last finalize, with ids
/// continuing the base dictionary's dense spaces.
#[derive(Debug, Clone, Default)]
pub struct DictDelta {
    resources: Runs,
    predicates: Runs,
    base_resources: usize,
    base_predicates: usize,
}

impl DictDelta {
    /// Creates an empty delta anchored at the current end of `base`'s
    /// id spaces.
    pub fn new(base: &Dictionary) -> Self {
        DictDelta {
            resources: Runs::default(),
            predicates: Runs::default(),
            base_resources: base.num_resources(),
            base_predicates: base.num_predicates(),
        }
    }

    /// True if no new term has been added.
    pub fn is_empty(&self) -> bool {
        self.num_new_terms() == 0
    }

    /// Number of new resource terms.
    pub fn num_new_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of new predicate terms.
    pub fn num_new_predicates(&self) -> usize {
        self.predicates.len()
    }

    /// Total new terms (resources + predicates).
    pub fn num_new_terms(&self) -> usize {
        self.resources.len() + self.predicates.len()
    }

    /// Resource id space length including the base.
    pub fn num_resources(&self) -> usize {
        self.base_resources + self.resources.len()
    }

    /// Predicate id space length including the base.
    pub fn num_predicates(&self) -> usize {
        self.base_predicates + self.predicates.len()
    }

    /// Encodes a resource term: the base id if the base knows it,
    /// otherwise an id in the delta extension (inserting on first use).
    ///
    /// `base` must be the dictionary this delta was anchored to.
    pub fn encode_resource(&mut self, base: &Dictionary, term: &Term) -> Id {
        debug_assert_eq!(base.num_resources(), self.base_resources);
        let key = term.canonical_key();
        let delta = |runs: &mut Runs| self.base_resources as Id + runs.encode_key(&key);
        base.resources
            .get_key(&key)
            .unwrap_or_else(|| delta(&mut self.resources))
    }

    /// Encodes a predicate term, continuing the base predicate space.
    pub fn encode_predicate(&mut self, base: &Dictionary, term: &Term) -> Id {
        debug_assert_eq!(base.num_predicates(), self.base_predicates);
        let key = term.canonical_key();
        let delta = |runs: &mut Runs| self.base_predicates as Id + runs.encode_key(&key);
        base.predicates
            .get_key(&key)
            .unwrap_or_else(|| delta(&mut self.predicates))
    }

    /// Looks up a resource term without inserting.
    pub fn resource_id(&self, base: &Dictionary, term: &Term) -> Option<Id> {
        let key = term.canonical_key();
        let delta = || Some(self.base_resources as Id + self.resources.get_key(&key)?);
        base.resources.get_key(&key).or_else(delta)
    }

    /// Looks up a predicate term without inserting.
    pub fn predicate_id(&self, base: &Dictionary, term: &Term) -> Option<Id> {
        let key = term.canonical_key();
        let delta = || Some(self.base_predicates as Id + self.predicates.get_key(&key)?);
        base.predicates.get_key(&key).or_else(delta)
    }

    /// Decodes a resource id, falling through to the delta extension;
    /// the term is borrowed from the arena that holds it.
    pub fn decode_resource_ref<'a>(
        &'a self,
        base: &'a Dictionary,
        id: Id,
    ) -> Result<TermRef<'a>, TermParseError> {
        if (id as usize) < self.base_resources {
            return base.decode_resource_ref(id);
        }
        let key = self
            .resources
            .key(id - self.base_resources as Id)
            .ok_or_else(|| TermParseError {
                message: format!("resource id {id} out of range"),
            })?;
        TermRef::from_key(key)
    }

    /// Decodes a predicate id, falling through to the delta extension.
    pub fn decode_predicate(&self, base: &Dictionary, id: Id) -> Result<Term, TermParseError> {
        if (id as usize) < self.base_predicates {
            return base.decode_predicate(id);
        }
        let key = self
            .predicates
            .key(id - self.base_predicates as Id)
            .ok_or_else(|| TermParseError {
                message: format!("predicate id {id} out of range"),
            })?;
        Term::from_canonical_key(key)
    }

    /// Folds every delta term into `dict` in insertion order.
    ///
    /// `dict` must be a clone of (or id-compatible with) the base this
    /// delta was anchored to: because dense ids are assigned in
    /// first-seen order, re-encoding the delta terms in insertion order
    /// reproduces exactly the ids this delta handed out, so triples
    /// encoded against the overlay stay valid against the folded
    /// dictionary.
    pub fn fold_into(&self, dict: &mut Dictionary) {
        for (i, key) in self.resources.keys().enumerate() {
            let id = dict.resources.encode_key(key);
            debug_assert_eq!(id as usize, self.base_resources + i);
        }
        for (i, key) in self.predicates.keys().enumerate() {
            let id = dict.predicates.encode_key(key);
            debug_assert_eq!(id as usize, self.base_predicates + i);
        }
    }

    /// Approximate heap footprint of the delta namespaces.
    pub fn memory_bytes(&self) -> usize {
        self.resources.memory_bytes() + self.predicates.memory_bytes()
    }
}

/// A borrowed read view over a base [`Dictionary`] plus an optional
/// [`DictDelta`] — the lookup surface the query path uses so that
/// delta-introduced terms translate and decode exactly like base terms.
#[derive(Debug, Clone, Copy)]
pub struct DictView<'a> {
    base: &'a Dictionary,
    delta: Option<&'a DictDelta>,
}

impl<'a> DictView<'a> {
    /// A view over `base` alone (no pending mutations).
    pub fn base(base: &'a Dictionary) -> Self {
        DictView { base, delta: None }
    }

    /// A view over `base` plus `delta`. An empty delta is treated the
    /// same as no delta.
    pub fn with_delta(base: &'a Dictionary, delta: &'a DictDelta) -> Self {
        DictView {
            base,
            delta: (!delta.is_empty()).then_some(delta),
        }
    }

    /// The underlying base dictionary.
    pub fn base_dict(&self) -> &'a Dictionary {
        self.base
    }

    /// Looks up a resource term without inserting.
    pub fn resource_id(&self, term: &Term) -> Option<Id> {
        match self.delta {
            Some(d) => d.resource_id(self.base, term),
            None => self.base.resource_id(term),
        }
    }

    /// Looks up a predicate term without inserting.
    pub fn predicate_id(&self, term: &Term) -> Option<Id> {
        match self.delta {
            Some(d) => d.predicate_id(self.base, term),
            None => self.base.predicate_id(term),
        }
    }

    /// Decodes a resource id.
    pub fn decode_resource(&self, id: Id) -> Result<Term, TermParseError> {
        self.decode_resource_ref(id).map(TermRef::to_term)
    }

    /// Decodes a resource id to a term borrowed from the dictionary
    /// (no allocation).
    pub fn decode_resource_ref(&self, id: Id) -> Result<TermRef<'a>, TermParseError> {
        match self.delta {
            Some(d) => d.decode_resource_ref(self.base, id),
            None => self.base.decode_resource_ref(id),
        }
    }

    /// Decodes a predicate id.
    pub fn decode_predicate(&self, id: Id) -> Result<Term, TermParseError> {
        match self.delta {
            Some(d) => d.decode_predicate(self.base, id),
            None => self.base.decode_predicate(id),
        }
    }

    /// Resource id space length (base + delta extension).
    pub fn num_resources(&self) -> usize {
        match self.delta {
            Some(d) => d.num_resources(),
            None => self.base.num_resources(),
        }
    }

    /// Predicate id space length (base + delta extension).
    pub fn num_predicates(&self) -> usize {
        match self.delta {
            Some(d) => d.num_predicates(),
            None => self.base.num_predicates(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_dict() -> Dictionary {
        let mut d = Dictionary::new();
        d.encode_resource(&Term::iri("a"));
        d.encode_resource(&Term::iri("b"));
        d.encode_predicate(&Term::iri("p"));
        d
    }

    #[test]
    fn base_terms_keep_base_ids() {
        let base = base_dict();
        let mut delta = DictDelta::new(&base);
        let a = delta.encode_resource(&base, &Term::iri("a"));
        assert_eq!(a, base.resource_id(&Term::iri("a")).unwrap());
        assert!(delta.is_empty());
    }

    #[test]
    fn new_terms_continue_dense_spaces() {
        let base = base_dict();
        let mut delta = DictDelta::new(&base);
        let c = delta.encode_resource(&base, &Term::iri("c"));
        let d = delta.encode_resource(&base, &Term::iri("d"));
        assert_eq!(c as usize, base.num_resources());
        assert_eq!(d as usize, base.num_resources() + 1);
        // Idempotent, like the base encoder.
        assert_eq!(c, delta.encode_resource(&base, &Term::iri("c")));
        let q = delta.encode_predicate(&base, &Term::iri("q"));
        assert_eq!(q as usize, base.num_predicates());
        assert_eq!(delta.num_new_terms(), 3);
    }

    #[test]
    fn view_lookup_and_decode_cover_both_layers() {
        let base = base_dict();
        let mut delta = DictDelta::new(&base);
        let c = delta.encode_resource(&base, &Term::iri("c"));
        let view = DictView::with_delta(&base, &delta);
        assert_eq!(
            view.resource_id(&Term::iri("a")),
            base.resource_id(&Term::iri("a"))
        );
        assert_eq!(view.resource_id(&Term::iri("c")), Some(c));
        assert_eq!(view.resource_id(&Term::iri("zz")), None);
        assert_eq!(view.decode_resource(c).unwrap(), Term::iri("c"));
        assert_eq!(view.decode_resource(0).unwrap(), Term::iri("a"));
        assert!(view.decode_resource(99).is_err());
        assert_eq!(view.num_resources(), base.num_resources() + 1);
    }

    #[test]
    fn fold_reproduces_identical_ids() {
        let base = base_dict();
        let mut delta = DictDelta::new(&base);
        let ids: Vec<Id> = ["x", "c", "m"]
            .iter()
            .map(|t| delta.encode_resource(&base, &Term::iri(*t)))
            .collect();
        let q = delta.encode_predicate(&base, &Term::iri("q"));

        let mut folded = base.clone();
        delta.fold_into(&mut folded);
        for (term, id) in [("x", ids[0]), ("c", ids[1]), ("m", ids[2])] {
            assert_eq!(folded.resource_id(&Term::iri(term)), Some(id));
        }
        assert_eq!(folded.predicate_id(&Term::iri("q")), Some(q));
        assert_eq!(folded.num_resources(), delta.num_resources());
    }

    #[test]
    fn runs_stay_logarithmic_and_pinned_versions_keep_their_terms() {
        let base = base_dict();
        let mut delta = DictDelta::new(&base);
        let mut pinned = Vec::new();
        for batch in 0..300usize {
            // A published version holds every run the next batch starts from.
            pinned.push(delta.clone());
            for t in 0..7 {
                let id = delta.encode_resource(&base, &Term::iri(format!("t{batch}-{t}")));
                assert_eq!(id as usize, base.num_resources() + batch * 7 + t);
            }
            let n = delta.num_new_resources();
            assert!(delta.resources.0.len() <= (usize::BITS - n.leading_zeros()) as usize);
        }
        // Re-encoding a known term copies nothing.
        let mut again = delta.clone();
        again.encode_resource(&base, &Term::iri("t5-3"));
        let shared = |a: &DictDelta, b: &DictDelta| {
            a.resources.0.len() == b.resources.0.len()
                && a.resources
                    .0
                    .iter()
                    .zip(&b.resources.0)
                    .all(|(x, y)| Arc::ptr_eq(&x.1, &y.1))
        };
        assert!(shared(&again, &delta));
        // Every pinned version still resolves exactly its own terms.
        let old = &pinned[100];
        assert_eq!(old.num_new_resources(), 700);
        let view = DictView::with_delta(&base, old);
        let last = base.num_resources() as Id + 699;
        assert_eq!(view.decode_resource(last).unwrap(), Term::iri("t99-6"));
        assert_eq!(view.resource_id(&Term::iri("t100-0")), None);
        // Folding reproduces the ids in insertion order.
        let mut folded = base.clone();
        delta.fold_into(&mut folded);
        let newest = Term::iri("t299-6");
        assert_eq!(
            folded.resource_id(&newest),
            delta.resource_id(&base, &newest)
        );
        assert_eq!(folded.num_resources(), delta.num_resources());
    }

    #[test]
    fn merged_runs_are_exactly_sized() {
        let base = base_dict();
        let mut delta = DictDelta::new(&base);
        let mut pinned = Vec::new();
        for i in 0..2_000 {
            // Every published version pins the runs, so each term opens
            // a run and runs grow only by merging.
            pinned.push(delta.clone());
            delta.encode_resource(&base, &crate::dict::tests::lubm_like(i));
        }
        let merged = delta.resources.0.iter().filter(|(_, run)| run.len() >= 64);
        assert!(merged.clone().count() >= 2);
        merged.for_each(|(_, run)| crate::dict::tests::assert_exactly_sized(run));
    }

    #[test]
    fn empty_delta_view_equals_base_view() {
        let base = base_dict();
        let delta = DictDelta::new(&base);
        let view = DictView::with_delta(&base, &delta);
        assert_eq!(view.num_resources(), base.num_resources());
        assert_eq!(view.num_predicates(), base.num_predicates());
    }
}
