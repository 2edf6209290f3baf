//! Append-only dictionary overlay for incremental mutations.
//!
//! The base [`Dictionary`] is immutable once a store is finalized —
//! query workers share it read-only with no synchronization. Mutation
//! batches can still introduce *new* terms, so the engine keeps a small
//! [`DictDelta`] beside the base dictionary: two extra [`Namespace`]s
//! whose ids **continue the base dense id spaces** (a delta resource
//! with delta-index `i` has the global id `base.num_resources() + i`,
//! and likewise for predicates).
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
//! Reads go through [`DictView`], a borrowed (base, delta) pair with
//! the same lookup surface as [`Dictionary`]; every decode consults the
//! base first and falls through to the delta by offset.

use crate::dict::{Dictionary, Namespace};
use crate::term::{Term, TermParseError, TermRef};
use crate::Id;

/// New terms introduced by mutations since the last finalize, with ids
/// continuing the base dictionary's dense spaces.
#[derive(Debug, Clone, Default)]
pub struct DictDelta {
    resources: Namespace,
    predicates: Namespace,
    base_resources: usize,
    base_predicates: usize,
}

impl DictDelta {
    /// Creates an empty delta anchored at the current end of `base`'s
    /// id spaces.
    pub fn new(base: &Dictionary) -> Self {
        DictDelta {
            resources: Namespace::new(),
            predicates: Namespace::new(),
            base_resources: base.num_resources(),
            base_predicates: base.num_predicates(),
        }
    }

    /// True if no new term has been added.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty() && self.predicates.is_empty()
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
        if let Some(id) = base.resources_ns().get_key(&key) {
            return id;
        }
        self.base_resources as Id + self.resources.encode_key(&key)
    }

    /// Encodes a predicate term, continuing the base predicate space.
    pub fn encode_predicate(&mut self, base: &Dictionary, term: &Term) -> Id {
        debug_assert_eq!(base.num_predicates(), self.base_predicates);
        let key = term.canonical_key();
        if let Some(id) = base.predicates_ns().get_key(&key) {
            return id;
        }
        self.base_predicates as Id + self.predicates.encode_key(&key)
    }

    /// Looks up a resource term without inserting.
    pub fn resource_id(&self, base: &Dictionary, term: &Term) -> Option<Id> {
        let key = term.canonical_key();
        base.resources_ns().get_key(&key).or_else(|| {
            self.resources
                .get_key(&key)
                .map(|i| self.base_resources as Id + i)
        })
    }

    /// Looks up a predicate term without inserting.
    pub fn predicate_id(&self, base: &Dictionary, term: &Term) -> Option<Id> {
        let key = term.canonical_key();
        base.predicates_ns().get_key(&key).or_else(|| {
            self.predicates
                .get_key(&key)
                .map(|i| self.base_predicates as Id + i)
        })
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
    pub fn decode_predicate(
        &self,
        base: &Dictionary,
        id: Id,
    ) -> Result<Term, TermParseError> {
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
        for i in 0..self.resources.len() {
            let key = self
                .resources
                .key(i as Id)
                .expect("delta resource ids are dense");
            let id = dict.resources_ns_mut().encode_key(key);
            debug_assert_eq!(id as usize, self.base_resources + i);
        }
        for i in 0..self.predicates.len() {
            let key = self
                .predicates
                .key(i as Id)
                .expect("delta predicate ids are dense");
            let id = dict.predicates_ns_mut().encode_key(key);
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
        assert_eq!(view.resource_id(&Term::iri("a")), base.resource_id(&Term::iri("a")));
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
    fn empty_delta_view_equals_base_view() {
        let base = base_dict();
        let delta = DictDelta::new(&base);
        let view = DictView::with_delta(&base, &delta);
        assert_eq!(view.num_resources(), base.num_resources());
        assert_eq!(view.num_predicates(), base.num_predicates());
    }
}
