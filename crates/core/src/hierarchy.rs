//! RDFS class/property hierarchies for query answering by *unioning*
//! partitions — the paper's §6 future work, implemented:
//!
//! > "We plan to extend our join method to handle such queries, by
//! > 'unioning' tables during the pipelined join execution in order to
//! > provide complete answering with respect to hierarchies, without
//! > the need to materialize the implications."
//!
//! When the engine is built, and after every mutation batch, it extracts
//! `rdfs:subClassOf` / `rdfs:subPropertyOf` statements from the data
//! and computes their transitive closures. At query time (when
//! [`crate::EngineConfig::reasoning`] is on):
//!
//! * a pattern `?x rdf:type C` expands into the union over all
//!   subclasses of `C` (including `C`);
//! * a pattern with constant predicate `P` expands into the union over
//!   all subproperties of `P` (including `P`);
//!
//! reusing the executor's pattern-set union machinery. Expanded unions
//! are alternative *derivations* of the same solution mapping, so the
//! engine deduplicates full solutions when any expansion fired —
//! exactly the semantics forward-chaining materialization would give,
//! with none of the "data size many times larger than the original"
//! the paper warns about.

use std::collections::HashMap;

use parj_dict::{DictView, Id, Term};
use parj_store::{DeltaOverlay, TripleStore};

/// `rdfs:subClassOf`.
pub const RDFS_SUBCLASSOF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
/// `rdfs:subPropertyOf`.
pub const RDFS_SUBPROPERTYOF: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";
/// `rdf:type`.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Extracted transitive hierarchies over a store's dictionary ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hierarchy {
    /// class resource id → all (transitive) subclasses, self included,
    /// sorted. Only classes with at least one *proper* subclass appear.
    sub_classes: HashMap<Id, Vec<Id>>,
    /// property **resource** id → predicate ids of all (transitive)
    /// subproperties that occur as predicates, self included when it
    /// occurs. Keyed by resource id because a super-property may never
    /// occur as a predicate itself (it then has no predicate id) yet its
    /// subproperties must still answer queries over it.
    sub_properties: HashMap<Id, Vec<Id>>,
    /// Predicate id of `rdf:type` in this dictionary, if present.
    rdf_type: Option<Id>,
}

/// Computes, for every node reachable as a superclass, the transitive
/// set of descendants (self included) over `edges: child → parents`.
fn transitive_descendants(direct: &HashMap<Id, Vec<Id>>) -> HashMap<Id, Vec<Id>> {
    // Invert to parent → children first.
    let mut children: HashMap<Id, Vec<Id>> = HashMap::new();
    for (&child, parents) in direct {
        for &p in parents {
            children.entry(p).or_default().push(child);
        }
    }
    let mut out = HashMap::new();
    for &root in children.keys() {
        // Iterative DFS with a visited set (hierarchies may contain
        // cycles in dirty data; they must not hang us).
        let mut seen = vec![root];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if let Some(kids) = children.get(&n) {
                for &k in kids {
                    if !seen.contains(&k) {
                        seen.push(k);
                        stack.push(k);
                    }
                }
            }
        }
        if seen.len() > 1 {
            seen.sort_unstable();
            out.insert(root, seen);
        }
    }
    out
}

impl Hierarchy {
    /// Extracts the hierarchies from `rdfs:subClassOf` /
    /// `rdfs:subPropertyOf` statements stored in `store`.
    pub fn extract(store: &TripleStore) -> Hierarchy {
        Self::extract_merged(store, &DeltaOverlay::new(store))
    }

    /// Extracts the hierarchies from the view a mutation delta gives of
    /// its base store: base plus delta dictionary, and the merged
    /// `rdfs:subClassOf` / `rdfs:subPropertyOf` pairs.
    pub(crate) fn extract_merged(base: &TripleStore, delta: &DeltaOverlay) -> Hierarchy {
        let dict = DictView::with_delta(base.dict(), delta.dict());
        let rdf_type = dict.predicate_id(&Term::iri(RDF_TYPE));
        // A predicate's visible `(s, o)` pairs in S-O order.
        let pairs = |iri: &str| {
            dict.predicate_id(&Term::iri(iri))
                .map_or_else(Vec::new, |p| delta.merged_so_pairs(base, p))
        };

        // subClassOf: both endpoints are resource ids already.
        let mut class_parents: HashMap<Id, Vec<Id>> = HashMap::new();
        for (child, parent) in pairs(RDFS_SUBCLASSOF) {
            class_parents.entry(child).or_default().push(parent);
        }

        // subPropertyOf: endpoints are resource-namespace encodings of
        // property IRIs. The closure is computed over resource ids (a
        // super-property may never occur as a predicate), then each
        // descendant set is mapped to the predicate ids that actually
        // occur — those are the partitions the union scans.
        let mut prop_parents: HashMap<Id, Vec<Id>> = HashMap::new();
        for (child_res, parent_res) in pairs(RDFS_SUBPROPERTYOF) {
            prop_parents.entry(child_res).or_default().push(parent_res);
        }
        let as_pred = |res: Id| -> Option<Id> {
            dict.decode_resource(res)
                .ok()
                .and_then(|t| dict.predicate_id(&t))
        };
        let sub_properties: HashMap<Id, Vec<Id>> = transitive_descendants(&prop_parents)
            .into_iter()
            .filter_map(|(parent_res, descendant_res)| {
                let mut preds: Vec<Id> =
                    descendant_res.iter().copied().filter_map(as_pred).collect();
                preds.sort_unstable();
                preds.dedup();
                (!preds.is_empty()).then_some((parent_res, preds))
            })
            .collect();

        Hierarchy {
            sub_classes: transitive_descendants(&class_parents),
            sub_properties,
            rdf_type,
        }
    }

    /// All subclasses of `class` (self included), or `None` when the
    /// class has no proper subclasses (no expansion needed).
    pub fn subclasses(&self, class: Id) -> Option<&[Id]> {
        self.sub_classes.get(&class).map(Vec::as_slice)
    }

    /// Predicate ids of all subproperties of the property whose
    /// **resource** id is `property_res` (self included when it occurs
    /// as a predicate), or `None` when the property has no declared
    /// subproperties.
    pub fn subproperties(&self, property_res: Id) -> Option<&[Id]> {
        self.sub_properties.get(&property_res).map(Vec::as_slice)
    }

    /// The `rdf:type` predicate id, if the data uses it.
    pub fn rdf_type(&self) -> Option<Id> {
        self.rdf_type
    }

    /// True when no hierarchy statements were found (expansion is a
    /// no-op).
    pub fn is_empty(&self) -> bool {
        self.sub_classes.is_empty() && self.sub_properties.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_store::StoreBuilder;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://e/{s}"))
    }

    fn store() -> TripleStore {
        let mut b = StoreBuilder::new();
        let mut add = |s: &Term, p: &str, o: &Term| {
            let p = if p.starts_with("http") {
                Term::iri(p)
            } else {
                iri(p)
            };
            b.add_term_triple(s, &p, o);
        };
        // Class hierarchy: GradStudent ⊑ Student ⊑ Person; Prof ⊑ Person.
        add(&iri("GradStudent"), RDFS_SUBCLASSOF, &iri("Student"));
        add(&iri("Student"), RDFS_SUBCLASSOF, &iri("Person"));
        add(&iri("Prof"), RDFS_SUBCLASSOF, &iri("Person"));
        // Property hierarchy: advisor ⊑ knows (both used as predicates).
        add(&iri("advisor"), RDFS_SUBPROPERTYOF, &iri("knows"));
        add(&iri("alice"), "advisor", &iri("bob"));
        add(&iri("carol"), "knows", &iri("dave"));
        add(&iri("alice"), RDF_TYPE, &iri("GradStudent"));
        add(&iri("bob"), RDF_TYPE, &iri("Prof"));
        b.build()
    }

    #[test]
    fn class_closure() {
        let s = store();
        let h = Hierarchy::extract(&s);
        let d = s.dict();
        let person = d.resource_id(&iri("Person")).unwrap();
        let student = d.resource_id(&iri("Student")).unwrap();
        let grad = d.resource_id(&iri("GradStudent")).unwrap();
        let prof = d.resource_id(&iri("Prof")).unwrap();
        let mut subs = h.subclasses(person).unwrap().to_vec();
        subs.sort_unstable();
        let mut expect = vec![person, student, grad, prof];
        expect.sort_unstable();
        assert_eq!(subs, expect);
        // Student's closure excludes Prof.
        let subs = h.subclasses(student).unwrap();
        assert!(subs.contains(&grad) && !subs.contains(&prof));
        // Leaf classes need no expansion.
        assert!(h.subclasses(grad).is_none());
    }

    #[test]
    fn property_closure() {
        let s = store();
        let h = Hierarchy::extract(&s);
        let d = s.dict();
        // Lookup key is the property's *resource* id; results are
        // predicate ids.
        let knows_res = d.resource_id(&iri("knows")).unwrap();
        let knows_pred = d.predicate_id(&iri("knows")).unwrap();
        let advisor_pred = d.predicate_id(&iri("advisor")).unwrap();
        let mut subs = h.subproperties(knows_res).unwrap().to_vec();
        subs.sort_unstable();
        let mut expect = vec![knows_pred, advisor_pred];
        expect.sort_unstable();
        assert_eq!(subs, expect);
        assert_eq!(h.rdf_type(), d.predicate_id(&Term::iri(RDF_TYPE)));
    }

    #[test]
    fn super_property_without_direct_use() {
        // `narrow ⊑ broad` where `broad` never occurs as a predicate:
        // its resource id must still expand to `narrow`'s partition.
        let mut b = StoreBuilder::new();
        b.add_term_triple(
            &iri("narrow"),
            &Term::iri(RDFS_SUBPROPERTYOF),
            &iri("broad"),
        );
        b.add_term_triple(&iri("x"), &iri("narrow"), &iri("y"));
        let s = b.build();
        let h = Hierarchy::extract(&s);
        let broad_res = s.dict().resource_id(&iri("broad")).unwrap();
        let narrow_pred = s.dict().predicate_id(&iri("narrow")).unwrap();
        assert_eq!(h.subproperties(broad_res), Some(&[narrow_pred][..]));
    }

    #[test]
    fn cycles_terminate() {
        let mut b = StoreBuilder::new();
        b.add_term_triple(&iri("A"), &Term::iri(RDFS_SUBCLASSOF), &iri("B"));
        b.add_term_triple(&iri("B"), &Term::iri(RDFS_SUBCLASSOF), &iri("A"));
        let s = b.build();
        let h = Hierarchy::extract(&s);
        let a = s.dict().resource_id(&iri("A")).unwrap();
        let subs = h.subclasses(a).unwrap();
        assert_eq!(subs.len(), 2); // both classes, no hang
    }

    #[test]
    fn empty_hierarchy() {
        let mut b = StoreBuilder::new();
        b.add_term_triple(&iri("x"), &iri("p"), &iri("y"));
        let h = Hierarchy::extract(&b.build());
        assert!(h.is_empty());
        assert!(h.subclasses(0).is_none());
    }
}
