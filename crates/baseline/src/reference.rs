//! The brute-force reference evaluator — the workspace's correctness
//! oracle.
//!
//! Deliberately the simplest possible BGP matcher: try every stored
//! triple against every pattern, recursively. Quadratic and slow, but
//! its correctness is inspectable at a glance, which is the point — the
//! sophisticated engines (PARJ and the baselines) are tested against it
//! on thousands of generated cases.

use parj_dict::{EncodedTriple, Id};
use parj_join::Atom;
use parj_optimizer::Pattern;
use parj_store::TripleStore;

/// Evaluates `patterns` by exhaustive search. Returns one row per
/// solution mapping (SPARQL multiset semantics, all `num_vars` variables
/// per row; variables never bound stay 0 — callers project as needed).
pub fn reference_eval(store: &TripleStore, patterns: &[Pattern], num_vars: usize) -> Vec<Vec<Id>> {
    let triples: Vec<EncodedTriple> = store.iter_triples().collect();
    let mut results = Vec::new();
    let mut bindings: Vec<Option<Id>> = vec![None; num_vars];
    recurse(patterns, &triples, &mut bindings, &mut results);
    results
}

fn recurse(
    patterns: &[Pattern],
    triples: &[EncodedTriple],
    bindings: &mut Vec<Option<Id>>,
    results: &mut Vec<Vec<Id>>,
) {
    let Some(pat) = patterns.first() else {
        results.push(bindings.iter().map(|b| b.unwrap_or(0)).collect());
        return;
    };
    for t in triples {
        if t.p != pat.p {
            continue;
        }
        let saved = bindings.clone();
        if matches(pat.s, t.s, bindings) && matches(pat.o, t.o, bindings) {
            recurse(&patterns[1..], triples, bindings, results);
        }
        *bindings = saved;
    }
}

fn matches(atom: Atom, id: Id, bindings: &mut [Option<Id>]) -> bool {
    match atom {
        Atom::Const(c) => c == id,
        Atom::Var(v) => match bindings[v as usize] {
            Some(existing) => existing == id,
            None => {
                bindings[v as usize] = Some(id);
                true
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_dict::Term;
    use parj_store::StoreBuilder;

    #[test]
    fn simple_join() {
        let mut b = StoreBuilder::new();
        for (s, p, o) in [("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a")] {
            b.add_term_triple(&Term::iri(s), &Term::iri(p), &Term::iri(o));
        }
        let store = b.build();
        let p = store.dict().predicate_id(&Term::iri("p")).unwrap();
        // Length-2 paths: ?x p ?y . ?y p ?z — the 3-cycle has 3.
        let rows = reference_eval(
            &store,
            &[
                Pattern {
                    s: Atom::Var(0),
                    p,
                    o: Atom::Var(1),
                },
                Pattern {
                    s: Atom::Var(1),
                    p,
                    o: Atom::Var(2),
                },
            ],
            3,
        );
        assert_eq!(rows.len(), 3);
        // Triangles: ?x p ?y . ?y p ?z . ?z p ?x — the cycle itself, 3
        // rotations.
        let rows = reference_eval(
            &store,
            &[
                Pattern {
                    s: Atom::Var(0),
                    p,
                    o: Atom::Var(1),
                },
                Pattern {
                    s: Atom::Var(1),
                    p,
                    o: Atom::Var(2),
                },
                Pattern {
                    s: Atom::Var(2),
                    p,
                    o: Atom::Var(0),
                },
            ],
            3,
        );
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn repeated_variable_consistency() {
        let mut b = StoreBuilder::new();
        for (s, o) in [("a", "a"), ("a", "b"), ("b", "b")] {
            b.add_term_triple(&Term::iri(s), &Term::iri("p"), &Term::iri(o));
        }
        let store = b.build();
        let rows = reference_eval(
            &store,
            &[Pattern {
                s: Atom::Var(0),
                p: 0,
                o: Atom::Var(0),
            }],
            1,
        );
        assert_eq!(rows.len(), 2); // a-a and b-b
    }
}
