//! Property test for the §6 RDFS extension: for arbitrary class
//! hierarchies and type assertions, the reasoning engine's answers equal
//! those of a plain engine over the *forward-chained materialization* —
//! the semantics the paper says its pipelined unions should provide
//! "without the need to materialize the implications".

use proptest::prelude::*;

use parj::{Parj, Term};

const CLASSES: u32 = 6;
const ENTITIES: u32 = 12;
const PROPS: u32 = 3;

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
const SUBCLASS: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
const SUBPROP: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";

fn class(i: u32) -> Term {
    Term::iri(format!("http://t/C{i}"))
}

fn entity(i: u32) -> Term {
    Term::iri(format!("http://t/e{i}"))
}

fn prop(i: u32) -> String {
    format!("http://t/p{i}")
}

#[derive(Debug, Clone)]
struct Case {
    /// `(child, parent)` subclass edges (may contain cycles).
    subclass: Vec<(u32, u32)>,
    /// `(child, parent)` subproperty edges.
    subprop: Vec<(u32, u32)>,
    /// `(entity, class)` type assertions.
    types: Vec<(u32, u32)>,
    /// `(s, p, o)` property assertions.
    edges: Vec<(u32, u32, u32)>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec((0..CLASSES, 0..CLASSES), 0..8),
        proptest::collection::vec((0..PROPS, 0..PROPS), 0..4),
        proptest::collection::vec((0..ENTITIES, 0..CLASSES), 1..20),
        proptest::collection::vec((0..ENTITIES, 0..PROPS, 0..ENTITIES), 1..20),
    )
        .prop_map(|(subclass, subprop, types, edges)| Case {
            subclass,
            subprop,
            types,
            edges,
        })
}

/// Transitive-reflexive superclass closure per node over `edges`.
fn ancestors(n: u32, edges: &[(u32, u32)], limit: u32) -> Vec<u32> {
    let mut seen = vec![n];
    let mut stack = vec![n];
    while let Some(x) = stack.pop() {
        for &(c, p) in edges {
            if c == x && !seen.contains(&p) && p < limit {
                seen.push(p);
                stack.push(p);
            }
        }
    }
    seen
}

fn load_base(engine: &Parj, case: &Case) {
    let base = case
        .subclass
        .iter()
        .map(|&(c, p)| (class(c), Term::iri(SUBCLASS), class(p)))
        .chain(
            case.subprop
                .iter()
                .map(|&(c, p)| (Term::iri(prop(c)), Term::iri(SUBPROP), Term::iri(prop(p)))),
        )
        .chain(
            case.types
                .iter()
                .map(|&(e, c)| (entity(e), Term::iri(RDF_TYPE), class(c))),
        )
        .chain(
            case.edges
                .iter()
                .map(|&(s, p, o)| (entity(s), Term::iri(prop(p)), entity(o))),
        );
    engine
        .mutate()
        .insert_all(base)
        .run()
        .expect("load base triples");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reasoning_equals_materialization(case in arb_case()) {
        // Reasoning engine over the raw data.
        let smart = Parj::builder().threads(2).rdfs_reasoning(true).build();
        load_base(&smart, &case);

        // Plain engine over the forward-chained closure.
        let mat = Parj::builder().threads(2).build();
        load_base(&mat, &case);
        let mut closure = Vec::new();
        for &(e, c) in &case.types {
            for anc in ancestors(c, &case.subclass, CLASSES) {
                closure.push((entity(e), Term::iri(RDF_TYPE), class(anc)));
            }
        }
        for &(s, p, o) in &case.edges {
            for anc in ancestors(p, &case.subprop, PROPS) {
                closure.push((entity(s), Term::iri(prop(anc)), entity(o)));
            }
        }
        mat.mutate().insert_all(closure).run().unwrap();

        // Every type query and property query must agree. Materialized
        // stores are sets, so plain counts there already equal distinct
        // solution counts — which is exactly what reasoning mode returns.
        for c in 0..CLASSES {
            let q = format!("SELECT ?x WHERE {{ ?x <{RDF_TYPE}> <http://t/C{c}> }}");
            let got = smart.request(&q).count_only().run().unwrap().count;
            let expect = mat.request(&q).count_only().run().unwrap().count;
            prop_assert_eq!(got, expect, "type query C{}", c);
        }
        for p in 0..PROPS {
            let q = format!("SELECT ?a ?b WHERE {{ ?a <{}> ?b }}", prop(p));
            let got = smart.request(&q).count_only().run().unwrap().count;
            let expect = mat.request(&q).count_only().run().unwrap().count;
            prop_assert_eq!(got, expect, "property query p{}", p);
        }
        // A join mixing both expansions.
        let q = format!(
            "SELECT ?a ?b WHERE {{ ?a <{}> ?b . ?b <{RDF_TYPE}> <http://t/C0> }}",
            prop(0)
        );
        let got = smart.request(&q).count_only().run().unwrap().count;
        let expect = mat.request(&q).count_only().run().unwrap().count;
        prop_assert_eq!(got, expect, "join query");
    }
}
