//! The by-reference writers against owned-term reference renderers.
//!
//! `to_sparql_json` / `to_tsv` format each cell from a `TermRef` slice
//! of the dictionary key straight into one buffer. The module
//! `reference` below renders the same outcome the way the server did
//! before: decode every row to owned `Term`s, then escape each cell into
//! a fresh `String`. For arbitrary terms — every literal shape, the
//! characters JSON and N-Triples escape, multi-byte UTF-8, empty lexical
//! forms, and language tags / datatypes that contain digits and `:`
//! (which the key's `l<len>:` / `T<len>:` prefixes must survive) — both
//! must produce the same bytes. Terms sit in the base dictionary and in
//! the mutation delta (`mutate()`), and every answer is checked both
//! fresh and served as a result-cache hit.

use std::collections::BTreeSet;

use parj_core::{CacheStatus, EngineConfig, Parj, QueryOutcome, Term};
use parj_server::sparql::{to_sparql_json, to_tsv};
use parj_store::StoreBuilder;
use proptest::prelude::*;

/// The owned-term renderers the by-reference writers replaced.
mod reference {
    use parj_core::Term;

    pub fn to_sparql_json(vars: &[String], rows: &[Vec<Term>]) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"head\":{\"vars\":[");
        for (i, v) in vars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_json(v));
            out.push('"');
        }
        out.push_str("]},\"results\":{\"bindings\":[");
        for (ri, row) in rows.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            out.push('{');
            let mut first = true;
            for (var, term) in vars.iter().zip(row) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                out.push_str(&escape_json(var));
                out.push_str("\":");
                push_json_term(&mut out, term);
            }
            out.push('}');
        }
        out.push_str("]}}");
        out
    }

    fn push_json_term(out: &mut String, term: &Term) {
        match term {
            Term::Iri(iri) => {
                out.push_str("{\"type\":\"uri\",\"value\":\"");
                out.push_str(&escape_json(iri));
                out.push_str("\"}");
            }
            Term::BlankNode(label) => {
                out.push_str("{\"type\":\"bnode\",\"value\":\"");
                out.push_str(&escape_json(label));
                out.push_str("\"}");
            }
            Term::Literal {
                lexical,
                lang,
                datatype,
            } => {
                out.push_str("{\"type\":\"literal\",\"value\":\"");
                out.push_str(&escape_json(lexical));
                out.push('"');
                if let Some(lang) = lang {
                    out.push_str(",\"xml:lang\":\"");
                    out.push_str(&escape_json(lang));
                    out.push('"');
                } else if let Some(dt) = datatype {
                    out.push_str(",\"datatype\":\"");
                    out.push_str(&escape_json(dt));
                    out.push('"');
                }
                out.push('}');
            }
        }
    }

    pub fn to_tsv(vars: &[String], rows: &[Vec<Term>]) -> String {
        let mut out = String::with_capacity(128);
        for (i, v) in vars.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            out.push('?');
            out.push_str(v);
        }
        out.push('\n');
        for row in rows {
            for (i, term) in row.iter().enumerate() {
                if i > 0 {
                    out.push('\t');
                }
                out.push_str(&ntriples(term));
            }
            out.push('\n');
        }
        out
    }

    /// N-Triples spelling of a term, as `Term`'s `Display` wrote it.
    fn ntriples(term: &Term) -> String {
        match term {
            Term::Iri(iri) => format!("<{iri}>"),
            Term::BlankNode(label) => format!("_:{label}"),
            Term::Literal {
                lexical,
                lang,
                datatype,
            } => {
                let mut out = String::from("\"");
                for c in lexical.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c => out.push(c),
                    }
                }
                out.push('"');
                if let Some(lang) = lang {
                    out.push_str(&format!("@{lang}"));
                } else if let Some(dt) = datatype {
                    out.push_str(&format!("^^<{dt}>"));
                }
                out
            }
        }
    }

    fn escape_json(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }
}

const P: &str = "http://e/p";

/// Text over the whole control range, the characters both formats
/// escape, digits, `:`, and multi-byte UTF-8; empty included.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[\u{0}-\u{1f}\"\\\\a-z0-9:/#@ é中😀]{0,10}").unwrap()
}

fn arb_qualifier() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9:-]{0,8}").unwrap()
}

fn arb_subject() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_text().prop_map(Term::iri),
        arb_text().prop_map(Term::blank)
    ]
}

fn arb_object() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_text().prop_map(Term::iri),
        arb_text().prop_map(Term::blank),
        arb_text().prop_map(Term::literal),
        (arb_text(), arb_qualifier()).prop_map(|(l, g)| Term::lang_literal(l, g)),
        (arb_text(), arb_qualifier()).prop_map(|(l, d)| Term::typed_literal(l, d)),
    ]
}

fn arb_pairs() -> impl Strategy<Value = Vec<(Term, Term)>> {
    proptest::collection::vec((arb_subject(), arb_object()), 0..12)
}

/// An engine holding `base` in its dictionary and store, then `delta`
/// inserted through `mutate()` (new terms land in the `DictDelta`).
fn engine(base: &[(Term, Term)], delta: &[(Term, Term)]) -> Parj {
    let mut builder = StoreBuilder::new();
    for (s, o) in base {
        builder.add_term_triple(s, &Term::iri(P), o);
    }
    let config = EngineConfig {
        cache: true,
        threads: 1,
        ..EngineConfig::default()
    };
    let mut e = Parj::from_store(builder.build(), config);
    let inserts = delta
        .iter()
        .map(|(s, o)| (s.clone(), Term::iri(P), o.clone()));
    e.mutate()
        .insert_all(inserts)
        .run()
        .expect("mutation applies");
    e
}

/// Both writers equal their reference over the outcome's own rows.
fn check(outcome: &QueryOutcome) -> Result<(), TestCaseError> {
    let rows = outcome.term_rows().expect("engine ids decode");
    prop_assert_eq!(
        to_sparql_json(outcome),
        reference::to_sparql_json(&outcome.vars, &rows)
    );
    prop_assert_eq!(to_tsv(outcome), reference::to_tsv(&outcome.vars, &rows));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn by_reference_writers_equal_owned_term_renderers(
        base in arb_pairs(),
        delta in arb_pairs(),
    ) {
        // With no triple the predicate is unknown and nothing is cached.
        prop_assume!(!base.is_empty() || !delta.is_empty());
        let mut e = engine(&base, &delta);
        let expected: BTreeSet<(Term, Term)> = base.iter().chain(&delta).cloned().collect();
        for q in [
            format!("SELECT ?s ?o WHERE {{ ?s <{P}> ?o }}"),
            format!("SELECT ?o ?s WHERE {{ ?s <{P}> ?o }}"),
            format!("ASK {{ ?s <{P}> ?o }}"),
        ] {
            let fresh = e.request(&q).run().unwrap();
            let hit = e.request(&q).run().unwrap();
            prop_assert_eq!(hit.stats.cache, CacheStatus::ResultHit);
            for outcome in [&fresh, &hit] {
                check(outcome)?;
            }
            // The rows themselves are the inserted terms, independently
            // of the renderers compared above.
            if q.starts_with("SELECT ?s ?o") {
                let got: BTreeSet<(Term, Term)> = fresh
                    .term_rows()
                    .unwrap()
                    .into_iter()
                    .map(|row| (row[0].clone(), row[1].clone()))
                    .collect();
                prop_assert_eq!(&got, &expected);
                prop_assert_eq!(fresh.count as usize, expected.len());
            }
        }
    }
}
