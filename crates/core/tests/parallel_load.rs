//! Loader determinism: the parallel bulk-load pipeline must produce a
//! store and dictionary **byte-identical** to the serial path at every
//! thread count, for strict and lossy policies, on clean and malformed
//! inputs — including exact `LoadReport` skip counts and error
//! positions.

use proptest::prelude::*;

use parj_core::{LoadReport, OnParseError, Parj, ParjError};

const THREADS: [usize; 4] = [1, 2, 4, 9];

/// Loads `text` under `policy` at the given thread count and returns
/// the load outcome plus the finalized store's snapshot bytes (which
/// embed the dictionary, so one comparison covers both).
fn load_nt(
    text: &str,
    policy: OnParseError,
    threads: usize,
) -> (Result<LoadReport, String>, Vec<u8>) {
    let mut engine = Parj::builder().load_threads(threads).build();
    let outcome = engine
        .load_ntriples_str_with(text, policy)
        .map_err(|e| e.to_string());
    (outcome, engine.store().to_snapshot_bytes())
}

fn load_ttl(
    text: &str,
    policy: OnParseError,
    threads: usize,
) -> (Result<LoadReport, String>, Vec<u8>) {
    let mut engine = Parj::builder().load_threads(threads).build();
    let outcome = engine
        .load_turtle_str_with(text, policy)
        .map_err(|e| e.to_string());
    (outcome, engine.store().to_snapshot_bytes())
}

/// A load outcome: the report (or stringified error) plus the
/// finalized store's snapshot bytes.
type LoadOutcome = (Result<LoadReport, String>, Vec<u8>);

/// Asserts every thread count reproduces the thread-count-1 outcome
/// exactly: same report (loaded, skipped, error positions) or same
/// error, and the same snapshot bytes.
fn assert_thread_invariant(
    text: &str,
    policy: OnParseError,
    load: fn(&str, OnParseError, usize) -> LoadOutcome,
) {
    let (base_outcome, base_bytes) = load(text, policy, 1);
    for threads in THREADS {
        let (outcome, bytes) = load(text, policy, threads);
        assert_eq!(outcome, base_outcome, "outcome diverged at {threads} threads");
        assert_eq!(bytes, base_bytes, "store bytes diverged at {threads} threads");
    }
}

fn lossy() -> OnParseError {
    OnParseError::Skip { max_errors: usize::MAX }
}

/// Builds an N-Triples document from a recipe: `Ok` entries become
/// valid triples over small subject/predicate/object universes (dense
/// enough that cross-chunk duplicate terms are common), `Err` entries
/// become malformed lines of a few distinct shapes.
fn nt_doc(recipe: &[Result<(u8, u8, u8), u8>]) -> String {
    let mut doc = String::new();
    for entry in recipe {
        match entry {
            Ok((s, p, o)) => {
                doc.push_str(&format!(
                    "<http://e/s{}> <http://e/p{}> <http://e/o{}> .\n",
                    s % 23,
                    p % 5,
                    o % 29
                ));
            }
            Err(kind) => doc.push_str(match kind % 4 {
                0 => "<http://e/s1> <http://e/p1> .\n", // missing object
                1 => "this is not a triple\n",
                2 => "<http://e/s1> <http://e/p1> \"unterminated .\n",
                _ => "<http://e/s1> <http://e/p1> <http://e/o1>\n", // missing dot
            }),
        }
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixes of valid and malformed lines load identically at
    /// every thread count, under both policies.
    #[test]
    fn ntriples_load_is_thread_invariant(
        recipe in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
                |(sel, s, p, o)| if sel % 5 == 0 { Err(sel) } else { Ok((s, p, o)) },
            ),
            0..120,
        ),
    ) {
        let doc = nt_doc(&recipe);
        assert_thread_invariant(&doc, OnParseError::Abort, load_nt);
        assert_thread_invariant(&doc, lossy(), load_nt);
    }
}

#[test]
fn clean_ntriples_reports_and_bytes_match() {
    // Enough triples that every thread count actually splits.
    let doc: String = (0..500)
        .map(|i| {
            format!(
                "<http://e/s{}> <http://e/p{}> <http://e/o{}> .\n",
                i % 37,
                i % 7,
                i % 53
            )
        })
        .collect();
    let (outcome, base) = load_nt(&doc, OnParseError::Abort, 1);
    assert_eq!(outcome.unwrap().loaded, 500);
    assert_thread_invariant(&doc, OnParseError::Abort, load_nt);
    assert_thread_invariant(&doc, lossy(), load_nt);
    // And the parallel Turtle path agrees with N-Triples on shared
    // syntax (N-Triples is a Turtle subset).
    let (ttl_outcome, ttl_bytes) = load_ttl(&doc, OnParseError::Abort, 4);
    assert_eq!(ttl_outcome.unwrap().loaded, 500);
    assert_eq!(ttl_bytes, base);
}

#[test]
fn lossy_skip_counts_are_exact_at_any_thread_count() {
    let mut doc = String::new();
    for i in 0..300 {
        if i % 7 == 3 {
            doc.push_str("not a triple at all\n");
        } else {
            doc.push_str(&format!("<http://e/s{i}> <http://e/p> <http://e/o{i}> .\n"));
        }
    }
    let (outcome, _) = load_nt(&doc, lossy(), 1);
    let report = outcome.unwrap();
    assert_eq!(report.skipped, 43); // i in 0..300 with i % 7 == 3
    assert_eq!(report.loaded, 257);
    // Recorded error positions must reference document lines, capped
    // at MAX_RECORDED_ERRORS.
    assert_eq!(report.errors.len(), LoadReport::MAX_RECORDED_ERRORS.min(43));
    assert_eq!(report.errors[0].line, 4);
    assert_eq!(report.errors[1].line, 11);
    assert_thread_invariant(&doc, lossy(), load_nt);
}

#[test]
fn strict_abort_position_is_exact_at_any_thread_count() {
    let mut doc = String::new();
    for i in 0..200 {
        doc.push_str(&format!("<http://e/s{i}> <http://e/p> <http://e/o> .\n"));
    }
    doc.push_str("<http://e/bad> <http://e/p> broken\n");
    for i in 0..50 {
        doc.push_str(&format!("<http://e/t{i}> <http://e/p> <http://e/o> .\n"));
    }
    let (outcome, _) = load_nt(&doc, OnParseError::Abort, 1);
    let msg = outcome.unwrap_err();
    assert!(msg.contains("201"), "abort error should cite line 201: {msg}");
    assert_thread_invariant(&doc, OnParseError::Abort, load_nt);
}

#[test]
fn bounded_skip_budget_is_thread_invariant() {
    // 10 bad lines but a budget of 3: the load aborts on the 4th bad
    // line at every thread count, with identical staged state.
    let mut doc = String::new();
    for i in 0..100 {
        if i % 10 == 5 {
            doc.push_str("garbage\n");
        } else {
            doc.push_str(&format!("<http://e/s{i}> <http://e/p> <http://e/o> .\n"));
        }
    }
    assert_thread_invariant(&doc, OnParseError::Skip { max_errors: 3 }, load_nt);
}

#[test]
fn turtle_load_is_thread_invariant() {
    // Prefixed names, literals with dots, anonymous nodes, and a
    // mid-document prefix redefinition — everything the chunked strict
    // path handles, plus constructs near its boundary rules.
    let doc = r#"
@prefix ex: <http://example.org/> .
ex:a ex:p ex:b .
ex:a ex:weight "3.25" .
ex:b ex:note "a dot . inside" .
_:x ex:p ex:a .
[ ] ex:p ex:b .
@prefix ex: <http://other.org/> .
ex:a ex:p ex:c .
ex:c ex:height "1.5e3" .
"#;
    assert_thread_invariant(doc, OnParseError::Abort, load_ttl);
    assert_thread_invariant(doc, lossy(), load_ttl);
}

#[test]
fn malformed_turtle_is_thread_invariant() {
    // The splitter hands this to the serial parser (directive the
    // chunked path rejects + a syntax error): strict aborts with the
    // serial error, lossy recovers — identically at every thread count.
    let doc = "@prefix ex: <http://e/> .\nex:a ex:p ex:b .\nex:a ex:p garbage }\nex:b ex:p ex:c .\n";
    assert_thread_invariant(doc, OnParseError::Abort, load_ttl);
    assert_thread_invariant(doc, lossy(), load_ttl);
}

#[test]
fn incremental_loads_compose_across_thread_counts() {
    // A second load over an engine that already holds terms must see
    // the existing dictionary (the staging collector's `Slot::Known`
    // path) and still be thread-invariant.
    let first: String = (0..80)
        .map(|i| format!("<http://e/s{}> <http://e/p> <http://e/o{}> .\n", i % 11, i % 13))
        .collect();
    let second: String = (0..80)
        .map(|i| format!("<http://e/s{}> <http://e/q> <http://e/o{}> .\n", i % 17, i % 7))
        .collect();
    let run = |threads: usize| -> Vec<u8> {
        let mut engine = Parj::builder().load_threads(threads).build();
        engine.load_ntriples_str(&first).unwrap();
        engine.load_ntriples_str(&second).unwrap();
        engine.store().to_snapshot_bytes()
    };
    let base = run(1);
    for threads in THREADS {
        assert_eq!(run(threads), base, "incremental load diverged at {threads} threads");
    }
}

#[test]
fn queries_agree_after_parallel_load() {
    // End-to-end sanity: a join over a parallel-loaded store returns
    // the same rows as over a serially-loaded one.
    let doc: String = (0..60)
        .map(|i| {
            format!(
                "<http://e/s{}> <http://e/teaches> <http://e/c{}> .\n<http://e/s{}> <http://e/worksFor> <http://e/u{}> .\n",
                i % 9,
                i % 5,
                i % 9,
                i % 3
            )
        })
        .collect();
    let query = "SELECT ?x ?y WHERE { ?x <http://e/teaches> ?z . ?x <http://e/worksFor> ?y . }";
    let run = |threads: usize| -> Result<Vec<Vec<u32>>, ParjError> {
        let mut engine = Parj::builder().load_threads(threads).build();
        engine.load_ntriples_str(&doc)?;
        engine.finalize();
        let mut rows = engine.request(query).run()?.id_rows();
        rows.sort_unstable();
        Ok(rows)
    };
    let base = run(1).unwrap();
    assert!(!base.is_empty());
    for threads in THREADS {
        assert_eq!(run(threads).unwrap(), base);
    }
}

// ---- Independent serial oracle -------------------------------------
//
// The tests above compare the pipeline with itself at one thread. The
// ones below compare it with the streaming reader path
// (`NTriplesParser` + `StoreBuilder::add_term_triple`, owned terms, no
// chunks), on documents that reach every scanner branch.

const POLICIES: [OnParseError; 5] = [
    OnParseError::Abort,
    OnParseError::Skip { max_errors: 0 },
    OnParseError::Skip { max_errors: 1 },
    OnParseError::Skip { max_errors: 3 },
    OnParseError::Skip {
        max_errors: usize::MAX,
    },
];

/// Load outcome, dictionary bytes and snapshot bytes of an engine after
/// a load attempt.
fn engine_state(
    mut engine: Parj,
    outcome: Result<LoadReport, ParjError>,
) -> (Result<LoadReport, String>, Vec<u8>, Vec<u8>) {
    let mut dict = Vec::new();
    engine.store().dict().encode_into(&mut dict);
    (
        outcome.map_err(|e| e.to_string()),
        dict,
        engine.store().to_snapshot_bytes(),
    )
}

/// Asserts the text pipeline at every thread count equals the streaming
/// reader path under every policy.
fn assert_matches_reader_path(doc: &str) {
    for policy in POLICIES {
        let mut serial = Parj::new();
        let outcome = serial.load_ntriples_reader_with(doc.as_bytes(), policy);
        let oracle = engine_state(serial, outcome);
        for threads in THREADS {
            let mut engine = Parj::builder().load_threads(threads).build();
            let outcome = engine.load_ntriples_str_with(doc, policy);
            let got = engine_state(engine, outcome);
            assert_eq!(
                got.0, oracle.0,
                "outcome, {threads} threads, {policy:?}\n{doc}"
            );
            assert_eq!(
                got.1, oracle.1,
                "dictionary, {threads} threads, {policy:?}\n{doc}"
            );
            assert_eq!(
                got.2, oracle.2,
                "snapshot, {threads} threads, {policy:?}\n{doc}"
            );
        }
    }
}

/// One line per recipe entry: statements over every term shape (plain,
/// `@lang` and `^^<datatype>` literals, blank nodes, string escapes,
/// `\uXXXX`, a surrogate pair, raw multi-byte UTF-8 — with escaped and
/// raw spellings of the same term), comment and blank lines, trailing
/// comments, `\r\n` endings, and the four malformed shapes of `nt_doc`.
fn rich_nt_doc(recipe: &[(u8, u8, u8, u8, u8)]) -> String {
    let mut doc = String::new();
    for &(sel, s, p, o, style) in recipe {
        let line = match sel % 8 {
            0 => nt_doc(&[Err(o)]).trim_end().to_string(),
            1 => ["", "# a comment line", "  \t "][o as usize % 3].to_string(),
            _ => {
                let subject = match s % 4 {
                    0 => format!("<http://e/s{}>", s % 23),
                    1 => format!("<http://e/s\\u00e9{}>", s % 7),
                    2 => format!("<http://e/sé{}>", s % 7),
                    _ => format!("_:b{}", s % 5),
                };
                let predicate = match p % 3 {
                    0 => format!("<http://e/\\u0070{}>", p % 5),
                    _ => format!("<http://e/p{}>", p % 5),
                };
                let n = o % 11;
                let (object, mut end) = match o % 12 {
                    0 => (format!("<http://e/o{n}>"), " ."),
                    1 => (format!("<http://e/s{n}>"), "."),
                    2 => (format!("_:b{}", n % 5), " ."),
                    3 => (format!("_:b{}", n % 5), "."),
                    4 => (format!("\"plain {n}\""), " ."),
                    5 => (format!("\"tagged {n}\"@en-GB"), " ."),
                    6 => (
                        format!("\"{n}\"^^<http://www.w3.org/2001/XMLSchema#int>"),
                        ".",
                    ),
                    7 => (format!("\"a\\tb\\nc\\\"d\\\\e {n}\""), " ."),
                    8 => (format!("\"v\\u00e9 {n}\"@fr"), " ."),
                    9 => (format!("\"vé {n}\"@fr"), " ."),
                    10 => (format!("\"\\uD83D\\uDE00 {n}\"^^<http://e/d\\u0074>"), " ."),
                    _ => (format!("\"😀 {n}\"^^<http://e/dt>"), " ."),
                };
                if style & 2 != 0 {
                    end = " . # trailing comment";
                }
                format!("{subject} {predicate} {object}{end}")
            }
        };
        doc.push_str(&line);
        doc.push_str(if style & 1 == 0 { "\n" } else { "\r\n" });
    }
    // Every other document ends without a line terminator.
    if recipe.len() % 2 == 1 {
        doc.truncate(doc.trim_end_matches(['\r', '\n']).len());
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chunked text pipeline equals the streaming reader path —
    /// report or error, dictionary bytes, snapshot bytes — at every
    /// thread count under every policy.
    #[test]
    fn ntriples_text_load_matches_streaming_reader(
        recipe in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..120,
        ),
    ) {
        assert_matches_reader_path(&rich_nt_doc(&recipe));
    }
}

#[test]
fn nothing_after_an_abort_point_is_interned() {
    use parj_core::Term;
    // Three blocks with their own subjects, predicate and (escaped)
    // objects, a malformed line after the first and the second. The
    // blocks are far longer than a chunk at 9 threads and not a multiple
    // of any chunk count, so every abort lands mid-chunk.
    let mut doc = String::new();
    for block in ["a", "b", "c"] {
        for i in 0..101 {
            doc.push_str(&format!(
                "<http://e/{block}{i}> <http://e/p-{block}> \"{block}\\t{}\" .\n",
                i % 7
            ));
        }
        doc.push_str("<http://e/bad> <http://e/p-bad> broken\n");
    }
    assert_matches_reader_path(&doc);
    let cases = [
        (OnParseError::Abort, "a"),
        (OnParseError::Skip { max_errors: 1 }, "ab"),
        (OnParseError::Skip { max_errors: 2 }, "abc"),
    ];
    for (policy, survivors) in cases {
        for threads in THREADS {
            let mut engine = Parj::builder().load_threads(threads).build();
            let outcome = engine.load_ntriples_str_with(&doc, policy);
            assert!(outcome.is_err(), "{policy:?} must abort: {outcome:?}");
            assert_eq!(engine.num_triples(), 101 * survivors.len());
            let dict = engine.store().dict().clone();
            for block in ["a", "b", "c"] {
                let kept = survivors.contains(block);
                let seen = [
                    dict.resource_id(&Term::iri(format!("http://e/{block}100")))
                        .is_some(),
                    dict.resource_id(&Term::literal(format!("{block}\t3")))
                        .is_some(),
                    dict.predicate_id(&Term::iri(format!("http://e/p-{block}")))
                        .is_some(),
                ];
                assert_eq!(
                    seen, [kept; 3],
                    "block {block}, {policy:?}, {threads} threads"
                );
            }
            assert_eq!(dict.resource_id(&Term::iri("http://e/bad")), None);
            assert_eq!(dict.predicate_id(&Term::iri("http://e/p-bad")), None);
        }
    }
}

// ---- Turtle against the same oracle --------------------------------
//
// Random triples spelled three ways — N-Triples, the same text read as
// Turtle, and Turtle with prefixes, lists and sugar — must all load to
// what the streaming N-Triples reader builds from the first spelling.

const XSD: &str = "http://www.w3.org/2001/XMLSchema#";
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
const NS_A: &str = "http://e/";
const NS_B: &str = "http://f/";

/// A generated term, before it is spelled in either syntax.
#[derive(Debug, Clone, PartialEq)]
enum Gen {
    Iri(String),
    Blank(String),
    /// Lexical form, language tag, datatype IRI.
    Literal(String, Option<&'static str>, Option<String>),
}

type GenTriple = (Gen, Gen, Gen);

/// One triple per recipe entry, over two namespaces: `rdf:type`, a
/// dotted local name, blank nodes, and literals with tabs, quotes,
/// backslashes, line breaks and non-ASCII text, language tags, and the
/// datatypes Turtle has sugar for.
fn gen_triples(recipe: &[(u8, u8, u8)]) -> Vec<GenTriple> {
    let lit = |lexical: String, datatype: Option<String>| Gen::Literal(lexical, None, datatype);
    let iri = |ns: &str, local: String| Gen::Iri(format!("{ns}{local}"));
    recipe
        .iter()
        .map(|&(s, p, o)| {
            let subject = match s % 4 {
                0 => iri(NS_A, format!("s{}", s % 13)),
                1 => iri(NS_B, format!("s{}", s % 13)),
                2 => iri(NS_A, format!("sé{}", s % 5)),
                _ => Gen::Blank(format!("b{}", s % 5)),
            };
            let predicate = match p % 4 {
                0 => Gen::Iri(RDF_TYPE.into()),
                1 => iri(NS_A, format!("p{}", p % 3)),
                2 => iri(NS_B, format!("p{}", p % 3)),
                _ => iri(NS_A, format!("q.r{}", p % 3)),
            };
            let n = o % 7;
            let object = match o % 12 {
                0 => iri(NS_A, format!("o{n}")),
                1 => iri(NS_B, format!("o{n}")),
                2 => Gen::Blank(format!("b{}", n % 5)),
                3 => lit(format!("plain {n}"), None),
                4 => lit(format!("tab\there {n}"), None),
                5 => lit(format!("quote \" back\\slash {n}"), None),
                6 => lit(format!("two\nlines {n}"), None),
                7 => Gen::Literal(format!("vé {n}"), Some("en-GB"), None),
                8 => lit(format!("-{n}"), Some(format!("{XSD}integer"))),
                9 => lit(format!("{n}.25"), Some(format!("{XSD}decimal"))),
                10 => lit(
                    ["true", "false"][n as usize % 2].into(),
                    Some(format!("{XSD}boolean")),
                ),
                _ => lit(format!("v{n}"), Some(format!("{NS_A}dt"))),
            };
            (subject, predicate, object)
        })
        .collect()
}

/// `text` with N-Triples string escapes, and `é` as `\u00E9` if `u`.
fn escaped(text: &str, u: bool) -> String {
    let mut out = String::new();
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            'é' if u => out.push_str("\\u00E9"),
            c => out.push(c),
        }
    }
    out
}

fn nt_term(t: &Gen, u: bool) -> String {
    match t {
        Gen::Iri(iri) if u => format!("<{}>", iri.replace('é', "\\u00E9")),
        Gen::Iri(iri) => format!("<{iri}>"),
        Gen::Blank(label) => format!("_:{label}"),
        Gen::Literal(lexical, lang, datatype) => {
            let mut out = format!("\"{}\"", escaped(lexical, u));
            if let Some(lang) = lang {
                out += &format!("@{lang}");
            }
            if let Some(datatype) = datatype {
                out += &format!("^^<{datatype}>");
            }
            out
        }
    }
}

/// One statement per line; every other line spells `é` as `\u00E9`.
fn nt_spelling(triples: &[GenTriple]) -> String {
    let mut doc = String::new();
    for (i, (s, p, o)) in triples.iter().enumerate() {
        let u = i % 2 == 1;
        doc += &format!("{} {} {} .\n", nt_term(s, u), nt_term(p, u), nt_term(o, u));
    }
    doc
}

/// An IRI as Turtle writes it while `x:` stands for `x`.
fn ttl_iri(iri: &str, x: &str) -> String {
    if let Some(local) = iri.strip_prefix(x) {
        format!("x:{local}")
    } else if let Some(local) = iri.strip_prefix(NS_B) {
        format!("y:{local}")
    } else {
        format!("<{iri}>")
    }
}

/// A term as Turtle writes it; `style` picks among the spellings.
fn ttl_term(t: &Gen, x: &str, style: usize) -> String {
    match t {
        Gen::Iri(iri) if iri == RDF_TYPE => "a".into(),
        Gen::Iri(iri) => ttl_iri(iri, x),
        Gen::Blank(label) => format!("_:{label}"),
        Gen::Literal(lexical, lang, datatype) => {
            let sugared = datatype.as_deref().is_some_and(|dt| dt.starts_with(XSD));
            if sugared && style.is_multiple_of(2) {
                return lexical.clone();
            }
            let body = if lexical.contains('\n') || style.is_multiple_of(3) {
                // Raw line breaks and tabs; only `\` and `"` escaped.
                let raw = lexical.replace('\\', "\\\\").replace('"', "\\\"");
                format!("\"\"\"{raw}\"\"\"")
            } else if style.is_multiple_of(5) {
                format!("'{}'", escaped(lexical, false))
            } else {
                format!("\"{}\"", escaped(lexical, style.is_multiple_of(7)))
            };
            match (lang, datatype) {
                (Some(lang), _) => format!("{body}@{lang}"),
                (_, Some(datatype)) => format!("{body}^^{}", ttl_iri(datatype, x)),
                _ => body,
            }
        }
    }
}

/// The triples as Turtle: `@prefix x:` and `PREFIX y:` names, `a`,
/// `;` and `,` lists over runs of equal subjects and predicates, number
/// and boolean sugar, long and single-quoted strings, and `x:`
/// redefined halfway through.
fn ttl_spelling(triples: &[GenTriple], style: usize) -> String {
    let mut doc = format!("@prefix x: <{NS_A}> .\nPREFIX y: <{NS_B}>\n");
    let mut x = NS_A;
    let mut prev: Option<&GenTriple> = None;
    for (i, t) in triples.iter().enumerate() {
        if i == triples.len() / 2 {
            if prev.take().is_some() {
                doc += " .\n";
            }
            doc += &format!("@prefix x: <{NS_B}> .\n");
            x = NS_B;
        }
        let spell = |t: &Gen| ttl_term(t, x, style + i);
        let (s, p, o) = t;
        doc += &match prev {
            Some((ps, pp, _)) if ps == s && pp == p => format!(" ,\n        {}", spell(o)),
            Some((ps, _, _)) if ps == s => format!(" ;\n    {} {}", spell(p), spell(o)),
            Some(_) => format!(" .\n{} {} {}", spell(s), spell(p), spell(o)),
            None => format!("{} {} {}", spell(s), spell(p), spell(o)),
        };
        prev = Some(t);
    }
    if prev.is_some() {
        doc += " .\n";
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Turtle loads match the streaming N-Triples reader — report,
    /// dictionary bytes, snapshot bytes — however the triples are
    /// spelled, at every thread count under both policies.
    #[test]
    fn turtle_text_load_matches_streaming_reader(
        recipe in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..120),
        style in any::<u8>(),
    ) {
        let triples = gen_triples(&recipe);
        let nt = nt_spelling(&triples);
        let ttl = ttl_spelling(&triples, style as usize);
        let mut serial = Parj::new();
        let outcome = serial.load_ntriples_reader_with(nt.as_bytes(), OnParseError::Abort);
        let oracle = engine_state(serial, outcome);
        assert_eq!(oracle.0.as_ref().map(|r| r.loaded), Ok(triples.len()));
        for policy in [OnParseError::Abort, lossy()] {
            for threads in THREADS {
                for (spelling, doc, turtle) in
                    [("N-Triples", &nt, false), ("N-Triples as Turtle", &nt, true), ("Turtle", &ttl, true)]
                {
                    let mut engine = Parj::builder().load_threads(threads).build();
                    let outcome = if turtle {
                        engine.load_turtle_str_with(doc, policy)
                    } else {
                        engine.load_ntriples_str_with(doc, policy)
                    };
                    let got = engine_state(engine, outcome);
                    assert_eq!(got, oracle, "{spelling}, {threads} threads, {policy:?}\n{doc}");
                }
            }
        }
    }
}
