//! Robustness: no input — however malformed — may panic the parsers;
//! they must return a positioned error or a parse.

use proptest::prelude::*;

use parj_rio::{
    parse_ntriples_str, parse_ntriples_str_lossy, parse_turtle_str, parse_turtle_str_lossy,
    LoadReport, OnParseError,
};

const SKIP_ALL: OnParseError = OnParseError::Skip {
    max_errors: usize::MAX,
};

/// Lossy N-Triples parsing of well-formed lines interleaved with
/// malformed ones: every good line survives, every bad line is skipped
/// with an accurate line-number diagnostic.
#[test]
fn lossy_ntriples_interleaved_diagnostics() {
    let good = [
        "<http://e/a> <http://e/p> <http://e/b> .",
        "<http://e/c> <http://e/p> \"lit\"@en .",
        "_:b0 <http://e/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .",
    ];
    let bad = [
        "<http://e/unclosed <http://e/p> <http://e/x> .",
        "\"literal\" <http://e/p> <http://e/x> .",
        "<http://e/s> <http://e/p> <http://e/o>", // missing dot
        "total garbage",
    ];
    // Interleave: good, bad, good, bad, good, bad, bad.
    let doc = [good[0], bad[0], good[1], bad[1], good[2], bad[2], bad[3]].join("\n");
    let (triples, report) = parse_ntriples_str_lossy(&doc, SKIP_ALL).unwrap();
    assert_eq!(triples.len(), 3);
    assert_eq!(report.loaded, 3);
    assert_eq!(report.skipped, 4);
    let lines: Vec<usize> = report.errors.iter().map(|e| e.line).collect();
    assert_eq!(lines, vec![2, 4, 6, 7]);
    // Strict mode on the same document stops at the first bad line.
    assert_eq!(parse_ntriples_str(&doc).unwrap_err().line, 2);
}

/// `max_errors` is a hard ceiling: the error that crosses it aborts the
/// load and is the one reported.
#[test]
fn lossy_ntriples_max_errors_overflow() {
    let mut doc = String::new();
    for i in 0..10 {
        doc.push_str(&format!("<http://e/s{i}> <http://e/p> <http://e/o> .\n"));
        doc.push_str("broken\n"); // even lines 2,4,6,… are bad
    }
    let err = parse_ntriples_str_lossy(&doc, OnParseError::Skip { max_errors: 3 }).unwrap_err();
    assert_eq!(err.line, 8); // 4th bad line crosses the budget of 3
                             // With exactly enough budget the whole document loads.
    let (triples, report) =
        parse_ntriples_str_lossy(&doc, OnParseError::Skip { max_errors: 10 }).unwrap();
    assert_eq!(triples.len(), 10);
    assert_eq!(report.skipped, 10);
}

/// Lossy Turtle drops a malformed statement whole — including triples
/// it had already produced — and resynchronizes at the next `.`.
#[test]
fn lossy_turtle_rolls_back_partial_statements() {
    let doc = "@prefix e: <http://e/> .\n\
               e:a e:p e:b .\n\
               e:bad e:q e:x ; e:r ( 1 2 ) .\n\
               e:c e:p e:d .\n";
    // The collection `( … )` is unsupported: statement 3 fails after
    // already emitting (e:bad, e:q, e:x). Lossy mode must not leak it.
    let (triples, report) = parse_turtle_str_lossy(doc, SKIP_ALL).unwrap();
    assert_eq!(report.skipped, 1);
    assert_eq!(triples.len(), 2);
    assert!(triples
        .iter()
        .all(|(s, _, _)| s.as_iri() != Some("http://e/bad")));
    // Strict mode refuses the document outright.
    assert!(parse_turtle_str(doc).is_err());
}

/// A malformed `@prefix` directive is skippable too, and statements
/// using the missing prefix then fail individually without cascading
/// into a fatal error.
#[test]
fn lossy_turtle_survives_bad_directive() {
    let doc = "@prefix e: <http://e/> .\n\
               @prefix broken <no-close .\n\
               e:a e:p e:b .\n";
    let (triples, report) = parse_turtle_str_lossy(doc, SKIP_ALL).unwrap();
    assert_eq!(triples.len(), 1);
    assert!(report.skipped >= 1);
}

/// Diagnostics recording is capped, counting is exact.
#[test]
fn lossy_ntriples_caps_recorded_errors() {
    let n = LoadReport::MAX_RECORDED_ERRORS + 7;
    let doc = "junk\n".repeat(n);
    let (triples, report) = parse_ntriples_str_lossy(&doc, SKIP_ALL).unwrap();
    assert!(triples.is_empty());
    assert_eq!(report.skipped, n);
    assert_eq!(report.errors.len(), LoadReport::MAX_RECORDED_ERRORS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary unicode garbage never panics the N-Triples parser.
    #[test]
    fn ntriples_never_panics(input in "\\PC*") {
        let _ = parse_ntriples_str(&input);
    }

    /// Arbitrary garbage with RDF-ish ingredients never panics.
    #[test]
    fn ntriples_never_panics_structured(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<http://e/x>".to_string()),
                Just("_:b".to_string()),
                Just("\"lit\"".to_string()),
                Just(".".to_string()),
                Just("\\u12".to_string()),
                Just("@en".to_string()),
                Just("^^".to_string()),
                Just("<".to_string()),
                Just("\"".to_string()),
                "[ -~]{0,6}",
            ],
            0..12,
        )
    ) {
        let line = parts.join(" ");
        let _ = parse_ntriples_str(&line);
    }

    /// Unbounded skip mode never fails on pure parse garbage (only
    /// I/O errors can abort it) and never panics.
    #[test]
    fn ntriples_lossy_never_fails(input in "\\PC*") {
        let r = parse_ntriples_str_lossy(&input, SKIP_ALL);
        prop_assert!(r.is_ok());
    }

    /// Lossy Turtle recovery terminates without panicking on garbage,
    /// and unbounded skip mode never fails.
    #[test]
    fn turtle_lossy_never_fails(input in "\\PC*") {
        let r = parse_turtle_str_lossy(&input, SKIP_ALL);
        prop_assert!(r.is_ok());
    }

    /// On documents strict mode accepts, lossy mode returns identical
    /// triples and an empty skip report.
    #[test]
    fn lossy_agrees_with_strict_on_clean_input(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<http://e/s> <http://e/p> <http://e/o> .".to_string()),
                Just("_:b <http://e/p> \"v\"@en .".to_string()),
                Just("# comment".to_string()),
                Just("".to_string()),
            ],
            0..8,
        )
    ) {
        let doc = parts.join("\n");
        let strict = parse_ntriples_str(&doc).unwrap();
        let (lossy, report) = parse_ntriples_str_lossy(&doc, SKIP_ALL).unwrap();
        prop_assert_eq!(strict, lossy);
        prop_assert_eq!(report.skipped, 0);
        prop_assert!(report.errors.is_empty());
    }

    /// Arbitrary unicode garbage never panics the Turtle parser.
    #[test]
    fn turtle_never_panics(input in "\\PC*") {
        let _ = parse_turtle_str(&input);
    }

    /// Turtle-flavoured fragments never panic.
    #[test]
    fn turtle_never_panics_structured(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("@prefix e: <http://e/> .".to_string()),
                Just("e:s".to_string()),
                Just("a".to_string()),
                Just(";".to_string()),
                Just(",".to_string()),
                Just(".".to_string()),
                Just("[".to_string()),
                Just("]".to_string()),
                Just("(".to_string()),
                Just("\"\"\"x".to_string()),
                Just("'''".to_string()),
                Just("123.".to_string()),
                Just("1e".to_string()),
                Just("true".to_string()),
                "[ -~]{0,6}",
            ],
            0..16,
        )
    ) {
        let doc = parts.join(" ");
        let _ = parse_turtle_str(&doc);
    }

    /// Whatever Turtle accepts must be representable and re-parseable
    /// through the N-Triples writer (cross-format consistency).
    #[test]
    fn turtle_accepts_implies_ntriples_roundtrip(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("e:s e:p e:o .".to_string()),
                Just("e:s a e:C ; e:q 4 .".to_string()),
                Just("e:x e:r \"v\"@en , 't' .".to_string()),
                Just("_:b e:p [ e:q e:o ] .".to_string()),
            ],
            0..6,
        )
    ) {
        let doc = format!("@prefix e: <http://e/> .\n{}", parts.join("\n"));
        if let Ok(triples) = parse_turtle_str(&doc) {
            let mut buf = Vec::new();
            parj_rio::write_ntriples(&mut buf, &triples).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let back = parse_ntriples_str(&text).unwrap();
            prop_assert_eq!(back, triples);
        }
    }
}
