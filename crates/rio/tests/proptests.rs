//! Property test: any triple of terms serializes to N-Triples and parses
//! back identically (writer/parser are mutual inverses).

use proptest::prelude::*;

use parj_dict::Term;
use parj_rio::{parse_ntriples_str, write_ntriples};

/// IRIs must avoid the characters N-Triples forbids raw; everything else
/// (unicode included) is fair game.
fn arb_iri() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9:/#?&=._~%éλ-]{1,32}").unwrap()
}

fn arb_lexical() -> impl Strategy<Value = String> {
    // Includes quotes, backslashes, newlines, tabs, unicode.
    proptest::string::string_regex("[ -~\t\n\réλ😀]{0,32}").unwrap()
}

fn arb_subject() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_iri().prop_map(Term::iri),
        proptest::string::string_regex("[A-Za-z][A-Za-z0-9]{0,10}")
            .unwrap()
            .prop_map(Term::blank),
    ]
}

fn arb_object() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_iri().prop_map(Term::iri),
        proptest::string::string_regex("[A-Za-z][A-Za-z0-9]{0,10}")
            .unwrap()
            .prop_map(Term::blank),
        arb_lexical().prop_map(Term::literal),
        (
            arb_lexical(),
            proptest::string::string_regex("[a-z]{2,3}(-[A-Z]{2})?").unwrap()
        )
            .prop_map(|(l, g)| Term::lang_literal(l, g)),
        (arb_lexical(), arb_iri()).prop_map(|(l, d)| Term::typed_literal(l, d)),
    ]
}

proptest! {
    #[test]
    fn write_parse_roundtrip(
        triples in proptest::collection::vec(
            (arb_subject(), arb_iri().prop_map(Term::iri), arb_object()), 0..20)
    ) {
        let mut buf = Vec::new();
        write_ntriples(&mut buf, &triples).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = parse_ntriples_str(&text).unwrap();
        prop_assert_eq!(parsed, triples);
    }
}
