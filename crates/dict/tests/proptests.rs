//! Property-based tests for the dictionary: canonical-key round trips,
//! dense-id invariants, and serialization faithfulness under arbitrary
//! term mixes.

use proptest::prelude::*;

use parj_dict::{Dictionary, Term, TermRef};

/// Strategy producing arbitrary (possibly adversarial) terms, including
/// strings containing the canonical-key separator and quotes.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\u{1F}éλ\"\\\\\n]{0,24}").unwrap()
}

fn arb_term() -> impl Strategy<Value = Term> {
    let lang = proptest::string::string_regex("[a-z]{2}(-[A-Z]{2})?").unwrap();
    prop_oneof![
        arb_text().prop_map(Term::iri),
        proptest::string::string_regex("[A-Za-z0-9]{1,12}")
            .unwrap()
            .prop_map(Term::blank),
        arb_text().prop_map(Term::literal),
        (arb_text(), lang).prop_map(|(l, g)| Term::lang_literal(l, g)),
        (arb_text(), arb_text()).prop_map(|(l, d)| Term::typed_literal(l, d)),
    ]
}

proptest! {
    /// canonical_key / from_canonical_key is the identity on terms.
    #[test]
    fn canonical_key_roundtrip(t in arb_term()) {
        let key = t.canonical_key();
        let back = Term::from_canonical_key(&key).unwrap();
        prop_assert_eq!(back, t);
    }

    /// The borrowed view parsed from a key is the term's own view, and
    /// orders exactly as the owned terms do (ORDER BY compares views).
    #[test]
    fn term_ref_views_and_orders_like_term(a in arb_term(), b in arb_term()) {
        let (ka, kb) = (a.canonical_key(), b.canonical_key());
        let (ra, rb) = (TermRef::from_key(&ka).unwrap(), TermRef::from_key(&kb).unwrap());
        prop_assert_eq!(ra, TermRef::from(&a));
        prop_assert_eq!(ra.cmp(&rb), a.cmp(&b));
    }

    /// The key parser accepts exactly the keys the writer writes: any
    /// string it decodes writes back to itself. The strings lean on the
    /// length prefix: a tag, then signs and digits, then maybe a colon.
    #[test]
    fn decoded_keys_write_back_to_themselves(
        key in proptest::string::string_regex(
            "[lT][0-3+]{1,3}:[ -~é]{0,8}|[IBLlTZé]?[0-9+-]{0,3}:?[ -~é]{0,10}"
        ).unwrap()
    ) {
        if let Ok(term) = TermRef::from_key(&key) {
            let mut back = String::new();
            term.write_canonical_key(&mut back);
            prop_assert_eq!(back, key);
        }
    }

    /// encode is idempotent and decode inverts it, for every term in an
    /// arbitrary batch; ids are dense 0..n over distinct terms.
    #[test]
    fn encode_decode_inverse(terms in proptest::collection::vec(arb_term(), 1..64)) {
        let mut d = Dictionary::new();
        let ids: Vec<_> = terms.iter().map(|t| d.encode_resource(t)).collect();
        // Idempotency.
        for (t, &id) in terms.iter().zip(&ids) {
            prop_assert_eq!(d.encode_resource(t), id);
            prop_assert_eq!(d.resource_id(t), Some(id));
            prop_assert_eq!(d.decode_resource(id).unwrap(), t.clone());
        }
        // Density: ids form exactly 0..num_resources.
        let mut sorted: Vec<_> = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), d.num_resources());
        prop_assert_eq!(sorted, (0..d.num_resources() as u32).collect::<Vec<_>>());
        // Equal terms share ids, distinct terms do not.
        for (i, a) in terms.iter().enumerate() {
            for (j, b) in terms.iter().enumerate() {
                prop_assert_eq!(ids[i] == ids[j], a == b, "terms {} vs {}", i, j);
            }
        }
    }

    /// Serialization round-trips the whole dictionary including lookups.
    #[test]
    fn serde_roundtrip(res in proptest::collection::vec(arb_term(), 0..40),
                       preds in proptest::collection::vec(arb_term(), 0..10)) {
        let mut d = Dictionary::new();
        for t in &res { d.encode_resource(t); }
        for t in &preds { d.encode_predicate(t); }
        let mut buf = Vec::new();
        d.encode_into(&mut buf);
        let mut slice = buf.as_slice();
        let back = Dictionary::decode_from(&mut slice).unwrap();
        prop_assert!(slice.is_empty());
        prop_assert_eq!(back.num_resources(), d.num_resources());
        prop_assert_eq!(back.num_predicates(), d.num_predicates());
        for t in &res {
            prop_assert_eq!(back.resource_id(t), d.resource_id(t));
        }
        for t in &preds {
            prop_assert_eq!(back.predicate_id(t), d.predicate_id(t));
        }
    }
}
