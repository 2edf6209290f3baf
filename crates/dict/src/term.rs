//! RDF term model and its canonical single-string encoding used as the
//! dictionary key.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Canonical keys for two-part literals are length-prefixed:
/// `l<len>:<lang><lexical>` / `T<len>:<datatype><lexical>`, where `<len>`
/// is the decimal byte length of the lang/datatype component, spelled as
/// the writer spells it: no sign, no leading zero. This is unambiguous
/// for *arbitrary* component content (even content containing
/// separators or digits), which matters because the dictionary must
/// round-trip whatever the parser accepted.
fn split_len_prefixed(rest: &str) -> Option<(&str, &str)> {
    let (digits, body) = rest.split_once(':')?;
    let canonical = match digits.as_bytes() {
        [b'0'] => true,
        [b'1'..=b'9', tail @ ..] => tail.iter().all(u8::is_ascii_digit),
        _ => false,
    };
    let len: usize = digits.parse().ok().filter(|_| canonical)?;
    if len <= body.len() && body.is_char_boundary(len) {
        Some(body.split_at(len))
    } else {
        None
    }
}

/// An RDF term that owns its strings: IRI, blank node, or literal.
///
/// Literals carry an optional language tag (for `rdf:langString`) or an
/// optional datatype IRI; a literal with neither is a plain
/// `xsd:string`. Should both be set, the language tag wins and the
/// datatype is ignored. Terms order as their [`TermRef`] views do.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI reference, stored without the surrounding `<` `>`.
    Iri(String),
    /// A blank node label, stored without the leading `_:`.
    BlankNode(String),
    /// A literal value.
    Literal {
        /// The lexical form (unescaped).
        lexical: String,
        /// Language tag, if any (mutually exclusive with `datatype`).
        lang: Option<String>,
        /// Datatype IRI, if any.
        datatype: Option<String>,
    },
}

/// Error produced when decoding a malformed canonical key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermParseError {
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for TermParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid canonical term key: {}", self.message)
    }
}

impl std::error::Error for TermParseError {}

impl Term {
    /// Creates an IRI term.
    pub fn iri(iri: impl Into<String>) -> Self {
        Term::Iri(iri.into())
    }

    /// Creates a blank node term from its label (without `_:`).
    pub fn blank(label: impl Into<String>) -> Self {
        Term::BlankNode(label.into())
    }

    /// Creates a plain (`xsd:string`) literal.
    pub fn literal(lexical: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            lang: None,
            datatype: None,
        }
    }

    /// Creates a language-tagged literal.
    pub fn lang_literal(lexical: impl Into<String>, lang: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            lang: Some(lang.into()),
            datatype: None,
        }
    }

    /// Creates a typed literal.
    pub fn typed_literal(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            lang: None,
            datatype: Some(datatype.into()),
        }
    }

    /// Returns the IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// Returns the lexical form if this term is a literal.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Term::Literal { lexical, .. } => Some(lexical),
            _ => None,
        }
    }

    /// True if this term is a literal. Literals may only appear in the
    /// object position of a triple.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// Encodes the term into the canonical single-string key stored in
    /// the dictionary arena. Inverse of [`Term::from_canonical_key`].
    pub fn canonical_key(&self) -> String {
        let mut out = String::new();
        self.write_canonical_key(&mut out);
        out
    }

    /// Appends the canonical key onto `out` (allocation-reuse variant of
    /// [`Term::canonical_key`]).
    pub fn write_canonical_key(&self, out: &mut String) {
        TermRef::from(self).write_canonical_key(out);
    }

    /// Decodes a canonical key produced by [`Term::canonical_key`]: the
    /// owned copy of [`TermRef::from_key`].
    pub fn from_canonical_key(key: &str) -> Result<Self, TermParseError> {
        TermRef::from_key(key).map(TermRef::to_term)
    }
}

/// An RDF term whose parts may borrow: from a dictionary key
/// ([`TermRef::from_key`]), from parser input, or from a [`Term`]. A
/// part is [`Cow::Owned`] only where its bytes had to be built: a
/// decoded escape, an expanded Turtle prefixed name, a generated blank
/// node label. There is one variant per canonical key tag, so a literal
/// cannot carry both a language tag and a datatype.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermRef<'a> {
    /// An IRI reference, without the surrounding `<` `>` (key tag `I`).
    Iri(Cow<'a, str>),
    /// A blank node label, without the leading `_:` (key tag `B`).
    BlankNode(Cow<'a, str>),
    /// A plain (`xsd:string`) literal's lexical form (key tag `L`).
    Literal(Cow<'a, str>),
    /// A language-tagged literal (key tag `l`).
    LangLiteral {
        /// The lexical form (unescaped).
        lexical: Cow<'a, str>,
        /// The language tag, without the `@`.
        lang: &'a str,
    },
    /// A typed literal (key tag `T`).
    TypedLiteral {
        /// The lexical form (unescaped).
        lexical: Cow<'a, str>,
        /// The datatype IRI.
        datatype: Cow<'a, str>,
    },
}

impl<'a> TermRef<'a> {
    /// Parses a canonical key written by [`TermRef::write_canonical_key`]
    /// by slicing it. This is the one parser of the key format, and it
    /// accepts exactly the keys the writer writes.
    pub fn from_key(key: &'a str) -> Result<Self, TermParseError> {
        let fail = |message: String| TermParseError { message };
        // Every tag is one ASCII byte, so `key[1..]` is the rest.
        let rest = || Cow::Borrowed(&key[1..]);
        let two_part = |what: &str| {
            split_len_prefixed(&key[1..])
                .ok_or_else(|| fail(format!("{what} literal key missing length prefix")))
        };
        match key.as_bytes().first() {
            None => Err(fail("empty key".to_string())),
            Some(b'I') => Ok(TermRef::Iri(rest())),
            Some(b'B') => Ok(TermRef::BlankNode(rest())),
            Some(b'L') => Ok(TermRef::Literal(rest())),
            Some(b'l') => two_part("lang").map(|(lang, lexical)| TermRef::LangLiteral {
                lexical: Cow::Borrowed(lexical),
                lang,
            }),
            Some(b'T') => two_part("typed").map(|(datatype, lexical)| TermRef::TypedLiteral {
                lexical: Cow::Borrowed(lexical),
                datatype: Cow::Borrowed(datatype),
            }),
            Some(_) => {
                let other = key.chars().next().unwrap_or_default();
                Err(fail(format!("unknown tag character {other:?}")))
            }
        }
    }

    /// Appends the canonical key onto `out`: the tag, for the two-part
    /// literals the length-prefixed language tag or datatype IRI, then
    /// the IRI, label or lexical form. This is the one writer of the key
    /// format.
    pub fn write_canonical_key(&self, out: &mut String) {
        use fmt::Write;
        let (tag, qualifier, body): (char, Option<&str>, &str) = match self {
            TermRef::Iri(iri) => ('I', None, iri),
            TermRef::BlankNode(label) => ('B', None, label),
            TermRef::Literal(lexical) => ('L', None, lexical),
            TermRef::LangLiteral { lexical, lang } => ('l', Some(lang), lexical),
            TermRef::TypedLiteral { lexical, datatype } => ('T', Some(datatype), lexical),
        };
        out.push(tag);
        if let Some(q) = qualifier {
            // Formatting an integer into a `String` cannot fail.
            let _ = write!(out, "{}:", q.len());
            out.push_str(q);
        }
        out.push_str(body);
    }

    /// The owned term; owned parts move, borrowed ones are copied.
    pub fn to_term(self) -> Term {
        match self {
            TermRef::Iri(iri) => Term::iri(iri),
            TermRef::BlankNode(label) => Term::blank(label),
            TermRef::Literal(lexical) => Term::literal(lexical),
            TermRef::LangLiteral { lexical, lang } => Term::lang_literal(lexical, lang),
            TermRef::TypedLiteral { lexical, datatype } => Term::typed_literal(lexical, datatype),
        }
    }
}

impl<'a> From<&'a Term> for TermRef<'a> {
    fn from(term: &'a Term) -> Self {
        match term {
            Term::Iri(iri) => TermRef::Iri(iri.into()),
            Term::BlankNode(label) => TermRef::BlankNode(label.into()),
            Term::Literal {
                lexical,
                lang: Some(lang),
                ..
            } => TermRef::LangLiteral {
                lexical: lexical.into(),
                lang,
            },
            Term::Literal {
                lexical,
                datatype: Some(datatype),
                ..
            } => TermRef::TypedLiteral {
                lexical: lexical.into(),
                datatype: datatype.into(),
            },
            Term::Literal { lexical, .. } => TermRef::Literal(lexical.into()),
        }
    }
}

impl Ord for TermRef<'_> {
    /// IRIs before blank nodes before literals; IRIs and labels by their
    /// bytes; literals by lexical form, then language tag, then
    /// datatype, an absent tag or datatype first. So `<z>` < `_:a`, and
    /// `"x"` < `"x"^^<dt>` < `"x"@en`. This is [`Term`]'s derived order,
    /// which ORDER BY relies on; it is not the order of the canonical
    /// keys (`Iz` sorts after `Ba`).
    fn cmp(&self, other: &Self) -> Ordering {
        fn project<'t>(t: &'t TermRef<'_>) -> (u8, &'t str, Option<&'t str>, Option<&'t str>) {
            match t {
                TermRef::Iri(iri) => (0, iri, None, None),
                TermRef::BlankNode(label) => (1, label, None, None),
                TermRef::Literal(lexical) => (2, lexical, None, None),
                TermRef::LangLiteral { lexical, lang } => (2, lexical, Some(lang), None),
                TermRef::TypedLiteral { lexical, datatype } => (2, lexical, None, Some(datatype)),
            }
        }
        project(self).cmp(&project(other))
    }
}

impl PartialOrd for TermRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Term {
    /// Formats the term in N-Triples syntax (with escaping).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        TermRef::from(self).fmt(f)
    }
}

impl fmt::Display for TermRef<'_> {
    /// Formats the term in N-Triples syntax (with escaping).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lexical = match self {
            TermRef::Iri(iri) => return write!(f, "<{iri}>"),
            TermRef::BlankNode(label) => return write!(f, "_:{label}"),
            TermRef::Literal(lexical)
            | TermRef::LangLiteral { lexical, .. }
            | TermRef::TypedLiteral { lexical, .. } => lexical,
        };
        f.write_str("\"")?;
        let mut run = 0;
        for (i, b) in lexical.bytes().enumerate() {
            let escaped = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                _ => continue,
            };
            f.write_str(&lexical[run..i])?;
            f.write_str(escaped)?;
            run = i + 1;
        }
        f.write_str(&lexical[run..])?;
        f.write_str("\"")?;
        match self {
            TermRef::LangLiteral { lang, .. } => write!(f, "@{lang}"),
            TermRef::TypedLiteral { datatype, .. } => write!(f, "^^<{datatype}>"),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(t: &Term) {
        let key = t.canonical_key();
        let back = Term::from_canonical_key(&key).expect("decodable");
        assert_eq!(&back, t, "roundtrip failed for key {key:?}");
    }

    #[test]
    fn canonical_roundtrips() {
        roundtrip(&Term::iri("http://example.org/x"));
        roundtrip(&Term::iri(""));
        roundtrip(&Term::blank("b0"));
        roundtrip(&Term::literal("hello world"));
        roundtrip(&Term::literal(""));
        roundtrip(&Term::literal("with \u{1F} separator inside"));
        roundtrip(&Term::lang_literal("bonjour", "fr"));
        roundtrip(&Term::lang_literal("", "en-US"));
        roundtrip(&Term::typed_literal(
            "42",
            "http://www.w3.org/2001/XMLSchema#integer",
        ));
    }

    #[test]
    fn distinct_terms_have_distinct_keys() {
        let terms = [
            Term::iri("x"),
            Term::blank("x"),
            Term::literal("x"),
            Term::lang_literal("x", "en"),
            Term::typed_literal("x", "http://dt"),
            Term::lang_literal("", "enx"), // must not collide with lang "en", lex "x"
        ];
        for (i, a) in terms.iter().enumerate() {
            for (j, b) in terms.iter().enumerate() {
                if i != j {
                    assert_ne!(a.canonical_key(), b.canonical_key(), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn rejects_malformed_keys() {
        assert!(Term::from_canonical_key("").is_err());
        assert!(Term::from_canonical_key("Zoops").is_err());
        assert!(Term::from_canonical_key("lno-separator").is_err());
        assert!(Term::from_canonical_key("Tno-separator").is_err());
        // A multi-byte first character is an unknown tag, not a slice
        // through the middle of a character.
        assert!(Term::from_canonical_key("éoops").is_err());
        assert!(Term::from_canonical_key("l9:fr").is_err());
    }

    #[test]
    fn length_prefixes_are_spelled_as_the_writer_spells_them() {
        // Each of these would decode to a term the writer spells
        // differently, giving one term two keys.
        for key in [
            "l02:enx",
            "l+2:enx",
            "l0002:enx",
            "T01:dx",
            "l:x",
            "l 2:enx",
        ] {
            assert!(TermRef::from_key(key).is_err(), "{key:?} accepted");
        }
        for key in ["l2:enx", "l0:x", "T1:dx", "T0:"] {
            let mut back = String::new();
            TermRef::from_key(key)
                .unwrap()
                .write_canonical_key(&mut back);
            assert_eq!(back, key);
        }
    }

    #[test]
    fn terms_order_by_variant_then_parts() {
        let ascending = [
            Term::iri("z"),
            Term::blank("a"),
            Term::literal("x"),
            Term::typed_literal("x", "dt"),
            Term::lang_literal("x", "en"),
        ];
        for pair in ascending.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(a < b, "{a} < {b}");
            assert!(TermRef::from(a) < TermRef::from(b), "{a} < {b} as views");
        }
        // Not the order of the canonical keys.
        assert!(ascending[0].canonical_key() > ascending[1].canonical_key());
    }

    #[test]
    fn owned_and_borrowed_parts_make_the_same_term() {
        let owned = |s: &str| Cow::Owned(s.to_string());
        let pairs = [
            (TermRef::Iri(owned("i")), TermRef::Iri("i".into())),
            (
                TermRef::BlankNode(owned("b")),
                TermRef::BlankNode("b".into()),
            ),
            (
                TermRef::Literal(owned("q\"")),
                TermRef::Literal("q\"".into()),
            ),
            (
                TermRef::LangLiteral {
                    lexical: owned("x"),
                    lang: "en",
                },
                TermRef::LangLiteral {
                    lexical: "x".into(),
                    lang: "en",
                },
            ),
            (
                TermRef::TypedLiteral {
                    lexical: owned("1"),
                    datatype: owned("http://e/dt"),
                },
                TermRef::TypedLiteral {
                    lexical: "1".into(),
                    datatype: "http://e/dt".into(),
                },
            ),
        ];
        for (owned, borrowed) in pairs {
            assert_eq!(owned, borrowed);
            assert_eq!(owned.cmp(&borrowed), Ordering::Equal);
            let (mut a, mut b) = (String::new(), String::new());
            owned.write_canonical_key(&mut a);
            borrowed.write_canonical_key(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn term_ref_stays_48_bytes() {
        assert_eq!(std::mem::size_of::<TermRef>(), 48);
    }

    #[test]
    fn display_ntriples() {
        assert_eq!(Term::iri("http://e/x").to_string(), "<http://e/x>");
        assert_eq!(Term::blank("b1").to_string(), "_:b1");
        assert_eq!(Term::literal("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(Term::lang_literal("hi", "en").to_string(), "\"hi\"@en");
        assert_eq!(
            Term::typed_literal("1", "http://dt").to_string(),
            "\"1\"^^<http://dt>"
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Term::iri("x").as_iri(), Some("x"));
        assert_eq!(Term::literal("x").as_iri(), None);
        assert_eq!(Term::literal("x").as_literal(), Some("x"));
        assert!(Term::literal("x").is_literal());
        assert!(!Term::blank("x").is_literal());
    }
}
