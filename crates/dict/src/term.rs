//! RDF term model and its canonical single-string encoding used as the
//! dictionary key.

use std::fmt;

/// Canonical keys for two-part literals are length-prefixed:
/// `l<len>:<lang><lexical>` / `T<len>:<datatype><lexical>`, where `<len>`
/// is the decimal byte length of the lang/datatype component. This is
/// unambiguous for *arbitrary* component content (even content containing
/// separators or digits), which matters because the dictionary must
/// round-trip whatever the parser accepted.
fn split_len_prefixed(rest: &str) -> Option<(&str, &str)> {
    let colon = rest.find(':')?;
    let len: usize = rest[..colon].parse().ok()?;
    let body = &rest[colon + 1..];
    if len <= body.len() && body.is_char_boundary(len) {
        Some((&body[..len], &body[len..]))
    } else {
        None
    }
}

/// Appends one canonical key onto `out`: the `tag` (`I` IRI, `B` blank
/// node, `L` plain / `l` language-tagged / `T` typed literal), for the
/// two-part literals the length-prefixed `qualifier` (language tag or
/// datatype IRI), then `body`. This is the one place the key format is
/// written; every term representation encodes through it.
pub fn write_key(out: &mut String, tag: char, qualifier: Option<&str>, body: &str) {
    use fmt::Write;
    out.push(tag);
    if let Some(q) = qualifier {
        // Formatting an integer into a `String` cannot fail.
        let _ = write!(out, "{}:", q.len());
        out.push_str(q);
    }
    out.push_str(body);
}

/// A term representation that can write its canonical dictionary key —
/// what the encode paths need from a term, whether it owns its strings
/// ([`Term`]) or borrows them from parser input.
pub trait CanonicalKey {
    /// Appends the canonical key onto `out`.
    fn write_canonical_key(&self, out: &mut String);
}

impl CanonicalKey for Term {
    fn write_canonical_key(&self, out: &mut String) {
        Term::write_canonical_key(self, out);
    }
}

/// An RDF term: IRI, blank node, or literal.
///
/// Literals carry an optional language tag (for `rdf:langString`) or an
/// optional datatype IRI; a literal with neither is a plain
/// `xsd:string`. Terms order lexicographically on their canonical key,
/// which gives a deterministic total order used by tests and snapshots.
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
        match self {
            Term::Iri(iri) => write_key(out, 'I', None, iri),
            Term::BlankNode(label) => write_key(out, 'B', None, label),
            Term::Literal {
                lexical,
                lang: Some(lang),
                ..
            } => write_key(out, 'l', Some(lang), lexical),
            Term::Literal {
                lexical,
                datatype: Some(dt),
                ..
            } => write_key(out, 'T', Some(dt), lexical),
            Term::Literal { lexical, .. } => write_key(out, 'L', None, lexical),
        }
    }

    /// Decodes a canonical key produced by [`Term::canonical_key`]: the
    /// owned copy of [`TermRef::from_key`].
    pub fn from_canonical_key(key: &str) -> Result<Self, TermParseError> {
        TermRef::from_key(key).map(TermRef::to_term)
    }
}

/// A term borrowed from its canonical key: the shape of [`Term`] with
/// every string a slice of the key, so a decode allocates nothing.
/// Orders exactly like the [`Term`] it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TermRef<'a> {
    /// An IRI reference, without the surrounding `<` `>`.
    Iri(&'a str),
    /// A blank node label, without the leading `_:`.
    BlankNode(&'a str),
    /// A literal value.
    Literal {
        /// The lexical form (unescaped).
        lexical: &'a str,
        /// Language tag, if any (mutually exclusive with `datatype`).
        lang: Option<&'a str>,
        /// Datatype IRI, if any.
        datatype: Option<&'a str>,
    },
}

impl<'a> TermRef<'a> {
    /// Parses a canonical key written by [`write_key`] by slicing it.
    /// This is the one parser of the key format.
    pub fn from_key(key: &'a str) -> Result<Self, TermParseError> {
        let fail = |message: String| TermParseError { message };
        let literal = |lexical, lang, datatype| TermRef::Literal {
            lexical,
            lang,
            datatype,
        };
        // Every tag is one ASCII byte, so `key[1..]` is the rest.
        let two_part = |what: &str| {
            split_len_prefixed(&key[1..])
                .ok_or_else(|| fail(format!("{what} literal key missing length prefix")))
        };
        match key.as_bytes().first() {
            None => Err(fail("empty key".to_string())),
            Some(b'I') => Ok(TermRef::Iri(&key[1..])),
            Some(b'B') => Ok(TermRef::BlankNode(&key[1..])),
            Some(b'L') => Ok(literal(&key[1..], None, None)),
            Some(b'l') => {
                two_part("lang").map(|(lang, lexical)| literal(lexical, Some(lang), None))
            }
            Some(b'T') => two_part("typed").map(|(dt, lexical)| literal(lexical, None, Some(dt))),
            Some(_) => {
                let other = key.chars().next().unwrap_or_default();
                Err(fail(format!("unknown tag character {other:?}")))
            }
        }
    }

    /// The owned term.
    pub fn to_term(self) -> Term {
        match self {
            TermRef::Iri(iri) => Term::Iri(iri.to_string()),
            TermRef::BlankNode(label) => Term::BlankNode(label.to_string()),
            TermRef::Literal {
                lexical,
                lang,
                datatype,
            } => Term::Literal {
                lexical: lexical.to_string(),
                lang: lang.map(str::to_string),
                datatype: datatype.map(str::to_string),
            },
        }
    }
}

impl<'a> From<&'a Term> for TermRef<'a> {
    fn from(term: &'a Term) -> Self {
        match term {
            Term::Iri(iri) => TermRef::Iri(iri),
            Term::BlankNode(label) => TermRef::BlankNode(label),
            Term::Literal {
                lexical,
                lang,
                datatype,
            } => TermRef::Literal {
                lexical,
                lang: lang.as_deref(),
                datatype: datatype.as_deref(),
            },
        }
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
        match *self {
            TermRef::Iri(iri) => write!(f, "<{iri}>"),
            TermRef::BlankNode(label) => write!(f, "_:{label}"),
            TermRef::Literal {
                lexical,
                lang,
                datatype,
            } => {
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
                if let Some(lang) = lang {
                    write!(f, "@{lang}")?;
                } else if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                }
                Ok(())
            }
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
