//! The byte scanner both RDF syntaxes share, and the N-Triples parsers
//! built on it.
//!
//! [`Cursor`] is the one tokenizer of this crate: IRI references, blank
//! node labels, quoted strings with every escape and language tags, each
//! found by table-driven runs and yielded as [`TermRef`] parts that
//! borrow from the input. [`scan_line`] runs it over one N-Triples line;
//! the Turtle statement layer (`turtle.rs`) runs it over a whole chunk.
//! The bulk loader encodes the borrowed terms directly; the owned
//! [`TermTriple`] API ([`parse_ntriples_str`], [`NTriplesParser`]) is
//! [`TermRef::to_term`] over the same scan.

use std::borrow::Cow;
use std::io::BufRead;

use parj_dict::{Term, TermRef};

use crate::chunk::count_newlines;
use crate::error::{ParseError, ParseErrorKind};

/// A parsed `(subject, predicate, object)` triple of terms.
pub type TermTriple = (Term, Term, Term);

/// A scanned `(subject, predicate, object)` triple borrowing from the
/// input text. A part is [`Cow::Owned`] only if it held an escape, or if
/// Turtle built it: an expanded prefixed name, a generated blank node
/// label.
pub type RawTriple<'a> = (TermRef<'a>, TermRef<'a>, TermRef<'a>);

/// Copies a scanned triple into owned terms.
pub(crate) fn owned_triple((s, p, o): RawTriple<'_>) -> TermTriple {
    (s.to_term(), p.to_term(), o.to_term())
}

/// Streaming N-Triples parser over any [`BufRead`] source.
///
/// Iterate it to receive one triple per statement line; blank lines and
/// comment lines are skipped. The iterator yields `Result` so malformed
/// lines surface with their exact position without aborting the caller's
/// control flow.
///
/// ```
/// use parj_rio::NTriplesParser;
/// let src = "<http://e/s> <http://e/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#int> .\n";
/// let mut p = NTriplesParser::new(src.as_bytes());
/// let (s, _p, o) = p.next().unwrap().unwrap();
/// assert_eq!(s.as_iri(), Some("http://e/s"));
/// assert_eq!(o.as_literal(), Some("42"));
/// ```
pub struct NTriplesParser<R> {
    reader: R,
    line_no: usize,
    buf: String,
}

impl<R: BufRead> NTriplesParser<R> {
    /// Creates a parser over `reader`.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            line_no: 0,
            buf: String::with_capacity(256),
        }
    }
}

impl<R: BufRead> Iterator for NTriplesParser<R> {
    type Item = Result<TermTriple, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            self.line_no += 1;
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    return Some(Err(ParseError::new(
                        self.line_no,
                        1,
                        ParseErrorKind::Io(e.to_string()),
                    )))
                }
            }
            match parse_line(&self.buf, self.line_no) {
                Ok(Some(t)) => return Some(Ok(t)),
                Ok(None) => continue, // blank or comment line
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Parses a whole N-Triples document held in memory, collecting either
/// all triples or the first error.
pub fn parse_ntriples_str(input: &str) -> Result<Vec<TermTriple>, ParseError> {
    crate::load::parse_ntriples_str_lossy(input, crate::OnParseError::Abort).map(|(t, _)| t)
}

/// Bytes that end a plain run inside `<…>`: the closing `>`, a
/// backslash, and the characters the IRI grammar forbids.
static IRI_STOP: [bool; 256] = {
    let mut stop = [false; 256];
    let mut b = 0;
    while b <= b' ' as usize {
        stop[b] = true;
        b += 1;
    }
    let marks = b"<>\"{}|^`\\";
    let mut i = 0;
    while i < marks.len() {
        stop[marks[i] as usize] = true;
        i += 1;
    }
    stop
};

/// Whether `b` continues a name — a blank node label, a Turtle prefix or
/// local name: ASCII letters and digits, `_`, `-`, and every non-ASCII
/// byte, so a run of name bytes never splits a character. Dots are
/// [`Cursor::name`]'s business.
pub(crate) fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b >= 0x80
}

/// Byte cursor over an N-Triples line or a Turtle chunk.
///
/// Lines are counted lazily: `line` is the number of the line that
/// starts at `line_start`, and the newlines between `counted` and `pos`
/// are counted only when an error is raised or [`Cursor::sync_lines`]
/// runs.
pub(crate) struct Cursor<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pub(crate) pos: usize,
    line: usize,
    line_start: usize,
    counted: usize,
    /// Columns count characters (Turtle) rather than bytes (N-Triples).
    char_columns: bool,
}

impl<'a> Cursor<'a> {
    /// A cursor at byte `pos` of `text`, on line `line`.
    pub(crate) fn new(text: &'a str, pos: usize, line: usize, char_columns: bool) -> Self {
        let bytes = text.as_bytes();
        let line_start = bytes[..pos]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        Self {
            text,
            bytes,
            pos,
            line,
            line_start,
            counted: pos,
            char_columns,
        }
    }

    /// The line number and line start at the cursor.
    fn line_at(&self) -> (usize, usize) {
        let seen = &self.bytes[self.counted..self.pos];
        let start = seen
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(self.line_start, |i| self.counted + i + 1);
        (self.line + count_newlines(seen), start)
    }

    /// Counts the lines passed so far, so that a later error scans back
    /// no further than here, and returns the line the cursor is on.
    pub(crate) fn sync_lines(&mut self) -> usize {
        (self.line, self.line_start) = self.line_at();
        self.counted = self.pos;
        self.line
    }

    pub(crate) fn err(&self, kind: ParseErrorKind) -> ParseError {
        let (line, start) = self.line_at();
        let span = &self.bytes[start..self.pos];
        let column = if self.char_columns {
            // Every byte but a UTF-8 continuation byte starts a character.
            span.iter().filter(|&&b| b & 0xC0 != 0x80).count()
        } else {
            span.len()
        };
        ParseError::new(line, column + 1, kind)
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    pub(crate) fn peek_at(&self, offset: usize) -> Option<u8> {
        self.bytes.get(self.pos + offset).copied()
    }

    pub(crate) fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// The input from the cursor on.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// The input from byte `start` to the cursor.
    pub(crate) fn since(&self, start: usize) -> &'a str {
        &self.text[start..self.pos]
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    /// Advances to the first byte `stop` accepts (or the end) and
    /// returns the bytes passed over. `stop` must either accept or
    /// reject every non-ASCII byte, so a run never splits a character.
    pub(crate) fn run(&mut self, stop: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let rest = &self.bytes[start..];
        self.pos += rest.iter().position(|&b| stop(b)).unwrap_or(rest.len());
        &self.text[start..self.pos]
    }

    /// Reads exactly `n` hex digits and returns the code they denote.
    fn hex_escape_code(&mut self, n: usize) -> Result<u32, ParseError> {
        let start = self.pos;
        if self.pos + n > self.bytes.len() {
            return Err(self.err(ParseErrorKind::BadEscape("truncated \\u escape".into())));
        }
        let hex = &self.bytes[start..start + n];
        self.pos += n;
        let s = std::str::from_utf8(hex)
            .map_err(|_| self.err(ParseErrorKind::BadEscape("non-ASCII in \\u escape".into())))?;
        u32::from_str_radix(s, 16)
            .map_err(|_| self.err(ParseErrorKind::BadEscape(format!("bad hex {s:?}"))))
    }

    /// Decodes `\uXXXX` / `\UXXXXXXXX` (the leading backslash is already
    /// consumed, `kind` is the `u`/`U` byte).
    ///
    /// A `\uXXXX` in the surrogate range is decoded UTF-16 style: a high
    /// surrogate must be immediately followed by a `\uXXXX` low
    /// surrogate (as emitted by JSON-era exporters) and the pair
    /// combines into one scalar value. Unpaired highs and lone/inverted
    /// lows are rejected with a surrogate-specific, line-anchored error
    /// instead of silently producing a corrupt term.
    fn unicode_escape(&mut self, kind: u8) -> Result<char, ParseError> {
        let n = if kind == b'u' { 4 } else { 8 };
        let code = self.hex_escape_code(n)?;
        if kind == b'u' && (0xD800..=0xDBFF).contains(&code) {
            // High surrogate: the low half must follow as `\uXXXX`.
            if self.peek() == Some(b'\\') && self.peek_at(1) == Some(b'u') {
                self.pos += 2;
                let low = self.hex_escape_code(4)?;
                if (0xDC00..=0xDFFF).contains(&low) {
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(combined).ok_or_else(|| {
                        self.err(ParseErrorKind::BadEscape(format!(
                            "U+{combined:X} is not a scalar value"
                        )))
                    });
                }
                return Err(self.err(ParseErrorKind::BadEscape(format!(
                    "unpaired high surrogate U+{code:04X}: \\u{low:04X} is not a low surrogate"
                ))));
            }
            return Err(self.err(ParseErrorKind::BadEscape(format!(
                "unpaired high surrogate U+{code:04X}: expected \\uDC00..\\uDFFF to follow"
            ))));
        }
        if kind == b'u' && (0xDC00..=0xDFFF).contains(&code) {
            return Err(self.err(ParseErrorKind::BadEscape(format!(
                "inverted surrogate pair: lone low surrogate U+{code:04X}"
            ))));
        }
        char::from_u32(code).ok_or_else(|| {
            self.err(ParseErrorKind::BadEscape(format!(
                "U+{code:X} is not a scalar value"
            )))
        })
    }

    /// Parses an `<IRI>`; the `<` is already consumed. Borrows the
    /// body unless it holds an escape.
    pub(crate) fn iri_body(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let plain = self.run(|b| IRI_STOP[b as usize]);
        if self.peek() == Some(b'>') {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = String::from(plain);
        loop {
            match self.bump() {
                None => return Err(self.err(ParseErrorKind::UnclosedIri)),
                Some(b'>') => return Ok(Cow::Owned(out)),
                Some(b'\\') => match self.bump() {
                    Some(k @ (b'u' | b'U')) => out.push(self.unicode_escape(k)?),
                    other => {
                        return Err(self.err(ParseErrorKind::BadEscape(format!(
                            "\\{} not allowed in IRI",
                            other.map(char::from).unwrap_or(' ')
                        ))))
                    }
                },
                // The other stop bytes are the forbidden (ASCII) ones.
                Some(b) => return Err(self.err(ParseErrorKind::BadIriChar(b as char))),
            }
            out.push_str(self.run(|b| IRI_STOP[b as usize]));
        }
    }

    /// Parses a string body; the opening quote (or three, if `long`) is
    /// already consumed. A short string may not hold a raw line feed; a
    /// long one ends at three quotes. Borrows the body unless it holds an
    /// escape.
    pub(crate) fn string_body(
        &mut self,
        quote: u8,
        long: bool,
    ) -> Result<Cow<'a, str>, ParseError> {
        let mut start = self.pos;
        let mut decoded: Option<String> = None;
        loop {
            if long {
                self.run(|b| b == quote || b == b'\\');
            } else {
                self.run(|b| b == quote || b == b'\\' || b == b'\n');
            }
            let end = self.pos;
            match self.peek() {
                Some(b'\\') => {
                    self.pos += 1;
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(&self.text[start..end]);
                    out.push(self.escape()?);
                    start = self.pos;
                }
                Some(b) if b == quote => {
                    self.pos += 1;
                    if long {
                        if self.peek() != Some(quote) || self.peek_at(1) != Some(quote) {
                            continue; // a lone quote inside the string
                        }
                        self.pos += 2;
                    }
                    let plain = &self.text[start..end];
                    return Ok(match decoded {
                        None => Cow::Borrowed(plain),
                        Some(mut out) => {
                            out.push_str(plain);
                            Cow::Owned(out)
                        }
                    });
                }
                _ => return Err(self.err(ParseErrorKind::UnclosedLiteral)),
            }
        }
    }

    /// Decodes the string escape after a backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        Ok(match self.bump() {
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b'f') => '\u{C}',
            Some(b'"') => '"',
            Some(b'\'') => '\'',
            Some(b'\\') => '\\',
            Some(k @ (b'u' | b'U')) => return self.unicode_escape(k),
            other => {
                return Err(self.err(ParseErrorKind::BadEscape(format!(
                    "\\{}",
                    other.map(char::from).unwrap_or(' ')
                ))))
            }
        })
    }

    /// Reads a (possibly empty) name. With `dots`, a dot inside the name
    /// belongs to it; a trailing dot never does: it ends the statement.
    pub(crate) fn name(&mut self, dots: bool) -> &'a str {
        let run = self.run(|b| !(is_name_byte(b) || (dots && b == b'.')));
        let name = run.trim_end_matches('.');
        self.pos -= run.len() - name.len();
        name
    }

    /// Parses a blank node label; the `_` is already consumed.
    fn blank_label(&mut self) -> Result<&'a str, ParseError> {
        if self.bump() != Some(b':') {
            return Err(self.err(ParseErrorKind::BadBlankNode));
        }
        let label = self.name(true);
        if label.is_empty() {
            return Err(self.err(ParseErrorKind::BadBlankNode));
        }
        Ok(label)
    }

    /// Parses a language tag; the `@` is already consumed.
    pub(crate) fn lang_tag(&mut self) -> Result<&'a str, ParseError> {
        let lang = self.run(|b| !(b.is_ascii_alphanumeric() || b == b'-'));
        if lang.is_empty() {
            return Err(self.err(ParseErrorKind::BadLanguageTag));
        }
        Ok(lang)
    }

    /// Parses one N-Triples term at the cursor: an IRI, a blank node or a
    /// `"…"` literal.
    pub(crate) fn term(&mut self, position: &'static str) -> Result<TermRef<'a>, ParseError> {
        match self.peek() {
            Some(b'<') => {
                self.pos += 1;
                Ok(TermRef::Iri(self.iri_body()?))
            }
            Some(b'_') => {
                self.pos += 1;
                Ok(TermRef::BlankNode(Cow::Borrowed(self.blank_label()?)))
            }
            Some(b'"') => {
                self.pos += 1;
                let lexical = self.string_body(b'"', false)?;
                match self.peek() {
                    Some(b'@') => {
                        self.pos += 1;
                        let lang = self.lang_tag()?;
                        Ok(TermRef::LangLiteral { lexical, lang })
                    }
                    Some(b'^') => {
                        self.pos += 1;
                        if self.bump() != Some(b'^') || self.bump() != Some(b'<') {
                            return Err(self.err(ParseErrorKind::ExpectedTerm("^^<datatype>")));
                        }
                        let datatype = self.iri_body()?;
                        Ok(TermRef::TypedLiteral { lexical, datatype })
                    }
                    _ => Ok(TermRef::Literal(lexical)),
                }
            }
            _ => Err(self.err(ParseErrorKind::ExpectedTerm(position))),
        }
    }
}

/// Scans one line into borrowed terms; `Ok(None)` for blank/comment
/// lines.
pub(crate) fn scan_line(line: &str, line_no: usize) -> Result<Option<RawTriple<'_>>, ParseError> {
    let text = line.trim_end_matches(['\n', '\r']);
    let mut c = Cursor::new(text, 0, line_no, false);
    c.skip_ws();
    match c.peek() {
        None | Some(b'#') => return Ok(None),
        _ => {}
    }

    let subject = c.term("IRI or blank node in subject position")?;
    if !matches!(subject, TermRef::Iri(_) | TermRef::BlankNode(_)) {
        return Err(c.err(ParseErrorKind::LiteralSubject));
    }
    c.skip_ws();
    let predicate = c.term("IRI in predicate position")?;
    if !matches!(predicate, TermRef::Iri(_)) {
        return Err(c.err(ParseErrorKind::NonIriPredicate));
    }
    c.skip_ws();
    let object = c.term("term in object position")?;
    c.skip_ws();
    if c.bump() != Some(b'.') {
        return Err(c.err(ParseErrorKind::MissingDot));
    }
    c.skip_ws();
    match c.peek() {
        None | Some(b'#') => Ok(Some((subject, predicate, object))),
        Some(_) => Err(c.err(ParseErrorKind::TrailingGarbage)),
    }
}

/// [`scan_line`] copied into owned terms.
pub(crate) fn parse_line(line: &str, line_no: usize) -> Result<Option<TermTriple>, ParseError> {
    Ok(scan_line(line, line_no)?.map(owned_triple))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(line: &str) -> TermTriple {
        parse_line(line, 1).unwrap().unwrap()
    }

    fn fails(line: &str) -> ParseErrorKind {
        parse_line(line, 1).unwrap_err().kind
    }

    #[test]
    fn plain_triple() {
        let (s, p, o) = one("<http://e/s> <http://e/p> <http://e/o> .");
        assert_eq!(s, Term::iri("http://e/s"));
        assert_eq!(p, Term::iri("http://e/p"));
        assert_eq!(o, Term::iri("http://e/o"));
    }

    #[test]
    fn literal_objects() {
        let (_, _, o) = one(r#"<http://e/s> <http://e/p> "hello world" ."#);
        assert_eq!(o, Term::literal("hello world"));
        let (_, _, o) = one(r#"<http://e/s> <http://e/p> "bonjour"@fr-CA ."#);
        assert_eq!(o, Term::lang_literal("bonjour", "fr-CA"));
        let (_, _, o) =
            one(r#"<http://e/s> <http://e/p> "5"^^<http://www.w3.org/2001/XMLSchema#int> ."#);
        assert_eq!(
            o,
            Term::typed_literal("5", "http://www.w3.org/2001/XMLSchema#int")
        );
    }

    #[test]
    fn escapes_decoded() {
        let (_, _, o) = one(r#"<http://e/s> <http://e/p> "a\tb\nc\"d\\e" ."#);
        assert_eq!(o, Term::literal("a\tb\nc\"d\\e"));
        let (_, _, o) = one(r#"<http://e/s> <http://e/p> "é\U0001F600" ."#);
        assert_eq!(o, Term::literal("é😀"));
        let (s, _, _) = one(r#"<http://e/café> <http://e/p> <http://e/o> ."#);
        assert_eq!(s, Term::iri("http://e/café"));
    }

    #[test]
    fn blank_nodes() {
        let (s, _, o) = one("_:alice <http://e/knows> _:bob .");
        assert_eq!(s, Term::blank("alice"));
        assert_eq!(o, Term::blank("bob"));
        // Label followed directly by the statement dot.
        let (s, _, _) = one("_:a.b <http://e/p> <http://e/o> .");
        assert_eq!(s, Term::blank("a.b"));
    }

    #[test]
    fn comments_and_blank_lines() {
        assert_eq!(parse_line("", 1).unwrap(), None);
        assert_eq!(parse_line("   \t ", 1).unwrap(), None);
        assert_eq!(parse_line("# full line comment", 1).unwrap(), None);
        let t = parse_line("<http://e/s> <http://e/p> <http://e/o> . # trailing", 1)
            .unwrap()
            .unwrap();
        assert_eq!(t.0, Term::iri("http://e/s"));
    }

    #[test]
    fn unicode_iri_passthrough() {
        let (s, _, _) = one("<http://e/café> <http://e/p> <http://e/o> .");
        assert_eq!(s, Term::iri("http://e/café"));
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            fails(r#""literal" <http://e/p> <http://e/o> ."#),
            ParseErrorKind::LiteralSubject
        ));
        assert!(matches!(
            fails("<http://e/s> _:b <http://e/o> ."),
            ParseErrorKind::NonIriPredicate
        ));
        assert!(matches!(
            fails("<http://e/s> <http://e/p> <http://e/o>"),
            ParseErrorKind::MissingDot
        ));
        assert!(matches!(
            fails("<http://e/s> <http://e/p> <http://e/o> . extra"),
            ParseErrorKind::TrailingGarbage
        ));
        assert!(matches!(
            fails("<http://e/unclosed <http://e/p> <http://e/o> ."),
            ParseErrorKind::BadIriChar(_) | ParseErrorKind::UnclosedIri
        ));
        assert!(matches!(
            fails(r#"<http://e/s> <http://e/p> "unclosed ."#),
            ParseErrorKind::UnclosedLiteral
        ));
        assert!(matches!(
            fails(r#"<http://e/s> <http://e/p> "bad \q escape" ."#),
            ParseErrorKind::BadEscape(_)
        ));
        assert!(matches!(
            fails(r#"<http://e/s> <http://e/p> "x"@ ."#),
            ParseErrorKind::BadLanguageTag
        ));
        assert!(matches!(
            fails(r#"<http://e/s> <http://e/p> "\uD800" ."#),
            ParseErrorKind::BadEscape(_) // lone surrogate
        ));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_are_rejected() {
        // A valid UTF-16 pair combines into one scalar value, in both
        // literal and IRI positions.
        let pair = r"\uD83D\uDE00"; // U+1F600 as a UTF-16 escape pair
        let (_, _, o) = one(&format!(r#"<http://e/s> <http://e/p> "{pair}" ."#));
        assert_eq!(o, Term::literal("\u{1F600}"));
        let (s, _, _) = one(&format!(r"<http://e/{pair}> <http://e/p> <http://e/o> ."));
        assert_eq!(s, Term::iri("http://e/\u{1F600}"));

        // Each failure mode gets its own line-anchored diagnostic.
        let cases: [(&str, &str); 4] = [
            (r#""\uD800""#, "unpaired high surrogate"),
            (r#""\uD800x""#, "unpaired high surrogate"),
            (r#""\uD800\u0041""#, "is not a low surrogate"),
            (r#""\uDC00\uD800""#, "lone low surrogate"),
        ];
        for (lit, want) in cases {
            let line = format!("<http://e/s> <http://e/p> {lit} .");
            let err = parse_line(&line, 42).unwrap_err();
            assert_eq!(err.line, 42, "{lit}");
            assert!(err.column > 26, "{lit}: column {}", err.column);
            match err.kind {
                ParseErrorKind::BadEscape(msg) => {
                    assert!(msg.contains(want), "{lit}: {msg:?} missing {want:?}")
                }
                other => panic!("{lit}: expected BadEscape, got {other:?}"),
            }
        }
        // \U00.. surrogates stay plain "not a scalar value" errors.
        assert!(matches!(
            fails(r#"<http://e/s> <http://e/p> "\U0000D800" ."#),
            ParseErrorKind::BadEscape(_)
        ));
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_line("<http://e/s> <http://e/p> <http://e/o>", 7).unwrap_err();
        assert_eq!(e.line, 7);
        assert!(e.column > 30, "column {} should be near line end", e.column);
    }

    #[test]
    fn streaming_parser_skips_and_counts_lines() {
        let src = "\n# c\n<http://e/a> <http://e/p> <http://e/b> .\nbad line\n";
        let mut p = NTriplesParser::new(src.as_bytes());
        assert!(p.next().unwrap().is_ok());
        let err = p.next().unwrap().unwrap_err();
        assert_eq!(err.line, 4);
        assert!(p.next().is_none());
    }

    #[test]
    fn crlf_lines() {
        let src = "<http://e/a> <http://e/p> <http://e/b> .\r\n";
        let mut p = NTriplesParser::new(src.as_bytes());
        let (s, _, _) = p.next().unwrap().unwrap();
        assert_eq!(s, Term::iri("http://e/a"));
    }

    /// The string parts of a scanned term, in source order.
    fn parts<'t, 'a>(t: &'t TermRef<'a>) -> Vec<&'t Cow<'a, str>> {
        match t {
            TermRef::Iri(p) | TermRef::Literal(p) => vec![p],
            TermRef::BlankNode(_) => vec![],
            TermRef::LangLiteral { lexical, .. } => vec![lexical],
            TermRef::TypedLiteral { lexical, datatype } => vec![lexical, datatype],
        }
    }

    fn lies_within(part: &str, line: &str) -> bool {
        let (start, end) = (line.as_ptr() as usize, line.as_ptr() as usize + line.len());
        let at = part.as_ptr() as usize;
        start <= at && at + part.len() <= end
    }

    #[test]
    fn escape_free_terms_borrow_every_part_from_the_line() {
        let lines = [
            "<http://e/s> <http://e/p> <http://e/o> .",
            "_:a.b <http://e/p> _:c. # label directly before the dot",
            r#"<http://e/café> <http://e/p> "plain é 😀" ."#,
            r#"_:x <http://e/p> "bonjour"@fr-CA ."#,
            r#"<http://e/s> <http://e/p> "5"^^<http://www.w3.org/2001/XMLSchema#int> ."#,
        ];
        for line in lines {
            let (s, p, o) = scan_line(line, 1).unwrap().unwrap();
            for term in [&s, &p, &o] {
                for part in parts(term) {
                    assert!(
                        matches!(part, Cow::Borrowed(_)),
                        "{line}: {part:?} is owned"
                    );
                    assert!(
                        lies_within(part, line),
                        "{line}: {part:?} is not a slice of it"
                    );
                }
                match term {
                    TermRef::BlankNode(label) => assert!(lies_within(label, line)),
                    TermRef::LangLiteral { lang, .. } => assert!(lies_within(lang, line)),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn only_the_escaped_part_is_owned() {
        let line = r#"<http://e/s> <http://e/p> "a\tb"^^<http://e/dt> ."#;
        let (s, p, o) = scan_line(line, 1).unwrap().unwrap();
        let TermRef::TypedLiteral { lexical, datatype } = &o else {
            panic!("typed literal expected, got {o:?}");
        };
        assert_eq!(lexical, &Cow::<str>::Owned("a\tb".into()));
        assert!(matches!(lexical, Cow::Owned(_)));
        assert!(matches!(datatype, Cow::Borrowed(d) if lies_within(d, line)));
        for term in [&s, &p] {
            assert!(matches!(term, TermRef::Iri(Cow::Borrowed(i)) if lies_within(i, line)));
        }
        // The same goes for an escape inside an IRI.
        let line = r#"<http://e/\u00e9> <http://e/p> "x" ."#;
        let (s, _, o) = scan_line(line, 1).unwrap().unwrap();
        assert_eq!(s, TermRef::Iri(Cow::Owned("http://e/é".into())));
        assert!(matches!(s, TermRef::Iri(Cow::Owned(_))));
        assert!(matches!(o, TermRef::Literal(Cow::Borrowed(_))));
    }
}
