//! Turtle: a statement layer over the N-Triples term scanner.
//!
//! [Turtle](https://www.w3.org/TR/turtle/) is the human-oriented RDF
//! syntax most published datasets ship in. Its terms are N-Triples terms
//! plus some sugar, so this module scans them with the same byte
//! [`Cursor`] and adds only what Turtle has on top:
//!
//! * `@prefix` / `PREFIX` directives and prefixed names,
//! * the `a` keyword, `;` predicate lists and `,` object lists,
//! * anonymous blank nodes `[ … ]` (with nested property lists),
//! * `'…'` strings and `"""…"""` / `'''…'''` long strings,
//! * numeric literals (`42` → `xsd:integer`, `3.14` → `xsd:decimal`,
//!   `1e3`-style → `xsd:double`) and booleans,
//! * comments.
//!
//! IRIs, blank node labels, escapes and language tags follow the
//! N-Triples byte rules; whitespace is the W3C set (space, tab, CR, LF).
//! Terms borrow from the input; only an expanded prefixed name or a
//! generated blank node label owns its bytes. Error columns count
//! characters.
//!
//! Out of scope (rejected with a positioned error, never misparsed):
//! `@base`/relative IRIs and RDF collections `( … )`.

use std::borrow::Cow;
use std::collections::HashMap;

use parj_dict::TermRef;

use crate::chunk::TurtleChunk;
use crate::error::{ParseError, ParseErrorKind};
use crate::load::{LoadReport, OnParseError};
use crate::parser::{is_name_byte, owned_triple, Cursor, RawTriple, TermTriple};

/// `xsd` datatype IRIs for Turtle's sugared literal forms.
const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
/// `rdf:type`, abbreviated by `a`.
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Parses a complete Turtle document, returning all triples (blank
/// nodes get document-scoped labels; anonymous nodes get generated
/// labels that cannot collide with parsed ones).
pub fn parse_turtle_str(input: &str) -> Result<Vec<TermTriple>, ParseError> {
    parse_turtle_str_lossy(input, OnParseError::Abort).map(|(t, _)| t)
}

/// [`parse_turtle_str`] with an error policy. In
/// [`OnParseError::Skip`] mode a malformed statement is dropped whole
/// (any triples it had already produced are rolled back), the parser
/// resynchronizes after the next statement terminator, and the skip is
/// recorded in the returned [`LoadReport`].
///
/// Recovery is best-effort: it starts where the error was found, so a
/// quote inside the malformed statement can hide the terminator, in
/// which case the next statement is skipped with it.
pub fn parse_turtle_str_lossy(
    input: &str,
    policy: OnParseError,
) -> Result<(Vec<TermTriple>, LoadReport), ParseError> {
    let (triples, report) = parse_turtle_document(input, policy)?;
    Ok((triples.into_iter().map(owned_triple).collect(), report))
}

/// [`parse_turtle_str_lossy`] without the copy: the statement layer run
/// over one chunk that spans the document, directives included. The
/// triples borrow from `input` where they can.
pub fn parse_turtle_document(
    input: &str,
    policy: OnParseError,
) -> Result<(Vec<RawTriple<'_>>, LoadReport), ParseError> {
    let mut p = Turtle::new(input, &TurtleChunk::document(input));
    let report = p.statements(policy, true)?;
    let mut parts = [p.finish()];
    name_anonymous(&mut parts);
    let [(triples, _)] = parts;
    Ok((triples, report))
}

/// Gives the anonymous nodes of a document split into `parts` (each
/// chunk's triples and anonymous-node count) their final labels. The
/// parser labels them `anon#N`, numbered from 0 in each chunk: `#`
/// cannot occur in a parsed label, so those never collide, but they are
/// not valid syntax either. The final label is `N` plus the anonymous
/// nodes of the earlier chunks, after a prefix that starts no label of
/// the document (`genid`, `genidx`, …), so the result serializes in any
/// RDF syntax and does not depend on the chunking.
pub(crate) fn name_anonymous(parts: &mut [(Vec<RawTriple<'_>>, usize)]) {
    if parts.iter().all(|(_, count)| *count == 0) {
        return;
    }
    let mut prefix = String::from("genid");
    let clashes = |prefix: &str, t: &TermRef| match t {
        TermRef::BlankNode(label) => !label.contains('#') && label.starts_with(prefix),
        _ => false,
    };
    while parts
        .iter()
        .flat_map(|(triples, _)| triples)
        .any(|(s, _, o)| clashes(&prefix, s) || clashes(&prefix, o))
    {
        prefix.push('x');
    }
    let mut offset = 0;
    for (triples, count) in parts.iter_mut() {
        for (s, _, o) in triples.iter_mut() {
            for t in [s, o] {
                let TermRef::BlankNode(label) = t else {
                    continue;
                };
                if let Some(n) = label
                    .strip_prefix("anon#")
                    .and_then(|n| n.parse::<usize>().ok())
                {
                    *label = Cow::Owned(format!("{prefix}{}", n + offset));
                }
            }
        }
        offset += *count;
    }
}

/// A typed literal with a fixed datatype.
fn typed<'a>(lexical: &'a str, datatype: &'static str) -> TermRef<'a> {
    TermRef::TypedLiteral {
        lexical: Cow::Borrowed(lexical),
        datatype: Cow::Borrowed(datatype),
    }
}

/// Whether `b` can start a prefixed name.
fn starts_prefixed_name(b: u8) -> bool {
    b == b':' || b.is_ascii_alphabetic() || b >= 0x80
}

/// The statement layer: a [`Cursor`] over one chunk plus the prefix
/// map, the triples parsed so far and the anonymous-node counter.
pub(crate) struct Turtle<'a> {
    pub(crate) c: Cursor<'a>,
    pub(crate) prefixes: HashMap<String, String>,
    out: Vec<RawTriple<'a>>,
    next_anon: usize,
}

impl<'a> Turtle<'a> {
    /// A parser over `chunk` of `input`, starting from the chunk's
    /// prefix map.
    pub(crate) fn new(input: &'a str, chunk: &TurtleChunk) -> Self {
        Self {
            c: Cursor::new(
                &input[..chunk.range.end],
                chunk.range.start,
                chunk.line,
                true,
            ),
            prefixes: chunk.prefixes.clone(),
            out: Vec::new(),
            next_anon: 0,
        }
    }

    /// Parses the chunk's statements under `policy` and returns the load
    /// report; [`Turtle::finish`] hands over the triples. `directives` is
    /// false for a parallel chunk: the splitter keeps directives out of
    /// those, so one there means the cut points disagree with the parser
    /// and the chunk fails.
    pub(crate) fn statements(
        &mut self,
        policy: OnParseError,
        directives: bool,
    ) -> Result<LoadReport, ParseError> {
        let mut report = LoadReport::default();
        loop {
            self.skip_trivia();
            if self.c.peek().is_none() {
                break;
            }
            self.c.sync_lines();
            let mark = self.out.len();
            let parsed = match self.directive_ahead() {
                true if !directives => Err(self.syntax("directive inside parallel chunk")),
                true => self.directive(),
                false => self.triples(),
            };
            let Err(e) = parsed else { continue };
            let OnParseError::Skip { max_errors } = policy else {
                return Err(e);
            };
            self.out.truncate(mark);
            // A closing bracket with no opener in the skipped text is
            // a defect of its own, counted against `max_errors`.
            let underflow = self.skip_statement();
            for e in std::iter::once(e).chain(underflow) {
                let fatal = report.skipped >= max_errors;
                report.note_skip(e.clone());
                if fatal {
                    return Err(e);
                }
            }
        }
        report.loaded = self.out.len();
        Ok(report)
    }

    /// Returns the chunk's triples and its anonymous-node count.
    pub(crate) fn finish(self) -> (Vec<RawTriple<'a>>, usize) {
        (self.out, self.next_anon)
    }

    fn syntax(&self, msg: impl Into<String>) -> ParseError {
        self.c.err(ParseErrorKind::Syntax(msg.into()))
    }

    /// Skips whitespace and comments.
    pub(crate) fn skip_trivia(&mut self) {
        loop {
            match self.c.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => self.c.pos += 1,
                Some(b'#') => {
                    self.c.run(|b| b == b'\n');
                }
                _ => return,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_trivia();
        if self.c.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.syntax(format!("expected {:?}", char::from(b))))
        }
    }

    /// Whether the keyword `kw` (any case) is at the cursor, not
    /// continued as a name.
    fn keyword_ahead(&self, kw: &str) -> bool {
        let rest = self.c.rest();
        rest.get(..kw.len())
            .is_some_and(|word| word.eq_ignore_ascii_case(kw.as_bytes()))
            && !rest
                .get(kw.len())
                .is_some_and(|&b| is_name_byte(b) || b == b':')
    }

    /// Whether a directive starts at the cursor.
    pub(crate) fn directive_ahead(&self) -> bool {
        self.c.peek() == Some(b'@') || self.keyword_ahead("prefix") || self.keyword_ahead("base")
    }

    /// Parses a `@prefix` / `PREFIX` directive into the prefix map.
    pub(crate) fn directive(&mut self) -> Result<(), ParseError> {
        let at_form = self.c.peek() == Some(b'@');
        self.c.pos += usize::from(at_form);
        let keyword = self.c.name(false);
        if keyword.eq_ignore_ascii_case("base") {
            return Err(
                self.syntax("@base / relative IRIs are outside the supported Turtle subset")
            );
        }
        if !keyword.eq_ignore_ascii_case("prefix") {
            return Err(self.syntax(format!("unknown directive @{keyword}")));
        }
        self.skip_trivia();
        let prefix = self.c.name(false);
        self.expect(b':')?;
        self.skip_trivia();
        if self.c.bump() != Some(b'<') {
            return Err(self.syntax("expected <iri> in prefix directive"));
        }
        let iri = self.c.iri_body()?;
        self.prefixes.insert(prefix.to_owned(), iri.into_owned());
        if at_form {
            self.expect(b'.')?;
        }
        Ok(())
    }

    /// A triples statement with its terminating `.`.
    fn triples(&mut self) -> Result<(), ParseError> {
        let subject = self.term(true)?;
        self.predicate_object_list(&subject)?;
        self.expect(b'.')
    }

    /// Parses a subject (no literals) or an object.
    fn term(&mut self, subject: bool) -> Result<TermRef<'a>, ParseError> {
        self.skip_trivia();
        let what = if subject { "subject" } else { "object" };
        if !subject {
            if let Some(kw) = ["true", "false"]
                .into_iter()
                .find(|kw| self.keyword_ahead(kw))
            {
                self.c.pos += kw.len();
                return Ok(typed(kw, XSD_BOOLEAN));
            }
        }
        match self.c.peek() {
            Some(b'<' | b'_') => self.c.term(what),
            Some(b'"' | b'\'' | b'+' | b'-' | b'0'..=b'9') if subject => {
                Err(self.c.err(ParseErrorKind::LiteralSubject))
            }
            Some(quote @ (b'"' | b'\'')) => self.literal(quote),
            Some(b'+' | b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                self.c.pos += 1;
                let node = TermRef::BlankNode(Cow::Owned(format!("anon#{}", self.next_anon)));
                self.next_anon += 1;
                self.skip_trivia();
                if self.c.peek() == Some(b']') {
                    self.c.pos += 1;
                } else {
                    self.predicate_object_list(&node)?;
                    self.expect(b']')?;
                }
                Ok(node)
            }
            Some(b'(') => {
                Err(self.syntax("RDF collections `( … )` are outside the supported Turtle subset"))
            }
            Some(b) if starts_prefixed_name(b) => Ok(TermRef::Iri(self.prefixed_name()?)),
            _ => Err(self.c.err(ParseErrorKind::ExpectedTerm(what))),
        }
    }

    fn verb(&mut self) -> Result<TermRef<'a>, ParseError> {
        self.skip_trivia();
        if self.keyword_ahead("a") {
            self.c.pos += 1;
            return Ok(TermRef::Iri(Cow::Borrowed(RDF_TYPE)));
        }
        match self.c.peek() {
            Some(b'<') => self.c.term("predicate"),
            Some(b) if starts_prefixed_name(b) => Ok(TermRef::Iri(self.prefixed_name()?)),
            _ => Err(self.c.err(ParseErrorKind::NonIriPredicate)),
        }
    }

    fn predicate_object_list(&mut self, subject: &TermRef<'a>) -> Result<(), ParseError> {
        loop {
            let p = self.verb()?;
            loop {
                let o = self.term(false)?;
                self.out.push((subject.clone(), p.clone(), o));
                self.skip_trivia();
                if self.c.peek() != Some(b',') {
                    break;
                }
                self.c.pos += 1;
            }
            if self.c.peek() != Some(b';') {
                return Ok(());
            }
            self.c.pos += 1;
            self.skip_trivia();
            // Tolerate a dangling `;` before `.`/`]`.
            if matches!(self.c.peek(), Some(b'.' | b']') | None) {
                return Ok(());
            }
        }
    }

    /// A quoted literal, short or long, with its tag or datatype.
    fn literal(&mut self, quote: u8) -> Result<TermRef<'a>, ParseError> {
        let long = self.c.peek_at(1) == Some(quote) && self.c.peek_at(2) == Some(quote);
        self.c.pos += if long { 3 } else { 1 };
        let lexical = self.c.string_body(quote, long)?;
        match self.c.peek() {
            Some(b'@') => {
                self.c.pos += 1;
                let lang = self.c.lang_tag()?;
                Ok(TermRef::LangLiteral { lexical, lang })
            }
            Some(b'^') => {
                self.c.pos += 1;
                if self.c.bump() != Some(b'^') {
                    return Err(self.syntax("expected ^^ before datatype"));
                }
                self.skip_trivia();
                let datatype = if self.c.peek() == Some(b'<') {
                    self.c.pos += 1;
                    self.c.iri_body()?
                } else {
                    self.prefixed_name()?
                };
                Ok(TermRef::TypedLiteral { lexical, datatype })
            }
            _ => Ok(TermRef::Literal(lexical)),
        }
    }

    fn number(&mut self) -> Result<TermRef<'a>, ParseError> {
        let start = self.c.pos;
        if matches!(self.c.peek(), Some(b'+' | b'-')) {
            self.c.pos += 1;
        }
        let (mut decimal, mut double) = (false, false);
        while let Some(b) = self.c.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' if !decimal && self.c.peek_at(1).is_some_and(|d| d.is_ascii_digit()) => {
                    decimal = true
                }
                b'e' | b'E' => {
                    double = true;
                    if matches!(self.c.peek_at(1), Some(b'+' | b'-')) {
                        self.c.pos += 1;
                    }
                }
                _ => break,
            }
            self.c.pos += 1;
        }
        let lexical = self.c.since(start);
        if lexical.ends_with(['+', '-']) {
            return Err(self.syntax("malformed numeric literal"));
        }
        let datatype = if double {
            XSD_DOUBLE
        } else if decimal {
            XSD_DECIMAL
        } else {
            XSD_INTEGER
        };
        Ok(typed(lexical, datatype))
    }

    /// Expands a prefixed name into an IRI that owns its bytes.
    fn prefixed_name(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let prefix = self.c.name(false);
        if self.c.bump() != Some(b':') {
            return Err(self.syntax(format!("expected ':' after prefix {prefix:?}")));
        }
        let local = self.c.name(true);
        match self.prefixes.get(prefix) {
            Some(ns) => Ok(Cow::Owned(format!("{ns}{local}"))),
            None => Err(self.syntax(format!("undeclared prefix `{prefix}:`"))),
        }
    }

    /// Skips to just past the next `.` that ends a statement: at bracket
    /// depth 0, outside strings, IRIs and comments, and with no name byte
    /// after its run of dots (such dots are inside a name or a number).
    /// Stops at the end of the input otherwise. The splitter finds its
    /// cut points with it, and lossy parsing its resynchronization point.
    ///
    /// Returns an error for the first `]` or `)` at depth 0. Such a
    /// bracket has no opener in the skipped text: lossy parsing reports
    /// it, and the splitter declines to cut a document whose statement
    /// boundaries it cannot trust.
    pub(crate) fn skip_statement(&mut self) -> Option<ParseError> {
        let mut depth = 0usize;
        let mut underflow = None;
        while let Some(b) = self.c.peek() {
            match b {
                b'#' => {
                    self.c.run(|b| b == b'\n');
                    continue;
                }
                b'"' | b'\'' => {
                    self.skip_string(b);
                    continue;
                }
                b'<' => {
                    self.c.pos += 1;
                    self.c.run(|b| b == b'>' || b <= b' ');
                    continue;
                }
                b'[' | b'(' => depth += 1,
                b']' | b')' if depth == 0 => {
                    underflow.get_or_insert_with(|| {
                        self.c.err(ParseErrorKind::UnbalancedBracket(char::from(b)))
                    });
                }
                b']' | b')' => depth -= 1,
                b'.' if depth == 0 => {
                    // Dots followed by a name byte are inside a name.
                    self.c.run(|b| b != b'.');
                    if !self.c.peek().is_some_and(is_name_byte) {
                        return underflow;
                    }
                    continue;
                }
                _ => {}
            }
            self.c.pos += 1;
        }
        underflow
    }

    /// Skips a string, opening quotes included, as the parser reads it:
    /// a short string ends at its quote or a line feed, a long one at
    /// three quotes, and escapes are stepped over.
    fn skip_string(&mut self, quote: u8) {
        let long = self.c.peek_at(1) == Some(quote) && self.c.peek_at(2) == Some(quote);
        self.c.pos += if long { 3 } else { 1 };
        while let Some(b) = self.c.bump() {
            match b {
                b'\\' => {
                    self.c.bump();
                }
                b'\n' if !long => return,
                b if b == quote && !long => return,
                b if b == quote
                    && self.c.peek() == Some(quote)
                    && self.c.peek_at(1) == Some(quote) =>
                {
                    self.c.pos += 2;
                    return;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_dict::Term;

    fn parse(src: &str) -> Vec<TermTriple> {
        parse_turtle_str(src).expect("valid turtle")
    }

    #[test]
    fn basic_statement() {
        let t = parse("<http://e/s> <http://e/p> <http://e/o> .");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].0, Term::iri("http://e/s"));
    }

    #[test]
    fn prefixes_and_a() {
        let t = parse(
            "@prefix ex: <http://e/> .\nPREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             ex:alice a foaf:Person .",
        );
        assert_eq!(
            t[0],
            (
                Term::iri("http://e/alice"),
                Term::iri(RDF_TYPE),
                Term::iri("http://xmlns.com/foaf/0.1/Person")
            )
        );
    }

    #[test]
    fn semicolons_and_commas() {
        let t = parse(
            "@prefix e: <http://e/> .\n\
             e:s e:p e:o1 , e:o2 ;\n    e:q e:o3 ;\n.",
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].0, t[1].0);
        assert_eq!(t[2].1, Term::iri("http://e/q"));
    }

    #[test]
    fn literal_forms() {
        let t = parse(
            r#"@prefix e: <http://e/> .
e:s e:str "plain" ;
    e:lang "bonjour"@fr ;
    e:typed "5"^^e:myType ;
    e:int 42 ;
    e:neg -7 ;
    e:dec 3.25 ;
    e:dbl 1.5e3 ;
    e:yes true ;
    e:no false ;
    e:sq 'single' ;
    e:long """line1
line2 "quoted" inside""" .
"#,
        );
        let objects: Vec<&Term> = t.iter().map(|(_, _, o)| o).collect();
        assert_eq!(objects[0], &Term::literal("plain"));
        assert_eq!(objects[1], &Term::lang_literal("bonjour", "fr"));
        assert_eq!(objects[2], &Term::typed_literal("5", "http://e/myType"));
        assert_eq!(objects[3], &Term::typed_literal("42", XSD_INTEGER));
        assert_eq!(objects[4], &Term::typed_literal("-7", XSD_INTEGER));
        assert_eq!(objects[5], &Term::typed_literal("3.25", XSD_DECIMAL));
        assert_eq!(objects[6], &Term::typed_literal("1.5e3", XSD_DOUBLE));
        assert_eq!(objects[7], &Term::typed_literal("true", XSD_BOOLEAN));
        assert_eq!(objects[8], &Term::typed_literal("false", XSD_BOOLEAN));
        assert_eq!(objects[9], &Term::literal("single"));
        assert_eq!(
            objects[10],
            &Term::literal("line1\nline2 \"quoted\" inside")
        );
    }

    #[test]
    fn blank_nodes_and_anonymous() {
        let t = parse(
            "@prefix e: <http://e/> .\n\
             _:b1 e:knows [ e:name \"anon\" ; e:age 3 ] .\n\
             [] e:p e:o .",
        );
        // Nested property lists emit before the containing triple:
        // X name anon, X age 3, _:b1 knows X, Y p o. Generated labels
        // are renamed to a plain `genid…` prefix after parsing.
        assert_eq!(t.len(), 4);
        let anon = &t[0].0;
        assert!(matches!(anon, Term::BlankNode(l) if l.starts_with("genid")));
        assert_eq!(&t[1].0, anon);
        assert_eq!(t[2].0, Term::blank("b1"));
        assert_eq!(&t[2].2, anon);
        assert!(matches!(&t[3].0, Term::BlankNode(l) if l.starts_with("genid")));
        assert_ne!(&t[3].0, anon);
    }

    #[test]
    fn generated_labels_avoid_document_labels() {
        // A document that already uses `genid…` labels pushes the
        // generated prefix further.
        let t = parse("@prefix e: <http://e/> .\n_:genid0 e:p [ e:q e:o ] .");
        assert_eq!(t[1].0, Term::blank("genid0"));
        let gen = &t[0].0;
        assert!(
            matches!(gen, Term::BlankNode(l) if l.starts_with("genidx")),
            "{gen:?}"
        );
    }

    #[test]
    fn comments_everywhere() {
        let t = parse("# header\n@prefix e: <http://e/> . # trailing\ne:s e:p # mid\n e:o .");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn errors_are_positioned_and_loud() {
        assert!(parse_turtle_str("@base <http://e/> .").is_err());
        assert!(parse_turtle_str("<http://e/s> <http://e/p> (1 2) .").is_err());
        assert!(parse_turtle_str("ex:undeclared <http://e/p> <http://e/o> .").is_err());
        assert!(parse_turtle_str("<http://e/s> <http://e/p> <http://e/o>").is_err()); // no dot
        assert!(parse_turtle_str("\"literal\" <http://e/p> <http://e/o> .").is_err());
        let e = parse_turtle_str("<http://e/s>\n  <http://e/p> @ .").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn lossy_recovery_reports_unbalanced_bracket() {
        // The malformed statement drags an orphan `]` along; recovery
        // must not silently clamp the depth and pretend the document
        // resynced cleanly — the underflow is its own reported skip.
        let src = "@prefix e: <http://e/> .\n\
                   e:s e:p @bogus ] .\n\
                   e:a e:b e:c .";
        let (t, report) = parse_turtle_str_lossy(src, crate::OnParseError::Skip { max_errors: 10 })
            .expect("lossy parse succeeds");
        assert_eq!(t.len(), 1, "the well-formed trailing statement survives");
        assert_eq!(report.skipped, 2, "statement error + bracket underflow");
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e.kind, ParseErrorKind::UnbalancedBracket(']'))),
            "underflow must be surfaced: {:?}",
            report.errors
        );
    }

    #[test]
    fn lossy_unbalanced_bracket_counts_against_max_errors() {
        // With a budget of one skip, the second defect (the underflow)
        // is fatal.
        let src = "e:s e:p @bogus ] .\n<http://e/a> <http://e/b> <http://e/c> .";
        let err = parse_turtle_str_lossy(src, crate::OnParseError::Skip { max_errors: 1 })
            .expect_err("underflow exhausts the error budget");
        assert!(
            matches!(err.kind, ParseErrorKind::UnbalancedBracket(']')),
            "{err:?}"
        );
    }

    #[test]
    fn lossy_balanced_recovery_reports_single_skip() {
        // Brackets opened inside the skipped region still cancel their
        // own closers — only true underflow is reported.
        let src = "@prefix e: <http://e/> .\n\
                   e:s e:p @bogus [ e:q e:r ] .\n\
                   e:a e:b e:c .";
        let (t, report) = parse_turtle_str_lossy(src, crate::OnParseError::Skip { max_errors: 10 })
            .expect("lossy parse succeeds");
        assert_eq!(t.len(), 1);
        assert_eq!(report.skipped, 1, "no underflow to report");
    }

    #[test]
    fn roundtrip_with_ntriples_writer() {
        // Everything Turtle parses, the N-Triples writer + parser must
        // round-trip.
        let triples = parse("@prefix e: <http://e/> .\n e:s e:p \"x\\ty\" , 42 , e:o ; a e:C .");
        let mut buf = Vec::new();
        crate::writer::write_ntriples(&mut buf, &triples).unwrap();
        let back = crate::parser::parse_ntriples_str(&String::from_utf8(buf).unwrap()).unwrap();
        assert_eq!(back, triples);
    }

    /// (line, column) of the first error in malformed documents, as the
    /// character-based Turtle parser before the shared scanner reported
    /// them. Multi-byte characters before an error count once, and lines
    /// inside a long string count.
    #[test]
    fn error_positions_are_unchanged() {
        let table: [(&str, usize, usize); 28] = [
            ("<http://e/s>\n  <http://e/p> @ .", 2, 16),
            ("<http://e/é> <http://e/p> @ .", 1, 27),
            (
                "@prefix e: <http://e/> .\ne:s e:p \"\"\"multi\nline é\nstring\"\"\" ; e:q @ .",
                4,
                17,
            ),
            (
                "@prefix e: <http://e/> .\ne:s e:p \"\"\"a\nb\"\"\" .\nzz:x e:p e:o .",
                4,
                5,
            ),
            ("ex:undeclared <http://e/p> <http://e/o> .", 1, 14),
            ("<http://e/s> <http://e/p> <http://e/o>", 1, 39),
            ("\"literal\" <http://e/p> <http://e/o> .", 1, 1),
            ("@base <http://e/> .", 1, 6),
            ("<http://e/s> <http://e/p> (1 2) .", 1, 27),
            ("<http://e/s> <http://e/p> \"é\" <http://e/o> .", 1, 32),
            ("<http://e/s> <http://e/p> \"bad \\q\" .", 1, 34),
            ("<http://e/s> <http://e/p> \"unterminated", 1, 40),
            ("<http://e/s> <http://e/p> <http://e/unclosed", 1, 45),
            ("@prefix e: <http://e/> .\ne:s e:p \"x\"^^ .", 2, 16),
            ("@prefix e: <http://e/> .\ne:s e:p \"x\"@ .", 2, 13),
            ("@prefix e: <http://e/> .\n_: e:p e:o .", 2, 3),
            ("@prefix e: <http://e/> .\ne:s e:p [ e:q e:r .", 2, 20),
            ("@prefix e: <http://e/> .\ne:s e:p \"\\uD800\" .", 2, 16),
            ("@prefix e <http://e/> .", 1, 12),
            ("@foo bar .", 1, 5),
            ("<http://e/s> \"lit\" <http://e/o> .", 1, 14),
            ("@prefix e: <http://e/> .\ne:s e:p \"😀😀\" , @ .", 2, 16),
            ("@prefix e: <http://e/> .\ne:s e:p 'x' ; e:q +.", 2, 20),
            ("@prefix e: <http://e/> .\n  e:s e:p e:o ; e:q é .", 2, 23),
            ("<http://e/s> <http://e/p> <http://e/a b> .", 1, 39),
            ("<http://e/s> <http://e/p> '''never closed\n\n", 3, 1),
            ("@prefix e: <http://e/> .\ne:s e:p e:o ; ; .", 2, 15),
            ("@prefix e: <http://e/> .\ne:s e:p e:o e:x .", 2, 14),
        ];
        for (doc, line, column) in table {
            let e = parse_turtle_str(doc).unwrap_err();
            assert_eq!((e.line, e.column), (line, column), "{doc:?}: {e}");
        }
    }

    /// Turtle and N-Triples scan terms with one scanner, so a term one
    /// rejects the other rejects too, and what Turtle accepts writes
    /// out as N-Triples that parses back.
    fn rejected_by_both(doc: &str) -> ParseErrorKind {
        assert!(crate::parser::parse_ntriples_str(doc).is_err(), "{doc:?}");
        parse_turtle_str(doc).unwrap_err().kind
    }

    #[test]
    fn quote_in_iri_is_rejected() {
        let kind = rejected_by_both("<http://e/a\"b> <http://e/p> <http://e/o> .");
        assert_eq!(kind, ParseErrorKind::BadIriChar('"'));
    }

    #[test]
    fn braces_in_iri_are_rejected() {
        let kind = rejected_by_both("<http://e/a{b}> <http://e/p> <http://e/o> .");
        assert_eq!(kind, ParseErrorKind::BadIriChar('{'));
    }

    #[test]
    fn underscore_ends_a_language_tag() {
        rejected_by_both("<http://e/s> <http://e/p> \"x\"@en_US .");
    }

    #[test]
    fn blank_label_may_hold_consecutive_dots() {
        let doc = "_:a..b <http://e/p> _:c.d .";
        let t = parse(doc);
        assert_eq!(t, crate::parser::parse_ntriples_str(doc).unwrap());
        assert_eq!(
            (&t[0].0, &t[0].2),
            (&Term::blank("a..b"), &Term::blank("c.d"))
        );
    }

    #[test]
    fn unicode_whitespace_is_not_a_separator() {
        for space in ['\u{A0}', '\u{2003}', '\u{3000}'] {
            rejected_by_both(&format!("<http://e/s>{space}<http://e/p> <http://e/o> ."));
            let doc = format!("<http://e/s> <http://e/p>{space}<http://e/o> .");
            assert!(parse_turtle_str(&doc).is_err(), "{doc:?}");
        }
        // The W3C set still separates: space, tab, CR, LF.
        assert_eq!(
            parse("<http://e/s>\t<http://e/p>\r\n<http://e/o> .").len(),
            1
        );
    }

    #[test]
    fn syntax_errors_are_not_escape_errors() {
        let kind = |doc: &str| parse_turtle_str(doc).unwrap_err().kind;
        let syntax = |doc: &str| match kind(doc) {
            ParseErrorKind::Syntax(msg) => msg,
            other => panic!("{doc:?}: {other:?}"),
        };
        let expected_dot = syntax("<http://e/s> <http://e/p> \"é\" <http://e/o> .");
        assert_eq!(expected_dot, "expected '.'");
        assert!(syntax("ex:s <http://e/p> <http://e/o> .").contains("undeclared prefix `ex:`"));
        assert!(syntax("@base <http://e/> .").contains("@base"));
        let literal_subject = kind("\"s\" <http://e/p> <http://e/o> .");
        assert_eq!(literal_subject, ParseErrorKind::LiteralSubject);
        let no_object = kind("<http://e/s> <http://e/p> @ .");
        assert_eq!(no_object, ParseErrorKind::ExpectedTerm("object"));
        // A malformed escape still is one.
        assert!(matches!(
            kind("<http://e/s> <http://e/p> \"\\q\" ."),
            ParseErrorKind::BadEscape(_)
        ));
    }

    #[test]
    fn escape_free_terms_borrow_from_the_document() {
        let doc = "@prefix e: <http://e/> .\n<http://e/s> e:p \"x\"@en , '''long\nstring''' , 4.5 , _:b .";
        let (triples, _) = parse_turtle_document(doc, OnParseError::Abort).unwrap();
        let span = doc.as_bytes().as_ptr_range();
        for (s, p, o) in &triples {
            assert!(matches!(s, TermRef::Iri(Cow::Borrowed(i)) if span.contains(&i.as_ptr())));
            // Prefix expansion is the one part that owns its bytes.
            assert!(matches!(p, TermRef::Iri(Cow::Owned(i)) if i == "http://e/p"));
            let lexical = match o {
                TermRef::BlankNode(l) => l,
                TermRef::LangLiteral { lexical, .. }
                | TermRef::Literal(lexical)
                | TermRef::TypedLiteral { lexical, .. } => lexical,
                TermRef::Iri(_) => panic!("{o:?}"),
            };
            let borrowed = matches!(lexical, Cow::Borrowed(l) if span.contains(&l.as_ptr()));
            assert!(borrowed, "{o:?}");
        }
        assert_eq!(triples.len(), 4);
    }
}
