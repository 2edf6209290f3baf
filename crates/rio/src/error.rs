//! Parse errors with precise source positions.

use std::fmt;

/// What went wrong while parsing an N-Triples or Turtle statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Expected a term (IRI, blank node, or literal) but found something
    /// else or end of line.
    ExpectedTerm(&'static str),
    /// An IRI reference was not closed with `>`.
    UnclosedIri,
    /// A string literal was not closed with `"`.
    UnclosedLiteral,
    /// An escape sequence was malformed.
    BadEscape(String),
    /// A Turtle statement broke the grammar outside any single term
    /// (a missing `.` or `]`, an undeclared prefix, a bad directive).
    Syntax(String),
    /// A blank node label was empty or malformed.
    BadBlankNode,
    /// A language tag was empty or malformed.
    BadLanguageTag,
    /// The line did not end with `.` (optionally followed by a comment).
    MissingDot,
    /// A literal appeared in subject position (forbidden by RDF).
    LiteralSubject,
    /// The predicate was not an IRI.
    NonIriPredicate,
    /// Trailing garbage after the terminating dot.
    TrailingGarbage,
    /// Disallowed raw character inside an IRI (space, `<`, `>`, `"`, controls).
    BadIriChar(char),
    /// A closing `]` or `)` with no matching opener. Surfaced during
    /// lossy resynchronization: clamping the depth silently would let
    /// the parser resync at a statement boundary the strict grammar
    /// would never reach.
    UnbalancedBracket(char),
    /// I/O error text while reading the underlying stream.
    Io(String),
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::ExpectedTerm(what) => write!(f, "expected {what}"),
            ParseErrorKind::UnclosedIri => write!(f, "IRI reference not closed with '>'"),
            ParseErrorKind::UnclosedLiteral => write!(f, "string literal not closed with '\"'"),
            ParseErrorKind::BadEscape(e) => write!(f, "malformed escape sequence: {e}"),
            ParseErrorKind::Syntax(e) => write!(f, "{e}"),
            ParseErrorKind::BadBlankNode => write!(f, "malformed blank node label"),
            ParseErrorKind::BadLanguageTag => write!(f, "malformed language tag"),
            ParseErrorKind::MissingDot => write!(f, "statement not terminated with '.'"),
            ParseErrorKind::LiteralSubject => write!(f, "literal not allowed in subject position"),
            ParseErrorKind::NonIriPredicate => write!(f, "predicate must be an IRI"),
            ParseErrorKind::TrailingGarbage => write!(f, "unexpected content after '.'"),
            ParseErrorKind::BadIriChar(c) => write!(f, "character {c:?} not allowed in IRI"),
            ParseErrorKind::UnbalancedBracket(c) => {
                write!(f, "closing {c:?} has no matching opener")
            }
            ParseErrorKind::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

/// A parse error annotated with its position in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column within the line: counted in bytes for N-Triples
    /// and in characters for Turtle.
    pub column: usize,
    /// The specific failure.
    pub kind: ParseErrorKind,
}

impl ParseError {
    pub(crate) fn new(line: usize, column: usize, kind: ParseErrorKind) -> Self {
        Self { line, column, kind }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.column, self.kind
        )
    }
}

impl std::error::Error for ParseError {}
