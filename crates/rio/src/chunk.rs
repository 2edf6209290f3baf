//! Statement-boundary chunking for the parallel bulk loader.
//!
//! Parsing dominates load time, so the loader cuts the input into
//! chunks that N workers parse independently. The cut points must fall
//! on *statement* boundaries or the workers would see torn statements:
//!
//! * **N-Triples** is line-oriented — any line boundary is a statement
//!   boundary, so [`split_ntriples`] just picks line breaks near even
//!   byte offsets and records the 1-based first line of each chunk so
//!   per-chunk error positions stay document-exact.
//! * **Turtle** needs a real scan: [`split_turtle`] runs a lightweight
//!   boundary scanner (a byte-level twin of the parser's resync
//!   scanner) that tracks strings, long strings, IRIs, comments and
//!   bracket depth, and cuts after a `.` at depth 0. A dot followed by
//!   a name-continuation byte is *not* a terminator — exactly the
//!   parser's `name`/`number` rule, so `3.25` and dotted local names
//!   never produce false boundaries. `@prefix`/`PREFIX` directives are
//!   parsed by the scanner itself (they mutate document-global state)
//!   and each chunk carries a snapshot of the prefix map in force at
//!   its start.
//!
//! The scanner is deliberately fallible: anything it cannot split with
//! confidence returns `None`, and a chunk that fails to parse makes
//! the loader fall back to the serial parser — which is the single
//! source of truth for error positions and lossy-recovery semantics.
//! Chunk boundaries therefore never change *what* is loaded, only how
//! much of the work runs in parallel.

use std::collections::HashMap;
use std::ops::Range;

use crate::error::ParseError;
use crate::parser::{RawTriple, TermTriple};

/// One chunk of an N-Triples document: a byte range that starts and
/// ends on line boundaries.
#[derive(Debug, Clone)]
pub struct NtChunk {
    /// Byte range of the chunk within the input.
    pub range: Range<usize>,
    /// 1-based document line number of the chunk's first line.
    pub first_line: usize,
}

/// Cuts `input` into roughly `target_chunks` chunks at line
/// boundaries. Chunk boundaries never affect parse results — lines are
/// independent — so the count only steers parallelism granularity.
pub fn split_ntriples(input: &str, target_chunks: usize) -> Vec<NtChunk> {
    let bytes = input.as_bytes();
    let target = (bytes.len() / target_chunks.max(1)).max(1);
    let mut chunks = Vec::new();
    let (mut start, mut first_line) = (0usize, 1usize);
    while start < bytes.len() {
        // Jump a chunk's worth of bytes ahead, then run on to the end
        // of the line that lands in.
        let probe = start + target - 1;
        let end = bytes
            .get(probe..)
            .and_then(|rest| rest.iter().position(|&b| b == b'\n'))
            .map_or(bytes.len(), |off| probe + off + 1);
        chunks.push(NtChunk {
            range: start..end,
            first_line,
        });
        first_line += count_newlines(&bytes[start..end]);
        start = end;
    }
    chunks
}

/// Counts the `\n` bytes of `bytes`. Summing each 255-byte block into a
/// `u8` lets the compiler vectorize the loop; `filter(..).count()`
/// widens every byte to a `usize` and runs eight times slower.
fn count_newlines(bytes: &[u8]) -> usize {
    bytes
        .chunks(255)
        .map(|block| block.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>() as usize)
        .sum()
}

/// What [`parse_ntriples_chunk`] found in one chunk: the good
/// statements as triples borrowing from the input, and the malformed
/// ones as positioned errors. Iterating the chunk by value replays its
/// statement lines in document order as `Result<RawTriple, ParseError>`.
#[derive(Debug, Default)]
pub struct ParsedChunk<'a> {
    /// The well-formed statements, in document order.
    pub triples: Vec<RawTriple<'a>>,
    /// Each malformed statement's error, with the number of this
    /// chunk's good statements that precede it.
    pub errors: Vec<(usize, ParseError)>,
}

impl ParsedChunk<'_> {
    /// The chunk's statement lines in document order with the triples
    /// left out: `Ok(())` per good statement, `Err` per malformed one.
    /// Enough to run the error policy without touching the data.
    pub fn outcomes(&self) -> impl Iterator<Item = Result<(), ParseError>> + '_ {
        let good = std::iter::repeat_n((), self.triples.len());
        interleave(good, self.errors.iter().cloned())
    }
}

impl<'a> IntoIterator for ParsedChunk<'a> {
    type Item = Result<RawTriple<'a>, ParseError>;
    type IntoIter =
        Interleave<std::vec::IntoIter<RawTriple<'a>>, std::vec::IntoIter<(usize, ParseError)>>;

    fn into_iter(self) -> Self::IntoIter {
        interleave(self.triples.into_iter(), self.errors.into_iter())
    }
}

/// Merges good items and `(good items before it, error)` pairs back
/// into document order. (A named type rather than a boxed closure: the
/// per-item indirect call is measurable when 90 000 triples replay.)
pub struct Interleave<G, E> {
    good: G,
    errors: E,
    /// The next error and how many good items come before it.
    pending: Option<(usize, ParseError)>,
    emitted: usize,
}

fn interleave<G, E: Iterator<Item = (usize, ParseError)>>(
    good: G,
    mut errors: E,
) -> Interleave<G, E> {
    Interleave {
        good,
        pending: errors.next(),
        errors,
        emitted: 0,
    }
}

impl<G: Iterator, E: Iterator<Item = (usize, ParseError)>> Iterator for Interleave<G, E> {
    type Item = Result<G::Item, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if matches!(self.pending, Some((before, _)) if before == self.emitted) {
            let due = std::mem::replace(&mut self.pending, self.errors.next());
            return due.map(|(_, e)| Err(e));
        }
        self.emitted += 1;
        self.good.next().map(Ok)
    }
}

/// The shortest statement line the scanner accepts.
const SHORTEST_STATEMENT: &str = "<><><>.\n";

/// Scans one N-Triples chunk (blank and comment lines are dropped).
/// Error positions carry document-global line numbers. Replaying all
/// chunks in order is exactly the serial parse of the document.
pub fn parse_ntriples_chunk<'a>(input: &'a str, chunk: &NtChunk) -> ParsedChunk<'a> {
    let text = &input[chunk.range.clone()];
    let mut out = ParsedChunk::default();
    // One allocation instead of a doubling series: a chunk holds at
    // most a statement per line, and no more than its bytes can spell.
    let lines = count_newlines(text.as_bytes()) + 1;
    out.triples
        .reserve(lines.min(text.len() / SHORTEST_STATEMENT.len()));
    for (i, line) in text.lines().enumerate() {
        match crate::parser::scan_line(line, chunk.first_line + i) {
            Ok(Some(t)) => out.triples.push(t),
            Ok(None) => {}
            Err(e) => out.errors.push((out.triples.len(), e)),
        }
    }
    out
}

/// One chunk of a Turtle document: a run of whole triples statements
/// (never directives) plus the document state needed to parse it in
/// isolation.
#[derive(Debug, Clone)]
pub struct TurtleChunk {
    range: Range<usize>,
    line: usize,
    col: usize,
    prefixes: HashMap<String, String>,
}

impl TurtleChunk {
    /// Byte range of the chunk within the input.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }
}

/// Scans `input` and cuts it into roughly `target_chunks` chunks at
/// top-level statement terminators, parsing `@prefix`/`PREFIX`
/// directives along the way (each chunk snapshots the prefix map in
/// force at its start). Returns `None` when the document cannot be
/// split with confidence (malformed directive, unsupported syntax) —
/// the caller should parse serially instead.
pub fn split_turtle(input: &str, target_chunks: usize) -> Option<Vec<TurtleChunk>> {
    let target = (input.len() / target_chunks.max(1)).max(1);
    let mut sc = Scanner::new(input);
    let mut prefixes: HashMap<String, String> = HashMap::new();
    let mut chunks = Vec::new();
    let mut cur: Option<(usize, usize, usize)> = None;
    loop {
        sc.skip_trivia();
        let Some(b) = sc.peek() else { break };
        if b == b'@' || sc.keyword_ahead("prefix") || sc.keyword_ahead("base") {
            if let Some((start, line, col)) = cur.take() {
                chunks.push(TurtleChunk {
                    range: start..sc.pos,
                    line,
                    col,
                    prefixes: prefixes.clone(),
                });
            }
            sc.directive(&mut prefixes)?;
        } else {
            let (start, _, _) = *cur.get_or_insert((sc.pos, sc.line, sc.col));
            sc.skip_statement()?;
            if sc.pos - start >= target {
                let (start, line, col) = cur.take().expect("open chunk");
                chunks.push(TurtleChunk {
                    range: start..sc.pos,
                    line,
                    col,
                    prefixes: prefixes.clone(),
                });
            }
        }
    }
    if let Some((start, line, col)) = cur.take() {
        chunks.push(TurtleChunk {
            range: start..input.len(),
            line,
            col,
            prefixes,
        });
    }
    Some(chunks)
}

/// Strictly parses one Turtle chunk. Returns the chunk's triples (with
/// chunk-local `anon#N` blank labels) and its anonymous-node count;
/// feed all chunks to [`finish_turtle_chunks`] to restore the
/// document-global labels. Error positions are document-global. Any
/// error means the caller should fall back to the serial parser.
pub fn parse_turtle_chunk(
    input: &str,
    chunk: &TurtleChunk,
) -> Result<(Vec<TermTriple>, usize), ParseError> {
    crate::turtle::parse_chunk_raw(
        &input[chunk.range.clone()],
        chunk.prefixes.clone(),
        chunk.line,
        chunk.col,
    )
}

/// Merges per-chunk parse results: renumbers chunk-local anonymous
/// blank nodes into one document-global sequence (prefix sums over the
/// per-chunk counts, reproducing the serial parser's numbering) and
/// applies the same collision-avoiding rename as the serial parser.
/// The chunk structure is preserved so downstream encoding can stay
/// parallel; concatenating the returned chunks equals the serial parse.
pub fn finish_turtle_chunks(parts: Vec<(Vec<TermTriple>, usize)>) -> Vec<Vec<TermTriple>> {
    use parj_dict::Term;
    let mut chunks: Vec<Vec<TermTriple>> = Vec::with_capacity(parts.len());
    let mut offset = 0usize;
    for (mut triples, anon_count) in parts {
        if offset > 0 && anon_count > 0 {
            let renumber = |t: &mut Term| {
                if let Term::BlankNode(label) = t {
                    if let Some(n) = label.strip_prefix("anon#") {
                        if let Ok(k) = n.parse::<usize>() {
                            *label = format!("anon#{}", k + offset);
                        }
                    }
                }
            };
            for (s, _, o) in &mut triples {
                renumber(s);
                renumber(o);
            }
        }
        offset += anon_count;
        chunks.push(triples);
    }
    crate::turtle::rename_anonymous_slices(&mut chunks);
    chunks
}

/// Byte-level boundary scanner: tracks position, 1-based line and
/// char-based column (matching the parser's error positions) while
/// skipping over the token classes that can contain `.` bytes.
struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            // Count characters, not UTF-8 continuation bytes.
            self.col += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn keyword_ahead(&self, kw: &str) -> bool {
        let mut i = self.pos;
        for k in kw.bytes() {
            match self.bytes.get(i) {
                Some(&b) if b.eq_ignore_ascii_case(&k) => i += 1,
                _ => return false,
            }
        }
        // Must not continue as a name (non-ASCII treated as continuing).
        !matches!(self.bytes.get(i),
            Some(&b) if b.is_ascii_alphanumeric() || b == b'_' || b == b':' || b >= 0x80)
    }

    /// A name token (prefix label in a directive): ASCII alnum, `_`,
    /// `-`, plus any non-ASCII character.
    fn name(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b >= 0x80 {
                self.bump();
            } else {
                break;
            }
        }
        &self.text[start..self.pos]
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        self.skip_trivia();
        (self.bump() == Some(b)).then_some(())
    }

    fn hex_code(&mut self, n: usize) -> Option<u32> {
        let mut code = 0u32;
        for _ in 0..n {
            let d = (self.bump()? as char).to_digit(16)?;
            code = code * 16 + d;
        }
        Some(code)
    }

    /// Mirrors the serial parser's surrogate handling: `\uXXXX` pairs
    /// combine, unpaired/inverted surrogates return `None` so the chunk
    /// is re-parsed serially and gets the canonical line-anchored error
    /// (this path must never silently produce a corrupt term).
    fn unicode_escape(&mut self, kind: u8) -> Option<char> {
        let n = if kind == b'u' { 4 } else { 8 };
        let code = self.hex_code(n)?;
        if kind == b'u' && (0xD800..=0xDBFF).contains(&code) {
            if self.bump()? != b'\\' || self.bump()? != b'u' {
                return None;
            }
            let low = self.hex_code(4)?;
            if !(0xDC00..=0xDFFF).contains(&low) {
                return None;
            }
            return char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00));
        }
        char::from_u32(code)
    }

    /// An IRI body after `<`, decoding `\u`/`\U` escapes like the
    /// parser does.
    fn iri_ref(&mut self) -> Option<String> {
        let mut buf: Vec<u8> = Vec::new();
        loop {
            match self.bump() {
                None => return None,
                Some(b'>') => return String::from_utf8(buf).ok(),
                Some(b) if b.is_ascii_whitespace() => return None,
                Some(b'\\') => match self.bump() {
                    Some(k @ (b'u' | b'U')) => {
                        let c = self.unicode_escape(k)?;
                        buf.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                    }
                    _ => return None,
                },
                Some(b) => buf.push(b),
            }
        }
    }

    /// Parses one `@prefix`/`PREFIX` directive into `prefixes`;
    /// `@base` and anything unexpected return `None` so the serial
    /// parser can produce the canonical error.
    fn directive(&mut self, prefixes: &mut HashMap<String, String>) -> Option<()> {
        let at_form = self.peek() == Some(b'@');
        if at_form {
            self.bump();
        }
        if !self.name().eq_ignore_ascii_case("prefix") {
            return None;
        }
        self.skip_trivia();
        let prefix = self.name().to_string();
        self.expect(b':')?;
        self.skip_trivia();
        if self.bump() != Some(b'<') {
            return None;
        }
        let iri = self.iri_ref()?;
        prefixes.insert(prefix, iri);
        if at_form {
            self.expect(b'.')?;
        }
        Some(())
    }

    /// Skips one triples statement: up to and including the
    /// terminating `.` at bracket depth 0 outside strings, IRIs and
    /// comments. A dot followed by a name-continuation byte is part of
    /// a prefixed name or numeric literal, never a terminator — the
    /// same rule the parser's `name(allow_dot)`/`number` productions
    /// apply. Stops silently at end of input (the chunk parser then
    /// reports the missing terminator).
    ///
    /// Returns `None` on a closing `]`/`)` at bracket depth 0: an
    /// unbalanced bracket means the scanner's notion of "statement
    /// boundary" can no longer be trusted — silently clamping the depth
    /// (the old behavior) could resync at a `.` *inside* what the real
    /// parser treats as one statement, splitting a chunk mid-statement.
    /// The caller declines to split and the document is parsed
    /// serially, where the parser reports the malformed statement
    /// properly.
    fn skip_statement(&mut self) -> Option<()> {
        let mut depth = 0usize;
        while let Some(b) = self.peek() {
            match b {
                b'#' => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                b'"' | b'\'' => self.skip_string(b),
                b'<' => self.skip_iri(),
                b'[' | b'(' => {
                    depth += 1;
                    self.bump();
                }
                b']' | b')' => {
                    depth = depth.checked_sub(1)?;
                    self.bump();
                }
                b'.' if depth == 0 => {
                    self.bump();
                    let name_continues = matches!(self.peek(),
                        Some(n) if n.is_ascii_alphanumeric() || n == b'_' || n >= 0x80);
                    if !name_continues {
                        return Some(());
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
        Some(())
    }

    /// Skips `<…>`; stops (without consuming) at whitespace, which the
    /// parser rejects inside IRIs.
    fn skip_iri(&mut self) {
        self.bump();
        while let Some(b) = self.peek() {
            match b {
                b'>' => {
                    self.bump();
                    return;
                }
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b if b.is_ascii_whitespace() => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Skips a string literal with the *parser's* tokenization (short
    /// strings run past raw newlines until the closing quote, matching
    /// `string_body`), so boundaries on parseable documents are exact.
    fn skip_string(&mut self, quote: u8) {
        self.bump();
        if self.peek() == Some(quote) {
            if self.peek_at(1) == Some(quote) {
                // Long string: ends at three closing quotes.
                self.bump();
                self.bump();
                while let Some(b) = self.bump() {
                    if b == b'\\' {
                        self.bump();
                    } else if b == quote
                        && self.peek() == Some(quote)
                        && self.peek_at(1) == Some(quote)
                    {
                        self.bump();
                        self.bump();
                        return;
                    }
                }
                return;
            }
            self.bump(); // empty short string
            return;
        }
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b if b == quote => return,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ntriples_str;
    use crate::turtle::parse_turtle_str;

    const NT: &str = "<http://e/a> <http://e/p> <http://e/b> .\n\
                      # a comment line\n\
                      \n\
                      <http://e/c> <http://e/p> \"lit . with dot\" .\n\
                      <http://e/d> <http://e/p> <http://e/e> . # trailing\n\
                      <http://e/f> <http://e/p> \"x\"@en .\n";

    /// Replays `doc` cut into `n` chunks as owned per-line results.
    fn chunked_ntriples(doc: &str, n: usize) -> Vec<Result<TermTriple, ParseError>> {
        let chunks = split_ntriples(doc, n);
        assert_eq!(
            chunks.iter().map(|c| c.range.len()).sum::<usize>(),
            doc.len(),
            "chunks must partition the input"
        );
        for pair in chunks.windows(2) {
            assert_eq!(pair[0].range.end, pair[1].range.start);
            assert!(
                doc[pair[0].range.clone()].ends_with('\n'),
                "cut off a line boundary"
            );
        }
        chunks
            .iter()
            .flat_map(|c| parse_ntriples_chunk(doc, c))
            .map(|r| r.map(|(s, p, o)| (s.to_term(), p.to_term(), o.to_term())))
            .collect()
    }

    /// The serial reference: one result per statement line.
    fn serial_ntriples(doc: &str) -> Vec<Result<TermTriple, ParseError>> {
        crate::NTriplesParser::new(doc.as_bytes()).collect()
    }

    #[test]
    fn ntriples_chunks_reassemble_to_serial_parse() {
        let serial = parse_ntriples_str(NT).unwrap();
        for n in [1, 2, 3, 5, 100] {
            let got: Vec<_> = chunked_ntriples(NT, n)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(got, serial, "{n} chunks");
        }
    }

    #[test]
    fn ntriples_split_edge_cases() {
        let bad = "garbage\n";
        let no_trailing_newline = format!("{NT}{bad}<http://e/z> <http://e/p> <http://e/y> .");
        let crlf = no_trailing_newline.replace('\n', "\r\n");
        for doc in [
            no_trailing_newline.as_str(),
            crlf.as_str(),
            "",
            "\n",
            "\n\n# only\n",
        ] {
            let serial = serial_ntriples(doc);
            // Chunk targets from "one chunk" to far more than there are lines.
            for n in [0, 1, 2, 3, 4, 7, 8, 9, 1000] {
                assert_eq!(chunked_ntriples(doc, n), serial, "{n} chunks of {doc:?}");
            }
        }
        assert!(split_ntriples("", 4).is_empty());
        // One statement per chunk once the target exceeds the line count.
        assert_eq!(split_ntriples("a\nb\nc", 50).len(), 3);
        let lines: Vec<usize> = split_ntriples("a\r\nb\r\n\r\nc\r\n", 50)
            .iter()
            .map(|c| c.first_line)
            .collect();
        assert_eq!(lines, vec![1, 2, 3, 4]);
    }

    #[test]
    fn parsed_chunk_outcomes_mirror_its_items() {
        let doc = "bad\n<http://e/a> <http://e/p> <http://e/b> .\nbad\nbad\n\
                   <http://e/c> <http://e/p> <http://e/d> .\n# c\nbad\n";
        let chunk = parse_ntriples_chunk(doc, &split_ntriples(doc, 1)[0]);
        assert_eq!(chunk.triples.len(), 2);
        let before: Vec<usize> = chunk.errors.iter().map(|(n, _)| *n).collect();
        assert_eq!(before, vec![0, 1, 1, 2]);
        let outcomes: Vec<_> = chunk.outcomes().collect();
        let items: Vec<_> = chunk.into_iter().map(|r| r.map(|_| ())).collect();
        assert_eq!(outcomes, items);
        let lines: Vec<_> = items
            .iter()
            .map(|r| r.as_ref().err().map(|e| e.line))
            .collect();
        assert_eq!(lines, vec![Some(1), None, Some(3), Some(4), None, Some(7)]);
    }

    #[test]
    fn ntriples_chunk_errors_keep_document_lines() {
        let doc = "<http://e/a> <http://e/p> <http://e/b> .\n\
                   garbage here\n\
                   <http://e/c> <http://e/p> <http://e/d> .\n\
                   also garbage\n";
        let chunks = split_ntriples(doc, 4);
        let errors: Vec<usize> = chunks
            .iter()
            .flat_map(|c| parse_ntriples_chunk(doc, c))
            .filter_map(|r| r.err().map(|e| e.line))
            .collect();
        assert_eq!(errors, vec![2, 4]);
    }

    const TTL: &str = "@prefix e: <http://e/> . # header\n\
        e:s e:p e:o1 , e:o2 ;\n   e:q 3.25 , 1.5e3 .\n\
        e:a.b e:p \"string with . dots\" .\n\
        _:b1 e:knows [ e:name 'anon . one' ; e:age 3 ] .\n\
        PREFIX f: <http://f/>\n\
        f:x a f:C ; e:p \"\"\"long\n. with . dots\n\"\"\" .\n\
        [] f:p f:o .\n\
        f:y f:p <http://e/i.r.i> .\n";

    fn chunked_turtle(doc: &str, n: usize) -> Vec<TermTriple> {
        let chunks = split_turtle(doc, n).expect("splittable");
        let parts: Vec<(Vec<TermTriple>, usize)> = chunks
            .iter()
            .map(|c| parse_turtle_chunk(doc, c).expect("chunk parses"))
            .collect();
        finish_turtle_chunks(parts).into_iter().flatten().collect()
    }

    #[test]
    fn turtle_chunks_reassemble_to_serial_parse() {
        let serial = parse_turtle_str(TTL).unwrap();
        for n in [1, 2, 3, 7, 100] {
            assert_eq!(chunked_turtle(TTL, n), serial, "{n} chunks");
        }
    }

    #[test]
    fn turtle_anonymous_numbering_is_global() {
        // Anonymous nodes in separate chunks must not collide and must
        // match the serial parser's numbering even at max chunking.
        let doc = "@prefix e: <http://e/> .\n\
                   [] e:p e:a .\n[] e:p e:b .\n[] e:p e:c .\n\
                   _:genid0 e:p [ e:q e:r ] .\n";
        let serial = parse_turtle_str(doc).unwrap();
        assert_eq!(chunked_turtle(doc, 100), serial);
    }

    #[test]
    fn turtle_prefix_redefinition_respects_chunk_snapshots() {
        let doc = "@prefix e: <http://one/> .\ne:x e:p e:y .\n\
                   @prefix e: <http://two/> .\ne:x e:p e:y .\n";
        let serial = parse_turtle_str(doc).unwrap();
        for n in [1, 2, 100] {
            assert_eq!(chunked_turtle(doc, n), serial, "{n} chunks");
        }
        assert_ne!(serial[0], serial[1]);
    }

    #[test]
    fn turtle_splitter_declines_unsupported_directives() {
        assert!(split_turtle("@base <http://e/> .\n", 2).is_none());
        assert!(split_turtle("@prefix e <oops> .\n", 2).is_none());
    }

    #[test]
    fn turtle_splitter_declines_unbalanced_close_bracket() {
        // A closing bracket with no opener means the scanner's
        // statement boundaries cannot be trusted: the splitter must
        // decline (serial fallback) instead of resyncing at a `.` the
        // real parser would treat as mid-statement.
        assert!(split_turtle("<http://e/s> <http://e/p> <http://e/o> ] .\n", 2).is_none());
        assert!(split_turtle("<http://e/s> <http://e/p> (1 2)) .\n", 2).is_none());
        // Balanced brackets still split fine.
        let ok = "@prefix e: <http://e/> .\ne:s e:p [ e:q e:r ] .\n";
        assert!(split_turtle(ok, 2).is_some());
    }

    #[test]
    fn turtle_malformed_chunk_reports_parse_error() {
        // The splitter happily cuts this, but the chunk parser must
        // fail (undeclared prefix) so the loader can fall back.
        let doc = "u:x u:p u:o .\n";
        let chunks = split_turtle(doc, 1).unwrap();
        assert!(chunks.iter().any(|c| parse_turtle_chunk(doc, c).is_err()));
    }
}
