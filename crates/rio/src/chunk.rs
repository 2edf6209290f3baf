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
//! * **Turtle** needs a real scan: [`split_turtle`] runs the Turtle
//!   statement layer over the document, parsing `@prefix`/`PREFIX`
//!   directives (they change document-global state) and skipping
//!   triples statements with the same skip that lossy parsing
//!   resynchronizes with: it steps over strings, IRIs, comments and
//!   brackets and cuts after a `.` at depth 0 whose run of dots no name
//!   byte follows, so `3.25` and dotted names never produce false
//!   boundaries.
//!   Each chunk carries the prefix map in force at its start.
//!
//! The splitter is deliberately fallible: anything it cannot split with
//! confidence returns `None`, and a chunk that fails to parse makes the
//! loader parse the document as one chunk instead
//! ([`crate::parse_turtle_document`]), which is the single source of
//! error positions and lossy recovery. Chunk boundaries therefore never
//! change *what* is loaded, only how much of the work runs in parallel.

use std::collections::HashMap;
use std::ops::Range;

use crate::error::ParseError;
use crate::load::OnParseError;
use crate::parser::RawTriple;
use crate::turtle::{name_anonymous, Turtle};

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
pub(crate) fn count_newlines(bytes: &[u8]) -> usize {
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
    pub(crate) range: Range<usize>,
    /// 1-based document line the chunk starts on.
    pub(crate) line: usize,
    /// The prefix map in force at the chunk start.
    pub(crate) prefixes: HashMap<String, String>,
}

impl TurtleChunk {
    /// Byte range of the chunk within the input.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// The whole of `input`, before any directive.
    pub(crate) fn document(input: &str) -> Self {
        Self {
            range: 0..input.len(),
            line: 1,
            prefixes: HashMap::new(),
        }
    }
}

/// Cuts `input` into roughly `target_chunks` chunks at top-level
/// statement terminators, parsing `@prefix`/`PREFIX` directives along
/// the way. Returns `None` when the document cannot be split with
/// confidence (malformed directive, unbalanced bracket, unsupported
/// syntax): the caller should parse it as one chunk instead.
pub fn split_turtle(input: &str, target_chunks: usize) -> Option<Vec<TurtleChunk>> {
    let target = (input.len() / target_chunks.max(1)).max(1);
    let mut p = Turtle::new(input, &TurtleChunk::document(input));
    let mut chunks = Vec::new();
    // Start offset and line of the chunk being filled.
    let mut open: Option<(usize, usize)> = None;
    let mut cut = |open: &mut Option<(usize, usize)>, p: &Turtle, end: usize| {
        if let Some((start, line)) = open.take() {
            chunks.push(TurtleChunk {
                range: start..end,
                line,
                prefixes: p.prefixes.clone(),
            });
        }
    };
    loop {
        p.skip_trivia();
        if p.c.peek().is_none() {
            break;
        }
        let line = p.c.sync_lines();
        if p.directive_ahead() {
            cut(&mut open, &p, p.c.pos);
            p.directive().ok()?;
        } else {
            let (start, _) = *open.get_or_insert((p.c.pos, line));
            if p.skip_statement().is_some() {
                return None;
            }
            if p.c.pos - start >= target {
                cut(&mut open, &p, p.c.pos);
            }
        }
    }
    cut(&mut open, &p, input.len());
    Some(chunks)
}

/// Strictly parses one Turtle chunk: the statement layer over the
/// chunk's bytes, starting from the chunk's prefix map. Returns the
/// triples, borrowing from `input` where they can, with chunk-local
/// `anon#N` blank node labels, and the chunk's anonymous-node count;
/// feed all chunks to [`finish_turtle_chunks`] to restore the
/// document-global labels. Error positions are document-global. Any
/// error means the caller should parse the document as one chunk
/// ([`crate::parse_turtle_document`]).
pub fn parse_turtle_chunk<'a>(
    input: &'a str,
    chunk: &TurtleChunk,
) -> Result<(Vec<RawTriple<'a>>, usize), ParseError> {
    let mut p = Turtle::new(input, chunk);
    p.statements(OnParseError::Abort, false)?;
    Ok(p.finish())
}

/// Merges per-chunk parse results: numbers the anonymous blank nodes in
/// one document-global sequence and gives them labels no document label
/// starts with, exactly as parsing the document as one chunk does. The
/// chunk structure is kept so that encoding can stay parallel;
/// concatenating the returned chunks equals the one-chunk parse.
pub fn finish_turtle_chunks<'a>(
    mut parts: Vec<(Vec<RawTriple<'a>>, usize)>,
) -> Vec<Vec<RawTriple<'a>>> {
    name_anonymous(&mut parts);
    parts.into_iter().map(|(triples, _)| triples).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_ntriples_str, TermTriple};
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
        let parts: Vec<(Vec<RawTriple>, usize)> = chunks
            .iter()
            .map(|c| parse_turtle_chunk(doc, c).expect("chunk parses"))
            .collect();
        let triples = finish_turtle_chunks(parts).into_iter().flatten();
        triples.map(crate::parser::owned_triple).collect()
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

    #[test]
    fn splitter_and_parser_share_the_name_byte_rule() {
        // Dots followed by a name byte are inside a prefixed name, so the
        // parser reads on and the splitter must not cut there; after any
        // other dot the statement has ended for both.
        let non_ascii = ['é', '\u{A0}', '→', '😀'];
        for c in (b'!'..=b'~').map(char::from).chain(non_ascii) {
            let doc = format!("@prefix e: <http://e/> .\ne:s e:p e:a.{c}b .\ne:s e:p e:o .\n");
            let in_name = c == '.' || crate::parser::is_name_byte(c.to_string().as_bytes()[0]);
            let serial = parse_turtle_str(&doc);
            assert!(serial.is_ok() || !in_name, "{c:?}: {serial:?}");
            if let Ok(triples) = &serial {
                let dotted = parj_dict::Term::iri(format!("http://e/a.{c}b"));
                assert_eq!(triples[0].2 == dotted, in_name, "{c:?}");
            }
            let Some(chunks) = split_turtle(&doc, 100) else {
                continue;
            };
            let parts: Result<Vec<_>, _> = chunks
                .iter()
                .map(|chunk| parse_turtle_chunk(&doc, chunk))
                .collect();
            let chunked = parts.map(|parts| {
                let triples = finish_turtle_chunks(parts).into_iter().flatten();
                triples.map(crate::parser::owned_triple).collect::<Vec<_>>()
            });
            match serial {
                Ok(serial) => assert_eq!(chunked, Ok(serial), "{c:?}"),
                Err(_) => assert!(chunked.is_err(), "{c:?}"),
            }
        }
    }

    /// One piece of a Turtle document per pick: mostly a statement over
    /// terms that hold dots, quotes, line breaks and brackets, sometimes
    /// a prefix (re)definition or a fragment that breaks the statement.
    fn piece((kind, s, p, o): (u8, u8, u8, u8)) -> String {
        const SUBJECTS: [&str; 6] = [
            "e:s",
            "e:a.b",
            "_:b.c",
            "_:d",
            "[ e:p e:o ]",
            "<http://e/i.j>",
        ];
        const VERBS: [&str; 3] = ["a", "e:p", "<http://e/p>"];
        const OBJECTS: [&str; 11] = [
            "e:o",
            "\"x . y\"",
            "'''l\n. m'''",
            "\"é\"@en",
            "3.25",
            "-7",
            "1.5e3",
            "true",
            "_:b.c",
            "[ e:q 1 ]",
            "\"v\"^^e:t",
        ];
        const BREAKERS: [&str; 8] = ["(", ")", "]", "\\", "\"", "<x y>", "1.", "é"];
        let pick = |list: &[&'static str], i: u8| list[i as usize % list.len()];
        match kind % 10 {
            0 => format!("@prefix e: <http://{}/> .\n", pick(&["e", "f"], s)),
            1 => format!("PREFIX e: <http://{}/>\n", pick(&["e", "f"], s)),
            2 => pick(&BREAKERS, s).to_string(),
            _ => format!(
                "{} {} {} , {} ; e:r {} .\n",
                pick(&SUBJECTS, s),
                pick(&VERBS, p),
                pick(&OBJECTS, o),
                pick(&OBJECTS, o / 16),
                pick(&OBJECTS, p / 4),
            ),
        }
    }

    proptest::proptest! {
        /// A document parses chunked exactly when it parses as one
        /// chunk, to the same triples: a cut may make a malformed
        /// document fail in another chunk, never change what loads.
        #[test]
        fn chunked_turtle_equals_one_chunk(
            picks in proptest::collection::vec(
                (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
                0..30,
            ),
            n in 1usize..12,
        ) {
            let pieces = picks.into_iter().map(piece);
            let doc: String = ["@prefix e: <http://e/> .\n".to_string()]
                .into_iter()
                .chain(pieces)
                .collect();
            let serial = crate::turtle::parse_turtle_str(&doc);
            let chunked = split_turtle(&doc, n).map(|chunks| {
                let parts: Result<Vec<_>, _> =
                    chunks.iter().map(|c| parse_turtle_chunk(&doc, c)).collect();
                parts.map(|parts| {
                    let triples = finish_turtle_chunks(parts).into_iter().flatten();
                    triples.map(crate::parser::owned_triple).collect::<Vec<_>>()
                })
            });
            match (serial, chunked) {
                (Ok(serial), Some(Ok(chunked))) => {
                    proptest::prop_assert_eq!(chunked, serial, "{:?}", doc)
                }
                (Ok(_), _) => proptest::prop_assert!(false, "not chunked: {:?}", doc),
                (Err(_), chunked) => {
                    proptest::prop_assert!(!matches!(chunked, Some(Ok(_))), "{:?}", doc)
                }
            }
        }
    }
}
