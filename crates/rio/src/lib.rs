//! # parj-rio — RDF I/O for PARJ
//!
//! Parsers for [N-Triples](https://www.w3.org/TR/n-triples/) and
//! [Turtle](https://www.w3.org/TR/turtle/), an N-Triples serializer, and
//! the statement-boundary chunking the parallel bulk loader runs the
//! parsers under. RDF files are what the PARJ paper's data import
//! consumes ("Disk-based tables are created and saved during data import
//! from RDF files", §5); this crate turns them into [`parj_dict::Term`]
//! triples, or into [`parj_dict::TermRef`] triples ([`RawTriple`]) that
//! borrow from the input, for the loader.
//!
//! There is one tokenizer, a hand-written byte scanner: a term is found
//! by table-driven runs and sliced from the input, and only a part that
//! holds an escape sequence (`\t \b \n \r \f \" \' \\`, `\uXXXX`,
//! `\UXXXXXXXX`), an expanded Turtle prefixed name or a generated blank
//! node label owns its bytes. N-Triples runs it a line at a time
//! ([`parse_ntriples_chunk`]); Turtle adds a statement layer (prefixes,
//! `;`/`,` lists, `a`, `[ … ]`, numbers, booleans, long strings) and runs
//! it over chunks cut at statement boundaries ([`split_turtle`],
//! [`parse_turtle_chunk`]). Errors carry exact line and column
//! positions. The owned [`TermTriple`] API below is
//! [`TermRef::to_term`](parj_dict::TermRef::to_term) over the same scan.
//!
//! ```
//! use parj_rio::parse_ntriples_str;
//!
//! let data = r#"
//! <http://e/ProfessorA> <http://e/teaches> <http://e/Mathematics> . # a comment
//! <http://e/ProfessorA> <http://e/name> "Alice"@en .
//! "#;
//! let triples = parse_ntriples_str(data).unwrap();
//! assert_eq!(triples.len(), 2);
//! assert_eq!(triples[0].1.as_iri(), Some("http://e/teaches"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunk;
mod error;
mod load;
mod parser;
mod turtle;
mod writer;

pub use chunk::{
    finish_turtle_chunks, parse_ntriples_chunk, parse_turtle_chunk, split_ntriples,
    split_turtle, Interleave, NtChunk, ParsedChunk, TurtleChunk,
};
pub use error::{ParseError, ParseErrorKind};
pub use load::{drain_triples, parse_ntriples_str_lossy, LoadReport, OnParseError};
pub use parser::{parse_ntriples_str, NTriplesParser, RawTriple, TermTriple};
pub use turtle::{parse_turtle_document, parse_turtle_str, parse_turtle_str_lossy};
pub use writer::{write_ntriples, write_triple};
