//! # parj-rio — RDF I/O for PARJ
//!
//! A streaming [N-Triples](https://www.w3.org/TR/n-triples/) parser and
//! serializer. N-Triples is the line-oriented interchange syntax the
//! PARJ paper's data import consumes ("Disk-based tables are created and
//! saved during data import from RDF files", §5); this crate is the
//! substrate that turns those files into [`parj_dict::Term`] triples.
//!
//! The parser is hand-written and allocation-free per term: each line is
//! scanned once into [`RawTerm`]s whose parts are slices of the line;
//! only a part holding an escape sequence (`\t \b \n \r \f \" \' \\`,
//! `\uXXXX`, `\UXXXXXXXX`) is decoded into a buffer of its own. Errors
//! carry exact line and column positions. The bulk loader encodes the
//! borrowed terms directly ([`parse_ntriples_chunk`]); the owned
//! [`TermTriple`] API below is [`RawTerm::to_term`] over the same scan.
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
pub use parser::{parse_ntriples_str, NTriplesParser, RawTerm, RawTriple, TermTriple};
pub use turtle::{parse_turtle_str, parse_turtle_str_lossy};
pub use writer::{write_ntriples, write_triple};
