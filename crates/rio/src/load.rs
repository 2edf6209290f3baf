//! Strict-vs-lossy bulk loading: error policy and skip diagnostics.
//!
//! Real-world RDF dumps routinely contain a handful of malformed lines
//! (bad escapes, truncated statements, encoding damage). The default
//! policy is strict — the first malformed line aborts the load with a
//! positioned [`ParseError`] — but a loader can opt into
//! [`OnParseError::Skip`] to drop bad lines, bounded by `max_errors`,
//! while a [`LoadReport`] records exactly what was skipped and where.

use crate::error::{ParseError, ParseErrorKind};
use crate::parser::TermTriple;

/// What a bulk load does when a statement fails to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnParseError {
    /// Abort at the first malformed statement (strict mode, default).
    #[default]
    Abort,
    /// Skip malformed statements and keep loading, recording
    /// diagnostics. Tolerates at most `max_errors` skipped statements;
    /// one more aborts the load with the error that crossed the line.
    Skip {
        /// Maximum number of malformed statements to tolerate
        /// (`usize::MAX` for unbounded).
        max_errors: usize,
    },
}

/// Outcome of a (possibly lossy) bulk load.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Statements successfully parsed and loaded.
    pub loaded: usize,
    /// Malformed statements skipped ([`OnParseError::Skip`] only).
    pub skipped: usize,
    /// Positioned diagnostics for the first
    /// [`LoadReport::MAX_RECORDED_ERRORS`] skipped statements;
    /// `skipped` keeps the true total when more were dropped.
    pub errors: Vec<ParseError>,
}

impl LoadReport {
    /// Cap on retained [`LoadReport::errors`] so a pathological file
    /// cannot balloon memory; the `skipped` counter is always exact.
    pub const MAX_RECORDED_ERRORS: usize = 64;

    pub(crate) fn note_skip(&mut self, e: ParseError) {
        self.skipped += 1;
        if self.errors.len() < Self::MAX_RECORDED_ERRORS {
            self.errors.push(e);
        }
    }
}

/// Drains a stream of parse results under `policy`, feeding good
/// items (triples, or the bulk loader's data-free `()`) to `emit`.
///
/// I/O errors ([`ParseErrorKind::Io`]) are always fatal, even in skip
/// mode: a broken reader would otherwise error forever without ever
/// reaching end-of-stream.
pub fn drain_triples<T>(
    src: impl Iterator<Item = Result<T, ParseError>>,
    policy: OnParseError,
    mut emit: impl FnMut(T),
) -> Result<LoadReport, ParseError> {
    let mut report = LoadReport::default();
    for item in src {
        match item {
            Ok(t) => {
                emit(t);
                report.loaded += 1;
            }
            Err(e) => match policy {
                OnParseError::Abort => return Err(e),
                OnParseError::Skip { .. } if matches!(e.kind, ParseErrorKind::Io(_)) => {
                    return Err(e);
                }
                OnParseError::Skip { max_errors } => {
                    let fatal = report.skipped >= max_errors;
                    report.note_skip(e.clone());
                    if fatal {
                        return Err(e);
                    }
                }
            },
        }
    }
    Ok(report)
}

/// [`crate::parse_ntriples_str`] with an error policy: returns the
/// parsed triples plus the skip diagnostics.
pub fn parse_ntriples_str_lossy(
    input: &str,
    policy: OnParseError,
) -> Result<(Vec<TermTriple>, LoadReport), ParseError> {
    let mut out = Vec::new();
    let src = input.lines().enumerate().filter_map(|(idx, line)| {
        crate::parser::parse_line(line, idx + 1).transpose()
    });
    let report = drain_triples(src, policy, |t| out.push(t))?;
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: &str = "<http://e/a> <http://e/p> <http://e/b> .\n\
                         this line is garbage\n\
                         <http://e/c> <http://e/p> <http://e/d> .\n\
                         <http://e/unclosed <http://e/p> <http://e/x> .\n\
                         <http://e/e> <http://e/p> <http://e/f> .\n";

    #[test]
    fn strict_mode_aborts_at_first_error() {
        let err = parse_ntriples_str_lossy(MIXED, OnParseError::Abort).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn skip_mode_loads_the_good_lines() {
        let (triples, report) =
            parse_ntriples_str_lossy(MIXED, OnParseError::Skip { max_errors: 10 }).unwrap();
        assert_eq!(triples.len(), 3);
        assert_eq!(report.loaded, 3);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.errors.len(), 2);
        assert_eq!(report.errors[0].line, 2);
        assert_eq!(report.errors[1].line, 4);
    }

    #[test]
    fn skip_mode_bounds_the_damage() {
        // max_errors = 1 tolerates one bad line; the second aborts.
        let err =
            parse_ntriples_str_lossy(MIXED, OnParseError::Skip { max_errors: 1 }).unwrap_err();
        assert_eq!(err.line, 4);
        // max_errors = 0 behaves like strict mode.
        let err =
            parse_ntriples_str_lossy(MIXED, OnParseError::Skip { max_errors: 0 }).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn surrogate_damage_recovers_at_statement_granularity() {
        // Encoding damage (lone/inverted surrogates) is confined to the
        // statement that carries it: strict mode anchors the error to
        // that line, skip mode drops exactly that statement and loads
        // the rest — including a later statement with a *valid* pair.
        let doc = "<http://e/a> <http://e/p> \"ok\" .\n\
                   <http://e/b> <http://e/p> \"bad \\uD800 high\" .\n\
                   <http://e/c> <http://e/p> \"bad \\uDC00\\uD800 inverted\" .\n\
                   <http://e/d> <http://e/p> \"good \\uD83D\\uDE00 pair\" .\n";
        let err = parse_ntriples_str_lossy(doc, OnParseError::Abort).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unpaired high surrogate"));
        let (triples, report) =
            parse_ntriples_str_lossy(doc, OnParseError::Skip { max_errors: 10 }).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.errors[0].line, 2);
        assert_eq!(report.errors[1].line, 3);
        assert!(report.errors[1].to_string().contains("lone low surrogate"));
        assert_eq!(triples[1].2.as_literal(), Some("good \u{1F600} pair"));
    }

    #[test]
    fn io_errors_are_fatal_even_in_skip_mode() {
        struct BrokenReader;
        impl std::io::Read for BrokenReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let parser = crate::NTriplesParser::new(std::io::BufReader::new(BrokenReader));
        let err = drain_triples(parser, OnParseError::Skip { max_errors: usize::MAX }, |_| {})
            .unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Io(_)));
    }

    #[test]
    fn error_recording_is_capped_but_counting_is_exact() {
        let mut doc = String::new();
        for _ in 0..(LoadReport::MAX_RECORDED_ERRORS + 20) {
            doc.push_str("garbage line\n");
        }
        doc.push_str("<http://e/a> <http://e/p> <http://e/b> .\n");
        let (triples, report) =
            parse_ntriples_str_lossy(&doc, OnParseError::Skip { max_errors: usize::MAX })
                .unwrap();
        assert_eq!(triples.len(), 1);
        assert_eq!(report.skipped, LoadReport::MAX_RECORDED_ERRORS + 20);
        assert_eq!(report.errors.len(), LoadReport::MAX_RECORDED_ERRORS);
    }
}
