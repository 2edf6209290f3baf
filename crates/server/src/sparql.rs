//! SPARQL Protocol mapping: request extraction, result serialization,
//! and the deterministic `ParjError` → HTTP status table.
//!
//! Both serializers format each cell from a [`TermRef`] borrowed from
//! the dictionary straight into one body buffer: no term, row or cell
//! string is allocated on the way to the socket.

use std::borrow::Cow;
use std::fmt::Write;
use std::time::Duration;

use parj_core::{ParjError, QueryOutcome, TermRef};

use crate::http::{HttpError, Method, Request, Response};

/// Result serialization formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// SPARQL 1.1 Query Results JSON (`application/sparql-results+json`).
    Json,
    /// Tab-separated values with N-Triples-encoded terms
    /// (`text/tab-separated-values`).
    Tsv,
}

impl Format {
    /// The response `Content-Type`.
    pub fn content_type(self) -> &'static str {
        match self {
            Format::Json => "application/sparql-results+json",
            Format::Tsv => "text/tab-separated-values; charset=utf-8",
        }
    }
}

/// A fully-extracted protocol request, ready to run.
#[derive(Debug)]
pub struct SparqlRequest {
    /// The SPARQL query text.
    pub query: String,
    /// Requested serialization.
    pub format: Format,
    /// Per-request deadline override, from the `timeout` parameter
    /// (seconds, possibly fractional).
    pub timeout: Option<Duration>,
    /// Per-request result-row budget, from the `max-rows` parameter.
    pub max_rows: Option<u64>,
    /// `no-cache=1`: bypass the query cache for this run.
    pub no_cache: bool,
}

/// Extracts the protocol request from a parsed HTTP request, per the
/// SPARQL 1.1 Protocol: `GET` with a `query` parameter, `POST` with
/// `application/x-www-form-urlencoded`, or `POST` with a raw
/// `application/sparql-query` body.
pub fn extract(req: &Request) -> Result<SparqlRequest, Response> {
    let bad = |msg: String| Response::text(400, msg);
    let mut params: Vec<(String, String)> = req.params.clone();
    match req.method {
        Method::Get | Method::Head => {}
        Method::Post => {
            let content_type = req
                .header("content-type")
                .map(|v| v.split(';').next().unwrap_or("").trim().to_ascii_lowercase())
                .unwrap_or_default();
            match content_type.as_str() {
                "application/x-www-form-urlencoded" | "" => {
                    let body_params = crate::http::parse_urlencoded(&req.body).map_err(|e| {
                        match e {
                            HttpError::BadRequest(m) => bad(format!("bad request: {m}")),
                            other => bad(format!("bad request: {}", other.message())),
                        }
                    })?;
                    params.extend(body_params);
                }
                "application/sparql-query" => {
                    let text = String::from_utf8(req.body.clone())
                        .map_err(|_| bad("bad request: non-UTF-8 query body".into()))?;
                    params.push(("query".to_string(), text));
                }
                other => {
                    return Err(bad(format!("bad request: unsupported content type {other:?}")))
                }
            }
        }
        Method::Other(ref m) => {
            return Err(Response::text(405, format!("method {m} not allowed"))
                .with_header("Allow", "GET, POST, HEAD".to_string()))
        }
    }
    let find = |name: &str| {
        params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    // The protocol requires exactly one query, whichever parts of the
    // request (query string, form body, raw body) carry it.
    if params.iter().filter(|(k, _)| k == "query").count() > 1 {
        return Err(bad("bad request: multiple \"query\" parameters".into()));
    }
    let query = find("query")
        .ok_or_else(|| bad("bad request: missing required parameter \"query\"".into()))?
        .to_string();
    if query.trim().is_empty() {
        return Err(bad("bad request: empty query".into()));
    }
    let timeout = match find("timeout") {
        Some(v) => Some(
            v.parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                .map(Duration::from_secs_f64)
                .ok_or_else(|| bad(format!("bad request: invalid timeout {v:?}")))?,
        ),
        None => None,
    };
    let max_rows = match find("max-rows") {
        Some(v) => Some(
            v.parse::<u64>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| bad(format!("bad request: invalid max-rows {v:?}")))?,
        ),
        None => None,
    };
    let no_cache = matches!(find("no-cache"), Some("1") | Some("true"));
    let format = negotiate_format(find("format"), req.header("accept"))
        .map_err(|m| bad(format!("bad request: {m}")))?;
    Ok(SparqlRequest {
        query,
        format,
        timeout,
        max_rows,
        no_cache,
    })
}

/// Picks the serialization: an explicit `format` parameter wins, then
/// the `Accept` header; JSON is the default.
fn negotiate_format(
    param: Option<&str>,
    accept: Option<&str>,
) -> Result<Format, String> {
    if let Some(p) = param {
        return match p {
            "json" => Ok(Format::Json),
            "tsv" => Ok(Format::Tsv),
            other => Err(format!("unknown format {other:?} (expected json or tsv)")),
        };
    }
    if let Some(a) = accept {
        for item in a.split(',') {
            let media = item.split(';').next().unwrap_or("").trim();
            match media {
                "application/sparql-results+json" | "application/json" | "*/*" => {
                    return Ok(Format::Json)
                }
                "text/tab-separated-values" => return Ok(Format::Tsv),
                _ => {}
            }
        }
    }
    Ok(Format::Json)
}

/// Deterministic `ParjError` → HTTP status mapping (the table in
/// DESIGN.md §14). Client faults are 4xx, engine/state faults are 5xx,
/// interrupted runs get the most specific code available.
pub fn status_for(err: &ParjError) -> u16 {
    match err {
        // The request itself is at fault.
        ParjError::Sparql(_)
        | ParjError::Rio(_)
        | ParjError::Optimize(_)
        | ParjError::Unsupported(_)
        | ParjError::InvalidOptions(_) => 400,
        // The run exceeded its row budget: the answer is "too large".
        ParjError::BudgetExceeded { .. } => 413,
        // The run exceeded its deadline.
        ParjError::DeadlineExceeded { .. } => 504,
        // The store cannot serve correct answers right now.
        ParjError::NotFinalized | ParjError::CorruptStore { .. } => 503,
        // Cancelled server-side (disconnect or drain); the client has
        // usually gone, but a drain-cancelled client sees 503.
        ParjError::Cancelled { .. } => 503,
        // Engine faults: contained panics and broken invariants.
        ParjError::Plan(_)
        | ParjError::Snapshot(_)
        | ParjError::Io(_)
        | ParjError::WorkerPanicked { .. }
        | ParjError::Internal(_) => 500,
    }
}

/// Builds the error response for a failed run.
pub fn error_response(err: &ParjError) -> Response {
    Response::text(status_for(err), format!("query failed: {err}"))
}

/// What a connection handler keeps between responses: the body buffer,
/// and the JSON row keys (`"var":`, escaped once per response) bounded
/// by `bounds`.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    body: String,
    keys: String,
    bounds: Vec<usize>,
}

impl Scratch {
    /// The response for a successful outcome in `format`; an id that
    /// fails to decode answers 500. Hand the body back with
    /// [`Scratch::reclaim`] once it is written.
    pub(crate) fn serialize(&mut self, outcome: &QueryOutcome, format: Format) -> Response {
        match self.render(outcome, format) {
            Ok(()) => Response {
                status: 200,
                content_type: format.content_type(),
                extra_headers: Vec::new(),
                body: std::mem::take(&mut self.body).into_bytes(),
            },
            Err(err) => error_response(&err),
        }
    }

    /// Keeps a written response's body buffer (up to 1 MiB of it) for
    /// the next response.
    pub(crate) fn reclaim(&mut self, mut body: Vec<u8>) {
        if body.capacity() > self.body.capacity() {
            body.clear();
            body.shrink_to(1 << 20);
            // An empty buffer is always valid UTF-8.
            self.body = String::from_utf8(body).unwrap_or_default();
        }
    }

    fn render(&mut self, outcome: &QueryOutcome, format: Format) -> Result<(), ParjError> {
        self.body.clear();
        match format {
            Format::Json => self.render_json(outcome),
            Format::Tsv => render_tsv(&mut self.body, outcome),
        }
    }

    /// SPARQL 1.1 Query Results JSON. Hand-rolled (the workspace is
    /// dependency-free); [`push_json_str`] covers the full control range.
    fn render_json(&mut self, outcome: &QueryOutcome) -> Result<(), ParjError> {
        let (out, keys, bounds) = (&mut self.body, &mut self.keys, &mut self.bounds);
        keys.clear();
        bounds.clear();
        bounds.push(0);
        out.push_str("{\"head\":{\"vars\":[");
        for (i, v) in outcome.vars.iter().enumerate() {
            keys.push_str(if i > 0 { ",\"" } else { "\"" });
            push_json_str(keys, v);
            keys.push('"');
            // The head lists the names as the row keys spell them.
            out.push_str(&keys[bounds[i]..]);
            keys.push(':');
            bounds.push(keys.len());
        }
        out.push_str("]},\"results\":{\"bindings\":[");
        if let Some(answer) = outcome.answer() {
            // Zero-arity rows (ASK) have no cells: one empty binding each.
            for (r, row) in answer.rows().enumerate() {
                out.push_str(if r > 0 { ",{" } else { "{" });
                for (col, &id) in row.iter().enumerate() {
                    out.push_str(&keys[bounds[col]..bounds[col + 1]]);
                    push_json_term(out, answer.term(id)?);
                }
                out.push('}');
            }
        }
        out.push_str("]}}");
        Ok(())
    }
}

/// The body the server sends for `outcome` in `format`: the serialized
/// results, or the 500 error text if an id fails to decode.
fn body_of(outcome: &QueryOutcome, format: Format) -> String {
    let mut scratch = Scratch::default();
    match scratch.render(outcome, format) {
        Ok(()) => scratch.body,
        Err(err) => String::from_utf8_lossy(&error_response(&err).body).into_owned(),
    }
}

/// SPARQL 1.1 Query Results JSON: byte for byte the body the server
/// answers a JSON request for `outcome` with.
pub fn to_sparql_json(outcome: &QueryOutcome) -> String {
    body_of(outcome, Format::Json)
}

/// SPARQL 1.1 TSV: byte for byte the body the server answers a TSV
/// request for `outcome` with.
pub fn to_tsv(outcome: &QueryOutcome) -> String {
    body_of(outcome, Format::Tsv)
}

fn push_json_term(out: &mut String, term: TermRef<'_>) {
    const LITERAL: &str = "{\"type\":\"literal\",\"value\":\"";
    // The parts move out of `term`, so nothing dispatches on the variant
    // a second time to drop it.
    let (open, value, qualifier) = match term {
        TermRef::Iri(iri) => ("{\"type\":\"uri\",\"value\":\"", iri, None),
        TermRef::BlankNode(label) => ("{\"type\":\"bnode\",\"value\":\"", label, None),
        TermRef::Literal(lexical) => (LITERAL, lexical, None),
        TermRef::LangLiteral { lexical, lang } => {
            (LITERAL, lexical, Some(("\",\"xml:lang\":\"", Cow::Borrowed(lang))))
        }
        TermRef::TypedLiteral { lexical, datatype } => {
            (LITERAL, lexical, Some(("\",\"datatype\":\"", datatype)))
        }
    };
    out.push_str(open);
    push_json_str(out, &value);
    if let Some((key, value)) = qualifier {
        out.push_str(key);
        push_json_str(out, &value);
    }
    out.push_str("\"}");
}

/// SPARQL 1.1 TSV: a `?var`-prefixed header row, then one N-Triples
/// term per cell ([`TermRef`]'s `Display` escapes tabs and newlines
/// inside literals).
fn render_tsv(out: &mut String, outcome: &QueryOutcome) -> Result<(), ParjError> {
    for (i, v) in outcome.vars.iter().enumerate() {
        out.push_str(if i > 0 { "\t?" } else { "?" });
        out.push_str(v);
    }
    out.push('\n');
    if let Some(answer) = outcome.answer() {
        for row in answer.rows() {
            for (col, &id) in row.iter().enumerate() {
                out.push_str(if col > 0 { "\t" } else { "" });
                // Formatting into a `String` cannot fail.
                let _ = write!(out, "{}", answer.term(id)?);
            }
            out.push('\n');
        }
    }
    Ok(())
}

/// Appends `s` JSON-escaped (quotes, backslash, and the control range)
/// onto `out`, copying the runs between escapes as slices.
fn push_json_str(out: &mut String, s: &str) {
    let plain = |b: u8| b >= 0x20 && b != b'"' && b != b'\\';
    // Most values need no escape; a scan without early exit vectorizes.
    if s.bytes().fold(true, |all, b| all & plain(b)) {
        return out.push_str(s);
    }
    let mut run = 0;
    for (i, b) in s.bytes().enumerate().filter(|&(_, b)| !plain(b)) {
        out.push_str(&s[run..i]);
        run = i + 1;
        // Formatting into a `String` cannot fail.
        let _ = match b {
            b'"' => out.write_str("\\\""),
            b'\\' => out.write_str("\\\\"),
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            _ => write!(out, "\\u{b:04x}"),
        };
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parj_core::{Parj, Term};

    /// An outcome with one row per entry of `rows`: row `r` holds the
    /// objects of `<http://e/r{r}>` under `<http://e/c0>`, `<http://e/c1>`, …
    fn outcome(vars: &[&str], rows: Vec<Vec<Term>>) -> QueryOutcome {
        let mut e = Parj::builder().threads(1).build();
        let triples = rows.iter().enumerate().flat_map(|(r, row)| {
            row.iter().enumerate().map(move |(c, t)| {
                (
                    Term::iri(format!("http://e/r{r}")),
                    Term::iri(format!("http://e/c{c}")),
                    t.clone(),
                )
            })
        });
        e.mutate().insert_all(triples).run().unwrap();
        let select: Vec<String> = vars.iter().map(|v| format!("?{v}")).collect();
        let patterns: String = vars
            .iter()
            .enumerate()
            .map(|(c, v)| format!("?r <http://e/c{c}> ?{v} . "))
            .collect();
        e.request(&format!(
            "SELECT {} WHERE {{ {patterns}}}",
            select.join(" ")
        ))
        .run()
        .unwrap()
    }

    #[test]
    fn json_renders_every_term_shape() {
        let out = outcome(
            &["s", "o"],
            vec![vec![
                Term::iri("http://e/a"),
                Term::lang_literal("hi \"there\"", "en"),
            ]],
        );
        let json = to_sparql_json(&out);
        assert!(json.contains("\"vars\":[\"s\",\"o\"]"));
        assert!(json.contains("{\"type\":\"uri\",\"value\":\"http://e/a\"}"));
        assert!(json.contains("\"xml:lang\":\"en\""));
        assert!(json.contains("hi \\\"there\\\""));
        let typed = outcome(
            &["x"],
            vec![
                vec![Term::typed_literal("5", "http://www.w3.org/2001/XMLSchema#integer")],
                vec![Term::blank("b0")],
            ],
        );
        let json = to_sparql_json(&typed);
        assert!(json.contains("\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\""));
        assert!(json.contains("{\"type\":\"bnode\",\"value\":\"b0\"}"));
    }

    #[test]
    fn tsv_headers_and_terms() {
        let out = outcome(
            &["s", "o"],
            vec![vec![Term::iri("http://e/a"), Term::literal("line\nbreak")]],
        );
        let tsv = to_tsv(&out);
        let mut lines = tsv.lines();
        assert_eq!(lines.next(), Some("?s\t?o"));
        // The literal's newline is N-Triples-escaped, so the row stays
        // on one line.
        assert_eq!(lines.next(), Some("<http://e/a>\t\"line\\nbreak\""));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn status_table_is_deterministic() {
        assert_eq!(status_for(&ParjError::Unsupported("x".into())), 400);
        assert_eq!(status_for(&ParjError::InvalidOptions("x".into())), 400);
        assert_eq!(status_for(&ParjError::NotFinalized), 503);
        assert_eq!(status_for(&ParjError::Internal("x".into())), 500);
        assert_eq!(
            status_for(&ParjError::BudgetExceeded {
                rows: 10,
                partial: Box::default()
            }),
            413
        );
        assert_eq!(
            status_for(&ParjError::DeadlineExceeded {
                elapsed: Duration::from_secs(1),
                partial: Box::default()
            }),
            504
        );
        assert_eq!(
            status_for(&ParjError::Cancelled {
                partial: Box::default()
            }),
            503
        );
        assert_eq!(
            status_for(&ParjError::WorkerPanicked {
                message: "x".into(),
                partial: Box::default()
            }),
            500
        );
    }
}
