//! Bounded HTTP/1.1 request parsing and response writing.
//!
//! The parser is written for a hostile network: every dimension of the
//! request is capped (request line, header block, body), every cap maps
//! to a specific status (431 headers, 413 body, 400 malformed, 408 slow
//! client), and nothing the peer sends can make it allocate without
//! bound, loop without progress, or panic. It supports exactly what the
//! SPARQL Protocol needs — `GET`/`POST`/`HEAD`, `Content-Length`
//! bodies, one request per connection (`Connection: close` on every
//! response) — and rejects the rest deliberately.

use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Request methods the router distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `HEAD` (answered like `GET` with an empty body)
    Head,
    /// Anything else, kept verbatim for the 405 response.
    Other(String),
}

/// A parsed request: method, split target, lowercased headers, body.
#[derive(Debug)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub params: Vec<(String, String)>,
    /// Headers with lowercased names, verbatim values.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `POST` with `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; each variant is one response
/// status (except [`HttpError::Io`], where the connection is already
/// unusable and no response can be written).
#[derive(Debug)]
pub enum HttpError {
    /// 400 — malformed request line, header, encoding, or truncation.
    BadRequest(String),
    /// 431 — request line + header block exceeded the configured cap.
    HeadersTooLarge,
    /// 413 — declared or actual body exceeded the configured cap.
    PayloadTooLarge,
    /// 411 — `POST` without a `Content-Length`.
    LengthRequired,
    /// 408 — the client was too slow producing its request.
    Timeout,
    /// The socket died (reset, closed before any byte); nothing to say.
    Io(io::Error),
}

impl HttpError {
    /// The response status for this error, `None` when the connection
    /// is beyond responding.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::BadRequest(_) => Some(400),
            HttpError::HeadersTooLarge => Some(431),
            HttpError::PayloadTooLarge => Some(413),
            HttpError::LengthRequired => Some(411),
            HttpError::Timeout => Some(408),
            HttpError::Io(_) => None,
        }
    }

    /// Human-readable body line for the error response.
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) => format!("bad request: {m}"),
            HttpError::HeadersTooLarge => "request header fields too large".into(),
            HttpError::PayloadTooLarge => "payload too large".into(),
            HttpError::LengthRequired => "length required".into(),
            HttpError::Timeout => "request timeout".into(),
            HttpError::Io(e) => format!("i/o error: {e}"),
        }
    }
}

/// Parser caps and pacing.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Cap on request line + header block, bytes.
    pub max_header_bytes: usize,
    /// Cap on the request body, bytes.
    pub max_body_bytes: usize,
    /// Total time the client gets to deliver its request.
    pub read_timeout: Duration,
}

/// True when an I/O error is a read-timeout expiry.
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads and parses one request from `stream` under `limits`.
pub fn read_request(stream: &mut TcpStream, limits: &Limits) -> Result<Request, HttpError> {
    let deadline = Instant::now() + limits.read_timeout;
    // Header block: accumulate until CRLFCRLF, bounded. Byte-at-a-time
    // via small chunks is fine — header blocks are tiny and the cap is
    // what matters.
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let header_end = loop {
        if let Some(pos) = find_double_crlf(&buf) {
            break pos;
        }
        if buf.len() > limits.max_header_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(HttpError::Timeout);
        }
        stream
            .set_read_timeout(Some(remaining))
            .map_err(HttpError::Io)?;
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    // Clean close before any byte: not a request at all.
                    return Err(HttpError::Io(io::ErrorKind::UnexpectedEof.into()));
                }
                return Err(HttpError::BadRequest("truncated request head".into()));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) => return Err(HttpError::Io(e)),
        }
    };
    if header_end > limits.max_header_bytes {
        return Err(HttpError::HeadersTooLarge);
    }
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| HttpError::BadRequest("non-UTF-8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request head".into()))?;
    let (method, path, params) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line: {line:?}")))?;
        if name.is_empty() || name.contains(|c: char| c.is_control() || c == ' ') {
            return Err(HttpError::BadRequest(format!("malformed header name: {name:?}")));
        }
        let value = value.trim();
        if value.contains(|c: char| c.is_control()) {
            return Err(HttpError::BadRequest("control character in header value".into()));
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }

    // Body (POST only; GET/HEAD bodies are rejected as malformed
    // rather than silently ignored, since nothing here accepts one).
    let mut body = buf[header_end + 4..].to_vec();
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length: {v:?}")))
        })
        .transpose()?;
    match (&method, content_length) {
        (Method::Post, None) => return Err(HttpError::LengthRequired),
        (Method::Post, Some(len)) => {
            if len > limits.max_body_bytes {
                return Err(HttpError::PayloadTooLarge);
            }
            if body.len() > len {
                return Err(HttpError::BadRequest("body longer than content-length".into()));
            }
            while body.len() < len {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(HttpError::Timeout);
                }
                stream
                    .set_read_timeout(Some(remaining))
                    .map_err(HttpError::Io)?;
                match stream.read(&mut chunk) {
                    Ok(0) => return Err(HttpError::BadRequest("truncated body".into())),
                    Ok(n) => body.extend_from_slice(&chunk[..n]),
                    Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
                    Err(e) => return Err(HttpError::Io(e)),
                }
            }
            if body.len() > len {
                return Err(HttpError::BadRequest("body longer than content-length".into()));
            }
        }
        (_, _) => {
            if content_length.unwrap_or(0) != 0 || !body.is_empty() {
                return Err(HttpError::BadRequest("unexpected body".into()));
            }
        }
    }

    Ok(Request {
        method,
        path,
        params,
        headers,
        body,
    })
}

/// Position of the first `\r\n\r\n`, if complete.
fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Decoded key/value parameters from a query string or form body.
pub type Params = Vec<(String, String)>;

fn parse_request_line(line: &str) -> Result<(Method, String, Params), HttpError> {
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequest(format!("malformed request line: {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("unsupported version: {version:?}")));
    }
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "HEAD" => Method::Head,
        other => {
            if !other.chars().all(|c| c.is_ascii_uppercase()) {
                return Err(HttpError::BadRequest(format!("malformed method: {other:?}")));
            }
            Method::Other(other.to_string())
        }
    };
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path_bytes = percent_decode(raw_path)
        .ok_or_else(|| HttpError::BadRequest("bad percent-encoding in path".into()))?;
    let path = String::from_utf8(path_bytes)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 path".into()))?;
    let params = match raw_query {
        Some(q) => parse_urlencoded(q.as_bytes())?,
        None => Vec::new(),
    };
    Ok((method, path, params))
}

/// Parses `application/x-www-form-urlencoded` content (also the query
/// string): `+` means space, `%XX` percent-escapes, pairs split on `&`.
/// Decoded bytes must be UTF-8 — a query string smuggling invalid UTF-8
/// is a 400, never a panic or lossy replacement.
pub fn parse_urlencoded(raw: &[u8]) -> Result<Vec<(String, String)>, HttpError> {
    let raw = std::str::from_utf8(raw)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 form data".into()))?;
    let mut out = Vec::new();
    for pair in raw.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let decode = |s: &str| -> Result<String, HttpError> {
            let plus_decoded = s.replace('+', " ");
            let bytes = percent_decode(&plus_decoded)
                .ok_or_else(|| HttpError::BadRequest(format!("bad percent-encoding: {s:?}")))?;
            String::from_utf8(bytes)
                .map_err(|_| HttpError::BadRequest(format!("non-UTF-8 parameter: {s:?}")))
        };
        out.push((decode(k)?, decode(v)?));
    }
    Ok(out)
}

/// Decodes `%XX` escapes; `None` on a truncated or non-hex escape.
fn percent_decode(s: &str) -> Option<Vec<u8>> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hi = hex_val(*bytes.get(i + 1)?)?;
            let lo = hex_val(*bytes.get(i + 2)?)?;
            out.push(hi << 4 | lo);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    Some(out)
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// A response ready to serialize: status, content type, extra headers,
/// body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`), name/value verbatim.
    pub extra_headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response with the given status and body line.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        let mut body = body.into();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.extra_headers.push((name.to_string(), value));
        self
    }
}

/// The reason phrase for a status code.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes `resp` to `stream` (`Connection: close`; the caller closes),
/// head and body in one write: without `TCP_NODELAY` a separate body
/// write could wait out a delayed ACK. `head_only` omits the body for
/// `HEAD` requests while keeping the headers identical.
pub fn write_response(stream: &mut impl Write, resp: &Response, head_only: bool) -> io::Result<()> {
    let mut head = Vec::new();
    write!(
        head,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        reason_phrase(resp.status),
        resp.content_type,
        resp.body.len()
    )?;
    for (k, v) in &resp.extra_headers {
        write!(head, "{k}: {v}\r\n")?;
    }
    head.extend_from_slice(b"\r\n");
    let body: &[u8] = if head_only { &[] } else { &resp.body };
    // Only a body larger than the socket buffer needs a second write.
    let sent = match stream.write_vectored(&[IoSlice::new(&head), IoSlice::new(body)]) {
        Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
        sent => sent?,
    };
    stream.write_all(head.get(sent..).unwrap_or_default())?;
    stream.write_all(&body[sent.saturating_sub(head.len())..])?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b"), Some(b"a b".to_vec()));
        assert_eq!(percent_decode("a%2"), None);
        assert_eq!(percent_decode("a%zz"), None);
        assert_eq!(percent_decode("plain"), Some(b"plain".to_vec()));
    }

    #[test]
    fn urlencoded_pairs() {
        let pairs = parse_urlencoded(b"query=SELECT+%2A&timeout=5").unwrap();
        assert_eq!(
            pairs,
            vec![
                ("query".to_string(), "SELECT *".to_string()),
                ("timeout".to_string(), "5".to_string())
            ]
        );
    }

    #[test]
    fn urlencoded_rejects_invalid_utf8() {
        // %FF is not valid UTF-8 on its own.
        assert!(matches!(
            parse_urlencoded(b"query=%FF%FE"),
            Err(HttpError::BadRequest(_))
        ));
    }

    /// A writer that takes at most `cap` bytes per call and logs every
    /// call, so the test sees how a response reaches the socket.
    struct Trickle {
        cap: usize,
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.bytes.len();
            for b in bufs {
                let room = self.cap - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn head_and_body_go_out_in_one_write() {
        let resp = Response::text(200, "hello").with_header("Retry-After", "3".to_string());
        let expected = "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
                        Content-Length: 6\r\nConnection: close\r\nRetry-After: 3\r\n\r\nhello\n";
        let mut whole = Trickle {
            cap: usize::MAX,
            calls: 0,
            bytes: Vec::new(),
        };
        write_response(&mut whole, &resp, false).unwrap();
        assert_eq!(whole.calls, 1);
        assert_eq!(String::from_utf8(whole.bytes).unwrap(), expected);
        // Short writes resume mid-head and mid-body without losing bytes.
        let mut short = Trickle {
            cap: 7,
            calls: 0,
            bytes: Vec::new(),
        };
        write_response(&mut short, &resp, false).unwrap();
        assert_eq!(String::from_utf8(short.bytes).unwrap(), expected);
        // HEAD: same Content-Length, no body.
        let mut head_only = Trickle {
            cap: usize::MAX,
            calls: 0,
            bytes: Vec::new(),
        };
        write_response(&mut head_only, &resp, true).unwrap();
        assert_eq!(
            String::from_utf8(head_only.bytes).unwrap(),
            expected.trim_end_matches("hello\n")
        );
    }

    #[test]
    fn request_line_rejects_garbage() {
        assert!(parse_request_line("GET /x HTTP/1.1").is_ok());
        for bad in [
            "GET",
            "GET /x",
            "GET /x HTTP/2.0",
            "GET /x HTTP/1.1 extra",
            " /x HTTP/1.1",
            "G3T /x HTTP/1.1",
        ] {
            assert!(parse_request_line(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
