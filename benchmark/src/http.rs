//! The closed-loop client's HTTP/1.1 GET: one connection per request,
//! as `parj-server` requires (it answers and closes).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Percent-encodes `s` for a query-string value.
pub fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// The request path for `sparql` on the SPARQL Protocol endpoint.
pub fn sparql_path(sparql: &str) -> String {
    format!("/sparql?query={}", urlencode(sparql))
}

/// A response: status code and body. Transport failures surface as
/// status 0 so the caller counts them as failed ops instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Issues one `GET` over a fresh connection and reads to EOF.
pub fn get(addr: SocketAddr, path: &str) -> Response {
    try_get(addr, path).unwrap_or(Response {
        status: 0,
        body: Vec::new(),
    })
}

fn try_get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut raw = Vec::with_capacity(16 * 1024);
    stream.read_to_end(&mut raw)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(raw.len(), |p| p + 4);
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok(Response {
        status,
        body: raw.split_off(head_end),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urlencode_round_trips_through_the_server_parser() {
        let q = "SELECT ?x WHERE { ?x <http://e/p> \"a b&c=d\" }";
        let params =
            parj_server::http::parse_urlencoded(format!("query={}", urlencode(q)).as_bytes())
                .expect("decodes");
        assert_eq!(params[0].1, q);
    }
}
