//! Shared fixtures for the server integration suites: a tiny in-process
//! engine, a spawned server on an ephemeral port, and a raw-socket HTTP
//! client (deliberately hand-rolled so hostile bytes can go on the wire
//! verbatim).

// Shared across three test targets; each uses a different subset.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use parj_core::{Parj, Term};
use parj_server::{ParjServer, ServerConfig, ServerHandle};

/// Builds a small engine: a `teaches` star plus a two-hop chain.
pub fn small_engine() -> Arc<Parj> {
    let e = Parj::builder().threads(1).cache(true).build();
    let triples = (0..8u32).flat_map(|i| {
        [
            (
                Term::iri(format!("http://e/prof{i}")),
                Term::iri("http://e/teaches"),
                Term::iri(format!("http://e/course{i}")),
            ),
            (
                Term::iri(format!("http://e/course{i}")),
                Term::iri("http://e/next"),
                Term::iri(format!("http://e/course{}", (i + 1) % 8)),
            ),
        ]
    });
    e.mutate().insert_all(triples).run().expect("seed engine");
    Arc::new(e)
}

/// An engine whose star query (`?x p ?y . ?x p ?z`) produces `n²` rows
/// — slow enough for overload and disconnect tests to overlap requests.
pub fn fanout_engine(n: u32) -> Arc<Parj> {
    fanout(Parj::builder().threads(1).cache(false).build(), n)
}

/// A [`fanout_engine`] whose queries stop at `timeout`.
pub fn timed_fanout_engine(n: u32, timeout: Duration) -> Arc<Parj> {
    let e = Parj::builder().threads(1).cache(false).timeout(timeout);
    fanout(e.build(), n)
}

fn fanout(e: Parj, n: u32) -> Arc<Parj> {
    let triples = (0..n).map(|i| {
        (
            Term::iri("http://e/hub"),
            Term::iri("http://e/p"),
            Term::iri(format!("http://e/leaf{i}")),
        )
    });
    e.mutate().insert_all(triples).run().expect("seed engine");
    Arc::new(e)
}

/// The `n²`-row query for [`fanout_engine`].
pub const FANOUT_QUERY: &str =
    "SELECT ?y ?z WHERE { <http://e/hub> <http://e/p> ?y . <http://e/hub> <http://e/p> ?z }";

/// A query for [`fanout_engine`] that runs `n⁴` bindings and returns
/// none: its last step probes the group of a leaf, and leaves have no
/// `p` values. Tests that rely on it check that the plan keeps the
/// written order.
pub const ENDLESS_QUERY: &str = "SELECT ?a WHERE { <http://e/hub> <http://e/p> ?a . \
     <http://e/hub> <http://e/p> ?b . <http://e/hub> <http://e/p> ?c . \
     <http://e/hub> <http://e/p> ?d . ?d <http://e/p> ?e }";

/// Spawns a server over `engine` with `config` (addr forced to an
/// ephemeral loopback port).
pub fn spawn(engine: Arc<Parj>, mut config: ServerConfig) -> ServerHandle {
    config.addr = "127.0.0.1:0".to_string();
    ParjServer::spawn(engine, config).expect("bind ephemeral port")
}

/// A parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends raw bytes and reads the connection to EOF; `None` when the
/// server closed without writing a response.
pub fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Option<ClientResponse> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).expect("write request");
    read_response(&mut stream)
}

/// Reads a full `Connection: close` response from `stream`.
pub fn read_response(stream: &mut TcpStream) -> Option<ClientResponse> {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Option<ClientResponse> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Some(ClientResponse {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    })
}

/// A well-formed `GET` for `path` (which may carry a query string).
pub fn get(addr: SocketAddr, path: &str) -> ClientResponse {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes(),
    )
    .expect("server answered")
}

/// A `GET /sparql` for a query, extra params appended verbatim.
pub fn sparql_get(addr: SocketAddr, query: &str, extra: &str) -> ClientResponse {
    get(addr, &format!("/sparql?query={}{extra}", urlencode(query)))
}

/// Minimal percent-encoder for query text.
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

/// Scrapes `/metrics` and returns the value of `family` with the given
/// rendered label block (e.g. `parj_server_inflight` + `""`, or
/// `parj_server_responses_total` + `{status="200"}`).
pub fn metric_value(addr: SocketAddr, family: &str, labels: &str) -> Option<u64> {
    let resp = get(addr, "/metrics");
    assert_eq!(resp.status, 200, "metrics endpoint must answer");
    let needle = format!("{family}{labels} ");
    resp.body_str()
        .lines()
        .find(|l| l.starts_with(&needle))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}
