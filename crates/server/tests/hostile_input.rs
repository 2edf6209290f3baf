//! Hostile-input suite: the HTTP front door must answer malformed,
//! oversized, truncated, and mis-encoded requests with the right 4xx
//! status — and must never panic, hang, or stop serving afterwards.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use common::*;
use parj_server::ServerConfig;

const TEACHES: &str = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";

fn hostile_config() -> ServerConfig {
    ServerConfig {
        // Short read timeout so the slow-client test completes quickly.
        read_timeout: Duration::from_millis(300),
        max_header_bytes: 2048,
        max_body_bytes: 4096,
        ..ServerConfig::default()
    }
}

#[test]
fn malformed_request_lines_answer_400() {
    let mut server = spawn(small_engine(), hostile_config());
    let addr = server.addr();
    for bad in [
        "GARBAGE\r\n\r\n",
        "GET\r\n\r\n",
        "GET /sparql\r\n\r\n",
        "GET /sparql HTTP/2.0\r\n\r\n",
        "GET /sparql HTTP/1.1 extra\r\n\r\n",
        "G3T /sparql HTTP/1.1\r\n\r\n",
        "GET /sparql HTTP/1.1\r\nbad header line\r\n\r\n",
        "GET /sparql HTTP/1.1\r\nX Y: z\r\n\r\n",
    ] {
        let resp = send_raw(addr, bad.as_bytes()).expect("a response, not a hang");
        assert_eq!(resp.status, 400, "for request {bad:?}");
    }
    // Binary junk that is not UTF-8 at all.
    let resp = send_raw(addr, &[0xff, 0xfe, 0x00, 0x01, b'\r', b'\n', b'\r', b'\n']);
    assert_eq!(resp.expect("answered").status, 400);
    assert_server_alive(&server);
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn oversized_headers_answer_431() {
    let mut server = spawn(small_engine(), hostile_config());
    let huge = format!(
        "GET /sparql HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
        "a".repeat(8 * 1024)
    );
    let resp = send_raw(server.addr(), huge.as_bytes()).unwrap();
    assert_eq!(resp.status, 431);
    assert_server_alive(&server);
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn oversized_and_truncated_bodies() {
    let mut server = spawn(small_engine(), hostile_config());
    let addr = server.addr();

    // Declared body over the cap → 413 before reading it.
    let resp = send_raw(
        addr,
        b"POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 1000000\r\n\r\n",
    )
    .unwrap();
    assert_eq!(resp.status, 413);

    // POST without Content-Length → 411.
    let resp = send_raw(
        addr,
        b"POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-www-form-urlencoded\r\n\r\n",
    )
    .unwrap();
    assert_eq!(resp.status, 411);

    // Truncated body: declares 100 bytes, sends 5, half-closes → 400.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\nquery")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let resp = read_response(&mut stream).expect("answered");
    assert_eq!(resp.status, 400);

    // Unparsable Content-Length → 400.
    let resp = send_raw(
        addr,
        b"POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\n",
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    assert_server_alive(&server);
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn bad_percent_encoding_and_non_utf8_params_answer_400() {
    let mut server = spawn(small_engine(), hostile_config());
    let addr = server.addr();
    // Truncated and non-hex escapes.
    for target in ["/sparql?query=%2", "/sparql?query=%zz", "/spar%2ql?x=1"] {
        let resp = send_raw(
            addr,
            format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
        )
        .unwrap();
        assert_eq!(resp.status, 400, "for target {target:?}");
    }
    // Valid escapes decoding to invalid UTF-8.
    let resp = send_raw(
        addr,
        b"GET /sparql?query=%FF%FE HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    // Same smuggled through a POST form body.
    let body = b"query=%FF%FE";
    let resp = send_raw(
        addr,
        format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\nquery=%FF%FE",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    assert_server_alive(&server);
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn slow_clients_time_out_with_408() {
    let mut server = spawn(small_engine(), hostile_config());
    // Connect and send an incomplete request head, then stall.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /sparql HTT").unwrap();
    let resp = read_response(&mut stream).expect("server must not hang on a stalled client");
    assert_eq!(resp.status, 408);
    assert_server_alive(&server);
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn unexpected_bodies_and_content_types_are_rejected() {
    let mut server = spawn(small_engine(), hostile_config());
    let addr = server.addr();
    // GET with a body.
    let resp = send_raw(
        addr,
        b"GET /sparql?query=x HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\njunk",
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    // POST with an unsupported content type.
    let resp = send_raw(
        addr,
        b"POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/xml\r\nContent-Length: 3\r\n\r\nabc",
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    assert_server_alive(&server);
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn duplicate_query_parameters_answer_400() {
    let mut server = spawn(small_engine(), hostile_config());
    let addr = server.addr();
    let q = urlencode(TEACHES);
    let form = format!("query={q}");
    let post = |target: &str, content_type: &str, body: &str| {
        format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    for request in [
        // Twice in the query string.
        format!("GET /sparql?query={q}&query={q} HTTP/1.1\r\nHost: t\r\n\r\n"),
        // Twice in one form body.
        post(
            "/sparql",
            "application/x-www-form-urlencoded",
            &format!("{form}&{form}"),
        ),
        // Once in the query string, once in the form body.
        post(
            &format!("/sparql?{form}"),
            "application/x-www-form-urlencoded",
            &form,
        ),
        // Once in the query string, once as the raw query body.
        post(
            &format!("/sparql?{form}"),
            "application/sparql-query",
            TEACHES,
        ),
    ] {
        let resp = send_raw(addr, request.as_bytes()).expect("answered");
        assert_eq!(resp.status, 400, "for request {request:?}");
        assert_eq!(
            resp.body_str(),
            "bad request: multiple \"query\" parameters\n"
        );
    }
    assert_server_alive(&server);
    assert_eq!(server.shutdown().leaked, 0);
}

/// After hostile traffic the server must still answer real queries,
/// with zero contained panics recorded.
fn assert_server_alive(server: &parj_server::ServerHandle) {
    let resp = sparql_get(server.addr(), TEACHES, "");
    assert_eq!(
        resp.status, 200,
        "server must keep serving after hostile input"
    );
    assert_eq!(
        metric_value(server.addr(), "parj_server_panics_total", ""),
        Some(0),
        "hostile input must never reach a panic"
    );
    assert_eq!(
        metric_value(server.addr(), "parj_server_inflight", ""),
        Some(0)
    );
}
