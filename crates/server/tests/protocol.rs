//! SPARQL Protocol conformance: request forms, serializations, status
//! mapping, operational endpoints, and graceful shutdown.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::*;
use parj_server::{sparql, ServerConfig};

const TEACHES: &str = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";

#[test]
fn get_query_answers_sparql_json_identical_to_direct_run() {
    let engine = small_engine();
    let mut server = spawn(Arc::clone(&engine), ServerConfig::default());
    let resp = sparql_get(server.addr(), TEACHES, "");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("application/sparql-results+json")
    );
    // The served body must be byte-identical to serializing a direct
    // engine run (the cache is on for both, so ordering is stable).
    let direct = engine.request(TEACHES).run().unwrap();
    assert_eq!(resp.body, sparql::to_sparql_json(&direct).into_bytes());
    assert!(resp.body_str().contains("\"vars\":[\"x\",\"z\"]"));
    let report = server.shutdown();
    assert_eq!(report.leaked, 0);
}

#[test]
fn post_forms_and_raw_query_bodies_are_accepted() {
    let engine = small_engine();
    let mut server = spawn(engine, ServerConfig::default());
    let addr = server.addr();

    let form = format!("query={}", urlencode(TEACHES));
    let resp = send_raw(
        addr,
        format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{form}",
            form.len()
        )
        .as_bytes(),
    )
    .unwrap();
    assert_eq!(resp.status, 200);

    let resp = send_raw(
        addr,
        format!(
            "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{TEACHES}",
            TEACHES.len()
        )
        .as_bytes(),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn tsv_via_accept_header_and_format_param() {
    let engine = small_engine();
    let mut server = spawn(Arc::clone(&engine), ServerConfig::default());
    let addr = server.addr();

    let resp = send_raw(
        addr,
        format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: t\r\nAccept: text/tab-separated-values\r\n\r\n",
            urlencode(TEACHES)
        )
        .as_bytes(),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp
        .header("content-type")
        .unwrap()
        .starts_with("text/tab-separated-values"));
    assert!(resp.body_str().starts_with("?x\t?z\n"));

    let via_param = sparql_get(addr, TEACHES, "&format=tsv");
    assert_eq!(via_param.status, 200);
    let direct = engine.request(TEACHES).run().unwrap();
    assert_eq!(via_param.body, sparql::to_tsv(&direct).into_bytes());
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn head_matches_get_and_large_bodies_arrive_intact() {
    // 65 536 rows: a body of about 6 MB, the size of WatDiv's C1 answer.
    let engine = fanout_engine(256);
    let mut server = spawn(Arc::clone(&engine), ServerConfig::default());
    let addr = server.addr();
    let direct = sparql::to_sparql_json(&engine.request(FANOUT_QUERY).run().unwrap());
    assert!(direct.len() > 6_000_000, "body is {} bytes", direct.len());

    let get = sparql_get(addr, FANOUT_QUERY, "");
    assert_eq!(get.status, 200);
    assert_eq!(get.body, direct.as_bytes(), "the large body arrives intact");
    let length = direct.len().to_string();
    assert_eq!(get.header("content-length"), Some(length.as_str()));

    let head = send_raw(
        addr,
        format!(
            "HEAD /sparql?query={} HTTP/1.1\r\nHost: t\r\n\r\n",
            urlencode(FANOUT_QUERY)
        )
        .as_bytes(),
    )
    .unwrap();
    assert_eq!(head.status, 200);
    assert_eq!(head.header("content-length"), Some(length.as_str()));
    assert!(head.body.is_empty(), "HEAD carries no body");
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn error_statuses_are_deterministic() {
    let engine = small_engine();
    let mut server = spawn(engine, ServerConfig::default());
    let addr = server.addr();

    // Parse error → 400.
    let resp = sparql_get(addr, "SELECT WHERE garbage {", "");
    assert_eq!(resp.status, 400);
    // Missing query parameter → 400 naming the parameter.
    let resp = get(addr, "/sparql");
    assert_eq!(resp.status, 400);
    assert!(resp.body_str().contains("query"));
    // Row budget → 413 (the teaches query has 8 rows).
    let resp = sparql_get(addr, TEACHES, "&max-rows=2");
    assert_eq!(resp.status, 413);
    // Invalid option values → 400.
    assert_eq!(sparql_get(addr, TEACHES, "&timeout=-3").status, 400);
    assert_eq!(sparql_get(addr, TEACHES, "&max-rows=0").status, 400);
    assert_eq!(sparql_get(addr, TEACHES, "&format=xml").status, 400);
    // Unknown path → 404; unsupported method → 405 with Allow.
    assert_eq!(get(addr, "/no-such").status, 404);
    let resp = send_raw(addr, b"DELETE /sparql HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    assert_eq!(resp.status, 405);
    assert!(resp.header("allow").is_some());
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn operational_endpoints() {
    let engine = small_engine();
    let mut server = spawn(engine, ServerConfig::default());
    let addr = server.addr();

    assert_eq!(get(addr, "/healthz").status, 200);
    let ready = get(addr, "/readyz");
    assert_eq!(ready.status, 200);
    assert!(ready.body_str().contains("16 triples"), "{}", ready.body_str());

    // HEAD answers the same headers with no body.
    let head = send_raw(addr, b"HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    assert_eq!(head.status, 200);
    assert!(head.body.is_empty());

    // /metrics merges engine and server families on one page.
    sparql_get(addr, TEACHES, "");
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str();
    assert!(text.contains("# TYPE parj_queries_total counter"), "engine family present");
    assert!(text.contains("# TYPE parj_server_responses_total counter"), "server family present");
    assert!(
        metric_value(addr, "parj_server_responses_total", "{status=\"200\"}").unwrap() >= 1
    );
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn per_request_cache_bypass_is_honored() {
    let engine = small_engine();
    let mut server = spawn(Arc::clone(&engine), ServerConfig::default());
    let addr = server.addr();
    // Warm the cache, then issue a bypassed run: both answer 200 with
    // identical bodies; the bypass shows up in the engine's metrics.
    let warm = sparql_get(addr, TEACHES, "");
    let bypass = sparql_get(addr, TEACHES, "&no-cache=1");
    assert_eq!(warm.status, 200);
    assert_eq!(bypass.status, 200);
    assert_eq!(warm.body, bypass.body);
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn graceful_shutdown_drains_and_refuses_new_work() {
    let engine = small_engine();
    let mut server = spawn(engine, ServerConfig::default());
    let addr = server.addr();
    assert_eq!(sparql_get(addr, TEACHES, "").status, 200);
    let report = server.shutdown();
    assert_eq!(report.leaked, 0, "healthy shutdown leaks nothing");
    // The listener is gone: new connections are refused.
    assert!(std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
    // Shutdown is idempotent.
    assert_eq!(server.shutdown().leaked, 0);
}
