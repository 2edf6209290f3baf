//! Overload and degradation suite: saturation with more clients than
//! permits, per-client quotas, and cancel-on-disconnect.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::*;
use parj_server::{admission::Quota, sparql, ServerConfig};

/// The tentpole acceptance test: 4× more concurrent clients than
/// permits. Every request receives exactly one response, every
/// response is 200 or 429, accepted bodies are byte-identical to a
/// direct engine run, sheds carry `Retry-After`, nothing panics, and
/// the in-flight gauge drains to zero.
#[test]
fn saturation_sheds_cleanly_and_drains_to_zero() {
    const PERMITS: usize = 2;
    const CLIENTS: usize = 4 * PERMITS;
    const REQUESTS_PER_CLIENT: usize = 6;

    // ~22k result rows per query: enough decode + serialization work
    // that eight back-to-back clients genuinely overlap on two permits.
    let engine = fanout_engine(150);
    let mut server = spawn(
        Arc::clone(&engine),
        ServerConfig {
            permits: PERMITS,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();

    let expected = sparql::to_sparql_json(&engine.request(FANOUT_QUERY).run().unwrap());

    // Per request: (status, body byte-identical to the direct run,
    // parsed Retry-After). Bodies are compared in the client thread so
    // the test does not hold CLIENTS × multi-MB responses at once.
    let outcomes: Vec<(u16, bool, Option<u64>)> = std::thread::scope(|s| {
        let expected = &expected;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for _ in 0..REQUESTS_PER_CLIENT {
                        let resp = sparql_get(addr, FANOUT_QUERY, "");
                        out.push((
                            resp.status,
                            resp.body == expected.as_bytes(),
                            resp.header("retry-after").and_then(|v| v.parse().ok()),
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread must not panic"))
            .collect()
    });

    // Exactly one response per request.
    assert_eq!(outcomes.len(), CLIENTS * REQUESTS_PER_CLIENT);
    let mut oks = 0u64;
    let mut sheds = 0u64;
    for (status, body_matches, retry_after) in &outcomes {
        match status {
            200 => {
                oks += 1;
                assert!(
                    body_matches,
                    "accepted responses must be byte-identical to the direct run"
                );
            }
            429 => {
                sheds += 1;
                let ra = retry_after.expect("shed responses carry a whole-second Retry-After");
                assert!((1..=30).contains(&ra), "Retry-After {ra} outside clamp");
            }
            other => panic!("unexpected status {other} under saturation"),
        }
    }
    assert!(oks > 0, "some requests must be served");
    assert!(
        sheds > 0,
        "4x clients over {PERMITS} permits must shed at least once"
    );

    // The gauge drains to zero and the counters add up.
    assert_eq!(metric_value(addr, "parj_server_inflight", ""), Some(0));
    assert_eq!(server.inflight(), 0);
    assert_eq!(metric_value(addr, "parj_server_panics_total", ""), Some(0));
    let shed_metric = metric_value(addr, "parj_server_shed_total", "").unwrap();
    assert!(shed_metric >= sheds, "every client-visible shed is counted");
    // `>=` because every /metrics scrape above also records a 200.
    let ok_metric = metric_value(addr, "parj_server_responses_total", "{status=\"200\"}").unwrap();
    assert!(
        ok_metric >= oks,
        "ok responses counted: {ok_metric} < {oks}"
    );

    let report = server.shutdown();
    assert_eq!(report.leaked, 0, "drain must leak nothing: {report}");
}

#[test]
fn per_client_quotas_reject_with_429() {
    let mut server = spawn(
        small_engine(),
        ServerConfig {
            quota: Some(Quota {
                burst: 2,
                per_sec: 0.1,
            }),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let q = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";
    let statuses: Vec<u16> = (0..5).map(|_| sparql_get(addr, q, "").status).collect();
    assert_eq!(&statuses[..2], &[200, 200], "burst admitted");
    assert!(
        statuses[2..].iter().all(|&s| s == 429),
        "over-quota rejected: {statuses:?}"
    );
    let rejects = metric_value(addr, "parj_server_quota_rejects_total", "").unwrap();
    assert_eq!(rejects, 3);
    // Quota rejects are not sheds.
    assert_eq!(metric_value(addr, "parj_server_shed_total", ""), Some(0));
    assert_eq!(server.shutdown().leaked, 0);
}

#[test]
fn disconnecting_client_cancels_its_query() {
    // A query that cannot finish within the wait below, so only the
    // close can end it; the engine's deadline is a backstop that keeps
    // a broken cancel path from hanging the shutdown.
    let engine = timed_fanout_engine(700, Duration::from_secs(30));
    let plan = engine.explain(ENDLESS_QUERY).unwrap();
    assert!(
        plan.contains("probe p0 S-O key=?3 value=?4\nproject"),
        "the empty probe must run last:\n{plan}"
    );
    let mut server = spawn(
        Arc::clone(&engine),
        ServerConfig {
            permits: 1,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();

    // Fire the endless query and immediately drop the connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "GET /sparql?query={} HTTP/1.1\r\nHost: t\r\n\r\n",
                urlencode(ENDLESS_QUERY)
            )
            .as_bytes(),
        )
        .unwrap();
    drop(stream);

    // The watcher notices the close, cancels the token, and the
    // engine records a cancelled query — within a bounded wait.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut cancelled = 0;
    while Instant::now() < deadline {
        cancelled =
            metric_value(addr, "parj_queries_total", "{outcome=\"cancelled\"}").unwrap_or(0);
        if cancelled >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        cancelled >= 1,
        "abandoned connection must cancel its in-flight query"
    );
    // The permit was freed: the server still serves (same single
    // permit) and drains clean.
    assert_eq!(metric_value(addr, "parj_server_inflight", ""), Some(0));
    assert_eq!(server.shutdown().leaked, 0);
}
