//! Closed-loop HTTP serving benchmark over an in-process
//! [`parj_server::ParjServer`].
//!
//! Two phases (see EXPERIMENTS.md):
//!
//! 1. **Throughput sweep** — `1, 2, 4, 8` closed-loop clients issue the
//!    LUBM query mix over real sockets against a server with enough
//!    permits that nothing sheds; reported per configuration: qps, p50
//!    and p99 request latency, with the shared result cache off and on.
//! 2. **Overload run** — 8 clients against 2 permits with per-request
//!    cache bypass, verifying the load-shedding contract under
//!    saturation: every request answers 200 or 429, and the in-flight
//!    gauge drains to zero afterwards.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parj_core::SharedParj;
use parj_datagen::lubm;
use parj_server::{ParjServer, ServerConfig};
use serde_json::json;

use crate::report::fmt_ms;
use crate::setup::lubm_engine;
use crate::{Args, Table};

/// Requests each closed-loop client issues per configuration.
const REQUESTS_PER_CLIENT: usize = 24;

/// Client ladder for the throughput sweep.
const CLIENT_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Overload phase shape: `OVERLOAD_CLIENTS` against `OVERLOAD_PERMITS`.
const OVERLOAD_PERMITS: usize = 2;
const OVERLOAD_CLIENTS: usize = 8;

/// Minimal percent-encoder for the query string.
fn urlencode(s: &str) -> String {
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

/// Issues one `GET` over a fresh connection; returns the status code.
fn http_get(addr: SocketAddr, path: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect to bench server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .expect("write request");
    let mut raw = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    std::str::from_utf8(&raw)
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("well-formed status line")
}

/// `p`-th percentile (0..=100) of an unsorted sample, in milliseconds.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = (p / 100.0 * (samples.len() - 1) as f64).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// One sweep configuration: `clients` closed loops against `server`,
/// each issuing [`REQUESTS_PER_CLIENT`] requests cycling through the
/// query mix. Returns `(qps, p50_ms, p99_ms, statuses)`.
fn run_clients(
    addr: SocketAddr,
    clients: usize,
    paths: &[String],
) -> (f64, f64, f64, Vec<u16>) {
    let wall = Instant::now();
    let per_client: Vec<(Vec<f64>, Vec<u16>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    let mut statuses = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for i in 0..REQUESTS_PER_CLIENT {
                        // Offset per client so loops don't run in lockstep.
                        let path = &paths[(c + i) % paths.len()];
                        let t0 = Instant::now();
                        statuses.push(http_get(addr, path));
                        lat.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    (lat, statuses)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench client must not panic"))
            .collect()
    });
    let wall_s = wall.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = per_client.iter().flat_map(|(l, _)| l.clone()).collect();
    let statuses: Vec<u16> = per_client.into_iter().flat_map(|(_, s)| s).collect();
    let qps = statuses.len() as f64 / wall_s;
    let p50 = percentile(&mut latencies, 50.0);
    let p99 = percentile(&mut latencies, 99.0);
    (qps, p50, p99, statuses)
}

/// The serve benchmark (see module docs). One table per phase; the JSON
/// record mirrors both.
pub fn serve(args: &Args) -> (Vec<Table>, serde_json::Value) {
    let queries = lubm::queries();
    let paths: Vec<String> = queries
        .iter()
        .map(|q| format!("/sparql?query={}", urlencode(&q.sparql)))
        .collect();
    let bypass_paths: Vec<String> =
        paths.iter().map(|p| format!("{p}&no-cache=1")).collect();

    let mut sweep = Table::new(
        format!(
            "Serve throughput — LUBM U={}, {} queries/client, permits = clients",
            args.scale, REQUESTS_PER_CLIENT
        ),
        &["cache", "qps", "p50 (ms)", "p99 (ms)"],
    );
    let mut sweep_rows = Vec::new();

    for cache in [false, true] {
        // One engine thread per query: concurrency comes from the
        // admission gate, not from intra-query parallelism.
        let mut cfg = args.engine_config();
        cfg.threads = 1;
        cfg.cache = cache;
        let engine = Arc::new(SharedParj::new(lubm_engine(args.scale, cfg)));

        for clients in CLIENT_LADDER {
            let mut server = ParjServer::spawn(
                Arc::clone(&engine),
                ServerConfig {
                    permits: clients,
                    max_connections: 4 * clients.max(8),
                    ..ServerConfig::default()
                },
            )
            .expect("bind ephemeral bench port");
            let addr = server.addr();
            // Warm: one pass over the mix (fills the cache when on).
            for p in &paths {
                assert_eq!(http_get(addr, p), 200, "warm-up must succeed");
            }
            let (qps, p50, p99, statuses) = run_clients(addr, clients, &paths);
            assert!(
                statuses.iter().all(|&s| s == 200),
                "sweep is sized to never shed"
            );
            let report = server.shutdown();
            assert_eq!(report.leaked, 0, "bench server must drain clean");
            sweep.row(
                format!("{clients} client(s)"),
                vec![
                    if cache { "on" } else { "off" }.to_string(),
                    format!("{qps:.0}"),
                    fmt_ms(p50),
                    fmt_ms(p99),
                ],
            );
            sweep_rows.push(json!({
                "clients": clients, "cache": cache, "qps": qps,
                "p50_ms": p50, "p99_ms": p99,
                "requests": clients * REQUESTS_PER_CLIENT,
            }));
        }
    }

    // Overload: more clients than permits, per-request cache bypass so
    // every accepted request does real work.
    let mut cfg = args.engine_config();
    cfg.threads = 1;
    cfg.cache = false;
    let engine = Arc::new(SharedParj::new(lubm_engine(args.scale, cfg)));
    let mut server = ParjServer::spawn(
        Arc::clone(&engine),
        ServerConfig {
            permits: OVERLOAD_PERMITS,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral bench port");
    let addr = server.addr();
    let (qps, p50, p99, statuses) = run_clients(addr, OVERLOAD_CLIENTS, &bypass_paths);
    let oks = statuses.iter().filter(|&&s| s == 200).count();
    let sheds = statuses.iter().filter(|&&s| s == 429).count();
    assert_eq!(
        oks + sheds,
        statuses.len(),
        "overload answers are only ever 200 or 429"
    );
    let inflight = {
        // Scrape the gauge off the still-running server.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
            .expect("write");
        let mut body = String::new();
        let _ = stream.read_to_string(&mut body);
        body.lines()
            .find(|l| l.starts_with("parj_server_inflight "))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<u64>().ok())
            .expect("inflight gauge present")
    };
    assert_eq!(inflight, 0, "gauge must drain to zero after overload");
    let report = server.shutdown();
    assert_eq!(report.leaked, 0, "overload drain must leak nothing");

    let mut overload = Table::new(
        format!(
            "Overload — {OVERLOAD_CLIENTS} clients vs {OVERLOAD_PERMITS} permits, cache bypassed"
        ),
        &["served (200)", "shed (429)", "accepted qps", "p50 (ms)", "p99 (ms)"],
    );
    overload.row(
        "overload",
        vec![
            oks.to_string(),
            sheds.to_string(),
            format!("{:.0}", qps * oks as f64 / statuses.len().max(1) as f64),
            fmt_ms(p50),
            fmt_ms(p99),
        ],
    );

    (
        vec![sweep, overload],
        json!({
            "experiment": "serve", "dataset": "lubm", "scale": args.scale,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "query_mix": queries.iter().map(|q| q.name.clone()).collect::<Vec<_>>(),
            "sweep": sweep_rows,
            "overload": {
                "clients": OVERLOAD_CLIENTS, "permits": OVERLOAD_PERMITS,
                "served": oks, "shed": sheds,
                "p50_ms": p50, "p99_ms": p99,
                "inflight_after": inflight,
                "leaked": report.leaked,
            },
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_order_insensitive() {
        let mut s = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut s, 50.0), 3.0);
        assert_eq!(percentile(&mut s, 100.0), 5.0);
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn urlencode_round_trips_through_the_server_parser() {
        let q = "SELECT ?x WHERE { ?x <http://e/p> \"a b\" }";
        let params =
            parj_server::http::parse_urlencoded(format!("query={}", urlencode(q)).as_bytes())
                .expect("decodes");
        assert_eq!(params[0].1, q);
    }
}
