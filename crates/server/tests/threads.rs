//! Connection handlers are parked and reused, not spawned per request,
//! and the disconnect sweeper never cancels a query whose client is
//! still there. Alone in its own test binary: it counts the threads of
//! the whole process.
#![cfg(target_os = "linux")]

mod common;

use common::*;
use parj_server::ServerConfig;

const TEACHES: &str = "SELECT ?x ?z WHERE { ?x <http://e/teaches> ?z }";

/// The process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Threads of this process named `name`.
fn threads_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.trim() == name)
        })
        .count()
}

#[test]
fn sequential_requests_spawn_no_threads_and_cancel_nothing() {
    let mut server = spawn(small_engine(), ServerConfig::default());
    let addr = server.addr();
    for _ in 0..20 {
        assert_eq!(sparql_get(addr, TEACHES, "").status, 200);
    }
    let warm = threads();
    for _ in 0..500 {
        assert_eq!(sparql_get(addr, TEACHES, "").status, 200);
    }
    assert!(
        threads() <= warm,
        "{} threads after 500 requests, {warm} before",
        threads()
    );
    // One client, one request at a time: one parked handler serves all
    // of them, because a handler is free again before its socket closes.
    assert_eq!(threads_named("parj-conn"), 1);
    // A query that finished and deregistered while the sweeper was
    // peeking must not count as cancelled.
    let cancelled = metric_value(addr, "parj_queries_total", "{outcome=\"cancelled\"}");
    assert_eq!(cancelled.unwrap_or(0), 0);
    assert_eq!(server.shutdown().leaked, 0);
}
